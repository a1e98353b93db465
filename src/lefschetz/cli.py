"""Command line front end.

Subcommands: hilbert, check, classify, csm, survey.  Ideals are given either
in the text grammar (x1^3, x2^3, x1*x2) or as a JSON object
{"n": ..., "a": [...], "m": [...]} describing pure powers plus the extra
generator.  Exit codes: 0 success, 1 usage or parse error, 2 internal
hypothesis violation, 3 survey found a disagreement between a classification
rule and the rank oracle.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

from .analysis import is_almost_centered, is_symmetric
from .classify import classify_maci, csm_decomposition, grid_from_json
from .core import check_table_size, parse_ideal, render_monomial
from .oracle import HypothesisViolation, lefschetz_report, multiplication_matrix
from .series import MaciSpec, hilbert_series, maci_from_ideal


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved here, so turn
    # usage problems into ordinary errors mapped to exit code 1
    def error(self, message):
        raise UsageError(message)


def _load_json(text):
    """Decoded JSON input; nesting too deep for the decoder is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _json_spec(text, nvars):
    """The MaciSpec of a JSON spec, whose n a --nvars must match, or None for ideal text."""
    if not text.strip().startswith("{"):
        return None
    spec = MaciSpec.from_dict(_load_json(text))
    if nvars not in (None, spec.n):
        raise ValueError("declared --nvars does not match the exponent vectors")
    return spec


def _load_spec(text, nvars=None):
    """A MaciSpec straight from a JSON spec, or recovered from ideal text."""
    spec = _json_spec(text, nvars)
    return maci_from_ideal(parse_ideal(text, n=nvars)) if spec is None else spec


def _load_grid(text):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    return grid_from_json(_load_json(text))


@dataclass
class SurveyRow:
    n: int
    a: tuple
    m: tuple
    symmetric: bool
    almost_centered: bool
    wlp: bool
    slp: bool
    slp_predicted: object  # bool or None when no rule applies
    agreement: object  # bool or None, exactly when slp_predicted is None
    ms: float


SURVEY_COLUMNS = tuple(f.name for f in fields(SurveyRow))
_SURVEY_CHUNK = 16


def _survey_one(key):
    spec = MaciSpec(key[0], key[1])
    start = time.perf_counter()
    verdict = classify_maci(spec)
    report = lefschetz_report(spec.ideal())
    ms = round((time.perf_counter() - start) * 1000.0, 3)
    predicted = None if verdict is None else verdict.slp
    return SurveyRow(
        n=spec.n,
        a=spec.a,
        m=tuple(spec.m),
        symmetric=is_symmetric(report.series),
        almost_centered=is_almost_centered(report.series),
        wlp=report.wlp,
        slp=report.slp,
        slp_predicted=predicted,
        agreement=None if predicted is None else report.slp == predicted,
        ms=ms,
    )


def survey_rows(specs, jobs=1):
    """One row per spec, in grid order regardless of parallelism.

    Renaming the variables gives an isomorphic quotient and fixes
    l = x1 + ... + xn, so every column but n, a, m is the same across a
    relabeling class (MaciSpec.relabeling_class).  Each class is computed
    once, on its first spec in grid order; the other specs of the class get
    a copy of that row with their own n, a and m.  The ms column is the time
    spent computing the row: the first row of a class carries it and the
    copies read 0.0, so the ms column sums to the sweep's busy time.

    At most jobs worker processes are started, and never more than there
    are cores or chunks of classes; with one worker the sweep runs
    in-process.  Before any starts, the n (n + 1) dense exponents of the
    ideals the rows will build are counted against the work budget.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    specs = list(specs)
    first = {}
    for index, spec in enumerate(specs):
        first.setdefault(spec.relabeling_class(), index)
    keys = [(specs[i].a, tuple(specs[i].m)) for i in first.values()]
    check_table_size((sum(len(a) * (len(a) + 1) for a, _ in keys),))
    chunks = -(-len(keys) // _SURVEY_CHUNK)
    workers = min(jobs, os.cpu_count() or 1, chunks)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(_survey_one, keys, chunksize=_SURVEY_CHUNK))
    else:
        computed = [_survey_one(k) for k in keys]
    by_class = dict(zip(first, computed))
    rows = []
    for index, spec in enumerate(specs):
        cls = spec.relabeling_class()
        row = by_class[cls]
        if first[cls] != index:
            row = replace(row, n=spec.n, a=spec.a, m=tuple(spec.m), ms=0.0)
        rows.append(row)
    return rows


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return " ".join(str(v) for v in value)
    return str(value)


def write_survey_csv(rows, fh):
    writer = csv.writer(fh)
    writer.writerow(SURVEY_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(getattr(row, name)) for name in SURVEY_COLUMNS])


def write_survey_json(rows, fh):
    fh.write("[")  # one compact record per line, so json uses its C encoder
    for k, row in enumerate(rows):
        fh.write(("," if k else "") + "\n" + json.dumps({c: getattr(row, c) for c in SURVEY_COLUMNS}))
    fh.write("\n]\n")


def _emit(args, payload, human):
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def cmd_hilbert(args):
    # a JSON spec has a closed form, so its ideal is never built
    spec = _json_spec(args.ideal, args.nvars)
    series = hilbert_series(parse_ideal(args.ideal, n=args.nvars)) if spec is None else spec.series()
    human = f"{series.to_text()}\ncoefficients: {', '.join(str(c) for c in series.coeffs)}"
    _emit(args, series.as_dict(), human)
    return 0


def cmd_check(args):
    spec = _json_spec(args.ideal, args.nvars)
    ideal = parse_ideal(args.ideal, n=args.nvars) if spec is None else spec.ideal()
    if args.matrix is not None:
        i, t = args.matrix
        for row in multiplication_matrix(ideal, i, t):
            print(" ".join(str(x) for x in row))
        return 0
    report = lefschetz_report(ideal)
    lines = [f"hilbert series: {report.series.to_text()}"]
    if args.wlp or not args.slp:
        wlp_wit = [w for w in report.witnesses if w[1] == 1]
        lines.append(f"wlp: {str(report.wlp).lower()}")
        if wlp_wit:
            lines.append("failing wlp maps: " + ", ".join(f"(i={i}, t={t})" for i, t in wlp_wit))
    if args.slp or not args.wlp:
        lines.append(f"slp: {str(report.slp).lower()}")
        if report.witnesses:
            lines.append(
                "failing maps: " + ", ".join(f"(i={i}, t={t})" for i, t in report.witnesses)
            )
    _emit(args, report.as_dict(), "\n".join(lines))
    return 0


def cmd_classify(args):
    spec = _load_spec(args.ideal, args.nvars)
    verdict = classify_maci(spec)
    if verdict is None:
        # no closed-form rule covers this spec; fall back to the oracle
        report = lefschetz_report(spec.ideal())
        payload = {"classified": False, "oracle": {"wlp": report.wlp, "slp": report.slp}}
        human = (
            "no classification rule applies; oracle verdict: "
            f"wlp {str(report.wlp).lower()}, slp {str(report.slp).lower()}"
        )
        _emit(args, payload, human)
        return 0
    payload = {"classified": True, **verdict.as_dict()}
    human = f"slp: {str(verdict.slp).lower()} (rule: {verdict.rule})"
    _emit(args, payload, human)
    return 0


def cmd_csm(args):
    spec = _load_spec(args.ideal, args.nvars)
    var = None if args.var is None else args.var - 1
    series = spec.series()  # within the budget, so the multipliers are bounded too
    dec = csm_decomposition(spec, var)
    total = dec.total_series()
    if total != series:
        raise HypothesisViolation(
            f"widened piece series sum to {total.as_dict()} but the quotient has {series.as_dict()}"
        )
    payload = dec.as_dict()
    payload["series_identity"] = True
    lines = [f"linear form: x{dec.variable + 1}"]
    for k, piece in enumerate(dec.pieces, start=1):
        gens = ", ".join(render_monomial(g) for g in piece.generators)
        lines.append(
            f"piece {k}: ({gens}) in {piece.n} variables, "
            f"shift {piece.shift}, multiplier {piece.multiplier}"
        )
    lines.append(f"series identity: ok ({series.to_text()})")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_survey(args):
    specs = _load_grid(args.grid)
    rows = survey_rows(specs, jobs=args.jobs)
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out.endswith(".json") else "csv"
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            write_survey_csv(rows, fh)
        else:
            write_survey_json(rows, fh)
    disagreements = sum(1 for r in rows if r.agreement is False)
    classes = len({spec.relabeling_class() for spec in specs})
    print(
        f"wrote {len(rows)} rows ({classes} relabeling classes) to {args.out}; "
        f"disagreements: {disagreements}"
    )
    return 3 if disagreements else 0


def _build_parser():
    parser = _Parser(
        prog="lefschetz",
        description="Hilbert series and Lefschetz properties of Artinian monomial algebras",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for survey, at least 1; no more start than there are "
        "cores or chunks of 16 relabeling classes (default: available cores)",
    )
    parser.add_argument(
        "--nvars",
        type=int,
        default=None,
        help="declared variable count (default: highest index used)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert series of an Artinian quotient")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("check", help="weak/strong Lefschetz verdict by exact ranks")
    p.add_argument("ideal")
    p.add_argument("--wlp", action="store_true", help="report only the weak property")
    p.add_argument("--slp", action="store_true", help="report only the strong property")
    p.add_argument(
        "--matrix",
        nargs=2,
        type=int,
        metavar=("I", "T"),
        default=None,
        help="dump the matrix of l^T from degree I instead of checking",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="closed-form classification when a rule applies")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("csm", help="central simple module decomposition of a spec")
    p.add_argument("ideal")
    p.add_argument("--var", type=int, default=None, help="1-based variable index to use")
    p.set_defaults(func=cmd_csm)

    p = sub.add_parser("survey", help="sweep a grid and cross-verify against the oracle")
    p.add_argument("grid", help='JSON like {"family": "support_two", "n": [2, 3], "max_exp": 4} or @file')
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HypothesisViolation as exc:
        print(f"internal hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
