"""End-to-end command line behavior, output formats and exit codes."""

import csv
import json
import time

import pytest

import lefschetz.oracle
from lefschetz.cli import main, survey_rows
from lefschetz.classify import (
    CsmDecomposition,
    CsmPiece,
    HypothesisViolation,
    all_maci_grid,
    csm_decomposition,
    grid_from_json,
    support_two_grid,
    symmetric_grid,
)
from lefschetz.core import parse_ideal
from _util import hilbert_series_by_counting, survey_rows_per_spec

TOGLIATTI = "x1^3, x2^3, x3^3, x1*x2*x3"
GOLDEN = "x1^2, x2^3, x3^4, x4^5, x1*x2*x3*x4"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_command(capsys):
    code, out, _ = run(capsys, "hilbert", GOLDEN)
    assert code == 0
    assert "1, 4, 9, 15, 19, 19, 15, 9, 4, 1" in out


def test_hilbert_command_json(capsys):
    code, out, _ = run(capsys, "--json", "hilbert", GOLDEN)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"offset": 0, "coeffs": [1, 4, 9, 15, 19, 19, 15, 9, 4, 1]}


def test_hilbert_accepts_json_spec(capsys):
    spec = json.dumps({"n": 3, "a": [3, 3, 3], "m": [1, 1, 1]})
    code, out, _ = run(capsys, "--json", "hilbert", spec)
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 3, 6, 6, 3]


def test_hilbert_of_a_thousand_variable_spec_builds_no_ideal(capsys):
    # the spec's ideal holds 1,001,000 dense exponents, over the work budget,
    # but its series has a closed form: that of k[x1, x2]/(x1^2, x2^3, x1*x2)
    spec = json.dumps({"a": [2, 3] + [1] * 998, "m": [1, 1] + [0] * 998})
    start = time.perf_counter()
    code, out, err = run(capsys, "--json", "hilbert", spec)
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert json.loads(out) == {"offset": 0, "coeffs": [1, 2, 1]}


def test_hilbert_rejects_non_artinian(capsys):
    # x2 never gets a pure power once the variable count is declared
    code, _, err = run(capsys, "--nvars", "2", "hilbert", "x1^2")
    assert code == 1
    assert "Artinian" in err
    code, _, err = run(capsys, "hilbert", "x1^2, x1*x2")
    assert code == 1
    assert "Artinian" in err


@pytest.mark.parametrize("command", ["hilbert", "check", "classify"])
def test_non_artinian_ideal_is_refused_with_one_message(capsys, command):
    code, out, err = run(capsys, "--nvars", "3", command, "x1^2, x2^2, x1*x2")
    assert (code, out) == (1, "")
    assert err == "error: non-Artinian ideal: x3 has no pure power\n"


def test_hilbert_of_many_free_variables_restricts_only_the_linked_group(capsys):
    # 997 free squares and one linked pair: restricting every free variable
    # would scan the 1,000 generators once per variable
    text = ", ".join(f"x{j}^2" for j in range(1, 1000)) + ", x1*x2"
    start = time.perf_counter()
    code, out, err = run(capsys, "--json", "hilbert", text)
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    coeffs = json.loads(out)["coeffs"]
    assert len(coeffs) == 999 and sum(coeffs) == 3 * 2**997


def test_declared_variable_count_is_capped_before_any_monomial(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "--nvars", "3000000", "hilbert", "x1^2")
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err == "error: the declared variable count 3000000 exceeds 10000\n"


def test_survey_refuses_a_spec_whose_ideal_is_over_the_work_budget(tmp_path, capsys):
    # one spec, but its ideal holds 10^4 * (10^4 + 1) dense exponents
    grid = json.dumps({"family": "support_two", "n": 10_000, "max_exp": 2, "extra_exp": 1})
    out_path = tmp_path / "rows.csv"
    start = time.perf_counter()
    code, out, err = run(capsys, "survey", grid, "--out", str(out_path))
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err == "error: a table of 100010000 entries exceeds the budget of 1000000\n"
    assert not out_path.exists()


def test_survey_refuses_a_grid_whose_ideals_are_over_the_work_budget(tmp_path, capsys):
    # 998 specs pass the grid bound, but their ideals hold about 3.3 * 10^8
    # dense exponents, counted before any row is computed
    grid = json.dumps({"family": "support_two", "n": [2, 999], "max_exp": 2, "extra_exp": 1})
    out_path = tmp_path / "rows.csv"
    start = time.perf_counter()
    code, out, err = run(capsys, "survey", grid, "--out", str(out_path))
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err == "error: a table of 333332998 entries exceeds the budget of 1000000\n"
    assert not out_path.exists()


def test_survey_admits_the_benchmark_survey_grid():
    specs = grid_from_json({"family": "symmetric", "n": [2, 4], "max_socle": 8})
    rows = survey_rows(specs)
    assert len(rows) == len(specs) == 4894
    assert all(row.agreement is not False for row in rows)


def test_csm_of_a_thousand_variable_spec_is_quick(capsys):
    # two 999-variable complete-intersection pieces; their generators are
    # written from the exponents, with no ideal built
    spec = json.dumps({"a": [2, 3] + [1] * 998, "m": [1, 1] + [0] * 998})
    start = time.perf_counter()
    code, out, err = run(capsys, "csm", spec)
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert out.startswith("linear form: x2\n") and out.count("\n") == 4


def test_csm_of_complete_intersection_pieces_builds_no_ideal(capsys, monkeypatch):
    import lefschetz.core as core_mod

    def refuse(self, *args, **kwargs):
        raise AssertionError("a MonomialIdeal was built")

    monkeypatch.setattr(core_mod.MonomialIdeal, "__init__", refuse)
    code, out, err = run(capsys, "csm", _wide_spec(1000))
    assert (code, err) == (0, "")
    # both pieces are x1, ..., x999 after x2 is dropped and the rest renumbered
    gens = ", ".join(f"x{k}" for k in range(1, 1000))
    assert out.splitlines()[1:3] == [
        f"piece 1: ({gens}) in 999 variables, shift 0, multiplier 3",
        f"piece 2: ({gens}) in 999 variables, shift 1, multiplier 1",
    ]


def test_classify_reports_a_failed_obligation_on_a_wide_spec(capsys, monkeypatch):
    # the messages name the pieces by their exponent data: a dense ideal of
    # 1499 variables would exceed the work budget and hide the violation
    import lefschetz.classify as classify_mod

    classify_mod._certify_symmetric_class.cache_clear()
    monkeypatch.setattr(classify_mod, "coincides", lambda r1, r2: False)
    spec = json.dumps({"a": [2, 3, 4] + [1] * 1497, "m": [1, 1, 1] + [0] * 1497})
    code, out, err = run(capsys, "classify", spec)
    assert (code, out) == (2, "")
    assert err.startswith("internal hypothesis violation: ") and err.count("\n") == 1
    assert "widened reflecting degree of piece MaciSpec(" in err
    # every spec is written with its runs of equal exponents collapsed
    assert "MaciSpec(a=(2, 3, 4) + (1,) * 1497, m=(1, 1, 1) + (0,) * 1497)" in err
    assert len(err) < 1000


def test_hilbert_rejects_bad_syntax(capsys):
    code, _, err = run(capsys, "hilbert", "x1^^2")
    assert code == 1
    assert "offset 3" in err


def test_check_togliatti_wlp(capsys):
    code, out, _ = run(capsys, "check", "--wlp", TOGLIATTI)
    assert code == 0
    assert "wlp: false" in out
    assert "(i=2, t=1)" in out


def test_check_slp_two_variables(capsys):
    code, out, _ = run(capsys, "check", "--slp", "x1^2, x2^2, x1*x2")
    assert code == 0
    assert "slp: true" in out


def test_check_four_variable_failure(capsys):
    code, out, _ = run(capsys, "check", "--slp", "x1^4, x2^6, x3^2, x4^2, x1^2*x2^4")
    assert code == 0
    assert "slp: false" in out
    assert "failing maps:" in out


def test_check_json_payload(capsys):
    code, out, _ = run(capsys, "--json", "check", TOGLIATTI)
    assert code == 0
    payload = json.loads(out)
    assert payload["wlp"] is False and payload["slp"] is False
    assert [2, 1] in payload["witnesses"]
    assert payload["hilbert_series"]["coeffs"] == [1, 3, 6, 6, 3]


def test_check_matrix_dump(capsys):
    code, out, _ = run(capsys, "check", "--matrix", "2", "1", TOGLIATTI)
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[0] == ["1", "1", "0", "0", "0", "0"]
    assert len(rows) == 6


def test_check_matrix_dump_of_unit_quotient(capsys):
    code, out, err = run(capsys, "check", "--matrix", "0", "1", "x1^0, x2^3")
    assert code == 0
    assert out == "" and err == ""


@pytest.mark.parametrize(
    "text",
    [
        '{"a": [2.9, 3, 4], "m": [1, 1, 1]}',
        '{"a": [2, 3, 4], "m": [1, true, 1]}',
        '{"a": [2, 3, 4], "m": ["1", 1, 1]}',
        '{"a": "234", "m": [1, 1, 1]}',
        '{"n": 3.0, "a": [2, 3, 4], "m": [1, 1, 1]}',
        '{"a": [2, 3, 4]}',
        '{"m": [1, 1, 1]}',
        "x1^\uff102, x2^2, x1*x2",
        "x\u0661^2, x2^2, x1*x2",
        '{"a": [3, 3], "m": [1, 1], "M": [2, 2], "nn": 7}',
        "x10001^2",
        '{"a": [9223372036854775809, 3], "m": [9223372036854775808, 1]}',
        '{"a": [2, 3, 4], "m": [1, 1]}',
    ],
)
def test_strict_input_boundary(capsys, text):
    code, out, err = run(capsys, "hilbert", text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["hilbert", "check", "classify", "csm"])
def test_nvars_must_match_a_json_spec(capsys, command):
    spec = '{"a": [2, 3], "m": [1, 1]}'
    code, out, err = run(capsys, "--nvars", "5", command, spec)
    assert (code, out) == (1, "")
    assert err == "error: declared --nvars does not match the exponent vectors\n"
    answer = run(capsys, command, spec)
    assert answer[0] == 0 and run(capsys, "--nvars", "2", command, spec) == answer


def test_spec_json_names_unknown_keys(capsys):
    code, _, err = run(capsys, "check", '{"a": [3, 3], "m": [1, 1], "M": [2, 2], "nn": 7}')
    assert code == 1
    assert err == "error: unknown keys in the spec: M, nn\n"


def test_check_refuses_an_input_over_the_work_budget(capsys):
    # 40^5 standard monomials would be enumerated without the budget
    start = time.perf_counter()
    code, out, err = run(capsys, "check", '{"a":[40,40,40,40,40],"m":[1,1,1,1,1]}')
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err


def test_check_ignores_variables_that_vanish_in_the_quotient(capsys):
    # x3, ..., x70 lie in the ideal, so the quotient is the two-variable one;
    # more variables than numpy has array dimensions must not matter
    spec = json.dumps({"a": [2, 2] + [1] * 68, "m": [1, 1] + [0] * 68})
    code, out, err = run(capsys, "check", spec)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "check", "x1^2, x2^2, x1*x2")
    assert "slp: true" in out


def test_survey_of_seventy_variables_writes_its_row(tmp_path, capsys):
    grid = json.dumps({"family": "support_two", "n": 70, "max_exp": 2, "extra_exp": 1})
    out_path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "--jobs", "1", "survey", grid, "--out", str(out_path))
    assert (code, err) == (0, "")
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == "70" and row["a"] == " ".join(["2", "2"] + ["1"] * 68)
    assert (row["slp"], row["slp_predicted"], row["agreement"]) == ("true", "true", "true")


def test_check_refuses_a_power_table_over_the_budget_before_the_basis(capsys):
    # 2^19 - 1 standard monomials fit the budget, the 3^19-entry power table
    # does not; x1*x2*...*x19 links every variable into one factor
    text = ", ".join(f"x{j}^2" for j in range(1, 20)) + ", " + "*".join(f"x{j}" for j in range(1, 20))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", text)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err == "error: a table of 1162261467 entries exceeds the budget of 1000000\n"


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "x1^4, x2^6, x3^3, x4^3, x1^2*x2^3")
    assert code == 0
    assert "slp: true" in out and "almost_centered" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "--json", "classify", "x1^2, x2^3, x3^4, x1*x2*x3")
    assert code == 0
    payload = json.loads(out)
    assert payload["classified"] and payload["rule"] == "symmetric_hs"


def test_classify_falls_back_to_oracle(capsys):
    # support of size three, non-symmetric: no closed-form rule applies
    code, out, _ = run(capsys, "classify", "x1^3, x2^3, x3^3, x4^3, x1*x2*x3")
    assert code == 0
    assert "no classification rule applies" in out
    assert "oracle verdict" in out


def test_classify_rejects_non_maci(capsys):
    code, _, err = run(capsys, "classify", "x1^2, x2^2")
    assert code == 1
    assert "non-pure-power" in err


def test_csm_command(capsys):
    code, out, _ = run(capsys, "csm", "x1^2, x2^3, x3^4, x4^5, x1*x2*x3*x4")
    assert code == 0
    assert "piece 1" in out and "piece 2" in out
    assert "series identity: ok" in out


def test_csm_explicit_variable(capsys):
    code, out, _ = run(capsys, "--json", "csm", "--var", "3", "x1^2, x2^3, x3^4, x1*x2*x3")
    assert code == 0
    payload = json.loads(out)
    assert payload["variable"] == 3
    assert payload["series_identity"] is True
    assert len(payload["pieces"]) == 2


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, "check")
    assert code == 1
    assert "usage error" in err


def test_hypothesis_violation_exits_two(capsys, monkeypatch):
    import lefschetz.cli as cli_mod

    def boom(_spec):
        raise HypothesisViolation("synthetic failure")

    monkeypatch.setattr(cli_mod, "classify_maci", boom)
    code, _, err = run(capsys, "classify", "x1^2, x2^3, x1*x2")
    assert code == 2
    assert "hypothesis violation" in err


def test_csm_exits_two_when_the_pieces_miss_the_quotient_series(capsys, monkeypatch):
    import lefschetz.cli as cli_mod

    def shifted(spec, var=None):
        dec = csm_decomposition(spec, var)
        head = dec.pieces[0]
        tampered = CsmPiece(head.quotient, head.shift + 1, head.multiplier)
        return CsmDecomposition(dec.variable, (tampered,) + dec.pieces[1:])

    monkeypatch.setattr(cli_mod, "csm_decomposition", shifted)
    code, out, err = run(capsys, "csm", "x1^2, x2^3, x3^4, x1*x2*x3")
    assert (code, out) == (2, "")
    assert err.startswith("internal hypothesis violation: widened piece series sum to ")
    assert err.count("\n") == 1


def test_survey_csv_leaves_cells_empty_where_no_rule_applies(tmp_path, capsys):
    # a=(2, 2, 2), m=(1, 1, 1) has full support and a non-symmetric series
    grid = json.dumps({"family": "all_maci", "n": 3, "max_exp": 2})
    out_path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "--jobs", "1", "survey", grid, "--out", str(out_path))
    assert (code, err) == (0, "")
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    unclassified = [row for row in rows if row["slp_predicted"] == ""]
    assert [(row["a"], row["m"], row["agreement"]) for row in unclassified] == [
        ("2 2 2", "1 1 1", "")
    ]
    assert all(row["agreement"] == "true" for row in rows if row["slp_predicted"])


def test_survey_writes_csv_and_json_identically(tmp_path, capsys):
    grid = json.dumps({"family": "support_two", "n": [2, 2], "max_exp": 3})
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    code, out, _ = run(capsys, "survey", grid, "--out", str(csv_path))
    assert code == 0
    assert out == f"wrote 9 rows (6 relabeling classes) to {csv_path}; disagreements: 0\n"
    code, _, _ = run(capsys, "survey", grid, "--out", str(json_path), "--format", "json")
    assert code == 0

    with open(json_path) as fh:
        json_rows = json.load(fh)
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        csv_rows = list(reader)
    assert len(csv_rows) == len(json_rows) == 9

    def parse_cell(text):
        if text == "":
            return None
        if text in ("true", "false"):
            return text == "true"
        return text

    for got, want in zip(csv_rows, json_rows):
        assert int(got["n"]) == want["n"]
        assert [int(v) for v in got["a"].split()] == want["a"]
        assert [int(v) for v in got["m"].split()] == want["m"]
        for col in ("symmetric", "almost_centered", "wlp", "slp", "slp_predicted", "agreement"):
            assert parse_cell(got[col]) == want[col], col
        float(got["ms"])  # wall time varies between the two runs


def test_survey_formats_round_trip_one_row_set(tmp_path):
    from lefschetz.cli import write_survey_csv, write_survey_json

    rows = survey_rows(support_two_grid([2], 3))
    csv_path = tmp_path / "same.csv"
    json_path = tmp_path / "same.json"
    with open(csv_path, "w", newline="") as fh:
        write_survey_csv(rows, fh)
    with open(json_path, "w") as fh:
        write_survey_json(rows, fh)
    with open(json_path) as fh:
        json_rows = json.load(fh)
    with open(csv_path, newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    assert len(csv_rows) == len(json_rows) == len(rows)
    header = "n,a,m,symmetric,almost_centered,wlp,slp,slp_predicted,agreement,ms"
    assert csv_path.read_text().splitlines()[0] == header
    assert all(list(row) == header.split(",") for row in json_rows)
    for got, want in zip(csv_rows, json_rows):
        assert [int(v) for v in got["a"].split()] == want["a"]
        assert float(got["ms"]) == want["ms"]
        assert (got["slp"] == "true") == want["slp"]


def test_survey_grid_from_file(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"family": "support_two", "n": [2, 2], "max_exp": 3}))
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "survey", f"@{grid_file}", "--out", str(out_path))
    assert code == 0
    assert out_path.exists()


def test_survey_discrepancy_exits_three(tmp_path, capsys, monkeypatch):
    import lefschetz.cli as cli_mod

    class FakeVerdict:
        slp = False

    monkeypatch.setattr(cli_mod, "classify_maci", lambda spec: FakeVerdict())
    grid = json.dumps({"family": "support_two", "n": [2, 2], "max_exp": 2})
    code, out, _ = run(capsys, "survey", grid, "--out", str(tmp_path / "rows.csv"))
    assert code == 3
    assert "disagreements: 1" in out


def _strip(rows):
    return [
        (r.n, r.a, r.m, r.symmetric, r.almost_centered, r.wlp, r.slp, r.slp_predicted, r.agreement)
        for r in rows
    ]


def test_survey_rows_shape_and_parallel_consistency():
    # 36 specs in 21 relabeling classes, more than one 16-class chunk, so
    # two jobs start a real pool
    grid = support_two_grid([2], 4)
    serial = survey_rows(grid, jobs=1)
    assert all(row.agreement is True for row in serial)
    assert all((row.agreement is None) == (row.slp_predicted is None) for row in serial)
    parallel = survey_rows(grid, jobs=2)
    assert _strip(serial) == _strip(parallel)


def test_survey_rows_caps_the_worker_count(monkeypatch):
    import os

    import lefschetz.cli as cli_mod

    started = []

    class FakePool:
        # records the pool it was asked for and maps in-process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, keys, chunksize):
            started.append(("chunksize", chunksize))
            return map(fn, keys)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", FakePool)
    grid = symmetric_grid([2, 3], 5)  # 176 specs in 38 classes: three 16-class chunks
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    rows = survey_rows(grid, jobs=1000)
    assert started == [3, ("chunksize", 16)]
    assert _strip(rows) == _strip(survey_rows(grid, jobs=1))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    survey_rows(grid, jobs=1000)
    assert started[2:] == [2, ("chunksize", 16)]
    del started[:]
    survey_rows(grid, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    survey_rows(grid, jobs=1000)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    survey_rows(support_two_grid([2], 3), jobs=8)  # 9 specs in 6 classes: one chunk
    assert survey_rows([], jobs=8) == []
    assert started == []
    # the cap counts classes, not labeled specs: 36 specs in 21 classes
    survey_rows(support_two_grid([2], 4), jobs=1000)
    assert started == [2, ("chunksize", 16)]


@pytest.mark.parametrize(
    "grid",
    [
        support_two_grid([2, 3], 3),  # 36 specs in 24 classes
        symmetric_grid([2, 3], 6),  # 332 specs in 70 classes
        list(all_maci_grid([2, 3], 3)),  # 117 specs in 34 classes
    ],
    ids=["support_two", "symmetric", "all_maci"],
)
def test_survey_rows_per_class_match_the_per_spec_sweep(grid):
    reference = survey_rows_per_spec(grid)
    first_of_class = {}
    for index, spec in enumerate(grid):
        first_of_class.setdefault(spec.relabeling_class(), index)
    for jobs in (1, 2):
        rows = survey_rows(grid, jobs=jobs)
        assert _strip(rows) == _strip(reference)
        for index, (spec, row) in enumerate(zip(grid, rows)):
            if first_of_class[spec.relabeling_class()] == index:
                assert row.ms > 0.0
            else:
                assert row.ms == 0.0
    assert sum(1 for row in rows if row.ms > 0.0) == len(first_of_class) < len(grid)


def test_survey_rows_accept_any_iterable_of_specs():
    grid = support_two_grid([2], 3)
    assert _strip(survey_rows(iter(grid))) == _strip(survey_rows(grid))


@pytest.mark.parametrize(
    "argv",
    [
        ("hilbert", "x1^30000, x2^30000"),
        ("classify", '{"a":[3000,6000,9000],"m":[1,3000,3000]}'),
        # 1 * 2 + 2 * 2 + ... + 3000 * 2 multiply-adds for the 3,000 boxes 1 + t
        ("hilbert", json.dumps({"a": [2] * 3000, "m": [1, 1] + [0] * 2998})),
        ("classify", json.dumps({"a": [2, 3, 4] + [2] * 2000, "m": [1, 1, 1] + [0] * 2000})),
        ("hilbert", ", ".join(f"x{j}^300" for j in range(1, 11))),  # 4,039,500 multiply-adds
        # the series is checked before a piece is widened by a box of 10^12 ones
        ("csm", '{"a":[2,1000000000000],"m":[1,1]}'),
    ],
)
def test_series_over_the_work_budget_is_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1


def test_hilbert_multiplies_a_skewed_closed_form(capsys):
    # (1 + t + ... + t^999)(1 + t) takes about 2,000 multiply-adds; check
    # prints the same series, but writes 500,500 records to do so
    for text in ("x1^1000, x2^2, x1*x2", "x1^1000, x2^2, x1*x2, x3^2, x4^2, x3*x4"):
        start = time.perf_counter()
        code, out, err = run(capsys, "--json", "hilbert", text)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert json.loads(out) == hilbert_series_by_counting(parse_ideal(text)).as_dict()


@pytest.mark.parametrize(
    "text, entries",
    [
        # the rank table of socle 1,000 is over the budget
        ("x1^1000, x2^2, x1*x2, x3^2, x4^2, x3*x4", 1002001),
        # the second group's power table, 199^3, is refused first, as before
        ("x1^1000, x2^2, x1*x2, x3^100, x4^100, x5^100, x3*x4*x5", 7880599),
    ],
)
def test_check_refuses_an_over_budget_tensor_report_before_ranking(capsys, monkeypatch, text, entries):
    def never(ideal):
        raise AssertionError(f"ranked {ideal}")

    monkeypatch.setattr(lefschetz.oracle, "_scheduled_ranks", never)
    lefschetz.oracle._component.cache_clear()
    start = time.perf_counter()
    code, out, err = run(capsys, "check", text)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == f"error: a table of {entries} entries exceeds the budget of 1000000\n"


def _wide_spec(n):
    # a = (2, 3, 1, ..., 1), m = (1, 1, 0, ..., 0) in n variables
    return json.dumps({"a": [2, 3] + [1] * (n - 2), "m": [1, 1] + [0] * (n - 2)})


def test_classify_reads_a_json_spec_without_building_its_ideal(capsys):
    # the ideal of 1,000 variables would hold 1000 * 1001 dense exponents
    start = time.perf_counter()
    code, out, err = run(capsys, "--json", "classify", _wide_spec(1000))
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert json.loads(out)["rule"] == "n_eq_2"


def test_csm_refuses_a_piece_ideal_over_the_work_budget(capsys):
    # the complete-intersection head piece would be displayed with 1999^2 exponents
    start = time.perf_counter()
    code, out, err = run(capsys, "csm", _wide_spec(2000))
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err == "error: a table of 3996001 entries exceeds the budget of 1000000\n"


def test_hilbert_counts_two_cross_generators_within_the_work_budget(capsys):
    # no closed form: 3 * 200^3 basis exponents would be enumerated
    start = time.perf_counter()
    code, out, err = run(capsys, "hilbert", "x1^200, x2^200, x3^200, x1*x2, x2*x3")
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err == "error: a table of 24000000 entries exceeds the budget of 1000000\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_survey_rejects_bad_jobs(tmp_path, capsys, jobs):
    grid = json.dumps({"family": "support_two", "n": [2, 2], "max_exp": 3})
    out_path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "--jobs", jobs, "survey", grid, "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"
    assert not out_path.exists()


def test_unknown_grid_family_exits_one(tmp_path, capsys):
    grid = json.dumps({"family": "nope"})
    code, _, err = run(capsys, "survey", grid, "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "unknown grid family" in err


@pytest.mark.parametrize(
    "grid",
    [
        {"family": "support_two", "n": [3, 2], "max_exp": 3},
        {"family": "symmetric", "n": [2, 3], "max_socle": "5"},
        {"family": "support_two", "n": [2, 2], "max_exp": 3, "bogus": 1},
        {"family": "symmetric", "n": [2, 3], "max_socel": 3},
        {"n": [2, 2], "max_exp": 3},
        {"family": "all_maci", "n": 1, "max_exp": 3},
        {"family": "all_maci", "n": [2, True], "max_exp": 3},
        {"family": "support_two", "n": 2, "max_exp": 3.0},
        {"family": "support_two", "n": 2, "extra_exp": 0},
        {"family": "support_two", "n": [2, 10**12], "max_exp": 2, "extra_exp": 1},
        {"family": ["symmetric"]},
        [{"family": "symmetric"}],
    ],
)
def test_survey_rejects_bad_grid(tmp_path, capsys, grid):
    out_path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "survey", json.dumps(grid), "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["check", "survey", "survey @file"])
def test_deeply_nested_json_is_one_line_error(tmp_path, capsys, command):
    # nesting beyond the decoder's recursion limit
    text = '{"a":' + "[" * 100_000
    deep = tmp_path / "deep.json"
    deep.write_text(text, encoding="utf-8")
    out_path = tmp_path / "rows.csv"
    argv = {
        "check": ["check", text],
        "survey": ["survey", text, "--out", str(out_path)],
        "survey @file": ["survey", f"@{deep}", "--out", str(out_path)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: JSON input is nested too deeply\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "grid",
    [
        {"family": "all_maci", "n": [2, 12], "max_exp": 4},
        # one spec per n, but 5 * 10^7 exponents in all
        {"family": "support_two", "n": [2, 10_000], "max_exp": 2, "extra_exp": 1},
        {"family": "symmetric", "n": 2, "max_socle": 998},
        {"family": "symmetric", "n": [2, 10_000], "max_socle": 3},
        {"family": "all_maci", "n": 10_000, "max_exp": 10**18},
    ],
)
def test_survey_refuses_a_grid_over_the_work_budget(tmp_path, capsys, grid):
    # each grid would be enumerated, spec by spec, without the budget
    out_path = tmp_path / "big.csv"
    start = time.perf_counter()
    code, out, err = run(capsys, "--jobs", "1", "survey", json.dumps(grid), "--out", str(out_path))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1
    assert not out_path.exists()


# `lefschetz csm` output, text and --json, recorded before the pieces became
# exponent data; the JSON is compared byte for byte through json.dumps
CSM_GOLDEN = [
    (
        ("x1^2, x2^3, x3^4, x4^5, x1*x2*x3*x4",),
        "linear form: x4\n"
        "piece 1: (x1^2, x1*x2*x3, x2^3, x3^4) in 3 variables, shift 0, multiplier 5\n"
        "piece 2: (x1, x2^2, x3^3) in 3 variables, shift 3, multiplier 1\n"
        "series identity: ok (1 + 4t + 9t^2 + 15t^3 + 19t^4 + 19t^5 + 15t^6 + 9t^7 + 4t^8 + t^9)\n",
        {"variable": 4, "pieces": [
            {"generators": [[2, 0, 0], [1, 1, 1], [0, 3, 0], [0, 0, 4]], "n": 3, "shift": 0,
             "multiplier": 5,
             "widened_series": {"offset": 0, "coeffs": [1, 4, 9, 14, 17, 17, 14, 9, 4, 1]}},
            {"generators": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "n": 3, "shift": 3, "multiplier": 1,
             "widened_series": {"offset": 3, "coeffs": [1, 2, 2, 1]}},
        ], "series_identity": True},
    ),
    (
        # p_var = 0: a tensor factor, one piece
        ("--var", "3", '{"a": [2, 3, 7], "m": [1, 1, 0]}'),
        "linear form: x3\n"
        "piece 1: (x1^2, x1*x2, x2^3) in 2 variables, shift 0, multiplier 7\n"
        "series identity: ok (1 + 3t + 4t^2 + 4t^3 + 4t^4 + 4t^5 + 4t^6 + 3t^7 + t^8)\n",
        {"variable": 3, "pieces": [
            {"generators": [[2, 0], [1, 1], [0, 3]], "n": 2, "shift": 0, "multiplier": 7,
             "widened_series": {"offset": 0, "coeffs": [1, 3, 4, 4, 4, 4, 4, 3, 1]}},
        ], "series_identity": True},
    ),
    (
        # two variables: both pieces are one-variable complete intersections
        ("x1^3, x2^3, x1*x2",),
        "linear form: x2\n"
        "piece 1: (x1) in 1 variables, shift 0, multiplier 3\n"
        "piece 2: (x1^2) in 1 variables, shift 1, multiplier 1\n"
        "series identity: ok (1 + 2t + 2t^2)\n",
        {"variable": 2, "pieces": [
            {"generators": [[1]], "n": 1, "shift": 0, "multiplier": 3,
             "widened_series": {"offset": 0, "coeffs": [1, 1, 1]}},
            {"generators": [[2]], "n": 1, "shift": 1, "multiplier": 1,
             "widened_series": {"offset": 1, "coeffs": [1, 1]}},
        ], "series_identity": True},
    ),
    (
        # the truncated generator x1 merges with x1^2: a complete intersection head
        ("x1^2, x2^3, x3^5, x1*x3^2",),
        "linear form: x3\n"
        "piece 1: (x1, x2^3) in 2 variables, shift 0, multiplier 5\n"
        "piece 2: (x1, x2^3) in 2 variables, shift 1, multiplier 2\n"
        "series identity: ok (1 + 3t + 5t^2 + 5t^3 + 4t^4 + 2t^5 + t^6)\n",
        {"variable": 3, "pieces": [
            {"generators": [[1, 0], [0, 3]], "n": 2, "shift": 0, "multiplier": 5,
             "widened_series": {"offset": 0, "coeffs": [1, 2, 3, 3, 3, 2, 1]}},
            {"generators": [[1, 0], [0, 3]], "n": 2, "shift": 1, "multiplier": 2,
             "widened_series": {"offset": 1, "coeffs": [1, 2, 2, 1]}},
        ], "series_identity": True},
    ),
]


@pytest.mark.parametrize("argv, text, payload", CSM_GOLDEN)
def test_csm_output_is_unchanged(capsys, argv, text, payload):
    code, out, _ = run(capsys, "csm", *argv)
    assert code == 0
    assert out == text
    code, out, _ = run(capsys, "--json", "csm", *argv)
    assert code == 0
    assert out == json.dumps(payload) + "\n"
