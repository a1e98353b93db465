"""Fuzzing of the command line input boundary.

Whatever the ideal text, declared variable count, JSON spec or survey grid,
``lefschetz`` must answer (exit 0), refuse with one line on stderr (exit 1)
or report a survey disagreement (exit 3), never print a traceback, and
finish quickly: work is bounded before it starts.  Exponents mix small
values with 10^12, whose boxes no budget admits, and 2^70, past the 63-bit
guard.
"""

import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lefschetz.cli import main

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

EXPONENTS = st.sampled_from([1, 2, 3, 4, 5, 6, 10**12, 2**70])
COMMANDS = st.sampled_from(["hilbert", "check", "classify", "csm"])
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _exits_cleanly(argv):
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    err = err.getvalue()
    assert code in (0, 1, 3), (argv, code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    assert elapsed < 5, (argv, elapsed)


@st.composite
def json_specs(draw):
    n = draw(st.integers(1, 4))
    a = draw(st.lists(EXPONENTS, min_size=n, max_size=n))
    m = [draw(st.one_of(st.integers(0, min(ai - 1, 6)), st.just(ai - 1))) for ai in a]
    spec = {"a": a, "m": m}
    if draw(st.booleans()):
        spec["n"] = n
    return spec


@st.composite
def ideal_texts(draw):
    n = draw(st.integers(1, 4))
    pure = [[(j, draw(EXPONENTS))] for j in range(1, n + 1)]
    monomial = st.lists(st.tuples(st.integers(1, n), EXPONENTS), min_size=1, max_size=3)
    gens = draw(st.permutations(pure + draw(st.lists(monomial, max_size=3))))
    # dropping the first generator leaves some ideals without a pure power
    return ", ".join("*".join(f"x{j}^{e}" for j, e in g) for g in gens[draw(st.integers(0, 1)):])


@FUZZ
@given(command=COMMANDS, spec=json_specs())
@example(command="csm", spec={"a": [2, 10**12], "m": [1, 1]})
def test_json_specs_exit_cleanly(command, spec):
    _exits_cleanly([command, json.dumps(spec)])


@FUZZ
@given(command=COMMANDS, text=ideal_texts(), nvars=st.none() | st.integers(1, 5))
def test_ideal_texts_exit_cleanly(command, text, nvars):
    declared = [] if nvars is None else ["--nvars", str(nvars)]
    _exits_cleanly(declared + [command, text])


GRIDS = st.one_of(
    st.fixed_dictionaries(
        {"family": st.just("support_two"), "n": st.integers(2, 3), "max_exp": st.integers(2, 3)},
        optional={"extra_exp": EXPONENTS},
    ),
    st.fixed_dictionaries(
        {"family": st.just("symmetric"), "n": st.integers(2, 3), "max_socle": st.integers(1, 4)},
        optional={"max_exp": EXPONENTS},
    ),
    st.fixed_dictionaries(
        {"family": st.just("all_maci"), "n": st.integers(2, 3), "max_exp": st.integers(2, 3)}
    ),
    st.fixed_dictionaries({"family": st.sampled_from(["all_maci", "cubes"]), "n": EXPONENTS}),
)


@settings(FUZZ, max_examples=60)
@given(grid=GRIDS)
def test_survey_grids_exit_cleanly(grid):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rows.csv")
        _exits_cleanly(["--jobs", "1", "survey", json.dumps(grid), "--out", out])
