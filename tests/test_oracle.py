"""Multiplication matrices, exact ranks and Lefschetz reports."""

import json
import time
from collections import Counter
from functools import lru_cache
from math import factorial, isqrt, prod

import numpy as np
import pytest

import lefschetz.oracle
import lefschetz.series
from lefschetz import (
    HilbertSeries,
    HypothesisViolation,
    MaciSpec,
    Monomial,
    MonomialIdeal,
    hilbert_series,
    lefschetz_report,
    matrix_rank,
    multiplication_matrix,
    parse_ideal,
    pure_power,
    standard_monomial_table,
    support_two_grid,
    symmetric_grid,
)
from lefschetz.classify import all_maci_grid
from lefschetz.cli import survey_rows
from lefschetz.core import tensor_factors
from lefschetz.oracle import (
    _PRIME,
    _PRIMES,
    _REDUCE_EVERY,
    _certified_rank,
    _echelon_mod_prime,
    _free_strings,
    _integer_kernel,
    _power_table,
    _rational,
)
from _util import (
    contains,
    echelon_mod_prime_by_ints,
    echelon_mod_prime_stepwise,
    free_strings_one_at_a_time,
    integer_kernel_per_entry,
    jordan_type,
    lefschetz_report_all_cells,
    map_at,
    multiplication_matrix_by_entries,
    rand_artinian_ideal,
    rand_maci,
    ranks_from_components,
    seeded,
    separate_components,
    standard_monomials,
    tensor_map_full_rank,
    times,
)

TOGLIATTI = parse_ideal("x1^3, x2^3, x3^3, x1*x2*x3")


def test_matrix_square_of_form_on_two_squares():
    # (x + y)^2 = x^2 + 2xy + y^2 reduces to 2xy mod (x^2, y^2)
    ideal = parse_ideal("x1^2, x2^2")
    assert multiplication_matrix(ideal, 0, 2) == [[2]]


def test_matrix_beyond_socle_has_no_rows():
    ideal = parse_ideal("x1^2, x2^2")
    assert multiplication_matrix(ideal, 2, 1) == []
    assert multiplication_matrix(ideal, 0, 5) == []


def test_matrix_togliatti_middle_cell():
    mat = multiplication_matrix(TOGLIATTI, 2, 1)
    assert mat == [
        [1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 1],
    ]
    assert matrix_rank(mat) == 5


def test_matrix_validation():
    with pytest.raises(ValueError):
        multiplication_matrix(TOGLIATTI, 0, 0)
    with pytest.raises(ValueError):
        multiplication_matrix(TOGLIATTI, -1, 1)
    with pytest.raises(ValueError, match="non-Artinian"):
        multiplication_matrix(parse_ideal("x1^2, x1*x2"), 0, 1)


def test_matrix_column_sums_at_t_one():
    rng = seeded(101)
    for _ in range(60):
        ideal = rand_artinian_ideal(rng, rng.randint(2, 3), max_bound=4, extra=2)
        if ideal.is_unit():
            continue
        top = hilbert_series(ideal).socle_degree
        for i in range(top):
            mat = multiplication_matrix(ideal, i, 1)
            src = standard_monomials(ideal, i)
            if not mat or not src:
                continue
            sums = [sum(row[k] for row in mat) for k in range(len(src))]
            for k, v in enumerate(src):
                expected = sum(
                    1
                    for j in range(ideal.n)
                    if not contains(ideal, times(v, Monomial(int(j == w) for w in range(ideal.n))))
                )
                assert sums[k] == expected


def test_matrix_rank_basics():
    assert matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 1], [1, 1]]) == 1
    assert matrix_rank([]) == 0
    assert matrix_rank([[3]]) == 1
    assert matrix_rank([[0]]) == 0
    # known rank-2 with a zero pivot on the way
    assert matrix_rank([[0, 1, 2], [0, 0, 0], [3, 0, 1]]) == 2


def test_matrix_rank_matches_modular_on_small_integers():
    # 6x6 with entries <= 9: by Hadamard's bound every minor of at most 5
    # rows is below the prime and a 6x6 determinant below 2p, so the modular
    # rank equals the rank over Q unless a determinant is exactly +-p
    rng = seeded(103)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.4 and rows > 1:  # force rank deficiency sometimes
            mat[-1] = [2 * x for x in mat[0]]
        exact = matrix_rank(mat)
        modular = len(_echelon_mod_prime(np.array(mat, dtype=np.int64) % _PRIME, _PRIME)[0])
        assert exact == modular, mat


def test_rank_invariance_under_permutation_small():
    rng = seeded(107)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        r = matrix_rank(mat)
        rng.shuffle(mat)
        cols_order = list(range(cols))
        rng.shuffle(cols_order)
        shuffled = [[row[c] for c in cols_order] for row in mat]
        assert matrix_rank(shuffled) == r


def test_report_togliatti():
    report = lefschetz_report(TOGLIATTI)
    assert not report.wlp
    assert not report.slp
    assert report.witnesses == [(2, 1)]
    rec = map_at(report, 2, 1)
    assert (rec.dim_src, rec.dim_tgt, rec.rank) == (6, 6, 5)
    assert rec.reason == "neither"
    # kernel bookkeeping for t = 1 over h = 1,3,6,6,3: kernels 0, 0, 1, 3
    assert sum(r.dim_src - r.rank for r in report.maps if r.t == 1) == 4


def test_report_golden_example_has_slp():
    report = lefschetz_report(parse_ideal("x1^2, x2^3, x3^4, x4^5, x1*x2*x3*x4"))
    assert report.slp and report.wlp and report.witnesses == []


def test_report_two_variables():
    report = lefschetz_report(parse_ideal("x1^2, x2^2, x1*x2"))
    assert report.slp


def test_report_unit_quotient_is_vacuous():
    report = lefschetz_report(MonomialIdeal(2, [Monomial((0, 0))]))
    assert report.slp and report.wlp and report.maps == []


def test_report_cells_never_touch_the_zero_space():
    # the Hilbert function has no internal zeros, so every cell with
    # i + t <= socle has a nonzero source and target
    rng = seeded(151)
    ideals = [rand_artinian_ideal(rng, rng.randint(1, 4), max_bound=5, extra=3) for _ in range(40)]
    ideals += [rand_maci(rng, rng.randint(2, 4), 5).ideal() for _ in range(20)]
    for ideal in ideals:
        for rec in lefschetz_report(ideal).maps:
            assert rec.dim_src >= 1 and rec.dim_tgt >= 1, (ideal, rec)
            assert rec.certificate in ("mod_p", "kernel", "exact", "implied", "tensor"), (ideal, rec)


def test_report_reason_bookkeeping():
    report = lefschetz_report(parse_ideal("x1^3, x2^4, x1*x2^2"))
    for rec in report.maps:
        assert rec.full_rank == (rec.rank == min(rec.dim_src, rec.dim_tgt))
        if rec.reason == "bijective":
            assert rec.rank == rec.dim_src == rec.dim_tgt
        if rec.reason == "neither":
            assert not rec.full_rank


def test_matrix_matches_reference_builder():
    # every (i, t) cell, including cells past the socle, from the power table
    # against the entry-by-entry build, on MACIs and on other Artinian ideals
    rng = seeded(109)
    ideals = [TOGLIATTI, parse_ideal("x1^4, x2^3, x3^2, x1^2*x2, x2*x3, x1*x3")]
    ideals += [rand_maci(rng, rng.randint(2, 4), 4).ideal() for _ in range(8)]
    ideals += [rand_artinian_ideal(rng, rng.randint(1, 4), max_bound=4, extra=3) for _ in range(8)]
    for ideal in ideals:
        top = len(standard_monomial_table(ideal))
        for t in range(1, top + 2):
            for i in range(top + 1):
                want = multiplication_matrix_by_entries(ideal, i, t)
                assert multiplication_matrix(ideal, i, t) == want, (ideal, i, t)


def _record_keys(report):
    return [
        (r.i, r.t, r.dim_src, r.dim_tgt, r.rank, r.full_rank, r.reason) for r in report.maps
    ]


@lru_cache(maxsize=1)
def _reference_ideals():
    """MACIs with and without the SLP, at least 20 without, and other Artinian ideals."""
    rng = seeded(137)
    ideals = [TOGLIATTI] + [rand_maci(rng, rng.randint(2, 4), 5).ideal() for _ in range(12)]
    ideals += [rand_artinian_ideal(rng, rng.randint(1, 4), max_bound=5, extra=3) for _ in range(12)]
    failing = []
    while len(failing) < 20:
        ideal = rand_maci(rng, rng.randint(3, 4), 5).ideal()
        if not lefschetz_report_all_cells(ideal).slp:
            failing.append(ideal)
    return ideals + failing


def test_report_matches_all_cells_reference():
    # implied records against ranking every cell
    for ideal in _reference_ideals():
        got = lefschetz_report(ideal)
        want = lefschetz_report_all_cells(ideal)
        assert _record_keys(got) == _record_keys(want), ideal
        assert (got.witnesses, got.wlp, got.slp) == (want.witnesses, want.wlp, want.slp)
        assert got.series == hilbert_series(ideal), ideal
    assert sum(1 for ideal in _reference_ideals() if not lefschetz_report(ideal).slp) >= 20


def test_jordan_type_gives_the_per_cell_verdicts():
    # l is strong Lefschetz iff its Jordan type is the conjugate of the
    # Hilbert function, and weak Lefschetz iff it has max h_i strings
    # (Iarrobino, Marques and McDaniel, J. Commut. Algebra 2022).  A relabeled
    # spec has the same rank table, so one spec per class stands for its class.
    reps = {}
    for spec in all_maci_grid([3, 4], 5):
        reps.setdefault(spec.relabeling_class(), spec)
    grid = [lefschetz_report(spec.ideal()) for spec in reps.values()]
    reports = [lefschetz_report(ideal) for ideal in _reference_ideals()] + grid
    for report in reports:
        h = report.series.coeffs
        lengths = jordan_type(report)
        assert sum(lengths) == sum(h), report.ideal
        assert report.slp == (lengths == [sum(c >= k for c in h) for k in range(1, max(h) + 1)]), report.ideal
        assert report.wlp == (len(lengths) == max(h)), report.ideal
    # non-WLP classes such as a=(3, 3, 3), m=(1, 1, 1), and non-SLP reports
    # that are WLP, so that each criterion is tested on its own
    assert sum(not report.wlp for report in grid) >= 20
    assert sum(not report.slp for report in reports if report.wlp) >= 20


def test_reports_build_records_only_for_output(monkeypatch, fresh_components):
    def no_record(*args):
        raise RuntimeError("a map record was built")

    grid = symmetric_grid([3], 5)
    want = [{**vars(row), "ms": 0.0} for row in survey_rows(grid)]
    monkeypatch.setattr(lefschetz.oracle, "MapRecord", no_record)
    lefschetz.oracle._component.cache_clear()
    # one factor: the scheduled ranking fills the table
    report = lefschetz_report(TOGLIATTI)
    assert (report.series.coeffs, report.wlp, report.slp) == ((1, 3, 6, 6, 3), False, False)
    assert report.witnesses == [(2, 1)]
    # 31 factors: the Clebsch-Gordan rule fills it
    wide = lefschetz_report(MaciSpec((2, 3, 4) + (2,) * 30, (1, 1, 1) + (0,) * 30).ideal())
    assert (wide.wlp, wide.slp, wide.witnesses) == (True, True, [])
    assert sum(wide.series.coeffs) == 19_327_352_832
    assert [{**vars(row), "ms": 0.0} for row in survey_rows(grid)] == want
    # records are built for output, and only there
    with pytest.raises(RuntimeError, match="map record"):
        report.as_dict()


def test_report_ranks_only_the_central_cells_of_a_symmetric_spec():
    spec = MaciSpec((4, 5, 6, 7), (1, 1, 1, 1))
    assert spec.socle_degree() == 15
    report = lefschetz_report(spec.ideal())
    assert report.slp
    ranked = {(r.i, r.t) for r in report.maps if r.certificate == "mod_p"}
    assert ranked == {(i, 15 - 2 * i) for i in range(8)}
    # the schedule visits t downwards and, within one t, i upwards
    visited = sorted(report.maps, key=lambda r: (-r.t, r.i))
    order = {(r.i, r.t): k for k, r in enumerate(visited)}
    for rec in report.maps:
        if (rec.i, rec.t) in ranked:
            assert rec.implied_by is None
            continue
        assert rec.certificate == "implied"
        assert rec.full_rank and rec.rank == min(rec.dim_src, rec.dim_tgt)
        source = map_at(report, *rec.implied_by)
        assert source.full_rank
        assert order[rec.implied_by] < order[(rec.i, rec.t)]
    assert report.as_dict()["maps"][0]["implied_by"] == list(report.maps[0].implied_by)


def test_report_deficient_cells_are_exact_never_implied():
    rec = map_at(lefschetz_report(TOGLIATTI), 2, 1)
    assert (rec.certificate, rec.implied_by) == ("kernel", None)
    assert rec.as_dict()["certificate"] == "kernel"
    rng = seeded(139)
    seen = 0
    while seen < 10:
        report = lefschetz_report(rand_maci(rng, rng.randint(3, 4), 5).ideal())
        for rec in report.maps:
            if not rec.full_rank:
                seen += 1
                # a spec with a free variable combines its factors' ranks
                assert rec.certificate in ("kernel", "tensor") and rec.implied_by is None
            elif rec.certificate == "implied":
                assert map_at(report, *rec.implied_by).full_rank


@pytest.fixture
def fresh_components():
    """An empty component cache before and after a test that patches the
    elimination, so neither reads nor leaves ranks from the other setting."""
    lefschetz.oracle._component.cache_clear()
    yield
    lefschetz.oracle._component.cache_clear()


def _unlucky_first_prime(monkeypatch, p):
    """Patch the oracle's first prime to a small p, which loses the rank of
    some cells of full rank over Q; the later primes stay as they are."""
    monkeypatch.setattr(lefschetz.oracle, "_PRIME", p)
    monkeypatch.setattr(lefschetz.oracle, "_PRIMES", (p,) + _PRIMES[1:])


def test_report_raises_when_exact_rank_undershoots(monkeypatch, fresh_components):
    # the exact rank can never fall below the rank mod p; if it does, the
    # report must refuse even when assertions are compiled out.  An unlucky
    # first prime is what sends a cell to the Bareiss fallback.
    _unlucky_first_prime(monkeypatch, 3)
    monkeypatch.setattr(lefschetz.oracle, "matrix_rank", lambda matrix: 0)
    with pytest.raises(HypothesisViolation):
        lefschetz_report(TOGLIATTI)


def _count_bareiss(monkeypatch):
    """Patch the Bareiss fallback to record each matrix it ranks."""
    calls = []
    bareiss = lefschetz.oracle.matrix_rank

    def counted(matrix):
        calls.append(matrix)
        return bareiss(matrix)

    monkeypatch.setattr(lefschetz.oracle, "matrix_rank", counted)
    return calls


def test_report_certifies_deficient_cells_by_kernel_vectors(monkeypatch, fresh_components):
    ideal = MaciSpec((6, 6, 6, 6), (2, 2, 2, 2)).ideal()
    want = lefschetz_report_all_cells(ideal)
    calls = _count_bareiss(monkeypatch)
    got = lefschetz_report(ideal)
    assert calls == []
    deficient = [rec for rec in got.maps if not rec.full_rank]
    assert deficient
    for rec in deficient:
        assert (rec.certificate, rec.implied_by) == ("kernel", None)
    assert [(r.i, r.t, r.rank) for r in got.maps] == [(r.i, r.t, r.rank) for r in want.maps]


@pytest.mark.parametrize("prime", [2, 3])
def test_report_falls_back_to_bareiss_after_an_unlucky_prime(monkeypatch, fresh_components, prime):
    # cells of full rank over Q lose rank mod a tiny first prime; their
    # kernel vectors cannot verify, the next prime moves their pivots, and
    # Bareiss ranks them from the exact table, built once.  The reference
    # keeps the real first prime.
    want = lefschetz_report_all_cells(TOGLIATTI)
    _unlucky_first_prime(monkeypatch, prime)
    calls = _count_bareiss(monkeypatch)
    built = _exact_tables_built(monkeypatch)
    got = lefschetz_report(TOGLIATTI)
    exact = [r.certificate for r in got.maps].count("exact")
    assert len(calls) == exact >= 1
    assert built == [(3, 3, 3)]
    assert _record_keys(got) == _record_keys(want)
    assert got.witnesses == want.witnesses == [(2, 1)]


@pytest.mark.parametrize(
    "ideal, prime, path",
    [
        (MaciSpec((6, 6, 6, 6), (2, 2, 2, 2)).ideal(), None, "kernel"),
        (TOGLIATTI, 3, "exact"),
    ],
)
def test_report_eliminates_each_ranked_cell_once_mod_the_first_prime(
    monkeypatch, fresh_components, ideal, prime, path
):
    # the kernel certificate starts from the rank step's echelon form, and
    # only its later primes eliminate again; prime None keeps the real one
    if prime is not None:
        _unlucky_first_prime(monkeypatch, prime)
    primes = []
    echelon_mod_prime = lefschetz.oracle._echelon_mod_prime

    def recorded(matrix, p):
        primes.append(p)
        return echelon_mod_prime(matrix, p)

    monkeypatch.setattr(lefschetz.oracle, "_echelon_mod_prime", recorded)
    report = lefschetz_report(ideal)
    ranked = [r.certificate for r in report.maps if r.certificate in {"mod_p", "kernel", "exact"}]
    assert path in ranked
    assert primes.count(lefschetz.oracle._PRIME) == len(ranked)


def _one_cell(matrix):
    """A small integer matrix as (cell, table, bound) of a one-cell table,
    its entry bound the largest absolute value of an entry."""
    table = np.array(matrix, dtype=object)
    cell = np.arange(table.size).reshape(table.shape)
    table = table.ravel()
    return cell, lambda p: table if p is None else (table % p).astype(np.int64), max(map(abs, table))


def _certify(matrix):
    """(rank, certificate) of a small integer matrix."""
    return _certified_rank(*_one_cell(matrix), 0, 1)


def test_kernel_certificate_gives_up_rather_than_understate():
    # rank 2 over Q but rank 1 mod the first prime: the kernel vector (1, 0)
    # is not a kernel vector over Z and the second prime has other pivots,
    # so Bareiss ranks it
    matrix = [[_PRIME, 0], [0, 1]]
    assert len(_echelon_mod_prime(np.array(matrix, dtype=np.int64) % _PRIME, _PRIME)[0]) == 1
    assert _certify(matrix) == (2, "exact")
    # rank 1 in either orientation; more columns than rows means the
    # transpose is the one whose kernel is taken
    assert _certify([[2, 4], [1, 2], [-3, -6]]) == (1, "kernel")
    assert _certify([[2, 1, -3], [4, 2, -6]]) == (1, "kernel")
    assert _certify([[2, 4], [1, 3]]) == (2, "mod_p")


def test_kernel_certificate_combines_primes(monkeypatch):
    # the kernel vector (b, -a) needs a numerator and denominator near
    # 2^20, beyond rational reconstruction mod one prime (about 2^12)
    a, b = 1_000_003, 999_983
    primes = []
    kernel_mod_prime = lefschetz.oracle._kernel_mod_prime

    def recorded(pivots, echelon, p):
        primes.append(p)
        return kernel_mod_prime(pivots, echelon, p)

    monkeypatch.setattr(lefschetz.oracle, "_kernel_mod_prime", recorded)
    assert _certify([[a, b], [2 * a, 2 * b], [0, 0]]) == (1, "kernel")
    assert primes == list(_PRIMES[:2])


def test_integer_kernel_equals_the_per_entry_reference():
    # a column's entries are read over the lcm of its denominators so far;
    # every entry reconstructed on its own is the reference, also where the
    # lcm passes the bound or some entry has no fraction within it
    rng, primes = seeded(283), (11, 13, 17, 19, 23, 29, 31)
    for modulus in (_PRIME, _PRIME * _PRIMES[1]):
        bound = isqrt(modulus // 2)
        fraction = lambda b: (rng.randint(-bound, bound), b)  # noqa: E731
        failing = next(x for x in iter(lambda: rng.randrange(modulus), None) if _rational(x, modulus) is None)
        shared = [[fraction(b) for _ in range(8)] for b in (1, 7, rng.randint(2, bound))]
        divisors = [[fraction(rng.choice((2, 3, 4, 6, 12))) for _ in range(8)] for _ in range(3)]
        distinct = [[(rng.randint(-99, 99), b) for b in primes]]  # their lcm is past either bound
        unrelated = [[fraction(rng.randint(1, bound)) for _ in range(8)] for _ in range(3)]
        edges = [[(bound, 1), (-bound, bound), (1, bound), (0, 1)]]
        for columns, fails in [(shared, False), (divisors, False), (distinct, False), (unrelated, False),
                               (edges, False), (shared, True), (distinct, True)]:
            residues = np.array([[a * pow(b, -1, modulus) % modulus for a, b in c] for c in columns], dtype=object).T
            if fails:  # the first column's last entry and the last column's first
                residues[-1, 0] = failing
                residues[0, -1] = failing
            pivots, free = list(range(len(residues))), [len(residues) + j for j in range(len(columns))]
            args = residues, modulus, pivots, free, len(pivots) + len(free)
            want = integer_kernel_per_entry(*args)
            assert (want is None) == fails
            got = _integer_kernel(*args)
            assert got is None if fails else got.tolist() == want.tolist()
    # past the bound the lcm reads no entry: an integer x whose x * lcm is
    # small mod the prime is still x / 1, not that small residue / lcm
    bound, scale = isqrt(_PRIME // 2), prod(primes)
    x = next(x for x in range(2, bound) if abs((x * scale + _PRIME // 2) % _PRIME - _PRIME // 2) <= bound)
    column = [pow(b, -1, _PRIME) for b in primes] + [x]
    kernel = _integer_kernel(np.array([column], dtype=object).T, _PRIME, list(range(len(column))), [len(column)], len(column) + 1)
    assert kernel[-2, 0] == x * kernel[-1, 0]


def test_kernel_primes_are_distinct_primes_below_2_31():
    assert _PRIMES[0] == _PRIME
    assert len(set(_PRIMES)) == len(_PRIMES)
    for p in _PRIMES:
        assert p < 2**31
        assert all(p % d for d in range(2, isqrt(p) + 1)), p


def test_delayed_reduction_cannot_overflow_int64():
    # an entry in [0, p) loses at most (p - 1)^2 per pivot between reductions
    assert all(p < 2**26 for p in _PRIMES)
    assert len(_PRIMES) >= 10
    assert _REDUCE_EVERY * (_PRIME - 1) ** 2 + _PRIME < 2**63


def _sparse(rng, rows, cols, density):
    return rng.integers(1, _PRIME, (rows, cols)) * (rng.random((rows, cols)) < density)


def _echelon_cases():
    """Tall, wide, square, rank-deficient and all-(p-1) matrices, zero
    columns, pivots alone in their column, pivots found far below the rank,
    sparse matrices, and the ranked cells of a spec with deficient cells."""
    rng = np.random.default_rng(163)
    p = _PRIME
    cases = [np.full((9, 9), p - 1), np.full((12, 5), p - 1), np.full((5, 12), p - 1)]
    for rows, cols in [(1, 1), (1, 7), (7, 1), (8, 8), (30, 11), (11, 30), (40, 40)]:
        dense = rng.integers(0, p, (rows, cols))
        cases.append(dense)
        low = rng.integers(0, p, (rows, 3)) @ rng.integers(0, 5, (3, cols)) % p
        cases.append(low)  # rank at most 3
        holes = dense.copy()
        holes[:, rng.integers(0, cols, 2)] = 0
        cases.append(holes)
        cases.append(rng.integers(-3, 4, (rows, cols)))
    # every pivot is the only nonzero left in its column: no row to update
    triangle = np.triu(rng.integers(1, p, (10, 10)))
    cases += [triangle, triangle[:, 3:], np.eye(6, dtype=np.int64)]
    # each pivot is the last nonzero of its column, swapped up from far below
    cases += [triangle[::-1], np.vstack([np.zeros((15, 10), dtype=np.int64), triangle])[::-1]]
    far = np.zeros((20, 6), dtype=np.int64)
    far[17, 0] = 5
    far[3:, 1:] = _sparse(rng, 17, 5, 0.3)
    cases.append(far)
    for rows, cols in [(30, 11), (11, 30), (60, 25), (25, 60), (40, 40)]:
        for density in (0.05, 0.1, 0.2):
            cases.append(_sparse(rng, rows, cols, density))
            cases.append(_sparse(rng, rows, 4, 0.5) @ _sparse(rng, 4, cols, density) % p)  # rank <= 4
    keys, table, center = _power_table(MaciSpec((6, 6, 6, 6), (2, 2, 2, 2)).ideal())
    residues = table(p)
    for t in range(1, len(keys)):
        for i in range(len(keys) - t):
            cell = center + keys[i + t][:, None] - keys[i]
            if cell.size:
                cases.append(residues[cell])
    return cases


def test_echelon_mod_prime_reduces_before_int64_wraps(monkeypatch):
    # below 2^31 an update lowers an entry by up to (p - 1)^2, about 2^62,
    # so this prime's reduction period is 2 pivots, and a third unreduced
    # update of a dense matrix would wrap int64
    p = 2**31 - 1
    monkeypatch.setattr(lefschetz.oracle, "_REDUCE_EVERY", (2**63 - 1 - p) // (p - 1) ** 2)
    assert lefschetz.oracle._REDUCE_EVERY == 2
    rng = np.random.default_rng(20)
    for rows, cols in [(12, 12), (16, 9), (9, 16)]:
        matrix = rng.integers(0, p, (rows, cols))
        pivots, echelon = _echelon_mod_prime(matrix, p)
        want_pivots, want_rows = echelon_mod_prime_by_ints(matrix.tolist(), p)
        assert pivots == want_pivots
        assert echelon.tolist() == want_rows


@pytest.mark.parametrize("reduce_every", [_REDUCE_EVERY, 2])
def test_echelon_mod_prime_equals_the_stepwise_reference(monkeypatch, reduce_every):
    # every 2 pivots runs the periodic reduction of the trailing block on
    # matrices far smaller than _REDUCE_EVERY
    monkeypatch.setattr(lefschetz.oracle, "_REDUCE_EVERY", reduce_every)
    kinds, exchanging = Counter(), Counter()
    for matrix in _echelon_cases():
        given = matrix.copy()
        pivots, echelon = _echelon_mod_prime(matrix, _PRIME)
        assert np.array_equal(matrix, given)  # the argument is left unchanged
        want_pivots, want_echelon, exchanges = echelon_mod_prime_stepwise(matrix.copy(), _PRIME)
        assert pivots == want_pivots
        assert echelon.dtype == want_echelon.dtype
        assert np.array_equal(echelon, want_echelon)
        sparse = np.count_nonzero(matrix) <= 0.2 * matrix.size
        rows, cols = matrix.shape
        kinds[sparse, rows > cols, len(pivots) < min(rows, cols)] += 1
        if exchanges:
            exchanging["sparse" if sparse else "dense"] += 1
            exchanging["tall" if rows > cols else "wide" if rows < cols else "square"] += 1
    # sparse and dense, tall and wide, each both of full rank and deficient
    assert len(kinds) == 8
    # and each kind exchanges rows, whose tails from the pivot column are moved
    assert {"sparse", "dense", "tall", "wide"} <= set(exchanging), exchanging


def _exact_table_by_factorials(bounds):
    """The flat multinomial table over the box of differences, from factorials."""
    box = [2 * a - 1 for a in bounds]
    table = []
    for index in np.ndindex(*box):
        d = [k - (a - 1) for k, a in zip(index, bounds)]
        table.append(0 if min(d) < 0 else factorial(sum(d)) // prod(map(factorial, d)))
    return table


def test_residue_table_equals_the_exact_table_mod_p():
    # built directly in int64 by Pascal's rule, also for primes below the
    # exponents, where factorials vanish mod p; keys and center are shared
    rng = seeded(257)
    ideals = [rand_artinian_ideal(rng, rng.randint(1, 4), 6) for _ in range(12)]
    ideals += [rand_maci(rng, rng.randint(2, 4)).ideal() for _ in range(12)]
    ideals += [MaciSpec((6, 6, 6, 6), (2, 2, 2, 2)).ideal(), TOGLIATTI]
    for ideal in ideals:
        if ideal.is_unit():
            continue
        _, table, _ = _power_table(ideal)
        exact = table(None)
        assert exact.tolist() == _exact_table_by_factorials(ideal.bounds)
        for p in _PRIMES + (2, 3, 5, 7):
            residues = table(p)
            assert residues.dtype == np.int64
            assert residues.tolist() == (exact % p).tolist(), (ideal, p)
            assert table(p) is residues  # built once per prime


def _exact_tables_built(monkeypatch, forbid=False):
    """Patch the table builder to record each exact table it builds, or to
    raise on one; residue tables are built as before."""
    built = []
    multinomials = lefschetz.oracle._multinomials

    def recorded(bounds, p=None):
        if p is None:
            if forbid:
                raise AssertionError(f"an exact table was built for bounds {bounds}")
            built.append(tuple(bounds))
        return multinomials(bounds, p)

    monkeypatch.setattr(lefschetz.oracle, "_multinomials", recorded)
    return built


def test_full_rank_reports_build_no_exact_table(monkeypatch, fresh_components):
    # every ranked cell has full rank mod p, so no exact entry is read
    _exact_tables_built(monkeypatch, forbid=True)
    for a in [(2, 3, 4, 5), (3, 4, 5, 6)]:
        report = lefschetz_report(MaciSpec(a, (1, 1, 1, 1)).ideal())
        assert report.slp and "mod_p" in {rec.certificate for rec in report.maps}
    rows = survey_rows(symmetric_grid([2, 3], 6))
    assert rows and all(row.slp for row in rows)


def test_deficient_report_builds_no_exact_table(monkeypatch, fresh_components):
    # kernel vectors are found and checked on residues alone
    _exact_tables_built(monkeypatch, forbid=True)
    report = lefschetz_report(MaciSpec((6, 6, 6, 6), (2, 2, 2, 2)).ideal())
    kernel = [rec for rec in report.maps if rec.certificate == "kernel"]
    assert len(kernel) > 1


def _vanishes(matrix, kernel):
    """Whether a small integer matrix times ``kernel`` is checked to be 0."""
    return lefschetz.oracle._vanishes(*_one_cell(matrix), np.array(kernel, dtype=object))


def test_kernel_check_reads_primes_up_to_its_bound(monkeypatch):
    # M K = (q1 q2, 2 q1 q2) is 0 mod the first two primes, but their
    # product is below the bound 2 * 2 * (1 + q1 q2), so a third must be read
    q1, q2 = _PRIMES[:2]
    matrix = [[1, 1], [2, 2]]
    assert _vanishes(matrix, [[1], [-1]])
    assert _vanishes(matrix, [[q1 * q2 * _PRIMES[2]], [-q1 * q2 * _PRIMES[2]]])
    assert not _vanishes(matrix, [[1 + q1 * q2], [-1]])
    assert not _vanishes(matrix, [[1, 1 + q1 * q2], [-1, -1]])
    # with no third prime the bound cannot be met, so nothing certifies
    monkeypatch.setattr(lefschetz.oracle, "_PRIMES", (q1, q2))
    assert not _vanishes(matrix, [[1 + q1 * q2], [-1]])
    assert _vanishes(matrix, [[1], [-1]])


def test_kernel_check_sums_long_columns_without_wrapping():
    # mod p, the 5,000 products (p - 1) * 1 and (p - 1) * (p - 1) of this
    # kernel vector sum past 2^63 unless cut into _REDUCE_EVERY columns
    p, c = _PRIME, 5_000
    assert c // 2 * (p - 1) ** 2 > 2**63 > _REDUCE_EVERY * (p - 1) ** 2
    matrix = [[p - 1] * c, [-1] * c]
    assert _vanishes(matrix, [[1], [-1]] * (c // 2))
    assert not _vanishes(matrix, [[1], [-1]] * (c // 2 - 1) + [[1], [0]])


def test_multinomials_are_at_most_n_to_their_degree():
    # the entry bound a report passes for a cell of l^t is n^t
    for bounds in [(1,), (5,), (2, 2), (3, 4), (4, 4, 4), (2, 3, 4, 5), (3, 3, 3, 3, 3)]:
        table = lefschetz.oracle._multinomials(bounds).reshape([2 * a - 1 for a in bounds])
        for index in np.ndindex(*table.shape):
            d = [k - (a - 1) for k, a in zip(index, bounds)]
            assert table[index] <= len(bounds) ** sum(map(abs, d)), (bounds, d)


def test_power_table_over_the_work_budget_is_refused():
    # 2^13 - 1 standard monomials, but a power table of 3^13 entries; the
    # cross generator x1 x2 ... x13 links every variable into one factor
    gens = [pure_power(13, j, 2) for j in range(13)] + [(1,) * 13]
    ideal = MonomialIdeal(13, gens)
    assert len(standard_monomials(ideal, 6)) == 1716
    with pytest.raises(ValueError, match="budget"):
        lefschetz_report(ideal)


def test_report_works_on_the_variables_that_survive_in_the_quotient():
    # x3, ..., x300 lie in the ideal: the full basis, 3,600 rows of 300
    # exponents, is over the budget, but the report enumerates only x1, x2
    ideal = MaciSpec([60, 60] + [1] * 298, [1, 1] + [0] * 298).ideal()
    with pytest.raises(ValueError, match="budget"):
        standard_monomial_table(ideal)
    got = lefschetz_report(ideal)
    want = lefschetz_report(MaciSpec([60, 60], [1, 1]).ideal())
    assert got.series == want.series
    assert [rec.as_dict() for rec in got.maps] == [rec.as_dict() for rec in want.maps]
    assert multiplication_matrix(ideal, 3, 2) == multiplication_matrix(want.ideal, 3, 2)


def _tensor_cases():
    """Every spec with several factors in two full grids, ideals with two
    linked groups, Togliatti's ideal times a free variable and a complete
    intersection."""
    rng = seeded(167)
    ideals = [spec.ideal() for spec in all_maci_grid([3], 4)]
    ideals += [spec.ideal() for spec in support_two_grid([3, 4], 4)]
    ideals += [separate_components(rng) for _ in range(30)]
    ideals += [parse_ideal("x1^3, x2^3, x3^3, x1*x2*x3, x4^2"), parse_ideal("x1^2, x2^3, x3^4, x4^5")]
    return [ideal for ideal in ideals if len(tensor_factors(ideal)) > 1]


def test_tensor_records_match_all_cells_reference():
    cases = _tensor_cases()
    assert len(cases) > 1_000
    assert sum(1 for ideal in cases if sum(len(part) > 1 for part, _ in tensor_factors(ideal)) > 1) >= 20
    failing = 0
    for ideal in cases:
        got = lefschetz_report(ideal)
        want = lefschetz_report_all_cells(ideal)
        assert _record_keys(got) == _record_keys(want), ideal
        assert (got.witnesses, got.wlp, got.slp) == (want.witnesses, want.wlp, want.slp)
        assert got.series == want.series, ideal
        assert {(rec.certificate, rec.implied_by) for rec in got.maps} == {("tensor", None)}
        failing += not got.slp
    assert failing >= 20


def test_report_enumerates_each_group_basis_only_as_often_as_its_series_needs(monkeypatch, fresh_components):
    # a group with two cross generators is counted once for its socle degree
    # and once for its power table; a group with one has a closed form, and
    # the free variables x5, x6 are never enumerated
    calls = Counter()

    def counted(module):
        def table(ideal):
            calls[module, ideal] += 1
            return standard_monomial_table(ideal)

        monkeypatch.setattr(module, "standard_monomial_table", table)

    counted(lefschetz.oracle)
    counted(lefschetz.series)
    ideal = parse_ideal("x1^3, x2^3, x1*x2^2, x1^2*x2, x3^4, x4^3, x3^2*x4, x5^2, x6^3")
    two, one = [f for _, f in tensor_factors(ideal) if not isinstance(f, int)]
    assert (len(two.cross), len(one.cross)) == (2, 1)
    lefschetz_report(ideal)
    assert calls == {(lefschetz.series, two): 1, (lefschetz.oracle, two): 1, (lefschetz.oracle, one): 1}


def test_tensor_report_recombines_from_its_components_alone():
    rng = seeded(173)
    ideals = [parse_ideal("x1^3, x2^3, x3^3, x1*x2*x3, x4^2")] + [separate_components(rng) for _ in range(6)]
    for ideal in ideals:
        report = lefschetz_report(ideal)
        payload = json.loads(json.dumps(report.as_dict()))
        assert ranks_from_components(payload) == {(rec.i, rec.t): rec.rank for rec in report.maps}
        for component in payload["components"]:
            if "report" in component:
                factor = MonomialIdeal(len(component["variables"]), component["report"]["generators"])
                assert component["report"] == lefschetz_report(factor).as_dict()
            else:
                assert component["exponent"] == ideal.bounds[component["variables"][0] - 1]
    assert "components" not in lefschetz_report(TOGLIATTI).as_dict()


def test_cached_components_cannot_be_changed_through_a_report():
    ideal = parse_ideal("x1^3, x2^3, x3^3, x1*x2*x3, x4^2")
    want = lefschetz_report(ideal).as_dict()
    got = lefschetz_report(ideal)
    for rec in got.maps:
        rec.rank = 0
    got.as_dict()["components"][0]["report"]["maps"].clear()
    assert lefschetz_report(ideal).as_dict() == want


def test_wide_tensor_spec_is_answered():
    # the power table of all 33 variables would hold 3 * 5 * 7 * 3^30, about
    # 2.2e16 entries; the linked group x1, x2, x3 has one of 105
    lefschetz.oracle._component.cache_clear()
    spec = MaciSpec((2, 3, 4) + (2,) * 30, (1, 1, 1) + (0,) * 30)
    start = time.perf_counter()
    report = lefschetz_report(spec.ideal())
    assert time.perf_counter() - start < 1
    assert report.slp and len(report.maps) == 630
    assert sum(report.series.coeffs) == 19_327_352_832
    assert {rec.certificate for rec in report.maps} == {"tensor"}
    components = report.as_dict()["components"]
    assert [c["variables"] for c in components] == [[1, 2, 3]] + [[j] for j in range(4, 34)]
    assert [c["exponent"] for c in components[1:]] == [2] * 30


def test_free_strings_match_the_one_at_a_time_product():
    # the free variables' complete intersection has the SLP, so its strings
    # are read off its series; the reference multiplies them in one by one
    rng = seeded(251)
    cases = [(), (1,), (1, 1, 3), (2,) * 900, (7, 2, 9, 1, 4)]
    cases += [tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 8))) for _ in range(200)]
    for exponents in cases:
        assert sorted(_free_strings(exponents)) == free_strings_one_at_a_time(exponents), exponents


def test_free_variables_up_to_the_socle_budget_are_answered():
    # a=(2,3,4)+(2,)*N has socle degree N + 5; (N + 6)^2 ranks are within the
    # budget up to N = 994, and the free variables' series must be too
    lefschetz.oracle._component.cache_clear()
    for free in (900, 994):
        report = lefschetz_report(MaciSpec((2, 3, 4) + (2,) * free, (1, 1, 1) + (0,) * free).ideal())
        assert report.slp and report.ranks.shape == (free + 6, free + 6)
    with pytest.raises(ValueError, match="a table of 1002001 entries exceeds the budget"):
        lefschetz_report(MaciSpec((2, 3, 4) + (2,) * 995, (1, 1, 1) + (0,) * 995).ideal())


def _linked_pairs(k):
    """k groups x^3, y^3, x*y on variables of their own."""
    return parse_ideal(", ".join(f"x{2 * i - 1}^3, x{2 * i}^3, x{2 * i - 1}*x{2 * i}" for i in range(1, k + 1)))


def test_clebsch_gordan_terms_are_within_the_budget():
    # combining the strings of k linked pairs runs 980,741 terms at k = 92,
    # within the budget, and 1,012,989 by the 93rd factor, refused before it
    # is combined
    report = lefschetz_report(_linked_pairs(92))
    assert report.ranks.shape == (185, 185) and not report.slp
    with pytest.raises(ValueError, match="^a table of 1012989 entries exceeds the budget of 1000000$"):
        lefschetz_report(_linked_pairs(93))


def test_report_socle_21_symmetric_spec_has_slp():
    # symmetric Hilbert series, so strong Lefschetz; socle degree above 20
    spec = MaciSpec((6, 7, 8, 9), (1, 1, 1, 1))
    assert spec.socle_degree() == 21
    report = lefschetz_report(spec.ideal())
    assert report.slp and report.wlp
    assert len(report.maps) == 21 * 22 // 2


def test_report_invariant_under_variable_permutation():
    rng = seeded(113)
    for _ in range(12):
        spec = rand_maci(rng, rng.randint(2, 4), 5)
        perm = list(range(spec.n))
        rng.shuffle(perm)
        other = MaciSpec([spec.a[p] for p in perm], [spec.m[p] for p in perm])
        r1 = lefschetz_report(spec.ideal())
        r2 = lefschetz_report(other.ideal())
        assert [(m.i, m.t, m.rank) for m in r1.maps] == [(m.i, m.t, m.rank) for m in r2.maps]


def test_tensor_map_full_rank_examples():
    # base k[x,y]/(x^2, y^5, x*y): h = 1, 2, 1, 1, 1
    stairs = hilbert_series(parse_ideal("x1^2, x2^5, x1*x2"))
    assert stairs.coeffs == (1, 2, 1, 1, 1)
    # d=3, i=1, t=3: the q=0 window map is surjective-only (2 -> 1) while the
    # q=2 window map is injective-only (0 -> 1), so no common reason exists
    assert tensor_map_full_rank(stairs, 3, 1, 3) is False
    # d=1 reduces to a single base map, always fine for a strong Lefschetz base
    rng = seeded(131)
    for _ in range(50):
        spec = rand_maci(rng, 2, 6)
        h = spec.series()
        top = h.socle_degree
        for t in range(1, top + 1):
            for i in range(0, top - t + 1):
                assert tensor_map_full_rank(h, 1, i, t)
    # symmetric unimodal base: always full rank
    sym = HilbertSeries([1, 3, 5, 5, 3, 1])
    for d in range(1, 5):
        for t in range(0, 10):
            for i in range(-2, 10):
                assert tensor_map_full_rank(sym, d, i, t)


def test_tensor_map_full_rank_validation():
    h = HilbertSeries([1, 1])
    with pytest.raises(ValueError):
        tensor_map_full_rank(h, 0, 0, 1)
    with pytest.raises(ValueError):
        tensor_map_full_rank(h, 2, 0, -1)
    assert tensor_map_full_rank(h, 3, 0, 0)  # identity map, vacuous window


def test_two_variable_quotients_always_strong_lefschetz():
    # exhaustive over exponents <= 10
    for a in range(2, 11):
        for b in range(2, 11):
            for alpha in range(1, a):
                for beta in range(1, b):
                    spec = MaciSpec((a, b), (alpha, beta))
                    assert lefschetz_report(spec.ideal()).slp, spec
