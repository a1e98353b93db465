"""Monomial arithmetic, parsing, colon ideals, bases and Hilbert series."""

import time
from operator import add, sub

import numpy as np
import pytest

from lefschetz import (
    HilbertSeries,
    IdealSyntaxError,
    MaciSpec,
    Monomial,
    MonomialIdeal,
    ci_series,
    hilbert_series,
    maci_from_ideal,
    minimalize,
    parse_ideal,
    pure_power,
    lefschetz_report,
    render_monomial,
    standard_monomial_table,
)
from lefschetz.classify import CsmPiece
from lefschetz.core import restrict, tensor_factors
from lefschetz.series import factor_series
from _util import (
    colon_by_monomial,
    hilbert_series_by_colon,
    hilbert_series_by_counting,
    is_pure_power,
    minimalize_pairwise,
    parse_ideal_by_scanner,
    plus_monomial,
    rand_artinian_ideal,
    rand_ideal_text,
    rand_maci,
    rand_monomial,
    rand_series,
    render_ideal,
    seeded,
    separate_components,
    series_by_degree,
    series_total,
    standard_monomial_table_by_product,
    standard_monomials,
    times,
    total_dimension,
    widened_by_schoolbook,
)

TOGLIATTI = "x1^3, x2^3, x3^3, x1*x2*x3"
GOLDEN = "x1^2, x2^3, x3^4, x4^5, x1*x2*x3*x4"


def test_monomial_basics():
    m = Monomial((2, 0, 1))
    assert m.degree == 3
    assert m.support == (0, 2)
    assert not m.is_unit() and not is_pure_power(m)
    assert is_pure_power(Monomial((0, 3, 0)))
    assert Monomial((2, 0, 1)).divides((2, 1, 1))
    assert not Monomial((2, 0, 1)).divides((1, 5, 5))
    assert times(m, (0, 1, 0)) == Monomial((2, 1, 1))
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(OverflowError, match="63-bit guard"):
        Monomial((2**63,))


@pytest.mark.parametrize(
    "n, generators, error",
    [(0, [], "need at least one variable"), (2, [(1, 2, 3)], "does not live in 2 variables")],
    ids=["no_variables", "wrong_length"],
)
def test_monomial_ideal_refuses_a_malformed_shape(n, generators, error):
    with pytest.raises(ValueError, match=error):
        MonomialIdeal(n, generators)


def test_spec_repr_is_compact_exact_and_evaluable():
    # runs of 8 or more equal exponents are written (e,) * k; shorter ones as they are
    narrow = MaciSpec((2, 3, 4), (1, 1, 1))
    wide = MaciSpec((2, 3, 4) + (1,) * 1497, (1, 1, 1) + (0,) * 1497)
    mixed = MaciSpec((5,) * 8 + (3,) * 7 + (2,), (1,) * 8 + (0,) * 7 + (1,))
    assert repr(narrow) == "MaciSpec(a=(2, 3, 4), m=(1, 1, 1))"
    assert repr(wide) == "MaciSpec(a=(2, 3, 4) + (1,) * 1497, m=(1, 1, 1) + (0,) * 1497)"
    assert repr(mixed) == (
        "MaciSpec(a=(5,) * 8 + (3, 3, 3, 3, 3, 3, 3, 2), m=(1,) * 8 + (0, 0, 0, 0, 0, 0, 0, 1))"
    )
    for spec in (narrow, wide, mixed):
        assert eval(repr(spec)) == spec


def test_parse_togliatti():
    ideal = parse_ideal(TOGLIATTI)
    assert ideal.n == 3
    assert len(ideal.generators) == 4
    assert Monomial((1, 1, 1)) in ideal.generators


def test_parse_minimalizes():
    ideal = parse_ideal("x1^2, x1^3")
    assert ideal.generators == frozenset({Monomial((2,))})


def test_parse_syntax_error_position():
    with pytest.raises(IdealSyntaxError) as exc:
        parse_ideal("x1^^2")
    assert exc.value.position == 3
    with pytest.raises(IdealSyntaxError):
        parse_ideal("")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("   ")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("x1^2,")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("x1 x2")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("y1^2")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("x0^2")


def test_parse_exponent_overflow():
    with pytest.raises(OverflowError):
        parse_ideal("x1^99999999999999999999")


def test_parse_repeated_factors_multiply():
    ideal = parse_ideal("x1*x1*x2^2")
    assert ideal.generators == frozenset({Monomial((2, 2))})


def test_parse_declared_width():
    ideal = parse_ideal("x1^2, x2^2", n=4)
    assert ideal.n == 4
    with pytest.raises(ValueError):
        parse_ideal("x3^2", n=2)


def test_minimalize_examples():
    x2, x3, y = Monomial((2, 0)), Monomial((3, 0)), Monomial((0, 1))
    assert minimalize({x2, x3, y}) == frozenset({x2, y})
    assert minimalize({Monomial((1, 1)), Monomial((2, 2))}) == frozenset({Monomial((1, 1))})
    untouched = {Monomial((4, 0)), Monomial((0, 5)), Monomial((2, 3))}
    assert minimalize(untouched) == frozenset(untouched)


def test_minimalize_idempotent_small():
    rng = seeded(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        gens = [rand_monomial(rng, n, 5) for _ in range(rng.randint(1, 7))]
        once = minimalize(gens)
        assert minimalize(once) == once
        rng.shuffle(gens)
        assert minimalize(gens) == once


def test_minimalize_and_the_split_match_the_pairwise_reference():
    rng = seeded(13)
    for trial in range(600):
        n = rng.randint(1, 6)
        gens = [rand_monomial(rng, n, 4) for _ in range(rng.randint(1, 8))]
        # pure powers of one variable at several exponents
        j = rng.randrange(n)
        gens += [pure_power(n, j, rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
        gens += rng.sample(gens, rng.randint(0, len(gens)))  # duplicates
        if trial % 50 == 0:
            gens.append(Monomial((0,) * n))
        want = minimalize_pairwise(gens)
        assert minimalize(gens) == want, gens
        ideal = MonomialIdeal(n, gens)
        assert ideal.generators == want
        # the split, recounted from the generators
        bounds = [None] * n
        for g in want:
            if is_pure_power(g):
                bounds[g.support[0]] = g[g.support[0]]
        cross = [g for g in ideal.sorted_generators() if not is_pure_power(g)]
        assert ideal.bounds == tuple(bounds), gens
        assert ideal.cross == tuple(cross), gens
        assert ideal.is_unit() == (Monomial((0,) * n) in want)


def test_unit_monomial_absorbs_every_generator():
    unit = Monomial((0, 0, 0))
    gens = [unit, Monomial((2, 0, 0)), Monomial((1, 1, 0)), unit]
    assert minimalize(gens) == frozenset({unit})
    ideal = MonomialIdeal(3, gens)
    assert ideal.bounds == (None, None, None) and ideal.cross == (unit,)
    assert ideal.is_unit() and ideal.is_artinian()


MAX_EXP = "9223372036854775807"  # 2^63 - 1, the largest exponent


@pytest.mark.parametrize(
    "text, kind, message, position",
    [
        ("", IdealSyntaxError, "empty generator list", 0),
        ("   ", IdealSyntaxError, "empty generator list", 3),
        ("x1^2,", IdealSyntaxError, "expected a variable like x1", 5),
        ("  y1^2", IdealSyntaxError, "expected a variable like x1", 2),
        ("x 1", IdealSyntaxError, "expected variable index", 1),
        ("x\u0661^2", IdealSyntaxError, "expected variable index", 1),
        ("x0", IdealSyntaxError, "variable indices are 1-based", 1),
        ("x1^2, x0", IdealSyntaxError, "variable indices are 1-based", 7),
        ("x10001", IdealSyntaxError, "variable index too large", 1),
        ("x1^^2", IdealSyntaxError, "expected exponent", 3),
        ("x1^ ,", IdealSyntaxError, "expected exponent", 4),
        ("x1 x2", IdealSyntaxError, "unexpected trailing input", 3),
        ("x1^2 ,x2 ; ", IdealSyntaxError, "unexpected trailing input", 9),
        (f"x1^{MAX_EXP}*x1", OverflowError, "exponent overflow", 25),
        (f"x1^{MAX_EXP} * x1  , x2", OverflowError, "exponent overflow", 29),
        (f"x2 *x2^ {MAX_EXP}\t", OverflowError, "exponent overflow", 27),
        # runs past the 4,300 digits int() reads are refused before it reads them
        pytest.param("x1" + "0" * 5000, IdealSyntaxError, "variable index too large", 1, id="5001-digit index"),
        pytest.param("x1^" + "9" * 5000, OverflowError, "exponent overflow", 5003, id="5000-digit exponent"),
    ],
    ids=lambda value: repr(value) if isinstance(value, str) else None,
)
def test_parse_refusal_names_its_type_message_and_offset(text, kind, message, position):
    with pytest.raises(kind) as exc:
        parse_ideal(text)
    assert type(exc.value) is kind
    if kind is IdealSyntaxError:
        assert str(exc.value) == f"{message} at offset {position}" and exc.value.position == position
    else:
        assert str(exc.value) == f"{message} near offset {position}"


@pytest.mark.parametrize(
    "text, generators",
    [
        (" \t x1 ^ 2 *\nx2\u3000,\x1cx3^\u30003 ", [(2, 1, 0), (0, 0, 3)]),
        ("x1*x1^2", [(3,)]),
        ("x02^007, x1", [(0, 7), (1, 0)]),
        (f"x1^{MAX_EXP}", [(2**63 - 1,)]),
        pytest.param("x" + "0" * 4999 + "1^" + "0" * 4999 + "2", [(2,)], id="4999 leading zeros each"),
    ],
    ids=repr,
)
def test_parse_admits_whitespace_between_tokens_and_adds_repeated_exponents(text, generators):
    assert parse_ideal(text).generators == frozenset(map(Monomial, generators))


def _parse_outcome(parse, text):
    try:
        ideal = parse(text)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return ideal.n, ideal.generators


def test_parse_agrees_with_the_scanner_on_random_text():
    # the same ideal, or the same exception type, message and offset
    rng = seeded(37)
    seen = set()
    for _ in range(3000):
        text = rand_ideal_text(rng)
        got = _parse_outcome(parse_ideal, text)
        assert got == _parse_outcome(parse_ideal_by_scanner, text), repr(text)
        seen.add(got[1].split(" at offset")[0].split(" near")[0] if type(got[0]) is type else "parsed")
    assert seen >= {
        "parsed",
        "expected a variable like x1",
        "expected variable index",
        "variable indices are 1-based",
        "variable index too large",
        "expected exponent",
        "unexpected trailing input",
        "exponent overflow",
    }


def test_ideal_of_many_vanishing_variables_builds_fast():
    # 601 generators in 600 variables: no pairwise scan over all exponents
    start = time.perf_counter()
    ideal = MaciSpec([60, 60] + [1] * 598, [1, 1] + [0] * 598).ideal()
    assert time.perf_counter() - start < 1
    assert ideal.bounds == (60, 60) + (1,) * 598
    assert ideal.cross == (Monomial((1, 1) + (0,) * 598),)


def test_dense_generators_are_counted_against_the_work_budget():
    with pytest.raises(ValueError, match="budget"):
        MaciSpec([2] * 1000, [1, 1] + [0] * 998).ideal()  # 1000 * 1001 exponents
    with pytest.raises(ValueError, match="budget"):
        parse_ideal(", ".join(f"x{j}^2" for j in range(1, 1002)), n=1001)
    with pytest.raises(ValueError, match="exceeds 10000"):
        parse_ideal("x1^2", n=10_001)


def test_colon_two_variable_example():
    # (x^a, y^b, x^alpha y^beta) : x^alpha = (x^(a-alpha), y^beta)
    a, b, alpha, beta = 5, 4, 2, 2
    ideal = MonomialIdeal(2, [(a, 0), (0, b), (alpha, beta)])
    got = colon_by_monomial(ideal, Monomial((alpha, 0)))
    assert got.generators == frozenset({Monomial((a - alpha, 0)), Monomial((0, beta))})


def test_colon_pure_powers_by_full_support():
    ci = parse_ideal("x1^3, x2^3, x3^3")
    got = colon_by_monomial(ci, Monomial((1, 1, 1)))
    assert got.generators == frozenset(
        {Monomial((2, 0, 0)), Monomial((0, 2, 0)), Monomial((0, 0, 2))}
    )


def test_colon_identity_and_unit():
    ideal = parse_ideal(TOGLIATTI)
    assert colon_by_monomial(ideal, Monomial((0, 0, 0))) == ideal
    # m inside the ideal: the colon is the unit ideal
    assert colon_by_monomial(ideal, Monomial((1, 1, 1))).is_unit()


def test_standard_monomials_examples():
    ideal = parse_ideal("x1^2, x2^2, x1*x2")
    assert standard_monomials(ideal, 0) == [Monomial((0, 0))]
    assert standard_monomials(ideal, 1) == [Monomial((1, 0)), Monomial((0, 1))]
    assert standard_monomials(ideal, 2) == []
    assert standard_monomials(ideal, -1) == []


def test_standard_monomials_graded_lex_order():
    ideal = parse_ideal("x1^4, x2^4, x3^4")
    basis = standard_monomials(ideal, 2)
    assert basis[0] == Monomial((2, 0, 0))
    assert basis == sorted(basis, key=lambda m: tuple(m), reverse=True)


def test_standard_monomial_table_matches_product_reference():
    rng = seeded(31)
    ideals = [MonomialIdeal(2, [Monomial((0, 0))]), parse_ideal("x1^5"), parse_ideal("x1, x2, x3")]
    ideals += [parse_ideal("x1^3, x2, x3^4, x4, x1^2*x3, x1*x3^3, x1*x3^2")]
    ideals += [rand_artinian_ideal(rng, rng.randint(1, 5), max_bound=5, extra=4) for _ in range(150)]
    for ideal in ideals:
        table = standard_monomial_table(ideal)
        want = standard_monomial_table_by_product(ideal)
        assert len(table) == len(want), ideal
        for bucket, ref in zip(table, want):
            assert isinstance(bucket, np.ndarray) and bucket.dtype == np.int64
            assert bucket.shape == (len(ref), ideal.n), ideal
            assert bucket.tolist() == [list(m) for m in ref], ideal


def test_standard_monomials_require_artinian():
    with pytest.raises(ValueError):
        standard_monomials(parse_ideal("x1^2", n=2), 1)


def test_standard_monomials_refuse_a_box_over_the_work_budget():
    with pytest.raises(ValueError, match="budget"):
        standard_monomials(parse_ideal("x1^1001, x2^1000"), 0)


def test_pure_power_bounds():
    ideal = parse_ideal("x1^5, x1^3, x3^2, x1*x2", n=3)
    assert [ideal.bounds[i] for i in range(3)] == [3, None, 2]
    assert not ideal.is_artinian()
    closed = plus_monomial(ideal, pure_power(3, 1, 4))
    assert [closed.bounds[i] for i in range(3)] == [3, 4, 2]
    assert closed.is_artinian()
    assert MonomialIdeal(2, [Monomial((0, 0))]).is_artinian()


def test_hilbert_series_golden():
    hs = hilbert_series(parse_ideal(GOLDEN))
    assert hs.offset == 0
    assert hs.coeffs == (1, 4, 9, 15, 19, 19, 15, 9, 4, 1)


def test_hilbert_series_togliatti():
    assert hilbert_series(parse_ideal(TOGLIATTI)).coeffs == (1, 3, 6, 6, 3)


def test_hilbert_series_square_ci():
    assert hilbert_series(parse_ideal("x1^2, x2^2")).coeffs == (1, 2, 1)


def test_hilbert_series_unit_and_errors():
    unit = MonomialIdeal(2, [Monomial((0, 0))])
    assert hilbert_series(unit).is_zero()
    assert hilbert_series_by_counting(unit).is_zero()
    with pytest.raises(ValueError):
        hilbert_series(parse_ideal("x1^2", n=2))


def test_hilbert_routes_agree():
    rng = seeded(23)
    for _ in range(150):
        ideal = rand_artinian_ideal(rng, rng.randint(1, 3), max_bound=5, extra=3)
        assert hilbert_series_by_colon(ideal) == hilbert_series_by_counting(ideal), ideal


def _series_cases():
    """The unit ideal, the field, random ideals of up to 8 extra generators
    and ideals whose cross generators link two separate groups."""
    rng = seeded(29)
    ideals = [MonomialIdeal(3, [Monomial((0, 0, 0))]), MonomialIdeal(2, [(1, 0), (0, 1)])]
    for _ in range(400):
        n = rng.randint(1, 5)
        bounds = [rng.randint(1, 5) for _ in range(n)]
        gens = [pure_power(n, j, b) for j, b in enumerate(bounds)]
        gens += [Monomial(rng.randint(0, b - 1) for b in bounds) for _ in range(rng.randint(0, 8))]
        ideals.append(MonomialIdeal(n, gens))
    return ideals + [separate_components(rng) for _ in range(60)]


def test_hilbert_series_matches_both_reference_routes():
    # a product over the factor plan: closed forms for the free variables
    # and for a group with one cross generator, the basis count beyond
    ideals = _series_cases()
    crosses = {len(ideal.cross) for ideal in ideals if not ideal.is_unit()}
    assert crosses >= set(range(7)), crosses
    plans = [tensor_factors(ideal) for ideal in ideals if not ideal.is_unit()]
    linked = [sum(len(part) > 1 for part, _ in plan) for plan in plans]
    assert sum(count >= 2 for count in linked) >= 50
    groups = [f for plan in plans for _, f in plan if not isinstance(f, int)]
    assert sum(len(group.cross) >= 2 for group in groups) >= 50
    for ideal in ideals:
        got = hilbert_series(ideal)
        assert got == hilbert_series_by_colon(ideal) == hilbert_series_by_counting(ideal), ideal


def test_factor_plan_splits_the_quotient_and_routes_each_factor():
    # a free variable's factor is its exponent, any other its restricted
    # ideal; the variables partition those with a_j >= 2, by least variable
    for ideal in _series_cases():
        plan = tensor_factors(ideal)
        surviving = [j for j, a in enumerate(ideal.bounds) if (a or 0) >= 2]
        parts = [part for part, _ in plan]
        assert parts == sorted(parts) and sorted(j for part in parts for j in part) == (surviving or [0]), ideal
        for part, f in plan:
            if len(part) == 1 and part[0] in surviving:
                assert type(f) is int and f == ideal.bounds[part[0]] >= 2, ideal
                got = ci_series((f,))
            else:
                assert f == restrict(ideal, part), ideal
                got = factor_series(f)
            assert got == hilbert_series_by_counting(restrict(ideal, part)), (ideal, part)


def test_hilbert_series_multiplies_factors_that_check_answers():
    # two linked groups of 100^2 each: the whole basis, 4 * 100^4 exponents,
    # is over the budget, while each factor has a closed form
    ideal = parse_ideal("x1^100, x2^100, x1*x2^50, x3^100, x4^100, x3^50*x4")
    got = hilbert_series(ideal)
    assert got == lefschetz_report(ideal).series
    assert sum(got.coeffs) == (100 * 100 - 99 * 50) ** 2


def test_hilbert_series_refuses_a_product_over_the_work_budget():
    # each group's closed form fits the budget; multiplying their two series
    # of 1,398 coefficients takes 1398 + 1398^2 multiply-adds
    text = "x1^700, x2^700, x1^699*x2^699, x3^700, x4^700, x3^699*x4^699"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^a table of 1955802 entries exceeds the budget"):
        hilbert_series(parse_ideal(text))
    assert time.perf_counter() - start < 5
    half = hilbert_series(parse_ideal("x1^700, x2^700, x1^699*x2^699"))
    assert len(half.coeffs) == 1398


def test_quotient_additivity_small():
    rng = seeded(31)
    for _ in range(300):
        n = rng.randint(1, 3)
        base = rand_artinian_ideal(rng, n, max_bound=4, extra=2)
        m = rand_monomial(rng, n, 4)
        lhs = hilbert_series(base)
        rhs = hilbert_series(plus_monomial(base, m)) + hilbert_series(
            colon_by_monomial(base, m)
        ).shifted(m.degree)
        assert lhs == rhs, (base, m)


def test_series_normalization_and_arithmetic():
    assert HilbertSeries([0, 0, 1, 2, 0]).offset == 2
    assert HilbertSeries([0, 0, 1, 2, 0]).coeffs == (1, 2)
    zero = HilbertSeries([])
    assert zero.is_zero() and zero.offset == 0
    with pytest.raises(ValueError):
        HilbertSeries([1, -1])
    s = HilbertSeries([1, 2, 1])
    assert s[0] == 1 and s[2] == 1 and s[3] == 0 and s[-1] == 0
    assert (s + zero) == s and (s - zero) == s
    assert (s + s).coeffs == (2, 4, 2)
    with pytest.raises(ValueError):
        zero - s
    shifted = s.shifted(2)
    assert shifted.offset == 2 and shifted.socle_degree == 4
    prod = HilbertSeries([1, 1]) * HilbertSeries([1, 2])
    assert prod.coeffs == (1, 3, 2)
    assert series_total(s) == 4
    assert s.to_text() == "1 + 2t + t^2"
    assert zero.to_text() == "0"


NEGATIVE = "^negative coefficient in Hilbert series$"


def _outcome(f, *args):
    """The result of f(*args), or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_series_arithmetic_matches_the_per_degree_references():
    rng = seeded(23)
    zero = HilbertSeries(())
    for _ in range(1500):
        p, q = rand_series(rng), rand_series(rng)
        wide = q.shifted(rng.randint(0, 4))
        # zero operands, a - a, cancellation at the front ((p + q) - p when p
        # starts first) and at the back ((p + q) - q when q ends last), and an
        # other that reaches past self on either side
        pairs = [(p, q), (q, p), (p, zero), (zero, p), (zero, zero), (p, p),
                 (p + q, p), (p + q, q), (p + wide, wide), (p.shifted(2), p), (p, p.shifted(2))]
        for a, b in pairs:
            assert a + b == series_by_degree(a, b, add), (a, b)
            got, want = _outcome(sub, a, b), _outcome(series_by_degree, a, b, sub)
            assert got == want, (a, b)
        for m in range(-1, 7):
            assert p.widened(m) == widened_by_schoolbook(p, m), (p, m)
    cases = [
        (HilbertSeries([1, 2, 3]), HilbertSeries([1]), HilbertSeries([2, 3], 1)),
        (HilbertSeries([1, 2, 3]), HilbertSeries([0, 0, 3]), HilbertSeries([1, 2])),
        (HilbertSeries([1, 2, 3], 2), HilbertSeries([1, 2, 3], 2), zero),
    ]
    for a, b, want in cases:
        assert a - b == want
    one = HilbertSeries([1])
    for a, b in [(zero, one), (one.shifted(1), HilbertSeries([1, 1])),
                 (one.shifted(1), HilbertSeries([1, 1], 1)),
                 (HilbertSeries([1, 2]), HilbertSeries([1, 3]))]:
        with pytest.raises(ValueError, match=NEGATIVE):
            a - b
    with pytest.raises(ValueError, match=NEGATIVE):
        HilbertSeries([3, -1, 2])


def test_widening_is_total_on_zero_series_and_empty_boxes():
    s = HilbertSeries([1, 2, 1], 3)
    for m in (0, -1, -4):
        assert s.widened(m).is_zero() and s.widened(m) == HilbertSeries(())
    for m in (-1, 0, 1, 5):
        assert HilbertSeries(()).widened(m) == HilbertSeries(())
    assert s.widened(1) == s and s.widened(3) == HilbertSeries([1, 3, 4, 3, 1], 3)
    # a public piece with an empty box widens to nothing, as its product with
    # the series of an empty box did
    piece = CsmPiece((2, 3), 0, 0)
    assert piece.widened_series() == HilbertSeries(())
    assert piece.as_dict()["widened_series"] == {"offset": 0, "coeffs": []}


def test_ci_series():
    assert ci_series([2, 2]).coeffs == (1, 2, 1)
    assert ci_series([1, 1, 1]).coeffs == (1,)
    assert ci_series([4]).coeffs == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        ci_series([0])
    with pytest.raises(ValueError):
        ci_series([3, 0, 2])
    assert ci_series((4, 2, 3)) == ci_series([2, 3, 4]) == ci_series([3, 4, 2])
    assert ci_series([]) == HilbertSeries([1])


def test_ci_series_refuses_a_product_over_the_work_budget():
    # cost = multiply-adds of the boxes' product from the series 1: a1 + a1 * a2
    assert ci_series([500, 500]).coeffs[499] == 500  # 500 + 500 * 500 multiply-adds
    with pytest.raises(ValueError, match="budget"):
        ci_series([30000, 30000])
    with pytest.raises(ValueError, match="budget"):
        ci_series([1001, 1001])  # 1001 + 1001 * 1001 multiply-adds


def test_socle_degree_examples():
    assert MaciSpec((2, 3, 4, 5), (1, 1, 1, 1)).socle_degree() == 9
    assert MaciSpec((3, 3, 3), (1, 1, 1)).socle_degree() == 4
    # two variables: b + alpha - 2 after normalization
    assert MaciSpec((4, 6), (2, 3)).socle_degree() == 6


def test_socle_degree_with_zero_support_slack():
    # the smallest slack must be taken over the support of m only; a cheap
    # non-support variable cannot be dropped below exponent 0
    spec = MaciSpec((4, 4, 2), (1, 1, 0))
    assert spec.socle_degree() == 4
    assert spec.series().socle_degree == 4


def test_socle_degree_matches_series():
    rng = seeded(41)
    for _ in range(400):
        spec = rand_maci(rng, rng.randint(2, 4), 6)
        assert spec.socle_degree() == spec.series().socle_degree, spec


def test_total_dimension_identity():
    rng = seeded(43)
    for _ in range(200):
        spec = rand_maci(rng, rng.randint(2, 4), 6)
        assert series_total(spec.series()) == total_dimension(spec), spec


def test_maci_series_matches_counting():
    rng = seeded(47)
    for _ in range(150):
        spec = rand_maci(rng, rng.randint(2, 4), 5)
        assert spec.series() == hilbert_series_by_counting(spec.ideal()), spec


def test_maci_spec_validation():
    with pytest.raises(ValueError):
        MaciSpec((3, 3), (0, 0))  # unit extra generator
    with pytest.raises(ValueError):
        MaciSpec((3, 3), (2, 0))  # single-variable support
    with pytest.raises(ValueError):
        MaciSpec((3, 3), (3, 1))  # m_i >= a_i
    with pytest.raises(ValueError):
        MaciSpec((3, 0), (1, 1))
    with pytest.raises(ValueError):
        MaciSpec((3,), (1,))
    with pytest.raises(ValueError, match="different lengths"):
        MaciSpec((3, 3, 3), (1, 1))


@pytest.mark.parametrize(
    "exponents, error, message",
    [
        ((2**63, -1), OverflowError, "exponent exceeds the 63-bit guard"),
        ((-1, 2**63), ValueError, f"negative exponent in (-1, {2**63})"),
        ((3, -2, 2**63), ValueError, f"negative exponent in (3, -2, {2**63})"),
        ((0, 2**63 - 1, 2**64), OverflowError, "exponent exceeds the 63-bit guard"),
    ],
)
def test_monomial_refusals_name_the_first_bad_entry(exponents, error, message):
    with pytest.raises(error) as exc:
        Monomial(exponents)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "a, m, error, message",
    [
        ((1, 0), (1, 0), ValueError, "the extra generator needs m_i < a_i for every i"),
        ((3, 0), (3, 1), ValueError, "the extra generator needs m_i < a_i for every i"),
        ((0, 3), (0, 4), ValueError, "pure power exponents must be >= 1"),
        ((2, 0), (1, 1), ValueError, "pure power exponents must be >= 1"),
        ((3, -1, 2), (1, 1, 5), ValueError, "pure power exponents must be >= 1"),
        ((3, 3), (1, -1), ValueError, "negative exponent in (1, -1)"),
        ((0, 0), (1, 2**63), OverflowError, "exponent exceeds the 63-bit guard"),
        ((0, 3, 3), (1, 1), ValueError, "exponent vectors have different lengths"),
        ((0,), (1,), ValueError, "need at least two variables"),
        ((), (), ValueError, "need at least two variables"),
        ((3, 3, 3), (0, 2, 0), ValueError, "the extra generator must involve at least two variables"),
        ((3, 3), (0, 0), ValueError, "the extra generator must involve at least two variables"),
    ],
)
def test_maci_spec_refusals_keep_their_precedence(a, m, error, message):
    # lengths, then n, then the first index whose a_i or m_i is bad (a_i
    # first), then the support; a bad m entry is refused by Monomial first
    with pytest.raises(error) as exc:
        MaciSpec(a, m)
    assert str(exc.value) == message
    if all(0 <= e < 2**63 for e in m):  # the same refusal for a prebuilt Monomial
        with pytest.raises(error) as exc:
            MaciSpec(a, Monomial(m))
        assert str(exc.value) == message


def test_maci_from_ideal():
    spec = maci_from_ideal(parse_ideal(TOGLIATTI))
    assert spec.a == (3, 3, 3) and tuple(spec.m) == (1, 1, 1)
    with pytest.raises(ValueError):
        maci_from_ideal(parse_ideal("x1^2, x2^2"))
    with pytest.raises(ValueError):
        maci_from_ideal(parse_ideal("x1^4, x2^4, x1*x2^2, x1^2*x2"))
    with pytest.raises(ValueError, match="^non-Artinian ideal: x2 has no pure power$"):
        maci_from_ideal(parse_ideal("x1^2, x1*x2"))
    for text in ("x1^0", "x1^0, x1^3"):  # one generator, the unit monomial, bounds nothing
        with pytest.raises(ValueError, match="^the unit ideal is not an almost complete intersection$"):
            maci_from_ideal(parse_ideal(text))


def test_render_parse_roundtrip_small():
    rng = seeded(53)
    for _ in range(200):
        ideal = rand_artinian_ideal(rng, rng.randint(1, 4), max_bound=6, extra=3)
        assert parse_ideal(render_ideal(ideal)) == ideal, ideal
    with pytest.raises(ValueError):
        render_ideal(MonomialIdeal(2, [Monomial((0, 0))]))
    with pytest.raises(ValueError, match="unit monomial has no text form"):
        render_monomial((0, 0))


def test_pure_power_helper():
    assert pure_power(3, 1, 4) == Monomial((0, 4, 0))
