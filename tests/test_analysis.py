"""Series predicates and the two-variable profile against brute enumeration."""

import pytest

from lefschetz import (
    HilbertSeries,
    coincides,
    hilbert_series,
    is_almost_centered,
    is_symmetric,
    parse_ideal,
    reflecting_degree,
    two_var_profile,
)
from _util import (
    is_almost_centered_noncrossing,
    is_unimodal,
    profile_shape,
    rand_series,
    seeded,
    shape_case,
    symmetric_product_check,
    two_var_series_by_enumeration,
)

GOLDEN = HilbertSeries([1, 4, 9, 15, 19, 19, 15, 9, 4, 1])
TOGLIATTI = HilbertSeries([1, 3, 6, 6, 3])
STAIRS = HilbertSeries([1, 2, 1, 1, 1])  # k[x,y]/(x^2, y^5, x*y)


def test_is_symmetric():
    assert is_symmetric(GOLDEN)
    assert not is_symmetric(TOGLIATTI)
    assert is_symmetric(HilbertSeries([1]))
    with pytest.raises(ValueError):
        is_symmetric(HilbertSeries([]))


def test_stairs_series_is_the_two_var_quotient():
    assert hilbert_series(parse_ideal("x1^2, x2^5, x1*x2")) == STAIRS


def test_reflecting_degree():
    # twice the center: 9/2, 1 and 7/2
    assert reflecting_degree(GOLDEN) == 9
    assert reflecting_degree(HilbertSeries([1, 2, 1])) == 2
    assert reflecting_degree(HilbertSeries([1, 1], offset=3)) == 7
    with pytest.raises(ValueError):
        reflecting_degree(TOGLIATTI)


def test_coincides():
    assert coincides(9, 9)
    assert coincides(9, 10)
    assert coincides(10, 9)
    assert not coincides(8, 10)


def test_is_unimodal():
    assert is_unimodal(STAIRS)
    assert not is_unimodal(HilbertSeries([1, 2, 1, 2]))
    assert is_unimodal(TOGLIATTI)
    assert is_unimodal(HilbertSeries([]))
    assert is_unimodal(HilbertSeries([5]))


def test_is_almost_centered_examples():
    # k[x,y]/(x^4, y^6, x^2 y^3)
    assert is_almost_centered(two_var_series_by_enumeration(4, 6, 2, 3))
    assert not is_almost_centered(STAIRS)
    assert is_almost_centered(GOLDEN)  # symmetric and unimodal
    with pytest.raises(ValueError):
        is_almost_centered(HilbertSeries([1, 1], offset=2))
    with pytest.raises(ValueError):
        is_almost_centered(HilbertSeries([]))


def test_almost_centered_routes_agree_exhaustively():
    # every trimmed vector of length <= 5 with entries 1..8
    from itertools import product

    for length in range(1, 6):
        for coeffs in product(range(1, 9), repeat=length):
            hs = HilbertSeries(coeffs)
            assert is_almost_centered(hs) == is_almost_centered_noncrossing(hs), coeffs


def test_almost_centered_routes_agree_random():
    rng = seeded(61)
    for _ in range(4000):
        hs = rand_series(rng, max_len=12, max_coeff=8)
        hs = HilbertSeries(hs.coeffs)  # drop the offset
        assert is_almost_centered(hs) == is_almost_centered_noncrossing(hs), hs


def test_symmetric_unimodal_implies_almost_centered():
    rng = seeded(67)
    for _ in range(500):
        half = [rng.randint(1, 9)]
        for _ in range(rng.randint(0, 5)):
            half.append(half[-1] + rng.randint(0, 3))
        middle = [half[-1] + rng.randint(0, 2)] if rng.random() < 0.5 else []
        coeffs = half + middle + half[::-1]
        hs = HilbertSeries(coeffs)
        assert is_symmetric(hs) and is_unimodal(hs)
        assert is_almost_centered(hs), coeffs


def test_two_var_profile_examples():
    prof = two_var_profile(4, 6, 2, 3)
    _, socle, symmetric = profile_shape(prof)
    assert prof.almost_centered and not symmetric and socle == 6
    assert not two_var_profile(4, 6, 2, 4).almost_centered
    _, socle, symmetric = profile_shape(two_var_profile(2, 3, 1, 1))
    assert symmetric and socle == 2


def test_two_var_profile_normalization():
    prof = two_var_profile(5, 2, 1, 1)  # a + beta > b + alpha, so swap
    straight = two_var_profile(2, 5, 1, 1)
    assert prof.swapped and not straight.swapped
    assert (prof.a, prof.b, prof.alpha, prof.beta) == (2, 5, 1, 1)
    assert profile_shape(prof)[1] == profile_shape(straight)[1] == 4
    assert prof.almost_centered == straight.almost_centered is False


def test_two_var_profile_validation():
    with pytest.raises(ValueError):
        two_var_profile(2, 3, 2, 1)  # alpha >= a
    with pytest.raises(ValueError):
        two_var_profile(2, 3, 0, 1)
    with pytest.raises(ValueError):
        two_var_profile(2, 3, 1, 3)


def test_two_var_profile_against_enumeration():
    # the full grid up to 14 runs in the acceptance suite; this covers <= 8
    for a in range(2, 9):
        for b in range(2, 9):
            for alpha in range(1, a):
                for beta in range(1, b):
                    if a + beta > b + alpha:
                        continue
                    prof = two_var_profile(a, b, alpha, beta)
                    max_degree, socle, symmetric = profile_shape(prof)
                    hs = two_var_series_by_enumeration(a, b, alpha, beta)
                    c = hs.coeffs
                    peak = max(c)
                    first = c.index(peak)
                    assert is_unimodal(hs)
                    assert all(c[k + 1] == c[k] + 1 for k in range(first))
                    assert all(c[k] - c[k + 1] in (0, 1, 2) for k in range(first, len(c) - 1))
                    assert c[max_degree] == peak
                    assert hs.socle_degree == socle
                    assert symmetric == is_symmetric(hs)
                    assert prof.almost_centered == is_almost_centered(hs)


def test_profile_shape_case_is_deterministic():
    seen = set()
    for a in range(2, 8):
        for b in range(2, 8):
            for alpha in range(1, a):
                for beta in range(1, b):
                    seen.add(shape_case(two_var_profile(a, b, alpha, beta)))
    assert "all_on_top" in seen


def test_symmetric_product_check_examples():
    p = HilbertSeries([1, 1])
    q = HilbertSeries([1, 1, 1])
    assert symmetric_product_check(p, q) == (True, True, True)
    assert symmetric_product_check(p, HilbertSeries([1, 2])) == (True, False, False)
    r = HilbertSeries([2, 5, 3])
    one = HilbertSeries([1])
    assert symmetric_product_check(one, r)[2] == is_symmetric(r)
    with pytest.raises(ValueError):
        symmetric_product_check(HilbertSeries([]), p)


def test_symmetric_product_biconditional_small():
    rng = seeded(71)
    for _ in range(500):
        p = rand_series(rng, palindrome=rng.random() < 0.5)
        q = rand_series(rng, palindrome=rng.random() < 0.5)
        flags = symmetric_product_check(p, q)
        assert sum(flags) != 2, (p, q)
