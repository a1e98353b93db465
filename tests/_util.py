"""Shared helpers for the test suite: random generators and small oracles."""

import random
from functools import lru_cache
from itertools import product
from math import factorial

import numpy as np

from lefschetz import (
    HilbertSeries,
    HypothesisViolation,
    LefschetzReport,
    MaciSpec,
    MapRecord,
    Monomial,
    MonomialIdeal,
    hilbert_series,
    is_symmetric,
    matrix_rank,
    render_monomial,
    standard_monomial_table,
    symmetric_witness,
)
from lefschetz.cli import _survey_one, survey_rows
from lefschetz.oracle import (
    _PRIME,
    CERT_EMPTY,
    CERT_EXACT,
    CERT_MOD_P,
    _echelon_mod_prime,
    _power_table,
    _reason_for,
)

SHAPE_ALL_ON_TOP = "all_on_top"
SHAPE_ALL_ON_RIGHT = "all_on_right"
SHAPE_SLANT_1 = "slant_1"
SHAPE_SLANT_2 = "slant_2"
SHAPE_SLANT_3 = "slant_3"


def is_pure_power(m):
    """Whether the monomial m is a power of a single variable."""
    return len(m.support) == 1


def minimalize_pairwise(gens):
    """Reference minimalization: every generator, in ascending degree, is
    compared with every one kept before it across all exponents."""
    mons = {g if isinstance(g, Monomial) else Monomial(g) for g in gens}
    kept = []
    for g in sorted(mons, key=lambda m: (m.degree, m)):
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return frozenset(kept)


@lru_cache(maxsize=256)
def standard_monomial_table_by_product(ideal):
    """Reference basis: standard monomials of R/I as Monomials bucketed by
    degree, from a Python product over the whole box below the pure powers,
    each bucket in graded lex order (x1 largest)."""
    if ideal.is_unit():
        return ()
    bounds = ideal.bounds
    cross = [tuple(g) for g in ideal.generators if not is_pure_power(g)]
    buckets = [[] for _ in range(sum(bounds) - ideal.n + 1)]
    ranges = [range(b - 1, -1, -1) for b in bounds]
    for exps in product(*ranges):
        if any(all(e >= ge for e, ge in zip(exps, g)) for g in cross):
            continue
        buckets[sum(exps)].append(Monomial(exps))
    while buckets and not buckets[-1]:
        buckets.pop()
    return tuple(tuple(b) for b in buckets)


def standard_monomials(ideal, degree):
    """Degree-d monomial basis of R/I (graded lex order, x1 largest)."""
    table = standard_monomial_table(ideal)
    if degree < 0 or degree >= len(table):
        return []
    return [Monomial(row) for row in table[degree].tolist()]


def times(u, v):
    """The product of two monomials."""
    return Monomial(a + b for a, b in zip(u, v))


def series_total(hs):
    """Sum of all coefficients (the vector space dimension)."""
    return sum(hs.coeffs)


def is_symmetric_maci(spec):
    return symmetric_witness(spec) is not None


def map_at(report, i, t):
    """The record of l^t : A_i -> A_{i+t} in a LefschetzReport."""
    for rec in report.maps:
        if rec.i == i and rec.t == t:
            return rec
    raise KeyError((i, t))


def hilbert_series_by_counting(ideal):
    """The Hilbert series by counting standard monomials per degree: the
    enumeration route, independent of the closed forms and the colon
    recursion of hilbert_series."""
    return HilbertSeries([len(bucket) for bucket in standard_monomial_table(ideal)])


def render_ideal(ideal):
    """Inverse of parse_ideal on nonzero, non-unit ideals."""
    if ideal.is_zero():
        raise ValueError("the zero ideal has no text form")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no text form")
    return ", ".join(render_monomial(g) for g in ideal.sorted_generators())


def plus_monomial(ideal, m):
    """The ideal I + (m)."""
    return MonomialIdeal(ideal.n, list(ideal.generators) + [Monomial(m)])


def contains(ideal, m):
    return any(g.divides(m) for g in ideal.generators)


def total_dimension(spec):
    """dim_k R/I = prod a_i - prod (a_i - m_i), by inclusion-exclusion."""
    box = 1
    inner = 1
    for ai, mi in zip(spec.a, spec.m):
        box *= ai
        inner *= ai - mi
    return box - inner


def is_unimodal(hs):
    if hs.is_zero():
        return True
    c = hs.coeffs
    k = 1
    while k < len(c) and c[k] >= c[k - 1]:
        k += 1
    while k < len(c) and c[k] <= c[k - 1]:
        k += 1
    return k == len(c)


def rand_monomial(rng, n, max_exp):
    return Monomial(rng.randint(0, max_exp) for _ in range(n))


def rand_artinian_ideal(rng, n, max_bound=5, extra=2):
    """Pure powers in every variable plus a few random monomials."""
    gens = []
    bounds = [rng.randint(1, max_bound) for _ in range(n)]
    for i, b in enumerate(bounds):
        gens.append(Monomial(b if j == i else 0 for j in range(n)))
    for _ in range(rng.randint(0, extra)):
        g = Monomial(rng.randint(0, b - 1) for b in bounds)
        if not g.is_unit():
            gens.append(g)
    return MonomialIdeal(n, gens)


def rand_maci(rng, n, max_exp=6):
    """A uniform-ish random spec; retries until the support is large enough."""
    while True:
        a = tuple(rng.randint(1, max_exp) for _ in range(n))
        m = tuple(rng.randint(0, ai - 1) for ai in a)
        if sum(1 for e in m if e) >= 2:
            return MaciSpec(a, m)


def rand_series(rng, max_len=8, max_coeff=9, palindrome=False):
    length = rng.randint(1, max_len)
    coeffs = [rng.randint(1, max_coeff)] + [
        rng.randint(0, max_coeff) for _ in range(length - 1)
    ]
    coeffs[-1] = max(coeffs[-1], 1)
    if palindrome:
        half = coeffs[: (length + 1) // 2]
        coeffs = half + half[: length // 2][::-1]
    return HilbertSeries(coeffs, rng.randint(0, 3))


def two_var_series_by_enumeration(a, b, alpha, beta):
    """Brute-force series of k[x,y]/(x^a, y^b, x^alpha y^beta)."""
    counts = [0] * (a + b - 1)
    for e1 in range(a):
        for e2 in range(b):
            if e1 >= alpha and e2 >= beta:
                continue
            counts[e1 + e2] += 1
    return HilbertSeries(counts)


def seeded(seed):
    return random.Random(seed)


def multiplication_matrix_by_entries(ideal, i, t, coefficients=None):
    """Reference build of the matrix of l^t : A_i -> A_{i+t}, one entry at a time.

    The (u, v) entry is t! / prod((u_j - v_j)!) * prod(c_j^(u_j - v_j)) when
    u - v is componentwise nonnegative, else 0; rows and columns follow the
    graded lex order of the reference basis.
    """
    table = standard_monomial_table_by_product(ideal)
    src = table[i] if i < len(table) else ()
    tgt = table[i + t] if i + t < len(table) else ()
    rows = []
    for u in tgt:
        row = []
        for v in src:
            diff = [ue - ve for ue, ve in zip(u, v)]
            if any(d < 0 for d in diff):
                row.append(0)
                continue
            val = factorial(t)
            for d in diff:
                val //= factorial(d)
            if coefficients is not None:
                for c, d in zip(coefficients, diff):
                    val *= c**d
            row.append(val)
        rows.append(row)
    return rows


def lefschetz_report_all_cells(ideal, coefficients=None):
    """Reference report that ranks every cell l^t : A_i -> A_{i+t}, i + t <= socle.

    Each cell is ranked mod p and, below full rank, again by Bareiss
    elimination; nothing is implied.  Records, witnesses and verdicts come
    in (t, i) order, like lefschetz_report.
    """
    keys, table, center = _power_table(ideal, coefficients)
    series = hilbert_series(ideal)
    if series.is_zero():
        return LefschetzReport(ideal, series, [], True, True, [])
    socle = series.socle_degree
    residues = (table % _PRIME).astype(np.int64)

    maps = []
    witnesses = []
    for t in range(1, socle + 1):
        for i in range(0, socle - t + 1):
            dim_src = len(keys[i])
            dim_tgt = len(keys[i + t])
            small = min(dim_src, dim_tgt)
            if small == 0:
                rank, certificate = 0, CERT_EMPTY
            else:
                cell = center + keys[i + t][:, None] - keys[i]
                pivots, _ = _echelon_mod_prime(residues[cell], _PRIME)
                rank, certificate = len(pivots), CERT_MOD_P
                if rank < small:
                    exact = matrix_rank(table[cell].tolist())
                    if exact < rank:
                        raise HypothesisViolation(
                            f"exact rank {exact} of l^{t} on degree {i} is below its rank mod p, {rank}"
                        )
                    rank, certificate = exact, CERT_EXACT
            full = rank == small
            reason = _reason_for(rank, dim_src, dim_tgt)
            maps.append(MapRecord(i, t, dim_src, dim_tgt, rank, full, reason, certificate))
            if not full:
                witnesses.append((i, t))
    wlp = all(rec.full_rank for rec in maps if rec.t == 1)
    slp = not witnesses
    return LefschetzReport(ideal, series, maps, wlp, slp, witnesses)


def tensor_map_full_rank(base_series, d, i, t) -> bool:
    """Full rank of l^t : A_i -> A_{i+t} on A = B (x) k[z]/(z^d), from B's
    Hilbert function alone.

    B is assumed strong Lefschetz, so every base map l^e : B_j -> B_{j+e}
    has full rank and its direction is forced by the dimensions.  The tensor
    map has full rank exactly when the base maps

        l^(2q + t - (d-1)) : B_{i-q} -> B_{i+q+t-(d-1)},
        q = max(0, d - t), ..., d - 1

    can all have full rank for one common reason: all injective or all
    surjective.  Dimensions outside the support count as 0; a zero source is
    injective-capable and a zero target surjective-capable.
    """
    if d < 1:
        raise ValueError("the tensor exponent d must be >= 1")
    if t < 0:
        raise ValueError("the power t must be >= 0")
    injective_ok = True
    surjective_ok = True
    for q in range(max(0, d - t), d):
        exp = 2 * q + t - (d - 1)
        if exp < 0:
            continue  # vacuous map; cannot occur for t >= 1
        dim_src = base_series[i - q]
        dim_tgt = base_series[i + q + t - (d - 1)]
        if dim_src > dim_tgt:
            injective_ok = False
        elif dim_src < dim_tgt:
            surjective_ok = False
    return injective_ok or surjective_ok


def shape_case(profile):
    """Informational case of a normalized TwoVarProfile, mirroring the
    possible shapes of the sum of the two complete intersection series;
    ties go to the first match."""
    a, b, alpha, beta = profile.a, profile.b, profile.alpha, profile.beta
    if a + beta - 2 <= b - 1:
        return SHAPE_ALL_ON_TOP
    if b <= alpha:
        return SHAPE_ALL_ON_RIGHT
    if max(a, alpha + beta) <= b:
        return SHAPE_SLANT_1
    if min(a, alpha + beta) <= b:
        return SHAPE_SLANT_2
    return SHAPE_SLANT_3


def is_almost_centered_noncrossing(hs) -> bool:
    """Equivalent no-crossing form of lefschetz.is_almost_centered.

    Once two coefficients compare strictly (h_i < h_j or h_i > h_j for some
    i < j), every widened pair h_{i-s}, h_{j+s} must compare the same way.
    Scanning each center i + j from narrow to wide pairs, the nonzero
    comparison signs must therefore all agree.
    """
    if hs.is_zero():
        raise ValueError("almost-centeredness is undefined for the zero series")
    if hs.offset != 0:
        raise ValueError("almost-centeredness requires a series starting in degree 0")
    top = hs.socle_degree
    for center in range(2 * top + 1):
        first_sign = 0
        lo = min(-1, center - top - 1)
        for i in range((center - 1) // 2, lo - 1, -1):
            left, right = hs[i], hs[center - i]
            sign = (left < right) - (left > right)
            if sign == 0:
                continue
            if first_sign == 0:
                first_sign = sign
            elif sign != first_sign:
                return False
    return True


def symmetric_product_check(p, q):
    """(p symmetric, q symmetric, p*q symmetric) for nonzero series.

    For the property suite: whenever two of the three are palindromes, so
    is the third.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("factors must be nonzero")
    return (is_symmetric(p), is_symmetric(q), is_symmetric(p * q))


def survey_disagreements(specs):
    """Survey rows whose closed-form verdict contradicts the rank oracle."""
    return [row for row in survey_rows(specs, jobs=1) if row.agreement is False]


def survey_rows_per_spec(specs):
    """Reference sweep: classify_maci and lefschetz_report on every labeled spec."""
    return [_survey_one((spec.a, tuple(spec.m))) for spec in specs]
