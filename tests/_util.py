"""Shared helpers for the test suite: random generators and small oracles."""

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, lcm
from types import SimpleNamespace

import numpy as np

from lefschetz import (
    HilbertSeries,
    HypothesisViolation,
    IdealSyntaxError,
    MaciSpec,
    MapRecord,
    Monomial,
    MonomialIdeal,
    ci_series,
    hilbert_series,
    is_symmetric,
    matrix_rank,
    pure_power,
    render_monomial,
    slp_symmetric,
    standard_monomial_table,
    symmetric_witness,
    two_var_profile,
)
from lefschetz.classify import (
    RULE_ALMOST_CENTERED,
    RULE_N3_CUBE_LE_2,
    RULE_N_EQ_2,
    RULE_NOT_APPLICABLE,
    RULE_SYMMETRIC_HS,
    _support_chains,
)
from lefschetz.cli import _survey_one, survey_rows
from lefschetz.core import MAX_EXPONENT, MAX_VAR_INDEX, check_table_size
from lefschetz.oracle import (
    _PRIME,
    CERT_MOD_P,
    _echelon_mod_prime,
    _power_table,
    _rational,
)

DIGITS = "0123456789"  # str.isdigit also admits non-ASCII digits
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
    enumeration route, independent of the closed forms."""
    return HilbertSeries([len(bucket) for bucket in standard_monomial_table(ideal)])


def colon_by_monomial(ideal, m):
    """The quotient ideal I : (m), generated by g / gcd(g, m) over the
    generators g, i.e. exponentwise max(g_i - m_i, 0)."""
    return MonomialIdeal(
        ideal.n, (Monomial(max(a - b, 0) for a, b in zip(g, m)) for g in ideal.generators)
    )


def hilbert_series_by_colon(ideal):
    """Reference series by ideal-quotient splitting: each cross generator m
    is split off in turn via

        HS(R/K) = HS(R/(K + (m))) + t^deg(m) * HS(R/(K : m)),

    down to complete intersections, whose series is the product form."""
    if not ideal.is_artinian():
        raise ValueError("Hilbert series requires an Artinian ideal")
    if ideal.is_unit():
        return HilbertSeries(())
    if not ideal.cross:
        return ci_series(ideal.bounds)
    m = max(ideal.cross, key=lambda g: (g.degree, tuple(g)))
    rest = MonomialIdeal(ideal.n, [g for g in ideal.generators if g != m])
    quot = colon_by_monomial(rest, m)
    return hilbert_series_by_colon(rest) - hilbert_series_by_colon(quot).shifted(m.degree)


def series_by_degree(p, q, op):
    """Reference p op q: op on p[d] and q[d] for every degree from the lowest
    offset to the highest socle degree of the nonzero operands, rebuilt
    through the checking constructor (the per-degree walk of p - q)."""
    ends = [d for s in (p, q) if not s.is_zero() for d in (s.offset, s.socle_degree)]
    if not ends:
        return HilbertSeries(())
    lo, hi = min(ends), max(ends)
    return HilbertSeries([op(p[d], q[d]) for d in range(lo, hi + 1)], lo)


def widened_by_schoolbook(series, m):
    """Reference product of series with the box 1 + t + ... + t^(m-1), one
    multiply-add per coefficient and box term; the zero series when m <= 0."""
    out = [0] * (len(series.coeffs) + max(m, 1) - 1)
    for i, c in enumerate(series.coeffs):
        for j in range(m):
            out[i + j] += c
    return HilbertSeries(out, series.offset)


def render_ideal(ideal):
    """Inverse of parse_ideal on nonzero, non-unit ideals."""
    if not ideal.generators:
        raise ValueError("the zero ideal has no text form")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no text form")
    return ", ".join(render_monomial(g) for g in ideal.sorted_generators())


def parse_ideal_by_scanner(text, n=None):
    """Reference parse_ideal: the same grammar, refusals and offsets, read by
    a character scanner, one skip_ws or read_uint step at a time."""
    gens = []
    pos = 0
    length = len(text)

    def skip_ws(p):
        while p < length and text[p].isspace():
            p += 1
        return p

    def read_uint(p, what):
        if p >= length or text[p] not in DIGITS:
            raise IdealSyntaxError(f"expected {what}", p)
        q = p
        while q < length and text[q] in DIGITS:
            q += 1
        return int(text[p:q]), q

    pos = skip_ws(pos)
    if pos == length:
        raise IdealSyntaxError("empty generator list", pos)
    while True:
        exps = {}
        while True:
            pos = skip_ws(pos)
            if pos >= length or text[pos] != "x":
                raise IdealSyntaxError("expected a variable like x1", pos)
            start = pos
            idx, pos = read_uint(pos + 1, "variable index")
            if idx < 1:
                raise IdealSyntaxError("variable indices are 1-based", start + 1)
            if idx > MAX_VAR_INDEX:
                raise IdealSyntaxError("variable index too large", start + 1)
            exp = 1
            pos = skip_ws(pos)
            if pos < length and text[pos] == "^":
                pos = skip_ws(pos + 1)
                exp, pos = read_uint(pos, "exponent")
            total = exps.get(idx - 1, 0) + exp
            if total > MAX_EXPONENT:
                raise OverflowError(f"exponent overflow near offset {pos}")
            exps[idx - 1] = total
            pos = skip_ws(pos)
            if pos < length and text[pos] == "*":
                pos += 1
                continue
            break
        gens.append(exps)
        if pos < length and text[pos] == ",":
            pos += 1
            continue
        break
    pos = skip_ws(pos)
    if pos != length:
        raise IdealSyntaxError("unexpected trailing input", pos)

    width = 1 + max(max(d) for d in gens)
    if n is None:
        n = width
    elif n > MAX_VAR_INDEX:
        raise ValueError(f"the declared variable count {n} exceeds {MAX_VAR_INDEX}")
    elif width > n:
        raise ValueError(f"text uses x{width} but the declared variable count is {n}")
    check_table_size((len(gens), n))
    mons = [Monomial(tuple(d.get(i, 0) for i in range(n))) for d in gens]
    return MonomialIdeal(n, mons)


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


def separate_components(rng):
    """An ideal whose cross generators link two disjoint groups of variables,
    x1..x5 shuffled, the variables outside both groups left free."""
    n = rng.randint(4, 5)
    bounds = [rng.randint(2, 3) for _ in range(n)]
    gens = [pure_power(n, j, a) for j, a in enumerate(bounds)]
    order = rng.sample(range(n), n)
    for group in (order[:2], order[2 : rng.randint(4, n)]):
        for _ in range(rng.randint(1, 2)):
            gens.append([rng.randint(1, a - 1) if j in group else 0 for j, a in enumerate(bounds)])
    return MonomialIdeal(n, gens)


IDEAL_TEXT_TOKENS = ("x", "1", "2", "0", "^", "*", ",", " ", "\t", "\u3000", "\x1c", "\u0661", "y")


def rand_ideal_text(rng):
    """Ideal text that is mostly grammatical: factors with indices 0, 10,000
    and 10,001, exponents up to 2^63 - 1 and ASCII and Unicode whitespace
    around every token, then up to two tokens inserted, deleted or replaced."""
    ws = lambda: rng.choice(["", "", " ", "\t", "\u3000", "\x1c", "\n "])
    num = lambda *rare: rng.choice(rare if rng.random() < 0.1 else ("1", "2", "3", "12", "01"))

    def factor():
        power = ws() + "^" + ws() + num("", "0", "\u0661", "9223372036854775807", "4611686018427387904")
        return "x" + num("", "0", "\u0661", "10000", "10001") + (power if rng.random() < 0.6 else "")

    gens = [
        (ws() + "*" + ws()).join(factor() for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 3))
    ]
    text = list(ws() + (ws() + "," + ws()).join(gens) + ws())
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randrange(len(text) + 1)
        text[at : at + rng.randint(0, 1)] = [rng.choice(IDEAL_TEXT_TOKENS)] * rng.randint(0, 1)
    return "".join(text)


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


def multiplication_matrix_by_entries(ideal, i, t):
    """Reference build of the matrix of l^t : A_i -> A_{i+t}, one entry at a time.

    The (u, v) entry is t! / prod((u_j - v_j)!) when u - v is componentwise
    nonnegative, else 0; rows and columns follow the graded lex order of the
    reference basis.
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
            row.append(val)
        rows.append(row)
    return rows


def echelon_mod_prime_stepwise(matrix, p):
    """Reference row echelon form over F_p that reduces the whole trailing
    block mod p after every pivot and exchanges whole rows; returns what
    ``oracle._echelon_mod_prime`` does, pivot columns and the nonzero rows
    with every pivot scaled to 1, and then the number of row exchanges.
    """
    A = np.mod(matrix, p)
    nrows, ncols = A.shape
    pivots, exchanges = [], 0
    for col in range(ncols):
        rank = len(pivots)
        nz = np.nonzero(A[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
            exchanges += 1
        inv = pow(int(A[rank, col]), p - 2, p)
        A[rank, col:] = A[rank, col:] * inv % p
        below = A[rank + 1 :, col]
        A[rank + 1 :, col:] = (
            A[rank + 1 :, col:] - below[:, None] * A[rank, col:][None, :]
        ) % p
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return pivots, A[: len(pivots)], exchanges


def echelon_mod_prime_by_ints(rows, p):
    """Reference row echelon form over F_p in Python ints, which cannot wrap:
    the pivot search, row swap and pivot scaling of ``echelon_mod_prime_stepwise``
    on a list of rows, returning pivot columns and the nonzero rows as lists."""
    A = [[x % p for x in row] for row in rows]
    pivots = []
    for col in range(len(A[0]) if A else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(A)) if A[r][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col], -1, p)
        A[rank] = [x * inv % p for x in A[rank]]
        for r in range(rank + 1, len(A)):
            c = A[r][col]
            A[r] = [(x - c * y) % p for x, y in zip(A[r], A[rank])]
        pivots.append(col)
    return pivots, A[: len(pivots)]


def integer_kernel_per_entry(residues, modulus, pivots, free, ncols):
    """Reference ``oracle._integer_kernel``: every entry reconstructed as a
    fraction by its own ``_rational`` call, each column scaled by the lcm of
    its denominators; None when any entry has no fraction within the bound."""
    kernel = np.zeros((ncols, len(free)), dtype=object)
    for j, f in enumerate(free):
        fractions = [_rational(x, modulus) for x in residues[:, j]]
        if None in fractions:
            return None
        scale = lcm(*(b for _, b in fractions))
        kernel[f, j] = scale
        kernel[pivots, j] = [a * (scale // b) for a, b in fractions]
    return kernel


def lefschetz_report_all_cells(ideal):
    """Reference report that ranks every cell l^t : A_i -> A_{i+t}, i + t <= socle.

    Each cell is ranked mod p and, below full rank, again by Bareiss
    elimination, which the record names "exact"; nothing is implied.
    Records come in (t, i) order, like lefschetz_report's, and the
    witnesses, wlp and slp are read off them here, cell by cell, with no
    verdict code of the oracle's.
    """
    keys, tables, center = _power_table(ideal)
    table = tables(None)
    series = hilbert_series(ideal)
    socle = 0 if series.is_zero() else series.socle_degree  # no cell when zero
    residues = (table % _PRIME).astype(np.int64)

    maps = []
    for t in range(1, socle + 1):
        for i in range(0, socle - t + 1):
            cell = center + keys[i + t][:, None] - keys[i]
            pivots, _ = _echelon_mod_prime(residues[cell], _PRIME)
            rank, certificate = len(pivots), CERT_MOD_P
            if rank < min(cell.shape):
                exact = matrix_rank(table[cell].tolist())
                if exact < rank:
                    raise HypothesisViolation(
                        f"exact rank {exact} of l^{t} on degree {i} is below its rank mod p, {rank}"
                    )
                rank, certificate = exact, "exact"
            maps.append(MapRecord(i, t, len(keys[i]), len(keys[i + t]), rank, certificate))
    witnesses = [(rec.i, rec.t) for rec in maps if rec.rank < min(rec.dim_src, rec.dim_tgt)]
    return SimpleNamespace(
        ideal=ideal,
        series=series,
        maps=maps,
        witnesses=witnesses,
        wlp=all(t > 1 for _, t in witnesses),
        slp=not witnesses,
    )


def free_strings_one_at_a_time(exponents):
    """Reference strings ((s, e), count) of k[x]/(x_j^(a_j)): each free
    variable is the string [0, a_j - 1], multiplied in one at a time by the
    Clebsch-Gordan rule, [s, e] times [s', e'] giving [s + s' + k, e + e' - k]
    for k <= min(e - s, e' - s').  Sorted by (s, e)."""
    strings = {(0, 0): 1}
    for a in exponents:
        product = {}
        for (s, e), c in strings.items():
            for k in range(min(e - s, a - 1) + 1):
                key = (s + k, e + a - 1 - k)
                product[key] = product.get(key, 0) + c
        strings = product
    return sorted(strings.items())


def jordan_type(report):
    """The lengths of the strings of l on A, longest first, read off the
    report's rank table by second differences: count(s, e) = r(s, e) -
    r(s-1, e) - r(s, e+1) + r(s-1, e+1) strings run from degree s to e, where
    r(i, j) is the rank of l^(j-i) on A_i, h_i when i = j, and 0 outside the
    table."""
    r = report.ranks.tolist()
    top = len(r) - 1

    def at(i, j):
        return r[i][j] if i >= 0 and j <= top else 0

    lengths = []
    for s in range(top + 1):
        for e in range(s, top + 1):
            count = at(s, e) - at(s - 1, e) - at(s, e + 1) + at(s - 1, e + 1)
            if count < 0:
                raise AssertionError(f"{count} strings from degree {s} to {e} in {report.ideal}")
            lengths += [e - s + 1] * count
    return sorted(lengths, reverse=True)


def ranks_from_components(payload):
    """{(i, t): rank} of a report's JSON, recombined from its "components" alone.

    Each factor's l is rebuilt as an explicit graded nilpotent matrix: a
    free variable with exponent a is one string of length a, and a linked
    group has count(s, e) = r(s, e-s) - r(s-1, e-s+1) - r(s, e-s+1) +
    r(s-1, e-s+2) strings from degree s to e, read off its records.  The
    factors are combined as l = l1 (x) 1 + 1 (x) l2 by Kronecker products,
    and each cell of l^t is ranked by Bareiss elimination: a route that
    shares nothing with the oracle's Clebsch-Gordan rule.
    """
    degrees, op = np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=object)
    for component in payload["components"]:
        if "exponent" in component:
            strings = [(0, component["exponent"] - 1)]
        else:
            report = component["report"]
            coeffs = report["hilbert_series"]["coeffs"]
            rank = {(r["i"], r["t"]): r["rank"] for r in report["maps"]}
            rank.update(((i, 0), c) for i, c in enumerate(coeffs))
            r = lambda i, t: rank.get((i, t), 0)  # noqa: E731
            top = len(coeffs) - 1
            strings = [
                (s, e)
                for s in range(top + 1)
                for e in range(s, top + 1)
                for _ in range(r(s, e - s) - r(s - 1, e - s + 1) - r(s, e - s + 1) + r(s - 1, e - s + 2))
            ]
        factor_degrees = np.array([d for s, e in strings for d in range(s, e + 1)], dtype=np.int64)
        shift = np.zeros((len(factor_degrees),) * 2, dtype=object)
        start = 0
        for s, e in strings:
            for k in range(e - s):
                shift[start + k + 1, start + k] = 1
            start += e - s + 1
        op = np.kron(op, np.eye(len(shift), dtype=object)) + np.kron(
            np.eye(len(op), dtype=object), shift
        )
        degrees = np.add.outer(degrees, factor_degrees).ravel()
    top = int(degrees.max())
    ranks, power = {}, np.eye(len(op), dtype=object)
    for t in range(1, top + 1):
        power = op.dot(power)
        for i in range(top - t + 1):
            cell = power[np.ix_(degrees == i + t, degrees == i)]
            ranks[i, t] = matrix_rank(cell.tolist())
    return ranks


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


def profile_shape(profile):
    """(peak degree, socle degree, symmetric) of the series of a normalized
    TwoVarProfile: it peaks in degree min(a, alpha + beta) - 1, its socle
    degree is b + alpha - 2, and it is symmetric iff a + beta = b."""
    a, b, alpha, beta = profile.a, profile.b, profile.alpha, profile.beta
    return min(a, alpha + beta) - 1, b + alpha - 2, a + beta == b


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


def classify_maci_per_spec(spec):
    """Reference classification payload, the as_dict() of a verdict or None:
    support-two specs by the scanning reference, and every symmetric spec
    certified on its own labels through slp_symmetric, with no cache across
    a class."""
    if len(spec.support) == 2:
        return classify_support_two_by_scan(spec)
    witness = symmetric_witness(spec)
    if witness is None:
        return None
    slp_symmetric(spec)
    return {"slp": True, "rule": RULE_SYMMETRIC_HS, "details": {"witness_order": [k + 1 for k in witness]}}


def piece_ideal(piece):
    """The monomial ideal of a CsmPiece, built generator by generator from
    dense pure powers: the route CsmPiece.generators is checked against."""
    if isinstance(piece.quotient, MaciSpec):
        return piece.quotient.ideal()
    n = len(piece.quotient)
    return MonomialIdeal(n, [pure_power(n, i, e) for i, e in enumerate(piece.quotient)])


def classify_support_two_by_scan(spec):
    """Reference support-two payload, the as_dict() of a verdict with its
    details built eagerly: the uncached two-variable profile, the extras
    found by scanning every variable and the active ones listed."""
    supp = spec.support
    if len(supp) != 2:
        raise ValueError("the extra generator must involve exactly two variables")
    i, j = supp
    profile = two_var_profile.__wrapped__(spec.a[i], spec.a[j], spec.m[i], spec.m[j])
    a1, a2, alpha, beta = profile.a, profile.b, profile.alpha, profile.beta
    extras = sorted(spec.a[k] for k in range(spec.n) if k not in supp)
    active = [e for e in extras if e >= 2]
    n_eff = 2 + len(active)
    stars = {
        "a1_eq_alpha_plus_1": a1 == alpha + 1,
        "beta_eq_1": beta == 1,
        "a2_ge_a1_plus_beta_minus_1": a2 >= a1 + beta - 1,
    }
    explicit = a2 < a1 + beta + 2 and any(stars.values())
    details = {
        "support": (i + 1, j + 1),
        "swapped": profile.swapped,
        "a1": a1,
        "a2": a2,
        "alpha": alpha,
        "beta": beta,
        "extras": extras,
        "ignored_unit_exponents": len(extras) - len(active),
        "n_effective": n_eff,
        "two_var_almost_centered": profile.almost_centered,
        "explicit_conditions": explicit,
        "stars": stars,
    }
    if n_eff == 2:
        slp, rule = True, RULE_N_EQ_2
    elif n_eff == 3 and active[0] <= 2:
        slp, rule = True, RULE_N3_CUBE_LE_2
    elif profile.almost_centered:
        slp, rule = True, RULE_ALMOST_CENTERED
    else:
        slp, rule = False, RULE_NOT_APPLICABLE
    return {"slp": slp, "rule": rule, "details": details}


def symmetric_grid_per_spec(n_values, max_socle, max_exp=None):
    """Reference symmetric grid that builds every spec's extra generator
    from its own exponent list, in the enumeration order of symmetric_grid."""
    cap = max_socle + 2 if max_exp is None else min(max_exp, max_socle + 2)
    specs = []
    for n in n_values:
        for size in range(2, n + 1):
            chains = _support_chains(size, cap, max_socle)
            free = {}
            for supp in combinations(range(n), size):
                nonsupp = [k for k in range(n) if k not in supp]
                for values, climbs in chains:
                    budget = max_socle - (climbs[0] + sum(values[1:]) - size)
                    if budget not in free:
                        tuples = product(range(1, cap + 1), repeat=n - size)
                        free[budget] = [e for e in tuples if sum(e) - n + size <= budget]
                    a, m = [0] * n, [0] * n
                    for assign in permutations(range(size)):
                        for pos, k in enumerate(supp):
                            a[k], m[k] = values[assign[pos]], climbs[assign[pos]]
                        for extras in free[budget]:
                            for k, e in zip(nonsupp, extras):
                                a[k] = e
                            specs.append(MaciSpec(a, m))
    return specs
