"""Ground-truth Lefschetz verdicts via exact multiplication-matrix ranks.

The linear form is l = x_1 + ... + x_n; for a monomial ideal its ranks
decide the weak and strong Lefschetz properties (see README).  Every matrix
entry is read from one table (``_power_table``), built once per prime as
int64 residues below 2^26.  ``_certified_rank`` eliminates each ranked cell
modulo primes in turn (``_echelon_mod_prime``), which can only
underestimate the rank over Q, so min(dim) proves full rank; below it,
integer kernel vectors checked over Z on residues alone give the matching
upper bound.  Floating point is never used.

Most cells are never ranked, because three facts that hold for every
standard graded Artinian algebra and every linear form, stated in README
(Migliore, Miro-Roig and Nagel, Trans. AMS 2011, section 2), imply their full
rank from cells already proven.  ``_scheduled_ranks`` therefore visits t
from the socle degree down to 1 and ranks only the cells whose full rank
the proven ones do not imply: for a symmetric Hilbert function of socle
degree D, the central maps l^(D-2i) : A_i -> A_(D-i) when they are
bijective (the strong Lefschetz property in the narrow sense of Harima et
al., LNM 2080).  A deficient cell is never implied, so each one is
certified.  Each cell's ``certificate`` (its ``MapRecord`` is built on
demand) is one of the ``CERT_*`` values below.  A "tensor" rank is read off
the Jordan strings of the factors of the plan (``core.tensor_factors``) by
the Clebsch-Gordan rule, whose terms count against the work budget
(``lefschetz_report``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cache, lru_cache, partial
from itertools import count
from math import isqrt, lcm, prod

import numpy as np

from .core import (
    HypothesisViolation, MonomialIdeal, check_table_size, restrict, standard_monomial_table, tensor_factors
)
from .series import HilbertSeries, ci_series, factor_series

_PRIME = 67_108_859  # the largest prime below 2^26; see _REDUCE_EVERY
_PRIMES = [_PRIME]  # the primes _primes has found so far, in its order
# pivots between reductions of an elimination's trailing block (about 2^11):
# each subtracts at most (p - 1)^2 < 2^52 from an entry in [0, p), and the
# entry must stay above -2^63; also the products of residues summed at once
_REDUCE_EVERY = (2**63 - 1 - _PRIME) // (_PRIME - 1) ** 2

CERT_MOD_P = "mod_p"  # full rank shown by elimination modulo the prime
CERT_KERNEL = "kernel"  # rank mod p matched by kernel vectors verified over Z
CERT_IMPLIED = "implied"  # full rank follows from another proven cell
CERT_TENSOR = "tensor"  # from the factors' ranks by the Clebsch-Gordan rule


def _multinomials(bounds, p=None):
    """Flat table of the multinomials |d|! / prod(d_j!) over the box of differences.

    The box has d_j in [-(a_j - 1), a_j - 1] for the bounds a_j, flattened in
    C order, and holds 0 where some d_j < 0.  Entries are Python ints, or
    int64 residues mod p when ``p`` is given.  The multinomial is the
    product over j of C(d_1 + ... + d_j, d_j), and each C(s + k, k) is the
    running sum over k' <= k of C(s - 1 + k', k') (Pascal's rule), so the
    table is built from additions and products alone and holds for every
    prime, including those below some d_j.
    """
    dtype = object if p is None else np.int64
    orthant = np.ones((), dtype=dtype)
    degree = np.zeros((), dtype=np.int64)  # d_1 + ... + d_j over the orthant so far
    for j, a in enumerate(bounds):
        binomials = np.ones((sum(bounds[:j]) - j + 1, a), dtype=dtype)  # C(s + k, k) at [s, k]
        for s in range(1, len(binomials)):
            binomials[s] = np.cumsum(binomials[s - 1])
            if p is not None:
                binomials[s] %= p
        orthant = orthant[..., None] * binomials[degree]
        if p is not None:
            orthant %= p
        degree = np.add.outer(degree, np.arange(a))
    table = np.zeros([2 * a - 1 for a in bounds], dtype=dtype)
    table[tuple(slice(a - 1, None) for a in bounds)] = orthant
    return table.ravel()


def _power_table(ideal):
    """Keys of the standard monomials and the table of coefficients of powers of l.

    Entry (u, v) of the matrix of l^t is the coefficient of x^(u - v) in
    l^|u - v|, so it depends only on d = u - v, and d_j lies in
    [-(a_j - 1), a_j - 1] where x_j^(a_j) is the pure power of the ideal.
    ``table(p)`` builds ``_multinomials`` over that whole box once per p,
    as int64 residues mod p, or Python ints for p None.  Each degree-i
    standard monomial u gets the mixed-radix key sum(u_j * w_j) with the
    C-order strides w_j of the box, so the entry for (u, v) sits at
    ``center + key(u) - key(v)``.  Every variable of the Artinian ideal
    gets an axis, so the oracle passes it a tensor factor.

    Returns (keys by degree as int64 arrays, table, center).
    A box of more than MAX_TABLE_ENTRIES entries is a ValueError.
    """
    if ideal.is_unit():  # no monomials and no entries
        return (), lambda p: np.zeros(0, dtype=np.int64), 0
    box = [2 * a - 1 for a in ideal.bounds]
    check_table_size(box)
    basis = standard_monomial_table(ideal)
    strides = np.array([prod(box[j + 1 :]) for j in range(len(box))], dtype=np.int64)
    center = int(strides @ (np.array(ideal.bounds, dtype=np.int64) - 1))
    keys = [bucket @ strides for bucket in basis]
    return keys, cache(partial(_multinomials, ideal.bounds)), center


def multiplication_matrix(ideal, i, t):
    """Integer matrix of multiplication by l^t from degree i to degree i + t.

    Rows are indexed by the degree-(i+t) standard monomials, columns by the
    degree-i ones, both in graded lex order.  The (u, v) entry is the
    multinomial coefficient t! / prod((u_j - v_j)!) when u - v is
    componentwise nonnegative, else 0.

    Empty matrices (no rows or no columns) are fine and mean a zero space.
    """
    if t < 1:
        raise ValueError("the power t must be >= 1")
    if i < 0:
        raise ValueError("the source degree must be >= 0")
    variables = sorted(j for part, _ in tensor_factors(ideal) for j in part)
    keys, table, center = _power_table(restrict(ideal, variables))
    empty = np.zeros(0, dtype=np.int64)
    src = keys[i] if i < len(keys) else empty
    tgt = keys[i + t] if i + t < len(keys) else empty
    return table(None)[center + tgt[:, None] - src].tolist()


def matrix_rank(matrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Exact for arbitrary integer entries: every intermediate value is a minor
    of the input matrix, kept as an arbitrary-precision integer.
    """
    M = [[int(x) for x in row] for row in matrix]
    if not M or not M[0]:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if M[r][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        pivot_row = M[rank]
        pivot = pivot_row[col]
        for r in range(rank + 1, nrows):
            row = M[r]
            f = row[col]
            for c in range(col + 1, ncols):
                row[c] = (pivot * row[c] - f * pivot_row[c]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def _echelon_mod_prime(matrix, p):
    """Pivot columns and nonzero rows of a row echelon form of an int64 matrix over F_p.

    ``matrix`` has entries in [0, p) and is left unchanged; every pivot is
    scaled to 1 and the rows are reduced mod p.  Reduction is delayed (Dumas,
    Giorgi and Pernet, ACM TOMS 2008): each step reduces the pivot column, to
    find the pivot, and the pivot row, to scale it in place, and subtracts
    their outer product, unreduced and in place, from the contiguous slab of
    rows from the first to the last one below with a nonzero in the pivot
    column; a row in between loses exactly 0.  An update lowers an entry by
    at most (p - 1)^2, so the block is reduced every ``_REDUCE_EVERY``
    pivots, before int64 could wrap.  Entries left of the pivot column are
    exactly 0 from the pivot row down, so a pivot found lower is moved up by
    exchanging the two rows' tails from that column alone; the loop ends
    once every row holds a pivot.
    """
    A = matrix.copy()
    product = np.empty(A.size, dtype=A.dtype)  # every step's outer product, in one buffer
    pivots = []
    for col in range(A.shape[1]):
        rank = len(pivots)
        if rank == A.shape[0]:
            break
        column = A[rank:, col]
        column %= p
        nz = column.nonzero()[0]
        if nz.size == 0:
            continue
        row = A[rank, col:]
        if nz[0]:  # the old row rank has a 0 here, and moves to rank + nz[0], out of the slab
            A[rank + nz[0], col:], row[:] = row, A[rank + nz[0], col:].copy()
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        if nz.size > 1:
            slab = A[rank + nz[1] : rank + nz[-1] + 1, col:]
            update = product[: slab.size].reshape(slab.shape)
            np.multiply(slab[:, :1], row, out=update)
            slab -= update
        pivots.append(col)
        if len(pivots) % _REDUCE_EVERY == 0:
            A[rank + 1 :, col + 1 :] %= p
    return pivots, A[: len(pivots)]


def _kernel_mod_prime(pivots, echelon, p):
    """Free columns and kernel basis over F_p from ``_echelon_mod_prime``'s output.

    The basis has one vector per free column j: 1 there, 0 in the other
    free columns and -R[k, j] in pivot column k, where R is the reduced row
    echelon form.  Only its entries in the pivot columns are returned, one
    column per free column: back substitution through the unit triangle of
    the echelon form on the free columns alone gives R's free columns, one
    final row at a time subtracted unreduced from the rows above, which are
    reduced every ``_REDUCE_EVERY`` steps as in ``_echelon_mod_prime``.
    """
    free = sorted(set(range(echelon.shape[1])) - set(pivots))
    triangle = echelon[:, pivots]
    X = echelon[:, free]
    for k in range(len(pivots) - 1, 0, -1):  # row k is final once every row below is subtracted
        X[k] %= p
        X[:k] -= triangle[:k, k, None] * X[k]
        if (len(pivots) - k) % _REDUCE_EVERY == 0:
            X[:k] %= p
    return free, -X % p


def _rational(x, modulus):
    """(a, b) with a = b * x mod modulus and |a|, 0 < b <= sqrt(modulus / 2), or None.

    Rational reconstruction by the half extended Euclidean algorithm (Wang,
    Guy and Davenport 1982).
    """
    bound = isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _integer_kernel(residues, modulus, pivots, free, ncols):
    """Integer kernel vectors read back from their residues, or None.

    Column j of ``residues`` holds the entries in the pivot columns of the
    kernel vector of free column ``free[j]``; each is reconstructed as a
    fraction and the vector scaled by the lcm of its denominators.  With
    ``scale`` their lcm so far, x is a / scale when the symmetric residue a
    of x * scale and scale are both within ``_rational``'s bound, which
    allows one fraction; ``_rational`` reads only the other entries.
    """
    bound, half = isqrt(modulus // 2), modulus // 2
    kernel = np.zeros((ncols, len(free)), dtype=object)
    for j, f in enumerate(free):
        fractions, scale = [], 1
        for x in residues[:, j]:
            a = (x * scale + half) % modulus - half
            if abs(a) <= bound and scale <= bound:
                fractions.append((a, scale))
                continue
            if (fraction := _rational(x, modulus)) is None:
                return None
            fractions.append(fraction)
            scale = lcm(scale, fraction[1])
        kernel[f, j] = scale
        kernel[pivots, j] = [a * (scale // b) for a, b in fractions]
    return kernel


def _primes():
    """The primes below 2^26 from ``_PRIME`` down, read by elimination, Chinese
    remaindering and checks over Z: ``_PRIMES``, then each next odd prime
    below its last, found once per process by trial division and kept there."""
    for k in count():
        if k == len(_PRIMES):
            n = _PRIMES[-1] - 2
            while not all(n % d for d in range(3, isqrt(n) + 1, 2)):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[k]


def _vanishes(cell, table, bound, kernel) -> bool:
    """Whether the matrix M that ``cell`` indexes times the integer ``kernel`` K is 0 over Z.

    With entries of M at most ``bound`` in absolute value, M K = 0 once it
    vanishes modulo primes of ``_primes()`` whose product exceeds c * bound *
    max|K| for c columns.  Mod each prime q, ``table(q)[cell]`` times K mod
    q is summed in int64 over ``_REDUCE_EVERY`` columns at a time, so no sum
    of products below 2^52 wraps.
    """
    limit = cell.shape[1] * bound * max(map(abs, kernel.flat))
    modulus = 1
    for q in _primes():
        if modulus > limit:
            return True
        M, K, n = table(q)[cell], (kernel % q).astype(np.int64), _REDUCE_EVERY
        if (sum(M[:, j : j + n] @ K[j : j + n] % q for j in range(0, len(K), n)) % q).any():
            return False
        modulus *= q


def _certified_rank(cell, table, bound):
    """Rank over Q of the matrix that ``cell`` indexes in the tables ``table(p)``, and its certificate.

    The matrix has entries at most ``bound`` and is taken in the orientation
    with no more columns than rows.  Each prime of ``_primes()`` eliminates
    it in turn, and full rank is ``mod_p``.  Otherwise the pivots are keyed
    (-len(pivots), pivots): a key below every earlier one restarts the
    Chinese remaindering of kernel residues (``_kernel_mod_prime``) from
    this prime, an equal key adds its residues, and a larger one is skipped.
    The residues are lifted to integer vectors (``_integer_kernel``),
    independent by their identity block on the free columns; once the
    matrix times them is 0 over Z (``_vanishes``), its rank is at most
    len(pivots), which the elimination shows is at least len(pivots):
    ``kernel`` (Kaltofen, Nehring and Saunders, ISSAC 2011).

    The loop ends.  Mod p the rank of each leading block of columns can only
    fall, so the pivot columns over Q, the elementwise least, have the least
    key, and all but the finitely many primes that divide a nonzero minor of
    the cell give them.  Those primes share the reduced echelon form over Q,
    so reconstruction and the check succeed once their product is large
    enough.
    """
    if cell.shape[1] > cell.shape[0]:
        cell = cell.T
    least, residues, modulus = (1,), 0, 1  # (1,) is above every key
    for p in _primes():
        pivots, echelon = _echelon_mod_prime(table(p)[cell], p)
        if len(pivots) == cell.shape[1]:
            return len(pivots), CERT_MOD_P
        key = (-len(pivots), pivots)
        if key > least:
            continue
        if key < least:
            least, residues, modulus = key, 0, 1
        free, block = _kernel_mod_prime(pivots, echelon, p)
        block = block.astype(object)
        # the residues mod modulus * p that match those of every prime so far
        residues = residues + modulus * ((block - residues) * pow(modulus, -1, p) % p)
        modulus *= p
        kernel = _integer_kernel(residues, modulus, pivots, free, cell.shape[1])
        if kernel is not None and _vanishes(cell, table, bound, kernel):
            return len(pivots), CERT_KERNEL


@dataclass
class MapRecord:
    """One map l^t : A_i -> A_{i+t}, its exact rank and what that rank makes it."""

    i: int
    t: int
    dim_src: int
    dim_tgt: int
    rank: int
    full_rank: bool = field(init=False)
    reason: str = field(init=False)
    certificate: str  # one of CERT_MOD_P, CERT_KERNEL, CERT_IMPLIED, CERT_TENSOR
    implied_by: object = None  # (i, t) of the proven cell implying this one

    def __post_init__(self):
        self.full_rank = self.rank == min(self.dim_src, self.dim_tgt)
        if self.rank == self.dim_src:
            self.reason = "bijective" if self.rank == self.dim_tgt else "injective"
        else:
            self.reason = "surjective" if self.rank == self.dim_tgt else "neither"

    def as_dict(self):
        record = {name: getattr(self, name) for name in _RECORD_FIELDS}
        record["implied_by"] = None if self.implied_by is None else list(self.implied_by)
        return record


# the fields in declaration order; vars() would put the derived ones last
_RECORD_FIELDS = tuple(f.name for f in fields(MapRecord))


@dataclass
class LefschetzReport:
    """The rank table of the maps with i + t <= socle, and the verdicts it gives.

    ``ranks[i, j]`` (Python ints) is the rank of l^(j - i) on A_i for i < j, h_i
    for i = j and 0 below; ``proofs`` maps (i, t) to (certificate, implied_by), and
    a cell missing from it is "tensor".  A map fails below min(h_i, h_{i+t}).
    """

    ideal: MonomialIdeal
    ranks: np.ndarray
    proofs: dict
    components: tuple = ()  # with several factors, core.tensor_factors' plan
    series: HilbertSeries = field(init=False)
    wlp: bool = field(init=False)
    slp: bool = field(init=False)
    witnesses: list = field(init=False)

    def __post_init__(self):
        h = self.ranks.diagonal()
        self.series = HilbertSeries(h)
        i, j = np.nonzero(np.triu(self.ranks < np.minimum.outer(h, h), 1))
        self.witnesses = sorted(zip(i.tolist(), (j - i).tolist()), key=lambda w: (w[1], w[0]))
        self.wlp = all(t > 1 for _, t in self.witnesses)
        self.slp = not self.witnesses

    @property
    def maps(self):
        """The record of every map with i + t <= socle, in (t, i) order, built on each call."""
        r = self.ranks.tolist()
        return [
            MapRecord(i, t, r[i][i], r[i + t][i + t], r[i][i + t], *self.proofs.get((i, t), (CERT_TENSOR, None)))
            for t in range(1, len(r))
            for i in range(len(r) - t)
        ]

    def as_dict(self):
        report = {
            "n": self.ideal.n,
            "generators": [list(g) for g in self.ideal.sorted_generators()],
            "hilbert_series": self.series.as_dict(),
            "wlp": self.wlp,
            "slp": self.slp,
            "witnesses": [list(w) for w in self.witnesses],
            "maps": [rec.as_dict() for rec in self.maps],
        }
        for part, f in self.components:
            factor = {"exponent": f} if isinstance(f, int) else {"report": _component(f)[0].as_dict()}
            report.setdefault("components", []).append({"variables": [j + 1 for j in part], **factor})
        return report


def _scheduled_ranks(ideal):
    """Rank table and proofs of ``ideal`` by the implication-scheduled ranking.

    Beyond the socle degree every target space is zero and full rank is
    automatic, so those cells are not enumerated.  No cell has a zero source
    or target: A_i = 0 would force A_{i+1} = A_1 A_i = 0, so the Hilbert
    function has no internal zeros (Harima et al.).  A cell implied by a
    proven one (see the module docstring) names it as its ``implied_by``.
    """
    keys, table, center = _power_table(ideal)
    h = [len(bucket) for bucket in keys]
    ranks = np.diag(np.array(h, dtype=object))

    injective = {}  # source degree -> a proven cell (i, t) injective on it
    surjective = (len(h), None)  # least i + t of a proven surjective cell, and that cell
    proofs = {}
    for t in range(len(h) - 1, 0, -1):
        for i in range(len(h) - t):
            dim_src, dim_tgt = h[i], h[i + t]
            if dim_src <= dim_tgt and i in injective:
                rank, proofs[i, t] = dim_src, (CERT_IMPLIED, injective[i])
            elif dim_src >= dim_tgt and i + t >= surjective[0]:
                rank, proofs[i, t] = dim_tgt, (CERT_IMPLIED, surjective[1])
            else:
                cell = center + keys[i + t][:, None] - keys[i]
                # every entry of l^t is a multinomial of (x_1 + ... + x_n)^t, at most n^t
                rank, certificate = _certified_rank(cell, table, ideal.n**t)
                proofs[i, t] = (certificate, None)
            ranks[i, i + t] = rank
            # a full-rank square cell is bijective and proves both directions
            if rank == dim_src <= dim_tgt:
                injective.setdefault(i, (i, t))
            if rank == dim_tgt <= dim_src and i + t < surjective[0]:
                surjective = (i + t, (i, t))
    return ranks, proofs


@lru_cache(maxsize=1024)
def _component(group):
    """Report and strings ((s, e), count) of a linked group's ideal, whose strings
    [s, e] number r(s, e-s) - r(s-1, e-s+1) - r(s, e-s+1) + r(s-1, e-s+2),
    r(i, t) = rank l^t|A_i, read off the report's rank table."""
    report = LefschetzReport(group, *_scheduled_ranks(group))
    count = np.triu(-np.diff(np.diff(report.ranks, axis=0, prepend=0), axis=1, append=0))
    if (count < 0).any():
        raise HypothesisViolation(f"the ranks of {group} give a negative count of strings")
    strings = tuple(((int(s), int(e)), count[s, e]) for s, e in zip(*np.nonzero(count)))
    return report, strings


def _free_strings(exponents):
    """Strings ((s, e), count) of the complete intersection of the free variables'
    exponents: it has the SLP (Stanley 1980), so with socle degree D and
    Hilbert function h its strings are [i, D - i], h_i - h_(i-1) of them for
    i <= D / 2, read off ``ci_series``."""
    h = (0,) + ci_series(exponents).coeffs
    top = len(h) - 2
    return tuple(((i, top - i), h[i + 1] - h[i]) for i in range(top // 2 + 1) if h[i + 1] > h[i])


def lefschetz_report(ideal) -> LefschetzReport:
    """Exact rank table of every map l^t : A_i -> A_{i+t}, i + t <= socle.

    With several factors in ``core.tensor_factors``' plan, each linked group
    is ranked once per process, the free variables are one complete
    intersection (``_free_strings``), strings [s, e] and [s', e'] combine
    into [s + s' + k, e + e' - k] for k below both lengths (Clebsch-Gordan;
    see README), and the rank of l^t on A_i (h_i when t = 0) counts the
    strings with s <= i and e >= i + t.  The budget counts each group's
    power table, then the (D + 1)^2 ranks of the socle degree D read off
    the factors' series, all before any group is ranked, and the terms of
    the combination so far, before each factor is combined.
    """
    components = tensor_factors(ideal)
    if len(components) < 2:
        return LefschetzReport(ideal, *_scheduled_ranks(restrict(ideal, components[0][0])))
    free = [f for _, f in components if isinstance(f, int)]
    groups = [f for _, f in components if not isinstance(f, int)]
    for group in groups:  # as _power_table will; a group within it has its series within budget
        check_table_size([2 * a - 1 for a in group.bounds])
    socle = sum(a - 1 for a in free) + sum(factor_series(group).socle_degree for group in groups)
    check_table_size((socle + 1, socle + 1))
    strings, terms = dict(_free_strings(free)), 0
    for factor in (_component(group)[1] for group in groups):
        check_table_size((terms + len(strings) * len(factor),))  # >= 1 term per pair of strings
        terms += sum(min(e - s, e2 - s2) + 1 for s, e in strings for (s2, e2), _ in factor)
        check_table_size((terms,))
        product = Counter()
        for (s, e), c in strings.items():
            for (s2, e2), c2 in factor:
                for k in range(min(e - s, e2 - s2) + 1):
                    product[s + s2 + k, e + e2 - k] += c * c2
        strings = product
    count = np.zeros((socle + 1, socle + 1), dtype=object)
    count[tuple(np.array(list(strings)).T)] = list(strings.values())
    covering = count[:, ::-1].cumsum(axis=1)[:, ::-1].cumsum(axis=0)  # strings over [i, j]
    return LefschetzReport(ideal, np.triu(covering), {}, components)
