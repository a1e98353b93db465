"""Ground-truth Lefschetz verdicts via exact multiplication-matrix ranks.

The linear form is l = x_1 + ... + x_n.  For a monomial ideal this is as
general as it gets: rescaling the variables turns any form with all
coefficients nonzero into this one while permuting nothing, so the ranks of
the maps  l^t : A_i -> A_{i+t}  do not depend on the (nonzero) coefficients,
and this one form decides the weak and strong Lefschetz properties.

Every matrix entry is read from one table: the coefficient of x^d in
l^|d|, for every exponent difference d that two standard monomials can
have (see ``_power_table``); the report's Hilbert series is counted from
the same basis, int64 exponent arrays over the factor's variables,
enumerated once the table's budget is checked.  A report builds the table
directly as int64 residues modulo a prime below 2^26, and
``_certified_rank`` eliminates each ranked cell once modulo the prime, in
its narrower orientation (the cell or its transpose, whichever has fewer
columns).  Each pivot's rank-one update is subtracted in place from the
slab of rows between the first and the last one below with a nonzero in
the pivot column, and as a product of two residues stays below 2^52,
about 2^11 updates go unreduced before the trailing block must be reduced.
That can only underestimate the rank over Q, so whenever it reports
min(dim) the map is proven to have full rank.  Below that, the rank r mod
p is still a proven lower bound, and the matching upper bound comes from
dim - r independent integer vectors in the kernel of that orientation,
each checked exactly as M v = 0 over Z.  The vectors are read off the same
echelon form and lifted by Chinese remaindering over a few primes and
rational reconstruction (Wang, Guy and Davenport 1982), a certificate in
the sense of Kaltofen, Nehring and Saunders (ISSAC 2011); see
``_kernel_certifies``.  Only those cells read exact entries, so the table of
Python ints is built once per report, for its first cell below full rank
mod p, and never when every ranked cell has full rank.  Only a cell whose
kernel vectors do not verify is ranked again from those exact entries by
fraction-free (Bareiss) elimination.  Floating point is never used.

Most cells are never ranked, because three facts that hold for every
standard graded Artinian algebra and every linear form imply their full
rank from cells already proven (Migliore, Miro-Roig and Nagel, Trans. AMS
2011, section 2):

* if l^t is injective on A_i, so is l^s for every s < t, since
  ker l^s is contained in ker l^t;
* if l^t : A_j -> A_{j+t} is surjective, so is l^s : A_{j+t-s} -> A_{j+t}
  for every s <= t;
* if l^t : A_i -> A_{i+t} is surjective, so is l^t : A_{i+1} -> A_{i+1+t},
  because A is generated in degree 1.

``_scheduled_ranks`` therefore visits t from the socle degree down to 1,
keeping the sources proven injective and the least i + t of a cell proven
surjective.  A cell that must be injective (dim A_i <= dim A_{i+t}) is
implied when its source is proven injective; one that must be surjective
is implied when its i + t is at least that least value.  Only the other
cells are ranked.  For a symmetric Hilbert function of socle degree D this
ranks the central maps l^(D-2i) : A_i -> A_(D-i) first, and when they are
bijective, the strong Lefschetz property in the narrow sense of Harima et
al., *The Lefschetz Properties* (LNM 2080), nothing else.  A rank-deficient
cell is never implied, so each one is certified.  Each cell of the report's
rank table has a ``certificate``, and its ``MapRecord`` is built on demand:

* "mod_p": full rank mod p;
* "kernel": rank mod p, matched by verified integer kernel vectors;
* "exact": rank from the Bareiss fallback;
* "implied": full rank implied by the proven cell in ``implied_by``;
* "tensor": rank on the factors of the plan (``core.tensor_factors``), from
  their Jordan strings: [s, e] times [s', e'], of lengths L and M, is
  k[u, v]/(u^L, v^M) with l = u + v, strong Lefschetz in characteristic zero
  (Stanley 1980; Watanabe 1987), so it splits into [s + s' + k, e + e' - k],
  k < min(L, M): the Clebsch-Gordan rule (Iarrobino, Marques and McDaniel,
  J. Commut. Algebra 2022).  The free variables are one complete
  intersection with the SLP, whose strings are read off its series.  The
  series of several factors is read off the same strings, not multiplied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cache, lru_cache, partial
from math import isqrt, lcm, prod

import numpy as np

from .core import MonomialIdeal, check_table_size, restrict, standard_monomial_table, tensor_factors
from .series import HilbertSeries, ci_series, factor_series

_PRIME = 67_108_859  # the largest prime below 2^26; see _REDUCE_EVERY
# the largest primes below 2^26, for Chinese remaindering of kernel vectors;
# their product (about 2^260) bounds the fractions rational reconstruction finds
_PRIMES = (
    _PRIME, 67_108_837, 67_108_819, 67_108_777, 67_108_763,
    67_108_757, 67_108_753, 67_108_747, 67_108_739, 67_108_729,
)
# pivots between reductions of an elimination's trailing block (about 2^11):
# each subtracts at most (p - 1)^2 < 2^52 from an entry in [0, p), and the
# entry must stay above -2^63
_REDUCE_EVERY = (2**63 - 1 - _PRIME) // (_PRIME - 1) ** 2

CERT_MOD_P = "mod_p"  # full rank shown by elimination modulo the prime
CERT_KERNEL = "kernel"  # rank mod p matched by kernel vectors verified over Z
CERT_EXACT = "exact"  # rank from the fraction-free elimination fallback
CERT_IMPLIED = "implied"  # full rank follows from another proven cell
CERT_TENSOR = "tensor"  # from the factors' ranks by the Clebsch-Gordan rule


class HypothesisViolation(RuntimeError):
    """A runtime proof obligation failed.

    Either the implementation is wrong or the input is a genuine
    counterexample; both must be surfaced, never suppressed.
    """


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


def _power_table(ideal, p=None):
    """Keys of the standard monomials and the table of coefficients of powers of l.

    Entry (u, v) of the matrix of l^t is the coefficient of x^(u - v) in
    l^|u - v|, so it depends only on d = u - v, and d_j lies in
    [-(a_j - 1), a_j - 1] where x_j^(a_j) is the pure power of the ideal.
    The table is ``_multinomials`` over that whole box: Python ints, or
    int64 residues mod ``p`` when it is given.  Each degree-i standard
    monomial u gets the mixed-radix key sum(u_j * w_j) with the C-order
    strides w_j of the box, so the entry for (u, v) sits at
    ``center + key(u) - key(v)``.  Every variable of the Artinian ideal gets
    an axis, so the oracle passes it a tensor factor.

    Returns (keys by degree as int64 arrays, flat table, center).
    A box of more than MAX_TABLE_ENTRIES entries is a ValueError.
    """
    if ideal.is_unit():  # no monomials and no entries
        return (), np.zeros(0, dtype=object if p is None else np.int64), 0
    box = [2 * a - 1 for a in ideal.bounds]
    check_table_size(box)
    basis = standard_monomial_table(ideal)
    strides = np.array([prod(box[j + 1 :]) for j in range(len(box))], dtype=np.int64)
    center = int(strides @ (np.array(ideal.bounds, dtype=np.int64) - 1))
    keys = [bucket @ strides for bucket in basis]
    return keys, _multinomials(ideal.bounds, p), center


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
    return table[center + tgt[:, None] - src].tolist()


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
    exactly 0 below it, and the loop ends once every row holds a pivot.
    """
    A = matrix.copy()
    product = np.empty(A.size, dtype=A.dtype)  # every step's outer product, in one buffer
    pivots = []
    for col in range(A.shape[1]):
        rank = len(pivots)
        if rank == A.shape[0]:
            break
        A[rank:, col] %= p
        nz = A[rank:, col].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:  # the old row rank has a 0 here, and moves to rank + nz[0], out of the slab
            A[[rank, rank + nz[0]]] = A[[rank + nz[0], rank]]
        row = A[rank, col:]
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
    the echelon form on the free columns alone gives R's free columns.
    """
    free = sorted(set(range(echelon.shape[1])) - set(pivots))
    triangle = echelon[:, pivots]
    X = echelon[:, free]
    for k in range(len(pivots) - 2, -1, -1):
        X[k] = (X[k] - (triangle[k, k + 1 :, None] * X[k + 1 :] % p).sum(axis=0)) % p
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
    fraction and the vector scaled by the lcm of its denominators.
    """
    kernel = np.zeros((ncols, len(free)), dtype=object)
    for j, f in enumerate(free):
        fractions = [_rational(x, modulus) for x in residues[:, j]]
        if None in fractions:
            return None
        scale = lcm(*(b for _, b in fractions))
        kernel[f, j] = scale
        kernel[pivots, j] = [a * (scale // b) for a, b in fractions]
    return kernel


def _kernel_certifies(matrix, pivots, echelon) -> bool:
    """Whether integer kernel vectors prove ``matrix`` has rank len(pivots) over Q.

    ``matrix`` is an object array of Python ints with no more columns than
    rows, so that its kernel has dimension ncols - rank, and ``pivots`` and
    ``echelon`` are its row echelon form mod the first prime of ``_PRIMES``.
    Modulo each prime in turn, the reduced row echelon form R gives one
    kernel vector per free column: 1 there, 0 in the other free columns and
    -R[k, j] in pivot column k; only the later primes eliminate again.  The
    residues of all primes so far are combined by Chinese remaindering and
    lifted to integer vectors (``_integer_kernel``).  The vectors are
    independent, since they form an identity block on the free columns, so
    once the matrix times them is exactly zero over Z, it has at most
    len(pivots) independent columns.  With elimination mod p, which never
    overstates the rank, this certifies it (Kaltofen, Nehring and Saunders,
    ISSAC 2011).  False when a later prime gives other pivot columns or no
    prime yields vectors that verify.
    """
    first, residues, modulus = pivots, 0, 1
    for p in _PRIMES:
        if p != _PRIME:
            pivots, echelon = _echelon_mod_prime((matrix % p).astype(np.int64), p)
            if pivots != first:
                return False
        free, block = _kernel_mod_prime(pivots, echelon, p)
        block = block.astype(object)
        # the residues mod modulus * p that match those of every prime so far
        residues = residues + modulus * ((block - residues) * pow(modulus, -1, p) % p)
        modulus *= p
        kernel = _integer_kernel(residues, modulus, pivots, free, matrix.shape[1])
        if kernel is not None and not np.count_nonzero(matrix.dot(kernel)):
            return True
    return False


def _certified_rank(cell, residues, exact, i, t):
    """Rank over Q of the cell of l^t on degree i, and its certificate.

    ``cell`` indexes the cell in the flat int64 table ``residues`` mod
    ``_PRIME`` and in the flat exact table that ``exact()`` returns, which
    is read only below full rank.  The cell is eliminated once mod
    ``_PRIME``, in the orientation with no more columns than rows, whose
    kernel the certificate reads; below full rank, that echelon form seeds
    ``_kernel_certifies``, and Bareiss is the last resort.
    """
    if cell.shape[1] > cell.shape[0]:
        cell = cell.T
    pivots, echelon = _echelon_mod_prime(residues[cell], _PRIME)
    rank = len(pivots)
    if rank == cell.shape[1]:
        return rank, CERT_MOD_P
    entries = exact()[cell]
    if _kernel_certifies(entries, pivots, echelon):
        return rank, CERT_KERNEL
    exact_rank = matrix_rank(entries.tolist())  # the last resort
    if exact_rank < rank:
        raise HypothesisViolation(
            f"exact rank {exact_rank} of l^{t} on degree {i} is below its rank mod p, {rank}"
        )
    return exact_rank, CERT_EXACT


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
    certificate: str  # one of CERT_MOD_P, CERT_KERNEL, CERT_EXACT, CERT_IMPLIED, CERT_TENSOR
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
    function has no internal zeros (Harima et al.).  Cells are visited from
    t = socle down to 1, and a cell whose full rank follows from cells
    already proven (see the module docstring) is entered without being
    ranked, with the proven cell as its ``implied_by``.
    """
    keys, residues, center = _power_table(ideal, _PRIME)
    exact = cache(partial(_multinomials, ideal.bounds))  # built for the first deficient cell
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
                rank, certificate = _certified_rank(cell, residues, exact, i, t)
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
    intersection (``_free_strings``), strings combine by the Clebsch-Gordan
    rule, and the rank of l^t on A_i (h_i when t = 0) counts the strings
    with s <= i and e >= i + t.  The budget counts each group's power table,
    then the (D + 1)^2 ranks of the socle degree D read off the factors'
    series, all before any group is ranked.
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
    strings = dict(_free_strings(free))
    for factor in (_component(group)[1] for group in groups):
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
