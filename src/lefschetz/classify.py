"""Closed-form Lefschetz classification for almost complete intersections.

Two families are decidable without any rank computation: quotients whose
extra generator involves exactly two variables (through the almost-centered
criterion for the two-variable part), and quotients with a symmetric Hilbert
series (always strong Lefschetz).  The symmetric case is not returned as a
bare constant: the central-simple-module decomposition underlying it is
rebuilt and every one of its numeric proof obligations is re-checked, so a
bug or a genuine counterexample surfaces as a loud error instead of a quiet
wrong answer.  The pieces of that decomposition are exponent data (a
MaciSpec or complete-intersection exponents) whose series come from closed
forms, so no monomial ideal is built on the classification path.  Renaming
the variables gives an isomorphic quotient whose decomposition is the
renamed one, so classify_maci decides and certifies symmetry once per
relabeling class and process, on its canonical spec; a verdict holds its spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product
from math import comb

from .analysis import coincides, is_symmetric, reflecting_degree, two_var_profile
from .core import MAX_TABLE_ENTRIES, MAX_VAR_INDEX, Monomial, check_table_size, pure_power
from .oracle import HypothesisViolation
from .series import HilbertSeries, MaciSpec, ci_series, compact_repr

RULE_N_EQ_2 = "n_eq_2"
RULE_N3_CUBE_LE_2 = "n3_cube_le_2"
RULE_ALMOST_CENTERED = "almost_centered"
RULE_SYMMETRIC_HS = "symmetric_hs"
RULE_NOT_APPLICABLE = "not_applicable"


@dataclass(eq=False)  # not frozen: a frozen __init__ costs three times as much
class ClassificationVerdict:
    """A rule's verdict and its source, the spec it was given; the details
    are read off the spec.  Equal verdicts have equal as_dict()."""

    slp: bool
    rule: str
    source: object

    @cached_property
    def details(self) -> dict:
        """Built from the source on first read, once per verdict."""
        if self.rule == RULE_SYMMETRIC_HS:
            return {"witness_order": [k + 1 for k in symmetric_witness(self.source)]}
        (i, j), a, m = self.source.support, self.source.a, self.source.m
        profile = two_var_profile(a[i], a[j], m[i], m[j])
        a1, a2, alpha, beta = profile.a, profile.b, profile.alpha, profile.beta
        extras = sorted(a[:i] + a[i + 1 : j] + a[j + 1 :])
        ignored = extras.count(1)
        stars = {
            "a1_eq_alpha_plus_1": a1 == alpha + 1,
            "beta_eq_1": beta == 1,
            "a2_ge_a1_plus_beta_minus_1": a2 >= a1 + beta - 1,
        }
        explicit = a2 < a1 + beta + 2 and any(stars.values())
        return {
            "support": (i + 1, j + 1),
            "swapped": profile.swapped,
            "a1": a1,
            "a2": a2,
            "alpha": alpha,
            "beta": beta,
            "extras": extras,
            "ignored_unit_exponents": ignored,
            "n_effective": len(a) - ignored,
            "two_var_almost_centered": profile.almost_centered,
            "explicit_conditions": explicit,
            "stars": stars,
        }

    def __eq__(self, other):
        return isinstance(other, ClassificationVerdict) and self.as_dict() == other.as_dict()

    def as_dict(self):
        return {"slp": self.slp, "rule": self.rule, "details": self.details}


def classify_support_two(spec) -> ClassificationVerdict:
    """Strong Lefschetz verdict for an extra generator x_i^alpha x_j^beta.

    The support pair is relabeled to (x1, x2) and normalized so that
    a1 + beta <= a2 + alpha.  Variables whose pure power exponent is 1
    vanish in the quotient and are discarded before the case analysis.
    The quotient is strong Lefschetz iff one of:

      * only the support pair remains,
      * one extra variable remains and its exponent is at most 2,
      * the two-variable part k[x1,x2]/(x1^a1, x2^a2, x1^alpha x2^beta)
        is almost centered, or, equivalently,
      * a2 < a1 + beta + 2 and (a1 = alpha + 1 or beta = 1 or
        a2 >= a1 + beta - 1).
    """
    supp = spec.support
    if len(supp) != 2:
        raise ValueError("the extra generator must involve exactly two variables")
    i, j = supp
    n_eff = spec.n - spec.a.count(1)  # x_k^1 = x_k vanishes; as 1 <= m_k < a_k, no support a_k is 1
    if n_eff == 2:
        return ClassificationVerdict(True, RULE_N_EQ_2, spec)
    if n_eff == 3 and max(spec.a[:i] + spec.a[i + 1 : j] + spec.a[j + 1 :]) <= 2:
        return ClassificationVerdict(True, RULE_N3_CUBE_LE_2, spec)
    if two_var_profile(spec.a[i], spec.a[j], spec.m[i], spec.m[j]).almost_centered:
        return ClassificationVerdict(True, RULE_ALMOST_CENTERED, spec)
    return ClassificationVerdict(False, RULE_NOT_APPLICABLE, spec)


def symmetric_witness(spec):
    """Ordering of the support variables certifying a symmetric series, or None.

    The Hilbert series is symmetric exactly when the support exponents a_i,
    listed in increasing order, each exceed their predecessor by the matching
    extra-generator exponent m_i.  Ties among the a_i are conclusive
    failures: consecutive climbs along a valid ordering are strictly
    positive, so a witness ordering must be the ascending sort.
    """
    order = sorted(spec.support, key=lambda k: spec.a[k])
    for prev, cur in zip(order, order[1:]):
        if spec.a[cur] != spec.a[prev] + spec.m[cur]:
            return None
    return tuple(order)


@dataclass
class CsmPiece:
    """A central simple module slice: a quotient in n-1 variables held as
    exponent data, a MaciSpec or complete-intersection exponents, whose
    series, the matching closed form, is built with the piece.  Its
    generators are built only for display, once per piece.
    """

    quotient: object  # MaciSpec, or a tuple of complete-intersection exponents
    shift: int
    multiplier: int
    series: HilbertSeries = field(init=False)

    def __post_init__(self):
        q = self.quotient
        self.series = q.series() if isinstance(q, MaciSpec) else ci_series(q)

    @property
    def n(self) -> int:
        if isinstance(self.quotient, MaciSpec):
            return self.quotient.n
        return len(self.quotient)

    @cached_property
    def generators(self) -> tuple:
        """Minimal generators as exponent tuples, in sorted_generators order.

        A complete intersection's generators are its pure powers, ordered by
        (exponent, index), so they are written straight from the exponents.
        """
        if isinstance(self.quotient, MaciSpec):
            return self.quotient.ideal().sorted_generators()
        n = len(self.quotient)
        check_table_size((n, n))  # dense exponents of n pure powers
        order = sorted(range(n), key=lambda k: (self.quotient[k], k))
        return tuple(pure_power(n, i, self.quotient[i]) for i in order)

    def widened_series(self) -> HilbertSeries:
        """Series of the piece tensored with k[t]/(t^multiplier), shifted."""
        return self.series.shifted(self.shift).widened(self.multiplier)

    def as_dict(self):
        return {
            "generators": [list(g) for g in self.generators],
            "n": self.n,
            "shift": self.shift,
            "multiplier": self.multiplier,
            "widened_series": self.widened_series().as_dict(),
        }


@dataclass
class CsmDecomposition:
    variable: int  # 0-based index of the variable used as the linear form
    pieces: tuple

    def total_series(self) -> HilbertSeries:
        return sum((piece.widened_series() for piece in self.pieces), HilbertSeries(()))

    def as_dict(self):
        return {"variable": self.variable + 1, "pieces": [p.as_dict() for p in self.pieces]}


def csm_decomposition(spec, var=None) -> CsmDecomposition:
    """Central simple module pieces of the quotient with respect to x_var.

    Writing p for the extra exponents: when p_var >= 1 there are two pieces,

      * the (n-1)-variable quotient with the extra generator truncated at
        var, with multiplier a_var and no shift: MaciSpec(a_rest, trunc)
        while the truncation keeps at least two variables; a truncation
        down to a single-variable power merges with the matching pure power
        and the piece degenerates to a complete intersection;
      * the complete intersection on the slack exponents a_k - p_k, with
        multiplier p_var, shifted by the sum of the dropped p_k.

    When p_var = 0 the quotient is a tensor product and the first piece
    stands alone.  Pieces are exponent data (CsmPiece), so their series
    come from closed forms.  The widened series always sum to the series of
    the quotient; slp_symmetric re-checks that identity at runtime.

    The default variable is the support variable with the largest pure power
    exponent.  For symmetric quotients that is the last entry of the witness
    ordering, which is the choice that makes the widened reflecting degrees
    line up with the ambient one.
    """
    if var is None:
        var = max(spec.support, key=lambda k: (spec.a[k], k))
    if not 0 <= var < spec.n:
        raise ValueError("variable index out of range")
    a_rest, trunc = spec.a[:var] + spec.a[var + 1 :], spec.m[:var] + spec.m[var + 1 :]
    if sum(1 for e in trunc if e) >= 2:
        head = MaciSpec(a_rest, trunc)
    else:
        head = tuple(p if p else a for a, p in zip(a_rest, trunc))
    pieces = [CsmPiece(head, 0, spec.a[var])]
    if spec.m[var] >= 1:
        slack = tuple(a - p for a, p in zip(a_rest, trunc))
        pieces.append(CsmPiece(slack, sum(trunc), spec.m[var]))
    return CsmDecomposition(var, tuple(pieces))


def _check_symmetric_decomposition(spec, series):
    """Re-check the proof obligations of the decomposition of spec, whose
    Hilbert series is series, and recurse into the head piece."""
    if not is_symmetric(series):
        top = series.socle_degree
        first = next((d for d in range(top + 1) if series[d] != series[top - d]), None)
        where = "" if first is None else f", h_{first} = {series[first]} but h_{top - first} = {series[top - first]}"
        raise HypothesisViolation(f"series of socle degree {top} is not a palindrome{where} for {spec}")
    ambient = reflecting_degree(series)
    dec = csm_decomposition(spec)
    widened = [piece.widened_series() for piece in dec.pieces]
    if sum(widened[1:], widened[0]) != series:
        raise HypothesisViolation(f"widened piece series do not sum to the quotient series for {spec}")
    for piece, wide in zip(dec.pieces, widened):
        if not is_symmetric(piece.series):
            raise HypothesisViolation(f"piece {compact_repr(piece.quotient)} has a non-symmetric series for {spec}")
        if not coincides(reflecting_degree(wide), ambient):
            raise HypothesisViolation(
                f"widened reflecting degree of piece {compact_repr(piece.quotient)} misses that of {spec}"
            )
    head = dec.pieces[0]
    if isinstance(head.quotient, MaciSpec) and head.quotient.n >= 3:
        _check_symmetric_decomposition(head.quotient, head.series)
    # complete intersection pieces and two-variable quotients are the base
    # cases; both are classically strong Lefschetz


def slp_symmetric(spec) -> bool:
    """Strong Lefschetz verdict for a symmetric-series spec (always True).

    Rather than returning a constant, this walks the inductive
    central-simple-module decomposition behind the statement and re-checks
    every hypothesis along the way: series additivity, symmetry of every
    piece, and the widened reflecting degrees coinciding with the ambient
    one, recursively down to complete intersections or two variables.  Any
    failed check raises HypothesisViolation.  It is not cached: every call
    walks the decomposition of the spec it is given.
    """
    if symmetric_witness(spec) is None:
        raise ValueError("the Hilbert series of this spec is not symmetric")
    _check_symmetric_decomposition(spec, spec.series())
    return True


@lru_cache(maxsize=1024)
def _certify_symmetric_class(key) -> bool:
    """Whether a relabeling class has a symmetric series, decided and then
    certified by slp_symmetric on its canonical spec, the one whose
    (a_i, m_i) pairs are the sorted key itself.  A failure is not cached,
    so it raises again for every spec of the class."""
    spec = MaciSpec(*zip(*key))
    return symmetric_witness(spec) is not None and slp_symmetric(spec)


def classify_maci(spec):
    """Dispatch to whichever classification rule covers the input, or None.

    Symmetry is decided, and a symmetric spec certified by slp_symmetric,
    on the canonical spec of its relabeling class, once per class and
    process.  That is sound because renaming the variables gives an
    isomorphic quotient with the same series, whose central-simple-module
    decomposition is the renamed decomposition, so every proof obligation
    holds on one spec of a class exactly when it holds on all of them.  The
    verdict holds the labeled spec, whose witness ordering its details read.
    """
    if len(spec.support) == 2:
        return classify_support_two(spec)
    try:
        symmetric = _certify_symmetric_class(spec.relabeling_class())
    except HypothesisViolation as exc:
        raise HypothesisViolation(f"certifying the class of {spec}: {exc}") from exc
    return ClassificationVerdict(True, RULE_SYMMETRIC_HS, spec) if symmetric else None


def support_two_grid(n_values, max_exp, extra_exp=None):
    """All specs with extra generator x1^alpha x2^beta (canonical placement).

    Every support-two quotient is a relabeling of one of these.  Non-support
    exponents run over 1..max_exp, or are pinned to extra_exp when given.
    """
    specs = []
    for n in n_values:
        if n < 2:
            continue
        extra_range = (extra_exp,) if extra_exp is not None else range(1, max_exp + 1)
        for a1 in range(2, max_exp + 1):
            for a2 in range(2, max_exp + 1):
                for alpha in range(1, a1):
                    for beta in range(1, a2):
                        for extras in product(extra_range, repeat=n - 2):
                            a = (a1, a2) + tuple(extras)
                            m = (alpha, beta) + (0,) * (n - 2)
                            specs.append(MaciSpec(a, m))
    return specs


def _support_chains(size, cap, max_socle):
    """Ascending support exponent chains (values, climbs) with the climb law
    values[k] = values[k-1] + climbs[k]; climbs[0] is the free first exponent."""
    chains = []

    def grow(values, climbs):
        head_socle = climbs[0] + sum(values[1:]) - size
        if head_socle > max_socle:
            return
        if len(values) == size:
            chains.append((tuple(values), tuple(climbs)))
            return
        for delta in range(1, cap - values[-1] + 1):
            grow(values + [values[-1] + delta], climbs + [delta])

    for first in range(2, cap + 1):
        for p1 in range(1, first):
            grow([first], [p1])
    return chains


def symmetric_grid(n_values, max_socle, max_exp=None):
    """Every labeled spec with a symmetric Hilbert series and socle degree
    at most max_socle.

    Support exponents form an ascending chain climbing by the matching extra
    exponents; the chain is assigned to every choice of support positions in
    every order, and non-support exponents fill in freely within the socle
    budget.  A spec's socle degree is climbs[0] + sum(values[1:]) - size +
    sum(e - 1) over its non-support exponents e, so none needs filtering.
    """
    cap = max_socle + 2 if max_exp is None else min(max_exp, max_socle + 2)  # no exponent exceeds socle + 1
    specs = []
    for n in n_values:
        for size in range(2, n + 1):
            chains = _support_chains(size, cap, max_socle)
            if not chains:  # dropping a chain's top lowers its socle degree, so none is longer
                break
            free = {}  # socle budget -> the non-support exponent tuples within it
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
                        extra = Monomial(m)  # shared by every spec below
                        for extras in free[budget]:
                            for k, e in zip(nonsupp, extras):
                                a[k] = e
                            specs.append(MaciSpec(a, extra))
    return specs


def all_maci_grid(n_values, max_exp):
    """Every spec with the given variable counts and exponents <= max_exp."""
    for n in n_values:
        if n < 2:
            continue
        for a in product(range(1, max_exp + 1), repeat=n):
            for m in product(*[range(ai) for ai in a]):
                if sum(1 for e in m if e) >= 2:
                    yield MaciSpec(a, m)


_GRID_KEYS = {
    "support_two": ("n", "max_exp", "extra_exp"),
    "symmetric": ("n", "max_socle", "max_exp"),
    "all_maci": ("n", "max_exp"),
}
_GRID_MINIMUM = {"max_exp": 2, "max_socle": 1, "extra_exp": 1}


def grid_from_json(obj):
    """Materialize a grid description like
    {"n": [2, 4], "max_exp": 6, "family": "support_two"}.

    "n" is one variable count >= 2 or a range [lo, hi] with 2 <= lo <= hi
    (default [2, 4]), at most MAX_VAR_INDEX.  Optional keys: "extra_exp" pins
    non-support exponents (support_two), "max_socle" bounds the socle degree
    (symmetric).  Values must be plain integers; an unknown key, family or
    value is a ValueError, and so is a grid whose size bound exceeds the
    work budget (MAX_TABLE_ENTRIES), before it is enumerated.
    """
    if not isinstance(obj, dict):
        raise ValueError("a grid must be a JSON object")
    family = obj.get("family")
    if not isinstance(family, str) or family not in _GRID_KEYS:
        raise ValueError(f"unknown grid family: {family!r}")
    unknown = sorted(set(obj) - {"family", *_GRID_KEYS[family]})
    if unknown:
        raise ValueError(f"unknown keys for a {family} grid: {', '.join(unknown)}")
    for key, least in _GRID_MINIMUM.items():
        value = obj.get(key, least)
        if type(value) is not int or value < least:
            raise ValueError(f"grid key {key!r} must be an integer >= {least}, got {value!r}")
    n_spec = obj.get("n", [2, 4])
    lo_hi = [n_spec, n_spec] if type(n_spec) is int else n_spec
    if not (
        isinstance(lo_hi, list)
        and len(lo_hi) == 2
        and all(type(v) is int for v in lo_hi)
        and 2 <= lo_hi[0] <= lo_hi[1] <= MAX_VAR_INDEX
    ):
        raise ValueError(
            f"grid key 'n' must be an integer in [2, {MAX_VAR_INDEX}] or [lo, hi] "
            f"with 2 <= lo <= hi <= {MAX_VAR_INDEX}, got {n_spec!r}"
        )
    ns = range(lo_hi[0], lo_hi[1] + 1)
    max_exp = obj.get("max_exp", {"support_two": 6, "all_maci": 4}.get(family))
    max_socle, extra_exp = obj.get("max_socle", 14), obj.get("extra_exp")
    check_table_size((_grid_size_bound(family, ns, max_exp, max_socle, extra_exp),))
    if family == "support_two":
        return support_two_grid(ns, max_exp, extra_exp)
    if family == "symmetric":
        return symmetric_grid(ns, max_socle, max_exp)
    return list(all_maci_grid(ns, max_exp))


def _grid_size_bound(family, ns, max_exp, max_socle, extra_exp):
    """Upper bound on the exponents a grid holds, n per spec in n variables,
    from its keys alone; the sum stops once it passes the work budget.

    all_maci counts every 0 <= m_i < a_i <= max_exp; support_two is exact.
    A symmetric spec is fixed by its lowest support variable s1, the rest S
    of its support, a_s1 and x = (m_s1 - 1, a_i - 1 for i != s1), which sums
    to its socle degree, at most D.  As m_s1 < a_s1 < a_j for j in S, a_s1
    has under x_j choices, and x_j - 1 summed over all x of sum at most D is
    comb(D - 1 + n, n + 1); with every a_i <= cap instead, there are
    cap (cap - 1) / 2 pairs (a_s1, m_s1) and cap^(n-1) other a_i.
    """
    size = 0
    for n in ns:
        if family == "all_maci":
            specs = (max_exp * (max_exp + 1) // 2) ** n
        elif family == "support_two":
            free = max_exp if extra_exp is None else 1
            specs = (max_exp * (max_exp - 1) // 2) ** 2 * free ** (n - 2)
        else:
            cap = max_socle + 2 if max_exp is None else min(max_exp, max_socle + 2)
            choices = comb(max_socle - 1 + n, n + 1)  # when 0, skip the big powers
            specs = choices and n * (2 ** (n - 1) - 1) * min(choices, cap * (cap - 1) // 2 * cap ** (n - 1))
        size += n * specs
        if size > MAX_TABLE_ENTRIES:
            break
    return size
