"""Monomials, monomial ideals and standard monomial bases.

Everything here is exact integer combinatorics.  Ideals are held by their
unique minimal generating set, and Artinian quotients expose their monomial
basis degree by degree as int64 exponent arrays in a fixed order, so that
matrices built elsewhere are reproducible.

This module alone decides which minimal generators are pure powers
x_j^(a_j) and which are cross generators; MonomialIdeal records the split
once, as ``bounds`` and ``cross``.  The split also makes minimalize one
pass: the least pure power per variable is kept without a pairwise test, a
cross generator is dropped when one comparison g_j >= a_j finds a kept
bound dividing it, and only cross generators are compared pairwise.

It also decides, in ``tensor_factors`` alone, how R/I splits into tensor
factors; the Hilbert series, the Lefschetz report and its matrices all
read that one plan.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import compress
from math import prod

import numpy as np

MAX_EXPONENT = 2**63 - 1  # exponents stay machine-width; coefficients do not
MAX_VAR_INDEX = 10_000
# Work budget: the most entries a table may hold, checked before a basis
# (n prod a_j exponents) is enumerated, before the oracle's power table
# (prod (2 a_j - 1) int64 residues per prime read, and as many Python ints
# for check --matrix) is allocated and before a chain of Hilbert series is
# multiplied out (its exact multiply-adds, in series._product).  A power
# table of 759,375 entries, a = (8, 8, 8, 8, 8), takes about 4 ms and 6 MB
# as residues and 0.07 s and 7 MB as Python ints on a 2 GHz Xeon core; pure
# powers a = (7, 8, 9, 10) need 62,985.
MAX_TABLE_ENTRIES = 1_000_000
# one factor of ideal text and the whitespace around it; [0-9], not \d, which
# also admits non-ASCII digits, while \s tests the characters str.isspace does
_FACTOR = re.compile(r"\s*(?:(?P<var>x)(?P<index>[0-9]*)\s*(?:\^\s*(?P<exp>[0-9]*))?\s*)?")


class Monomial(tuple):
    """An exponent vector; entry ``i`` is the exponent of ``x_{i+1}``, in
    [0, MAX_EXPONENT].  Its first bad entry names the error: ValueError if
    negative, OverflowError if too large.  ``support`` is computed once."""

    def __new__(cls, exponents):
        exps = tuple(map(int, exponents))
        if exps and not (min(exps) >= 0 and max(exps) <= MAX_EXPONENT):
            for e in exps:
                if e < 0:
                    raise ValueError(f"negative exponent in {exps}")
                if e > MAX_EXPONENT:
                    raise OverflowError("exponent exceeds the 63-bit guard")
        return super().__new__(cls, exps)

    @property
    def degree(self) -> int:
        return sum(self)

    @cached_property
    def support(self) -> tuple:
        return tuple(compress(range(len(self)), self))

    def is_unit(self) -> bool:
        return not any(self)

    def divides(self, other) -> bool:
        return all(a <= b for a, b in zip(self, other))

    def __repr__(self):
        return f"Monomial{tuple(self)}"


def pure_power(n, index, exponent) -> Monomial:
    """The monomial x_{index+1}^exponent in n variables."""
    return Monomial(exponent if i == index else 0 for i in range(n))


def minimalize(gens) -> frozenset:
    """Divisibility-minimal subset of a set of monomials.

    Idempotent and independent of input order; the result is the unique
    minimal generating set of the ideal the input generates.  Cost:
    O(g n + c^2 n) for g generators in n variables, c of them cross.
    """
    least = {}  # variable j -> the least pure power of x_{j+1}
    cross = []
    for g in {g if isinstance(g, Monomial) else Monomial(g) for g in gens}:
        support = g.support
        if not support:  # the unit monomial absorbs everything
            return frozenset((g,))
        if len(support) == 1:  # tuple order is exponent order here
            least[support[0]] = min(least.get(support[0], g), g)
        else:
            cross.append(g)
    kept = []
    # ascending degree: any proper divisor is seen before its multiples
    for g in sorted(cross, key=lambda m: (m.degree, m)):
        if not any(g[j] >= p[j] for j, p in least.items()):
            if not any(h.divides(g) for h in kept):
                kept.append(g)
    return frozenset(kept + list(least.values()))


class MonomialIdeal:
    """A monomial ideal in n variables, stored by its minimal generators and
    split into ``bounds`` (a_j with x_{j+1}^(a_j) a generator, or None per
    variable) and the other, ``cross`` generators in sorted_generators order."""

    __slots__ = ("n", "generators", "bounds", "cross", "_sorted")

    def __init__(self, n, generators):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one variable")
        gens = []
        for g in generators:
            g = g if isinstance(g, Monomial) else Monomial(g)
            if len(g) != n:
                raise ValueError(f"generator {g!r} does not live in {n} variables")
            gens.append(g)
        self.n = n
        self.generators = minimalize(gens)
        # by degree, then lexicographically descending: distinct tuples, so
        # the descending sort fixes every tie the stable degree sort leaves
        ordered = sorted(self.generators, reverse=True)
        ordered.sort(key=sum)
        self._sorted = tuple(ordered)
        bounds, cross = [None] * n, []
        for g in self._sorted:
            support = g.support
            if len(support) == 1:
                bounds[support[0]] = g[support[0]]
            else:
                cross.append(g)
        self.bounds, self.cross = tuple(bounds), tuple(cross)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.n, self.generators))

    def __repr__(self):
        gens = ", ".join(repr(tuple(g)) for g in self.sorted_generators())
        return f"MonomialIdeal(n={self.n}, [{gens}])"

    def sorted_generators(self):
        """Generators in a fixed order: by degree, then lexicographically
        (x1 largest), as a tuple sorted once."""
        return self._sorted

    def is_unit(self) -> bool:
        return bool(self.cross) and self.cross[0].is_unit()  # then the only generator

    def is_artinian(self) -> bool:
        """True iff the quotient is finite dimensional.

        For a monomial ideal this happens exactly when every variable has a
        pure power among the generators (or the ideal is the unit ideal).
        """
        return self.is_unit() or None not in self.bounds


class HypothesisViolation(RuntimeError):
    """A runtime proof obligation failed.

    Either the implementation is wrong or the input is a genuine
    counterexample; both must be surfaced, never suppressed.
    """


class IdealSyntaxError(ValueError):
    """Malformed ideal text; ``position`` is a 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


def _digits_value(digits, most):
    """The value of a run of ASCII digits, or most + 1 if it has more digits
    than most after its leading zeros, so no run too long reaches int()."""
    digits = digits.lstrip("0")
    return most + 1 if len(digits) > len(str(most)) else int(digits or 0)


def parse_ideal(text, n=None) -> MonomialIdeal:
    """Parse ``"x1^3, x2^3, x1*x2"`` style text into a MonomialIdeal.

    Grammar::

        ideal  := gen ("," gen)*
        gen    := factor ("*" factor)*
        factor := var ("^" uint)?
        var    := "x" uint        (1-based index)
        uint   := [0-9]+          (ASCII digits only)

    Whitespace may stand between any two tokens (``x`` and its index are one),
    and the exponents of a variable repeated in a generator add; each factor
    is one match of ``_FACTOR``.  The variable count is ``n`` when given,
    otherwise the highest index that occurs, at most MAX_VAR_INDEX; the g n
    exponents of g generators are counted against the work budget first.
    """
    if not text.strip():
        raise IdealSyntaxError("empty generator list", len(text))
    gens, pos = [{}], 0
    while True:
        m = _FACTOR.match(text, pos)
        if m["var"] is None:
            raise IdealSyntaxError("expected a variable like x1", m.end())
        index, exp, at = m["index"], m["exp"], m.start("index")
        if not index:
            raise IdealSyntaxError("expected variable index", at)
        j = _digits_value(index, MAX_VAR_INDEX) - 1
        if j < 0:
            raise IdealSyntaxError("variable indices are 1-based", at)
        if j >= MAX_VAR_INDEX:
            raise IdealSyntaxError("variable index too large", at)
        if exp == "":
            raise IdealSyntaxError("expected exponent", m.start("exp"))
        gens[-1][j] = gens[-1].get(j, 0) + (1 if exp is None else _digits_value(exp, MAX_EXPONENT))
        if gens[-1][j] > MAX_EXPONENT:
            end = m.end() if exp is None else m.end("exp")  # without a caret, the index's whitespace
            raise OverflowError(f"exponent overflow near offset {end}")
        pos = m.end()
        if text[pos : pos + 1] == ",":
            gens.append({})
        elif text[pos : pos + 1] != "*":
            break
        pos += 1
    if pos != len(text):
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


def render_monomial(m) -> str:
    """x1^2*x3 for the exponent vector (2, 0, 1)."""
    if not any(m):
        raise ValueError("the unit monomial has no text form")
    return "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(m) if e
    )


def check_table_size(sizes):
    """Raise ValueError when a table of prod(sizes) entries exceeds the budget."""
    entries = prod(sizes)
    if entries > MAX_TABLE_ENTRIES:
        # a count too long to print in decimal is named by its bit length
        shown = entries if entries < 2**64 else f"over 2^{entries.bit_length() - 1}"
        raise ValueError(f"a table of {shown} entries exceeds the budget of {MAX_TABLE_ENTRIES}")


def check_artinian(ideal):
    """Raise the one refusal of a non-Artinian ideal, naming a variable with no pure power."""
    if not ideal.is_artinian():
        raise ValueError(f"non-Artinian ideal: x{ideal.bounds.index(None) + 1} has no pure power")


def restrict(ideal, variables):
    """The generators that use no variable outside ``variables``, in those alone."""
    keep = set(variables)
    gens = [[g[j] for j in variables] for g in ideal.generators if keep.issuperset(g.support)]
    return MonomialIdeal(len(variables), gens)


def tensor_factors(ideal):
    """The factor plan of R/I: (variables, factor) pairs by least variable.

    Cross generators link the variables with a_j >= 2 into groups; none uses
    an x_j with a_j = 1, which is zero in R/I.  R/I is the tensor product of
    the factors: a free variable's is its a_j, for k[x_j]/(x_j^(a_j)), and a
    linked group's is ``restrict``(I, group).  The field and the unit ideal
    are x1 alone, with its restricted ideal.
    """
    check_artinian(ideal)
    group = {j: (j,) for j, a in enumerate(ideal.bounds) if (a or 0) > 1}
    for g in ideal.cross:
        merged = tuple(sorted({k for j in g.support for k in group[j]}))
        group.update((k, merged) for k in merged)
    parts = sorted(set(group.values())) or [(0,)]
    return tuple((p, ideal.bounds[p[0]] if len(p) == 1 and group else restrict(ideal, p)) for p in parts)


def standard_monomial_table(ideal):
    """Standard monomials of R/I by degree, one (dim A_i, n) int64 array each.

    Rows are ordered graded-lexicographically with x1 largest, so bases (and
    hence matrices) are deterministic.  Only Artinian ideals are accepted;
    anything else would enumerate forever.  Every variable gets an axis, so
    callers hand it a tensor factor; an x_j with a_j = 1 only enumerates
    the digit 0.  A basis of more than MAX_TABLE_ENTRIES exponents
    (n prod a_j) is refused before enumeration.
    """
    check_artinian(ideal)
    if ideal.is_unit():
        return ()
    bounds = ideal.bounds
    check_table_size(bounds + (ideal.n,))
    # box rows in descending lex order: mixed-radix digits of a falling count
    code = np.arange(prod(bounds) - 1, -1, -1, dtype=np.int64)
    box = np.empty((code.size, ideal.n), dtype=np.int64)
    for col in range(ideal.n - 1, -1, -1):
        code, box[:, col] = np.divmod(code, bounds[col])
    for g in ideal.cross:
        box = box[(box < g).any(axis=1)]
    degree = box.sum(axis=1)
    box = box[np.argsort(degree, kind="stable")]
    return tuple(np.split(box, np.cumsum(np.bincount(degree))[:-1]))
