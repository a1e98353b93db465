"""Monomials, monomial ideals and standard monomial bases.

Everything here is exact integer combinatorics.  Ideals are held by their
unique minimal generating set, and Artinian quotients expose their monomial
basis degree by degree in a fixed order, so that matrices built elsewhere
are reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

MAX_EXPONENT = 2**63 - 1  # exponents stay machine-width; coefficients do not
MAX_VAR_INDEX = 10_000
DIGITS = "0123456789"  # str.isdigit also admits non-ASCII digits


class Monomial(tuple):
    """An exponent vector; entry ``i`` is the exponent of ``x_{i+1}``."""

    def __new__(cls, exponents):
        exps = tuple(int(e) for e in exponents)
        for e in exps:
            if e < 0:
                raise ValueError(f"negative exponent in {exps}")
            if e > MAX_EXPONENT:
                raise OverflowError("exponent exceeds the 63-bit guard")
        return super().__new__(cls, exps)

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def support(self) -> tuple:
        return tuple(i for i, e in enumerate(self) if e > 0)

    def is_unit(self) -> bool:
        return not any(self)

    def is_pure_power(self) -> bool:
        return len(self.support) == 1

    def divides(self, other) -> bool:
        return all(a <= b for a, b in zip(self, other))

    def times(self, other) -> "Monomial":
        return Monomial(a + b for a, b in zip(self, other))

    def quotient_by(self, other) -> "Monomial":
        """Exponentwise max(a - b, 0), i.e. self / gcd(self, other)."""
        return Monomial(max(a - b, 0) for a, b in zip(self, other))

    def __repr__(self):
        return f"Monomial{tuple(self)}"


def pure_power(n, index, exponent) -> Monomial:
    """The monomial x_{index+1}^exponent in n variables."""
    return Monomial(exponent if i == index else 0 for i in range(n))


def minimalize(gens) -> frozenset:
    """Divisibility-minimal subset of a set of monomials.

    Idempotent and independent of input order; the result is the unique
    minimal generating set of the ideal the input generates.
    """
    mons = {g if isinstance(g, Monomial) else Monomial(g) for g in gens}
    kept = []
    # ascending degree: any proper divisor is seen before its multiples
    for g in sorted(mons, key=lambda m: (m.degree, m)):
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return frozenset(kept)


class MonomialIdeal:
    """A monomial ideal in n variables, stored by its minimal generators."""

    __slots__ = ("n", "generators")

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
        """Generators in a fixed order: by degree, then lexicographically."""
        return sorted(self.generators, key=lambda g: (g.degree, tuple(-e for e in g)))

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(g.is_unit() for g in self.generators)

    def pure_power_bound(self, i):
        """Exponent a with x_{i+1}^a a generator, or None."""
        for g in self.generators:
            if g.support == (i,):
                return g[i]
        return None

    def is_artinian(self) -> bool:
        """True iff the quotient is finite dimensional.

        For a monomial ideal this happens exactly when every variable has a
        pure power among the generators (or the ideal is the unit ideal).
        """
        if self.is_unit():
            return True
        return all(self.pure_power_bound(i) is not None for i in range(self.n))

    def contains(self, m) -> bool:
        return any(g.divides(m) for g in self.generators)

    def plus_monomial(self, m) -> "MonomialIdeal":
        """The ideal I + (m)."""
        m = m if isinstance(m, Monomial) else Monomial(m)
        return MonomialIdeal(self.n, list(self.generators) + [m])


def colon_by_monomial(ideal, m) -> MonomialIdeal:
    """The quotient ideal I : (m).

    For a monomial ideal this is generated by g / gcd(g, m) over the
    generators g, i.e. exponentwise max(g_i - m_i, 0).
    """
    m = m if isinstance(m, Monomial) else Monomial(m)
    return MonomialIdeal(ideal.n, (g.quotient_by(m) for g in ideal.generators))


class IdealSyntaxError(ValueError):
    """Malformed ideal text; ``position`` is a 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


def parse_ideal(text, n=None) -> MonomialIdeal:
    """Parse ``"x1^3, x2^3, x1*x2"`` style text into a MonomialIdeal.

    Grammar::

        ideal  := gen ("," gen)*
        gen    := factor ("*" factor)*
        factor := var ("^" uint)?
        var    := "x" uint        (1-based index)
        uint   := [0-9]+          (ASCII digits only)

    Whitespace is insignificant.  The variable count is ``n`` when given,
    otherwise the highest index that occurs.
    """
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
    elif width > n:
        raise ValueError(f"text uses x{width} but the declared variable count is {n}")
    mons = [Monomial(tuple(d.get(i, 0) for i in range(n))) for d in gens]
    return MonomialIdeal(n, mons)


def render_monomial(m) -> str:
    if m.is_unit():
        raise ValueError("the unit monomial has no text form")
    return "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(m) if e
    )


def render_ideal(ideal) -> str:
    """Inverse of parse_ideal on nonzero, non-unit ideals."""
    if ideal.is_zero():
        raise ValueError("the zero ideal has no text form")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no text form")
    return ", ".join(render_monomial(g) for g in ideal.sorted_generators())


@lru_cache(maxsize=256)
def standard_monomial_table(ideal):
    """Standard monomials of R/I bucketed by degree.

    Each bucket is ordered graded-lexicographically with x1 largest, so
    bases (and hence matrices) are deterministic.  Only Artinian ideals are
    accepted; anything else would enumerate forever.
    """
    if not ideal.is_artinian():
        raise ValueError("standard monomials form an infinite set for a non-Artinian ideal")
    if ideal.is_unit():
        return ()
    bounds = [ideal.pure_power_bound(i) for i in range(ideal.n)]
    cross = [tuple(g) for g in ideal.generators if not g.is_pure_power()]
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
    return list(table[degree])
