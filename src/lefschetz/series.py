"""Hilbert series of Artinian monomial quotients, computed exactly.

A series is a dense vector of nonnegative integer coefficients together with
a degree offset; the offset stays 0 for honest quotient algebras and records
the grading shift of submodule slices.  ``hilbert_series`` reads
``core.tensor_factors``' plan: the free exponents give one ``ci_series``,
``factor_series`` is the one route from any other factor to its series, and
``_product`` alone prices and multiplies the chain.  The constructor is the
one place that checks and trims: sums and differences go through it, and a box
1 + ... + t^(m-1) widens a series by running sums.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, groupby
from operator import add, lt, sub

from .core import (
    Monomial,
    MonomialIdeal,
    check_artinian,
    check_table_size,
    pure_power,
    standard_monomial_table,
    tensor_factors,
)


class HilbertSeries:
    """Nonnegative integer coefficients with a degree offset.

    The zero series is represented with no coefficients.  Nonzero series are
    trimmed: the first and last stored coefficients are nonzero.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, coeffs, offset=0):
        cs = list(map(int, coeffs))
        if cs and min(cs) < 0:
            raise ValueError("negative coefficient in Hilbert series")
        while cs and not cs[-1]:
            cs.pop()
        lo = next((k for k, c in enumerate(cs) if c), 0)
        self.offset = int(offset) + lo if cs else 0
        self.coeffs = tuple(cs[lo:])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def socle_degree(self) -> int:
        if self.is_zero():
            raise ValueError("the zero series has no socle degree")
        return self.offset + len(self.coeffs) - 1

    def __getitem__(self, degree):
        k = degree - self.offset
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and self.offset == other.offset
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.offset, self.coeffs))

    @classmethod
    def _trusted(cls, coeffs, offset):
        """Series from a coefficient tuple already trimmed and nonnegative, as
        shifts, products and widenings of such series are; skips the checks."""
        series = object.__new__(cls)
        series.coeffs = coeffs
        series.offset = offset
        return series

    def shifted(self, k) -> "HilbertSeries":
        return HilbertSeries._trusted(self.coeffs, self.offset + k) if self.coeffs else self

    def _aligned(self, other, op):
        """self op other degree by degree, through the checking constructor."""
        lo = min(self.offset, other.offset)
        k, end = other.offset - lo, other.offset - lo + len(other.coeffs)
        out = [0] * (self.offset - lo) + list(self.coeffs)
        out += [0] * (end - len(out))
        out[k:end] = map(op, out[k:end], other.coeffs)
        return HilbertSeries(out, lo)

    def __add__(self, other):
        return self._aligned(other, add)

    def __sub__(self, other):
        """Coefficientwise difference; raises if any coefficient goes negative."""
        return self._aligned(other, sub)

    def widened(self, m) -> "HilbertSeries":
        """Product with the box 1 + t + ... + t^(m-1), zero when m <= 0: each
        coefficient is a difference of two running sums, O(len + m) in all."""
        if m < 1 or self.is_zero():
            return HilbertSeries(())
        pad = (0,) * (m - 1)
        run = list(accumulate(pad + self.coeffs + pad, initial=0))
        return HilbertSeries._trusted(tuple(map(sub, run[m:], run)), self.offset)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return HilbertSeries(())
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return HilbertSeries._trusted(tuple(out), self.offset + other.offset)

    def to_text(self) -> str:
        """Render like ``1 + 3t + 6t^2``."""
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            d = self.offset + k
            if d == 0:
                parts.append(str(c))
            else:
                term = "t" if d == 1 else f"t^{d}"
                parts.append(term if c == 1 else f"{c}{term}")
        return " + ".join(parts)

    def as_dict(self):
        return {"offset": self.offset, "coeffs": list(self.coeffs)}

    def __repr__(self):
        return f"HilbertSeries({list(self.coeffs)}, offset={self.offset})"


def _product(factors) -> HilbertSeries:
    """Product of a chain of series, an int a standing for 1 + t + ... + t^(a-1).

    Priced as multiplied left to right, each step taking the running length
    times the next factor's length in multiply-adds; a chain of more than
    MAX_TABLE_ENTRIES is refused first.  Int factors widen, series multiply.
    """
    lengths = [f if isinstance(f, int) else len(f.coeffs) for f in factors]
    cost, length = 0, lengths[0]
    for k in lengths[1:]:
        cost, length = cost + length * k, length + k - 1
    check_table_size((cost,))
    one = HilbertSeries._trusted((1,), 0)
    return reduce(lambda s, f: s.widened(f) if isinstance(f, int) else s * f, factors, one)


def ci_series(exponents) -> HilbertSeries:
    """Series of a monomial complete intersection: prod of (1 + t + ... + t^(a-1)).

    The product does not depend on the order of the exponents, so it is
    computed once per sorted exponent tuple, by ``_product`` from the series
    1 over the exponents a >= 2 (a box of exponent 1 is the series 1).
    """
    return _ci_series(tuple(sorted(exponents)))


@lru_cache(maxsize=1024)
def _ci_series(exponents) -> HilbertSeries:
    if exponents and exponents[0] < 1:
        raise ValueError("complete intersection exponents must be >= 1")
    return _product([1] + [a for a in exponents if a > 1])


def factor_series(group) -> HilbertSeries:
    """Series of a factor of ``core.tensor_factors``' plan given by its ideal,
    not a free exponent: the MaciSpec closed form of a group with one cross
    generator, else a count of the group's basis, refused over the budget."""
    if len(group.cross) == 1 and not group.is_unit():
        return maci_from_ideal(group).series()
    return HilbertSeries([len(bucket) for bucket in standard_monomial_table(group)])


def hilbert_series(ideal) -> HilbertSeries:
    """Exact Hilbert series of R/I for an Artinian monomial ideal I: the
    ``_product`` of its factors' series, the free variables' complete
    intersection first, then every other factor's ``factor_series``."""
    plan = tensor_factors(ideal)
    free = ci_series([f for _, f in plan if isinstance(f, int)])
    return _product([free] + [factor_series(f) for _, f in plan if not isinstance(f, int)])


def compact_repr(value) -> str:
    """Python text for a MaciSpec or an exponent tuple, each run of 8 or more
    equal exponents written (e,) * k: exact, evaluable and short when wide."""
    if isinstance(value, MaciSpec):
        return f"MaciSpec(a={compact_repr(value.a)}, m={compact_repr(value.m)})"
    runs = [(e, len(list(run))) for e, run in groupby(value)]
    parts = []
    for wide, group in groupby(runs, key=lambda run: run[1] >= 8):
        if wide:
            parts += [f"({e},) * {k}" for e, k in group]
        else:
            parts.append(repr(tuple(e for e, k in group for _ in range(k))))
    return " + ".join(parts) or "()"


class MaciSpec:
    """Pure powers a_1..a_n plus one extra monomial generator m.

    Constraints: every a_i >= 1, 0 <= m_i < a_i, and m involves at least two
    variables.  Together these make (x_1^{a_1}, ..., x_n^{a_n}, m) an
    Artinian ideal with exactly n + 1 minimal generators.  A failing
    constraint is named by its first bad index, a_i before m_i.
    """

    __slots__ = ("n", "a", "m", "support")

    def __init__(self, a, m):
        a = tuple(map(int, a))
        m = m if isinstance(m, Monomial) else Monomial(m)
        if len(a) != len(m):
            raise ValueError("exponent vectors have different lengths")
        n = len(a)
        if n < 2:
            raise ValueError("need at least two variables")
        if not (min(a) >= 1 and all(map(lt, m, a))):
            for ai, mi in zip(a, m):
                if ai < 1:
                    raise ValueError("pure power exponents must be >= 1")
                if not mi < ai:
                    raise ValueError("the extra generator needs m_i < a_i for every i")
        support = m.support
        if len(support) < 2:
            raise ValueError("the extra generator must involve at least two variables")
        self.n = n
        self.a = a
        self.m = m
        self.support = support

    def __eq__(self, other):
        return (
            isinstance(other, MaciSpec)
            and self.a == other.a
            and self.m == other.m
        )

    def __hash__(self):
        return hash((self.a, self.m))

    __repr__ = compact_repr

    def relabeling_class(self):
        """Key shared by every renaming of the variables of this spec.

        Renaming the variables gives an isomorphic quotient and fixes
        l = x1 + ... + xn, so every rank, Lefschetz verdict and closed-form
        rule is the same on all specs with one key.
        """
        return tuple(sorted(zip(self.a, self.m)))

    def ideal(self) -> MonomialIdeal:
        check_table_size((self.n, self.n + 1))  # dense exponents of n + 1 generators
        gens = [pure_power(self.n, i, self.a[i]) for i in range(self.n)]
        gens.append(self.m)
        return MonomialIdeal(self.n, gens)

    def series(self) -> HilbertSeries:
        """Closed form: CI(a) minus the shifted CI on the slack exponents a - m."""
        slack = [ai - mi for ai, mi in zip(self.a, self.m)]
        return ci_series(self.a) - ci_series(slack).shifted(self.m.degree)

    def socle_degree(self) -> int:
        """Top nonzero degree: sum(a_i - 1) minus the smallest slack a_i - m_i
        over the support of m.

        The box corner prod x_i^{a_i - 1} is a multiple of m, so the top
        basis element drops exactly one support variable down to m_i - 1;
        the cheapest drop wins.
        """
        slack = min(self.a[i] - self.m[i] for i in self.support)
        return sum(self.a) - self.n - slack

    @classmethod
    def from_dict(cls, data):
        """The spec of a decoded JSON object, read strictly: "a" and "m" are
        lists of plain ints, "n" is optional and no other key is allowed."""
        unknown = sorted(set(data) - {"n", "a", "m"})
        if unknown:
            raise ValueError(f"unknown keys in the spec: {', '.join(unknown)}")
        for key in ("a", "m"):
            if key not in data:
                raise ValueError(f'the spec needs an "{key}" list')
            if not isinstance(data[key], list) or any(type(x) is not int for x in data[key]):
                raise ValueError(f'"{key}" must be a list of integers')
        spec = cls(data["a"], data["m"])
        if "n" in data and (type(data["n"]) is not int or data["n"] != spec.n):
            raise ValueError("declared n does not match the exponent vectors")
        return spec


def maci_from_ideal(ideal) -> MaciSpec:
    """Recover the (pure powers, extra generator) presentation, or raise."""
    check_artinian(ideal)
    if ideal.is_unit():  # its one generator is no pure power, but it bounds nothing
        raise ValueError("the unit ideal is not an almost complete intersection")
    if len(ideal.cross) != 1:
        raise ValueError(
            f"expected exactly one non-pure-power generator, found {len(ideal.cross)}"
        )
    return MaciSpec(ideal.bounds, ideal.cross[0])
