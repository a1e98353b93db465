"""Structural predicates on Hilbert series.

Symmetry, unimodality and almost-centeredness, plus the closed-form profile
of a two-variable almost complete intersection; the profile fields are what
the classification procedures consume.
"""

from __future__ import annotations

from dataclasses import dataclass


def is_symmetric(hs) -> bool:
    """True iff the trimmed coefficient vector is a palindrome."""
    if hs.is_zero():
        raise ValueError("symmetry is undefined for the zero series")
    return hs.coeffs == hs.coeffs[::-1]


def reflecting_degree(hs) -> int:
    """Twice the center of a symmetric series (offset plus socle degree), an integer."""
    if not is_symmetric(hs):
        raise ValueError("series is not symmetric")
    return hs.offset + hs.socle_degree


def coincides(r1, r2) -> bool:
    """Equal or half an integer apart, for doubled reflecting degrees."""
    return abs(r1 - r2) <= 1


def is_almost_centered(hs) -> bool:
    """Definitional check: one of the two interleaved inequality chains holds.

    With h indexed 0..D (0 outside), the series is almost centered iff

        h_{i-1} <= h_{D-i} <= h_i   for all 0 <= i <= D//2, or
        h_{D-i+1} <= h_i <= h_{D-i} for all 0 <= i <= D//2.

    Defined for standard graded algebras only, so the offset must be 0.
    """
    if hs.is_zero():
        raise ValueError("almost-centeredness is undefined for the zero series")
    if hs.offset != 0:
        raise ValueError("almost-centeredness requires a series starting in degree 0")
    top = hs.socle_degree
    half = range(top // 2 + 1)
    return all(hs[i - 1] <= hs[top - i] <= hs[i] for i in half) or all(
        hs[top - i + 1] <= hs[i] <= hs[top - i] for i in half
    )


@dataclass(frozen=True)
class TwoVarProfile:
    """Shape data of HS(k[x,y]/(x^a, y^b, x^alpha y^beta)), normalized."""

    a: int
    b: int
    alpha: int
    beta: int
    swapped: bool
    almost_centered: bool


def two_var_profile(a, b, alpha, beta) -> TwoVarProfile:
    """Closed-form profile of the two-variable quotient k[x,y]/(x^a, y^b, x^alpha y^beta).

    The parameters are normalized (swapping the roles of x and y if needed)
    so that a + beta <= b + alpha; all reported facts refer to the
    normalized values.  The series increases by exactly one per degree up to
    its peak at min(a, alpha + beta) - 1, then weakly decreases in steps of
    at most two down to the socle degree b + alpha - 2; it is symmetric iff
    a + beta = b, and fails to be almost centered exactly when
    b >= a + beta + 2, or a - alpha >= 2, beta >= 2 and b <= a + beta - 2.
    """
    if not (1 <= alpha < a):
        raise ValueError("need 1 <= alpha < a")
    if not (1 <= beta < b):
        raise ValueError("need 1 <= beta < b")
    swapped = a + beta > b + alpha
    if swapped:
        a, alpha, b, beta = b, beta, a, alpha
    not_centered = (b >= a + beta + 2) or (
        a - alpha >= 2 and beta >= 2 and b <= a + beta - 2
    )
    return TwoVarProfile(a, b, alpha, beta, swapped, almost_centered=not not_centered)
