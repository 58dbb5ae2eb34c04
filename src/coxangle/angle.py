"""Exact angle values in (0, pi] and exact comparisons between them.

An Angle is canonically either a rational multiple of pi or an angle with
rational cosine. The two overlap exactly at cos in {-1, -1/2, 0, 1/2} (the
rational-cosine angles that are also rational multiples of pi), and those
are always normalized to the pi form, so structural equality is angle
equality. Threshold checks against pi/3, pi/2, 2pi/3, pi reduce to rational
comparisons; the general mixed-kind order falls back to interval refinement
with Machin pi bounds and Taylor cosine bounds, which terminates because a
non-normalized rational cosine never equals a rational multiple of pi.
The constructor enforces the range and the normalization, and the
refinement is capped: operands too close to separate within the cap
raise PrecisionExhausted instead of looping on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import InvalidEntry, PrecisionExhausted

# rational multiple of pi <-> rational cosine, the only overlaps in (0, pi]
_COS_TO_PI = {
    Fraction(1, 2): Fraction(1, 3),
    Fraction(0): Fraction(1, 2),
    Fraction(-1, 2): Fraction(2, 3),
    Fraction(-1): Fraction(1),
}
_PI_TO_COS = {v: k for k, v in _COS_TO_PI.items()}

# cap on the series terms of a mixed-kind comparison (doubled from 6); 48
# terms separate angles about 1e-68 apart, and 96 would take seconds
_MAX_TERMS = 48


@dataclass(frozen=True, order=False)
class Angle:
    """Exact angle in (0, pi]; kind is 'pi' (value·pi) or 'cos' (arccos value)."""

    kind: str
    value: Fraction

    def __post_init__(self):
        if self.kind not in ("pi", "cos"):
            raise InvalidEntry(f"angle kind must be 'pi' or 'cos', got {self.kind!r}")
        if not isinstance(self.value, (int, Fraction)):
            raise InvalidEntry(f"angle value must be rational, got {self.value!r}")
        value = Fraction(self.value)
        if self.kind == "pi":
            if not 0 < value <= 1:
                raise InvalidEntry(f"{value}·pi is outside (0, pi]")
        else:
            if not -1 <= value < 1:
                raise InvalidEntry(f"cosine {value} does not give an angle in (0, pi]")
            pi_frac = _COS_TO_PI.get(value)
            if pi_frac is not None:
                object.__setattr__(self, "kind", "pi")
                value = pi_frac
        object.__setattr__(self, "value", value)

    @staticmethod
    def rational_pi(p: int, q: int) -> "Angle":
        return Angle("pi", Fraction(p, q))

    @staticmethod
    def exact_cos(c) -> "Angle":
        return Angle("cos", Fraction(c))

    @property
    def cos_exact(self) -> Optional[Fraction]:
        """The rational cosine, when the angle has one."""
        if self.kind == "cos":
            return self.value
        return _PI_TO_COS.get(self.value)

    @property
    def radians_approx(self) -> float:
        """Float approximation, display only; never feeds a comparison."""
        if self.kind == "pi":
            return float(self.value) * math.pi
        return math.acos(float(self.value))

    def __lt__(self, other: "Angle") -> bool:
        return _compare(self, other) < 0

    def __le__(self, other: "Angle") -> bool:
        return _compare(self, other) <= 0

    def __gt__(self, other: "Angle") -> bool:
        return _compare(self, other) > 0

    def __ge__(self, other: "Angle") -> bool:
        return _compare(self, other) >= 0

    def __str__(self) -> str:
        if self.kind == "pi":
            p, q = self.value.numerator, self.value.denominator
            if q == 1:
                return "pi"
            return f"pi/{q}" if p == 1 else f"{p}*pi/{q}"
        return f"arccos({self.value})"

    def to_json(self) -> dict:
        if self.kind == "pi":
            exact = {"kind": "rational_pi", "pi_fraction": str(self.value)}
        else:
            exact = {"kind": "exact_cos", "cos": str(self.value)}
        exact["radians_approx"] = float(f"{self.radians_approx:.12g}")
        return exact


PI = Angle.rational_pi(1, 1)
PI_OVER_2 = Angle.rational_pi(1, 2)
PI_OVER_3 = Angle.rational_pi(1, 3)


def _atan_bounds(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Alternating-series bracket for arctan x, 0 < x < 1."""
    total = Fraction(0)
    power = x
    x2 = x * x
    prev = total
    for k in range(terms):
        prev = total
        term = power / (2 * k + 1)
        total = total - term if k % 2 else total + term
        power *= x2
    return (total, prev) if total < prev else (prev, total)


@lru_cache(maxsize=None)
def _pi_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Machin: pi = 16 arctan(1/5) - 4 arctan(1/239), bracketed rationally."""
    a_lo, a_hi = _atan_bounds(Fraction(1, 5), terms)
    b_lo, b_hi = _atan_bounds(Fraction(1, 239), terms)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def _cos_bounds(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Taylor bracket for cos x with the standard remainder bound."""
    total = Fraction(1)
    term = Fraction(1)
    x2 = x * x
    for k in range(1, terms):
        term = term * x2 / ((2 * k - 1) * (2 * k))
        total = total - term if k % 2 else total + term
    rem = term * x2 / ((2 * terms - 1) * (2 * terms))
    return total - rem, total + rem


def _cos_of_pi_multiple(frac: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    pi_lo, pi_hi = _pi_bounds(terms)
    mid = frac * (pi_lo + pi_hi) / 2
    # |x - mid| <= w and cos is 1-Lipschitz, so pad the Taylor bracket by w
    w = frac * (pi_hi - pi_lo) / 2
    c_lo, c_hi = _cos_bounds(mid, terms)
    return c_lo - w, c_hi + w


def _compare(a: Angle, b: Angle) -> int:
    if a.kind == b.kind:
        if a.value == b.value:
            return 0
        if a.kind == "pi":
            return -1 if a.value < b.value else 1
        # larger cosine means smaller angle
        return -1 if a.value > b.value else 1
    if a.kind == "cos":
        return -_compare(b, a)
    # a is p/q of pi, b has rational cosine c; compare cos against c reversed
    special = _PI_TO_COS.get(a.value)
    if special is not None:
        if special == b.value:
            return 0
        return -1 if special > b.value else 1
    c = b.value
    terms = 6
    while terms <= _MAX_TERMS:
        lo, hi = _cos_of_pi_multiple(a.value, terms)
        if c < lo:
            return -1
        if c > hi:
            return 1
        # equality is impossible here (the overlap cases were normalized away)
        terms *= 2
    raise PrecisionExhausted(
        f"cannot order {a} and {b} within {_MAX_TERMS} series terms"
    )


class Verdict(enum.Enum):
    """Trichotomy of a minimal angle against the pi/3 threshold."""

    GreaterThanPiOver3 = "GT_PI_3"
    EqualPiOver3 = "EQ_PI_3"
    LessThanPiOver3 = "LT_PI_3"

    @property
    def code(self) -> str:
        return self.value


def verdict_against_pi_over_3(a: Angle) -> Verdict:
    """Exact trichotomy; rational comparisons only, no interval path."""
    if a.kind == "pi":
        rel = (a.value > Fraction(1, 3)) - (a.value < Fraction(1, 3))
    else:
        # angle > pi/3 exactly when cos < 1/2
        half = Fraction(1, 2)
        rel = (a.value < half) - (a.value > half)
    if rel > 0:
        return Verdict.GreaterThanPiOver3
    if rel < 0:
        return Verdict.LessThanPiOver3
    return Verdict.EqualPiOver3
