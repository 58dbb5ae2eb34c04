"""Exact angle values in (0, pi] and exact comparisons between them.

An Angle is canonically either a rational multiple of pi or an angle with
rational cosine. The two overlap exactly at cos in {-1, -1/2, 0, 1/2} (the
rational-cosine angles that are also rational multiples of pi), and those
are always normalized to the pi form, so structural equality is angle
equality. Threshold checks against pi/3, pi/2, 2pi/3, pi reduce to rational
comparisons. The general mixed-kind order, p/q·pi against arccos c, counts
the sign changes of the Chebyshev values b^k U_k(c) in integer arithmetic
(see _pi_multiple_below_arccos): it is exact, holds no cache, and ends
within q - 1 steps, because by Niven's theorem a non-normalized rational
cosine never equals a rational multiple of pi. The constructor enforces
the range and the normalization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidEntry

# rational multiple of pi <-> rational cosine, the only overlaps in (0, pi]
_COS_TO_PI = {
    Fraction(1, 2): Fraction(1, 3),
    Fraction(0): Fraction(1, 2),
    Fraction(-1, 2): Fraction(2, 3),
    Fraction(-1): Fraction(1),
}
_PI_TO_COS = {v: k for k, v in _COS_TO_PI.items()}


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


def _pi_multiple_below_arccos(frac: Fraction, c: Fraction) -> bool:
    """Whether frac·pi < arccos c, for frac in (0, 1) and c in (-1, 1).

    With c = a/b and theta = arccos c, V_k = b^k U_k(c) satisfies V_0 = 1,
    V_1 = 2a and V_{k+1} = 2a V_k - b^2 V_{k-1}, and U_k(c) has the sign of
    sin((k+1) theta) (Szego, Orthogonal Polynomials, ch. III). So V_0..V_{q-1}
    change sign exactly floor(q theta / pi) times, and p/q·pi < theta exactly
    when the p-th change comes within those q - 1 steps. A step without a
    change is a change for (1 - p/q)·pi against arccos(-c), so counting both
    stops as soon as one side reaches its target, and by step q - 1 at the
    latest. No V_k is zero: that would make theta a rational multiple of pi
    with rational cosine, which Niven's theorem limits to the normalized
    cosines.
    """
    p, q = frac.numerator, frac.denominator
    a, b = c.numerator, c.denominator
    two_a, b2 = 2 * a, b * b
    prev, cur = 1, two_a
    changes = stays = 0
    while True:
        if (prev < 0) != (cur < 0):
            changes += 1
            if changes == p:
                return True
        else:
            stays += 1
            if stays == q - p:
                return False
        prev, cur = cur, two_a * cur - b2 * prev


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
    # equality is impossible here (the overlap cases were normalized away)
    return -1 if _pi_multiple_below_arccos(a.value, b.value) else 1


class Verdict(enum.Enum):
    """Trichotomy of a minimal angle against the pi/3 threshold."""

    GreaterThanPiOver3 = "GT_PI_3"
    EqualPiOver3 = "EQ_PI_3"
    LessThanPiOver3 = "LT_PI_3"

    @property
    def code(self) -> str:
        return self.value


def verdict_against_pi_over_3(a: Angle) -> Verdict:
    """Exact trichotomy: the order against pi/3, whose cosine is 1/2, is a
    rational comparison."""
    rel = _compare(a, PI_OVER_3)
    if rel > 0:
        return Verdict.GreaterThanPiOver3
    if rel < 0:
        return Verdict.LessThanPiOver3
    return Verdict.EqualPiOver3
