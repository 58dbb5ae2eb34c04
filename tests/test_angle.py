from __future__ import annotations

import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coxangle.angle import (
    PI,
    PI_OVER_2,
    PI_OVER_3,
    Angle,
    Verdict,
    verdict_against_pi_over_3,
)
from coxangle.errors import InvalidEntry


class TestCanonicalization:
    def test_special_cosines_become_pi_fractions(self):
        assert Angle.exact_cos(Fraction(-1)) == Angle.rational_pi(1, 1)
        assert Angle.exact_cos(Fraction(-1, 2)) == Angle.rational_pi(2, 3)
        assert Angle.exact_cos(Fraction(0)) == Angle.rational_pi(1, 2)
        assert Angle.exact_cos(Fraction(1, 2)) == Angle.rational_pi(1, 3)

    def test_generic_cosine_stays_cos(self):
        a = Angle.exact_cos(Fraction(1, 3))
        assert a.kind == "cos" and a.value == Fraction(1, 3)

    def test_pi_fraction_reduced(self):
        assert Angle.rational_pi(2, 6) == Angle.rational_pi(1, 3)
        assert Angle.rational_pi(3, 3) == PI

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidEntry):
            Angle.exact_cos(Fraction(2))
        with pytest.raises(InvalidEntry):
            Angle.exact_cos(Fraction(1))  # zero angle is not an angle here
        with pytest.raises(InvalidEntry):
            Angle.rational_pi(0, 3)
        with pytest.raises(InvalidEntry):
            Angle.rational_pi(4, 3)

    def test_cos_exact_recovers_cosine_for_special_pi(self):
        assert PI.cos_exact == Fraction(-1)
        assert PI_OVER_2.cos_exact == Fraction(0)
        assert PI_OVER_3.cos_exact == Fraction(1, 2)
        assert Angle.rational_pi(2, 3).cos_exact == Fraction(-1, 2)
        assert Angle.rational_pi(2, 5).cos_exact is None
        assert Angle.exact_cos(Fraction(1, 3)).cos_exact == Fraction(1, 3)


class TestConstructorInvariants:
    @pytest.mark.parametrize(
        "kind,value",
        [
            ("pi", Fraction(7, 3)),
            ("pi", Fraction(0)),
            ("pi", Fraction(-1, 2)),
            ("cos", Fraction(1)),
            ("cos", Fraction(-3, 2)),
            ("deg", Fraction(1, 2)),
            ("pi", 0.5),
            ("cos", "1/3"),
        ],
    )
    def test_rejects_invalid(self, kind, value):
        with pytest.raises(InvalidEntry):
            Angle(kind, value)

    def test_special_cosines_normalized_by_constructor(self):
        assert Angle("cos", Fraction(1, 2)) == PI_OVER_3
        assert Angle("cos", Fraction(0)) == PI_OVER_2
        assert Angle("cos", -1) == PI
        assert Angle("pi", 1) == PI and isinstance(Angle("pi", 1).value, Fraction)

    def test_out_of_range_comparison_no_longer_hangs(self):
        # 7/3·pi has cosine exactly 1/2; it used to loop forever against
        # arccos(1/2) built without normalization
        with pytest.raises(InvalidEntry):
            Angle("pi", Fraction(7, 3)) < Angle("cos", Fraction(1, 2))

    def test_near_tie_below_cos_pi_over_5(self):
        # c is within 1e-120 of cos(pi/5) = (1 + sqrt 5)/4; isqrt rounds
        # down, so c < cos(pi/5) and arccos(c) > pi/5
        scale = 10**120
        c = Fraction(scale + math.isqrt(5 * scale * scale), 4 * scale)
        assert Angle.rational_pi(1, 5) < Angle.exact_cos(c)
        assert not Angle.exact_cos(c) < Angle.rational_pi(1, 5)

    def test_near_tie_above_cos_pi_over_5(self):
        # isqrt rounded up puts c just above cos(pi/5), so arccos(c) < pi/5
        scale = 10**120
        c = Fraction(scale + math.isqrt(5 * scale * scale) + 1, 4 * scale)
        assert Angle.exact_cos(c) < Angle.rational_pi(1, 5)
        assert not Angle.rational_pi(1, 5) < Angle.exact_cos(c)

    def test_close_but_separable_still_ordered(self):
        scale = 10**30
        c = Fraction(scale + math.isqrt(5 * scale * scale), 4 * scale)
        # isqrt rounds down, so c < cos(pi/5) and arccos(c) > pi/5
        assert Angle.rational_pi(1, 5) < Angle.exact_cos(c)


class TestOrdering:
    def test_same_kind_pi(self):
        assert Angle.rational_pi(1, 4) < Angle.rational_pi(1, 3) < Angle.rational_pi(1, 2)

    def test_same_kind_cos_reverses(self):
        # larger cosine means smaller angle
        assert Angle.exact_cos(Fraction(2, 3)) < Angle.exact_cos(Fraction(1, 3))

    def test_mixed_special(self):
        assert Angle.exact_cos(Fraction(1, 3)) < PI_OVER_2
        assert PI_OVER_3 < Angle.exact_cos(Fraction(1, 3))

    def test_mixed_interval_refinement(self):
        # 2*pi/5 = 1.2566..., arccos(1/3) = 1.2309...: close enough to
        # force the interval loop rather than the special-value table
        a = Angle.rational_pi(2, 5)
        b = Angle.exact_cos(Fraction(1, 3))
        assert b < a
        assert not (a < b)

    def test_mixed_very_close(self):
        # arccos(3/10) = 1.26610... vs 2*pi/5 = 1.25664...
        assert Angle.rational_pi(2, 5) < Angle.exact_cos(Fraction(3, 10))
        # arccos(31/100) = 1.25563... < 2*pi/5
        assert Angle.exact_cos(Fraction(31, 100)) < Angle.rational_pi(2, 5)

    def test_equality_is_structural(self):
        assert Angle.exact_cos(Fraction(1, 2)) == PI_OVER_3
        assert Angle.rational_pi(1, 3) == PI_OVER_3
        assert PI_OVER_3 != Angle.exact_cos(Fraction(1, 3))

    def test_le_ge(self):
        assert PI_OVER_3 <= PI_OVER_3
        assert PI >= PI_OVER_2
        assert not PI <= PI_OVER_2


class TestDisplay:
    def test_str(self):
        assert str(PI) == "pi"
        assert str(PI_OVER_3) == "pi/3"
        assert str(Angle.rational_pi(2, 3)) == "2*pi/3"
        assert str(Angle.exact_cos(Fraction(1, 3))) == "arccos(1/3)"
        assert str(Angle.exact_cos(Fraction(-1, 3))) == "arccos(-1/3)"

    def test_radians_approx(self):
        assert PI.radians_approx == pytest.approx(math.pi)
        assert PI_OVER_3.radians_approx == pytest.approx(math.pi / 3)
        a = Angle.exact_cos(Fraction(1, 3))
        assert a.radians_approx == pytest.approx(math.acos(1 / 3))

    def test_to_json_pi(self):
        j = PI_OVER_3.to_json()
        assert j == {
            "kind": "rational_pi",
            "pi_fraction": "1/3",
            "radians_approx": pytest.approx(math.pi / 3),
        }
        assert isinstance(j["radians_approx"], float)

    def test_to_json_cos(self):
        j = Angle.exact_cos(Fraction(1, 3)).to_json()
        assert j["kind"] == "exact_cos"
        assert j["cos"] == "1/3"
        assert j["radians_approx"] == pytest.approx(math.acos(1 / 3))

    def test_radians_twelve_significant_digits(self):
        a = Angle.exact_cos(Fraction(1, 3))
        assert a.to_json()["radians_approx"] == float(f"{math.acos(1/3):.12g}")


class TestVerdict:
    def test_codes(self):
        assert Verdict.GreaterThanPiOver3.code == "GT_PI_3"
        assert Verdict.EqualPiOver3.code == "EQ_PI_3"
        assert Verdict.LessThanPiOver3.code == "LT_PI_3"

    @pytest.mark.parametrize(
        "angle,verdict",
        [
            (PI, Verdict.GreaterThanPiOver3),
            (PI_OVER_2, Verdict.GreaterThanPiOver3),
            (PI_OVER_3, Verdict.EqualPiOver3),
            (Angle.exact_cos(Fraction(1, 2)), Verdict.EqualPiOver3),
            (Angle.rational_pi(1, 4), Verdict.LessThanPiOver3),
            (Angle.exact_cos(Fraction(1, 3)), Verdict.GreaterThanPiOver3),
            (Angle.exact_cos(Fraction(3, 4)), Verdict.LessThanPiOver3),
            (Angle.rational_pi(2, 5), Verdict.GreaterThanPiOver3),
            (Angle.rational_pi(1, 6), Verdict.LessThanPiOver3),
        ],
    )
    def test_threshold(self, angle, verdict):
        assert verdict_against_pi_over_3(angle) is verdict


@given(st.fractions(min_value=Fraction(-1), max_value=Fraction(1)).filter(lambda c: c < 1))
def test_cos_roundtrip_and_verdict_consistency(c):
    a = Angle.exact_cos(c)
    assert a.cos_exact == c or c in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    v = verdict_against_pi_over_3(a)
    if c > Fraction(1, 2):
        assert v is Verdict.LessThanPiOver3
    elif c == Fraction(1, 2):
        assert v is Verdict.EqualPiOver3
    else:
        assert v is Verdict.GreaterThanPiOver3


@given(
    st.fractions(min_value=Fraction(-1), max_value=Fraction(99, 100)),
    st.fractions(min_value=Fraction(-1), max_value=Fraction(99, 100)),
)
def test_cos_order_antitone(c1, c2):
    a1, a2 = Angle.exact_cos(c1), Angle.exact_cos(c2)
    if c1 < c2:
        assert a2 < a1
    elif c1 == c2:
        assert a1 == a2


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_pi_fraction_order_matches_fraction_order(p, q):
    if p > q:
        p, q = q, p
    a = Angle.rational_pi(p, q)
    b = PI_OVER_2
    f = Fraction(p, q)
    if f < Fraction(1, 2):
        assert a < b
    elif f == Fraction(1, 2):
        assert a == b
    else:
        assert b < a


@given(st.fractions(min_value=Fraction(-1), max_value=Fraction(99, 100)),
       st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24))
def test_mixed_comparison_agrees_with_float(c, p, q):
    if p > q:
        p, q = q, p
    a = Angle.exact_cos(c)
    b = Angle.rational_pi(p, q)
    fa, fb = math.acos(float(c)), math.pi * p / q
    if abs(fa - fb) < 1e-9:
        return  # too close for a float referee; exactness tested elsewhere
    assert (a < b) == (fa < fb)
    assert (b < a) == (fb < fa)


def _within_seconds(seconds, compute):
    """compute(), failing the test instead of hanging past the limit."""
    def expire(signum, frame):
        raise AssertionError(f"not decided within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return compute()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
class TestLargeDenominator:
    """A pair far apart is decided in a few steps, whatever q is."""

    def test_small_multiple_below_arccos(self):
        # 2pi/10^9 is far below arccos(1/3) = 1.2309...
        a = Angle.rational_pi(2, 10**9)
        b = Angle.exact_cos(Fraction(1, 3))
        assert _within_seconds(5, lambda: a < b)
        assert _within_seconds(5, lambda: not b < a)
        assert _within_seconds(5, lambda: b > a)

    def test_mirror_above_arccos(self):
        # pi - 2pi/10^9 is far above arccos(-1/3) = pi - 1.2309...
        a = Angle.rational_pi(10**9 - 2, 10**9)
        b = Angle.exact_cos(Fraction(-1, 3))
        assert _within_seconds(5, lambda: b < a)
        assert _within_seconds(5, lambda: not a < b)


def test_mixed_order_matches_float_oracle_sweep():
    # every p/q in (0, 1] with q <= 60 against a seeded sample of cosines;
    # the float oracle only referees pairs more than 1e-9 apart
    rng = random.Random(20121)
    cosines = [Fraction(rng.randint(-b + 1, b - 1), b)
               for b in (rng.randint(2, 500) for _ in range(40))]
    refereed = 0
    for q in range(1, 61):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            a = Angle.rational_pi(p, q)
            for c in cosines:
                b = Angle.exact_cos(c)
                fa, fb = math.pi * p / q, math.acos(float(c))
                if abs(fa - fb) <= 1e-9:
                    continue
                refereed += 1
                assert (a < b) == (fa < fb), (p, q, c)
                assert (b < a) == (fb < fa), (p, q, c)
    assert refereed > 40_000
