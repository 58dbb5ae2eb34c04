from __future__ import annotations

from fractions import Fraction

import pytest

import helpers
from coxangle.diagram import builtin, new_diagram
from coxangle.errors import DimensionMismatch, NonCrystallographic, UnknownNode
from coxangle.geometry import (
    as_vector,
    dot,
    realize,
    reflect,
    vadd,
    vscale,
    vsub,
)

ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20, "A5": 30,
    "B2": 8, "B3": 18, "B4": 32, "B5": 50,
    "D4": 24, "D5": 40, "D6": 60,
    "E6": 72, "E7": 126, "E8": 240,
    "F4": 48, "G2": 12,
}


def gram_entry(r, i, j) -> Fraction:
    return dot(r.simple_roots[i], r.simple_roots[j])


class TestRealize:
    @pytest.mark.parametrize("name", sorted(ROOT_COUNTS))
    def test_root_count(self, name):
        r = realize(builtin(name))
        assert len(helpers.all_roots(r)) == ROOT_COUNTS[name]

    @pytest.mark.parametrize("name", sorted(ROOT_COUNTS))
    def test_gram_matrix_encodes_bond_labels(self, name):
        # <a_i,a_j>^2 = cos^2(pi/m) |a_i|^2 |a_j|^2 with cos^2(pi/m)
        # rational for every crystallographic label m in {2,3,4,6}
        d = builtin(name)
        r = realize(d)
        cos2 = {2: Fraction(0), 3: Fraction(1, 4), 4: Fraction(1, 2), 6: Fraction(3, 4)}
        for i in d.nodes:
            for j in d.nodes:
                if i >= j:
                    continue
                m = d.m(i, j)
                lhs = gram_entry(r, i, j) ** 2
                rhs = cos2[m] * gram_entry(r, i, i) * gram_entry(r, j, j)
                assert lhs == rhs
                if m > 2:
                    assert gram_entry(r, i, j) < 0

    @pytest.mark.parametrize("name", sorted(ROOT_COUNTS))
    def test_weights_dual_to_coroots(self, name):
        d = builtin(name)
        r = realize(d)
        for i in d.nodes:
            for j in d.nodes:
                got = dot(r.fundamental_weights[i], r.coroots[j])
                assert got == (1 if i == j else 0)

    def test_coroot_normalization(self):
        r = realize(builtin("B3"))
        for i, alpha in r.simple_roots.items():
            assert r.coroots[i] == vscale(Fraction(2) / dot(alpha, alpha), alpha)

    def test_disjoint_sum_blocks_orthogonal(self):
        d = new_diagram([1, 2, 3, 4], [(1, 2, 3), (3, 4, 4)])
        r = realize(d)
        for i in (1, 2):
            for j in (3, 4):
                assert dot(r.simple_roots[i], r.simple_roots[j]) == 0

    def test_unknown_builtin_labels_preserved(self):
        d = new_diagram([4, 7, 9], [(4, 7, 3), (7, 9, 3)])
        r = realize(d)
        assert set(r.simple_roots) == {4, 7, 9}
        assert set(r.fundamental_weights) == {4, 7, 9}


class TestReflect:
    def test_reflection_is_involution(self):
        d = builtin("F4")
        r = realize(d)
        v = as_vector([Fraction(1), Fraction(2), Fraction(3), Fraction(5)])
        for i in d.nodes:
            assert reflect(r, i, reflect(r, i, v)) == v

    def test_reflection_negates_own_root(self):
        d = builtin("E6")
        r = realize(d)
        for i in d.nodes:
            alpha = r.simple_roots[i]
            assert reflect(r, i, alpha) == vscale(Fraction(-1), alpha)

    def test_reflection_fixes_orthogonal_complement(self):
        r = realize(builtin("A2"))
        w = r.fundamental_weights[2]
        # w_2 is orthogonal to coroot 1, hence fixed by s_1
        assert reflect(r, 1, w) == w

    def test_unknown_node(self):
        r = realize(builtin("A2"))
        with pytest.raises(UnknownNode):
            reflect(r, 5, r.simple_roots[1])

    def test_dimension_mismatch(self):
        r = realize(builtin("A2"))
        with pytest.raises(DimensionMismatch):
            reflect(r, 1, as_vector([Fraction(1)]))


class TestRootCoefficients:
    @pytest.mark.parametrize("name", ["A3", "B3", "F4", "G2", "E6"])
    def test_simple_roots_are_unit_coefficient(self, name):
        d = builtin(name)
        r = realize(d)
        for i in d.nodes:
            coeffs = helpers.root_coefficients(r, r.simple_roots[i])
            assert coeffs == {j: Fraction(int(i == j)) for j in d.nodes}

    def test_all_roots_have_one_sign(self):
        r = realize(builtin("B3"))
        for root in helpers.all_roots(r):
            cs = list(helpers.root_coefficients(r, root).values())
            assert all(c >= 0 for c in cs) or all(c <= 0 for c in cs)
            assert all(c.denominator == 1 for c in cs)

    def test_highest_root_e8(self):
        r = realize(builtin("E8"))
        roots = helpers.all_roots(r)
        height = lambda v: sum(helpers.root_coefficients(r, v).values())
        top = max(roots, key=height)
        assert height(top) == 29  # sum of marks 2,3,4,6,5,4,3,2


class TestVectorOps:
    def test_algebra(self):
        u = as_vector([Fraction(1), Fraction(2)])
        v = as_vector([Fraction(3), Fraction(-1)])
        assert vadd(u, v) == as_vector([Fraction(4), Fraction(1)])
        assert vsub(vadd(u, v), v) == u
        assert vscale(Fraction(2), u) == as_vector([Fraction(2), Fraction(4)])
        assert dot(u, v) == 1

    def test_realize_rejects_noncrystallographic(self):
        for name in ("H3", "H4", "I2(5)", "I2(7)"):
            with pytest.raises(NonCrystallographic):
                realize(builtin(name))
