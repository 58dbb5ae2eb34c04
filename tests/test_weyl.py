from __future__ import annotations

import random
from fractions import Fraction

import pytest

import helpers
from coxangle.diagram import builtin, classify, new_diagram, restrict
from coxangle.errors import NonCrystallographic, OrbitBudgetExceeded, OrderBudgetExceeded
from coxangle.geometry import dot, realize, vscale
from coxangle.weyl import (
    DEFAULT_ORBIT_BUDGET,
    ORBIT_BUDGET_ENV,
    OrthogonalElement,
    _mat_vec,
    element_order,
    group_order,
    longest_element,
    opposition,
    orbit_budget,
    orbit_size,
    reflection_element,
    weyl_orbit,
)

GROUP_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384, "B5": 3840, "C6": 46080,
    "D4": 192, "D5": 1920, "D6": 23040,
    "E6": 51840, "E7": 2903040, "E8": 696729600,
    "F4": 1152, "G2": 12, "H3": 120, "H4": 14400,
    "I2(5)": 10, "I2(7)": 14, "I2(30)": 60,
}

# |orbit(w_i)| = |W| / |W_{all nodes except i}|
ORBIT_SIZES = {
    ("A3", 1): 4, ("A3", 2): 6,
    ("B3", 1): 6, ("B3", 3): 8,
    ("D4", 1): 8, ("D4", 2): 24,
    ("F4", 1): 24, ("F4", 4): 24,
    ("G2", 1): 6, ("G2", 2): 6,
    ("E6", 1): 27, ("E6", 2): 72,
    ("E7", 7): 56, ("E7", 1): 126,
    ("E8", 8): 240,
}

POSITIVE_ROOT_COUNTS = {"A3": 6, "B3": 9, "B4": 16, "D4": 12, "F4": 24, "G2": 6, "A5": 15}

COXETER_NUMBERS = {"A3": 4, "B3": 6, "D4": 6, "F4": 12, "G2": 6, "E6": 12}


class TestGroupOrder:
    @pytest.mark.parametrize("name,order", sorted(GROUP_ORDERS.items()))
    def test_table(self, name, order):
        assert group_order(builtin(name)) == order

    def test_product_multiplies(self):
        d = new_diagram([1, 2, 3, 4], [(1, 2, 3), (3, 4, 4)])
        assert group_order(d) == 6 * 8

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "D4", "F4", "G2"])
    def test_matches_brute_enumeration(self, name):
        r = realize(builtin(name))
        assert len(helpers.full_group_matrices(r)) == GROUP_ORDERS[name]


class TestOrbits:
    @pytest.mark.parametrize("key,size", sorted(ORBIT_SIZES.items()))
    def test_weight_orbit_sizes(self, key, size):
        name, i = key
        r = realize(builtin(name))
        assert len(weyl_orbit(r, r.fundamental_weights[i])) == size

    @pytest.mark.parametrize("name", ["A3", "B3", "D4", "F4", "G2"])
    def test_matches_brute_orbit(self, name):
        d = builtin(name)
        r = realize(d)
        for i in d.nodes:
            got = weyl_orbit(r, r.fundamental_weights[i])
            assert got == helpers.brute_orbit(r, r.fundamental_weights[i])

    def test_orbit_preserves_norm_and_contains_seed(self):
        r = realize(builtin("B4"))
        w = r.fundamental_weights[2]
        orbit = weyl_orbit(r, w)
        assert w in orbit
        n = dot(w, w)
        assert all(dot(x, x) == n for x in orbit)

    def test_half_integer_seed(self):
        # E8 weights have half-integer coordinates; the scaled integer
        # walk must still be exact
        r = realize(builtin("E8"))
        w = r.fundamental_weights[8]
        orbit = weyl_orbit(r, w)
        assert len(orbit) == 240
        assert vscale(Fraction(-1), w) in orbit

    @pytest.mark.parametrize("name", ["A3", "B3", "D4", "G2", "F4", "A2+B2"])
    def test_non_weight_seeds_match_brute_orbit(self, name):
        # random rational seeds mostly pair to fractions with the coroots,
        # so they lie outside the weight lattice
        r = realize(builtin(name))
        rng = random.Random(name)
        e1 = (Fraction(1),) + (Fraction(0),) * (r.ambient_dim - 1)
        seeds = [e1] + [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(r.ambient_dim))
            for _ in range(3)
        ]
        assert any(dot(v, c).denominator > 1 for v in seeds for c in r.coroots.values())
        group = helpers.full_group_matrices(r)
        for v in seeds:
            want = frozenset(_mat_vec(m, v) for m in group)
            got = weyl_orbit(r, v)
            assert got == want
            assert len(got) == len(want)

    def test_e8_unit_vector_orbit(self):
        # e_1 pairs to 1/2 with the half-integer roots of E8, so it is not a
        # weight; its stabilizer is W(D7)
        r = realize(builtin("E8"))
        e1 = (Fraction(1),) + (Fraction(0),) * 7
        assert any(dot(e1, c).denominator > 1 for c in r.coroots.values())
        want = group_order(builtin("E8")) // group_order(builtin("D7"))
        assert len(weyl_orbit(r, e1)) == 2160 == want

    def test_budget_exceeded(self):
        r = realize(builtin("E6"))
        with pytest.raises(OrbitBudgetExceeded):
            weyl_orbit(r, r.fundamental_weights[2], budget=10)

    @pytest.mark.parametrize("name", ["B4", "D5", "E6"])
    def test_orbit_size_counts_the_orbit(self, name):
        d = builtin(name)
        r = realize(d)
        for i in d.nodes:
            w = r.fundamental_weights[i]
            stab = group_order(restrict(d, [j for j in d.nodes if j != i]))
            assert orbit_size(d, i) == len(weyl_orbit(r, w)) == group_order(d) // stab

    def test_budget_argument_wins(self):
        r = realize(builtin("A3"))
        assert len(weyl_orbit(r, r.fundamental_weights[1], budget=100)) == 4

    def test_budget_boundary(self):
        # the E6 node 2 orbit has 72 weights: a budget of 72 admits it
        d = builtin("E6")
        r = realize(d)
        assert orbit_size(d, 2, budget=72) == 72
        assert len(weyl_orbit(r, r.fundamental_weights[2], budget=72)) == 72
        with pytest.raises(OrbitBudgetExceeded, match="budget of 71 vectors"):
            orbit_size(d, 2, budget=71)
        with pytest.raises(OrbitBudgetExceeded):
            weyl_orbit(r, r.fundamental_weights[2], budget=71)

    def test_one_element_orbit_never_exceeds(self):
        r = realize(builtin("B3"))
        assert weyl_orbit(r, (0, 0, 0), budget=0) == {(Fraction(0),) * 3}

    @pytest.mark.parametrize("name", ["H3", "H4", "I2(5)"])
    def test_orbit_size_refuses_noncrystallographic(self, name):
        with pytest.raises(NonCrystallographic) as info:
            orbit_size(builtin(name), 1)
        with pytest.raises(NonCrystallographic) as want:
            realize(builtin(name))
        assert str(info.value) == str(want.value)

    def test_orbit_size_reads_only_the_node_component(self):
        # W(H3) fixes the weights of the A2 component, so H3 does not matter
        d = new_diagram([1, 2, 3, 4, 5], [(1, 2, 5), (2, 3, 3), (4, 5, 3)])
        assert orbit_size(d, 4) == 3
        with pytest.raises(NonCrystallographic):
            orbit_size(d, 1)


class TestBudgetConfig:
    def test_default(self):
        assert orbit_budget() == DEFAULT_ORBIT_BUDGET

    def test_env(self, monkeypatch):
        monkeypatch.setenv(ORBIT_BUDGET_ENV, "4567")
        assert orbit_budget() == 4567

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv(ORBIT_BUDGET_ENV, "not-a-number")
        assert orbit_budget() == DEFAULT_ORBIT_BUDGET


class TestOrthogonalElement:
    def test_reflection_involution(self):
        r = realize(builtin("F4"))
        for i in (1, 2, 3, 4):
            s = reflection_element(r, i)
            assert not s.is_identity
            assert s.times(s).is_identity
            assert s.word == (i,)

    def test_identity(self):
        e = OrthogonalElement.identity(3)
        assert e.is_identity and e.dim == 3

    def test_apply_matches_reflect(self):
        from coxangle.geometry import reflect

        r = realize(builtin("B3"))
        s = reflection_element(r, 2)
        v = r.fundamental_weights[3]
        assert s.apply(v) == reflect(r, 2, v)


class TestLongestElement:
    @pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
    def test_word_length_is_positive_root_count(self, name, count):
        r = realize(builtin(name))
        w0 = longest_element(r)
        assert len(w0.word) == count

    @pytest.mark.parametrize("name", ["A3", "B3", "D4", "F4", "G2", "A5", "E6"])
    def test_is_involution(self, name):
        r = realize(builtin(name))
        w0 = longest_element(r)
        assert w0.times(w0).is_identity

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "D4", "F4", "G2"])
    def test_matches_brute_longest(self, name):
        r = realize(builtin(name))
        assert longest_element(r).matrix == helpers.brute_longest(r)

    def test_word_is_reduced_product(self):
        r = realize(builtin("B3"))
        w0 = longest_element(r)
        acc = OrthogonalElement.identity(r.ambient_dim)
        for i in w0.word:
            acc = acc.times(reflection_element(r, i))
        assert acc.matrix == w0.matrix

    def test_parabolic_subset(self):
        r = realize(builtin("A5"))
        w = longest_element(r, nodes=[2, 3])
        assert len(w.word) == 3  # A2 parabolic
        assert set(w.word) <= {2, 3}
        # fixes weights orthogonal to the parabolic's span? no: sends
        # alpha_2 to a negative root of the parabolic
        img = w.apply(r.simple_roots[2])
        coeffs = helpers.root_coefficients(r, img)
        assert all(c <= 0 for c in coeffs.values())

    def test_sends_all_simple_roots_negative(self):
        r = realize(builtin("D5"))
        w0 = longest_element(r)
        for i in (1, 2, 3, 4, 5):
            img = w0.apply(r.simple_roots[i])
            assert all(c <= 0 for c in helpers.root_coefficients(r, img).values())


class TestElementOrder:
    def test_reflection_has_order_two(self):
        r = realize(builtin("A3"))
        assert element_order(reflection_element(r, 1)) == 2

    def test_identity_has_order_one(self):
        assert element_order(OrthogonalElement.identity(4)) == 1

    @pytest.mark.parametrize("name,h", sorted(COXETER_NUMBERS.items()))
    def test_coxeter_element_order(self, name, h):
        d = builtin(name)
        r = realize(d)
        c = OrthogonalElement.identity(r.ambient_dim)
        for i in d.nodes:
            c = c.times(reflection_element(r, i))
        assert element_order(c) == h

    def test_cap(self):
        r = realize(builtin("E6"))
        c = OrthogonalElement.identity(r.ambient_dim)
        for i in (1, 2, 3, 4, 5, 6):
            c = c.times(reflection_element(r, i))
        with pytest.raises(OrderBudgetExceeded):
            element_order(c, cap=5)


OPPOSITIONS = {
    "A1": "id", "A2": "(1 2)", "A3": "(1 3)", "A4": "(1 4)(2 3)",
    "A5": "(1 5)(2 4)", "B2": "id", "B3": "id", "B4": "id",
    "D4": "id", "D5": "(4 5)", "D6": "id",
    "E6": "(1 6)(3 5)", "E7": "id", "E8": "id",
    "F4": "id", "G2": "id", "H3": "id", "H4": "id",
    "I2(5)": "(1 2)", "I2(7)": "(1 2)", "I2(8)": "id", "I2(12)": "id",
}


# every crystallographic builtin of rank <= 8, C_n included
FULL_RANK_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
REDUCIBLE_SUMS = ["A2+A3", "D5+E6", "A1+A1+B3", "I2(5)+A3", "H3+D5"]


class TestOpposition:
    @pytest.mark.parametrize("name,cyc", sorted(OPPOSITIONS.items()))
    def test_table(self, name, cyc):
        assert opposition(builtin(name)).cycle_string() == cyc

    @pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "G2"])
    def test_matches_brute_w0_action(self, name):
        d = builtin(name)
        got = opposition(d)
        want = helpers.brute_opposition(realize(d))
        assert {i: got(i) for i in d.nodes} == want

    @pytest.mark.parametrize("name", FULL_RANK_TYPES + REDUCIBLE_SUMS)
    def test_table_matches_realized_w0(self, name):
        rng = random.Random(name)
        d = builtin(name)
        for labelled in (d, helpers.relabeled(d, rng), helpers.relabeled(d, rng)):
            got = opposition(labelled)
            assert {i: got(i) for i in labelled.nodes} == helpers.realized_opposition(
                labelled
            )

    @pytest.mark.parametrize("m", range(3, 13))
    def test_matches_dihedral_oracle(self, m):
        name = {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
        d = builtin(name)
        swapped = opposition(d)(d.nodes[0]) == d.nodes[1]
        assert swapped == helpers.dihedral_opposition(m)

    @pytest.mark.parametrize(
        "name", FULL_RANK_TYPES + ["H3", "H4"] + [f"I2({m})" for m in range(3, 13)]
    )
    def test_identity_exactly_when_all_degrees_even(self, name):
        # w_0 = -1 exactly when every degree is even, so the degrees table
        # and the opposition table must agree on which types have sigma = id
        d = builtin(name)
        (ct,) = classify(d)
        assert all(k % 2 == 0 for k in ct.degrees) == opposition(d).is_identity

    def test_is_involution_and_automorphism(self):
        from coxangle.diagram import is_automorphism

        for name in OPPOSITIONS:
            d = builtin(name)
            p = opposition(d)
            assert p.compose(p).is_identity
            assert is_automorphism(d, p)

    def test_componentwise(self):
        d = new_diagram([1, 2, 3, 4, 5], [(1, 2, 3), (4, 5, 5)])
        p = opposition(d)
        assert p(1) == 2 and p(2) == 1 and p(3) == 3
        assert p(4) == 5 and p(5) == 4
