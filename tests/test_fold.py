from __future__ import annotations

import math
import random

import pytest

import helpers
from coxangle.diagram import (
    AutGroup,
    Permutation,
    builtin,
    diagram_automorphisms,
    new_diagram,
    orbits,
    type_name,
)
from coxangle.errors import NonCrystallographic, NotAnAutomorphism
from coxangle.fold import FoldResult, _positive_roots, fold, fold_tits
from coxangle.geometry import realize
from coxangle.tits import TitsDiagram
from coxangle.weyl import (
    _identity_matrix,
    _mat_mul,
    element_order,
    group_order,
    longest_element,
)


def closure_order(gens) -> int:
    mats = [g.matrix for g in gens]
    seen = {_identity_matrix(gens[0].dim)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                p = _mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


FOLDS = [
    # (diagram, generator cycles, folded type, folded edge set)
    ("A3", [(1, 3)], "B2", {(1, 2, 4)}),
    ("A4", [(1, 4), (2, 3)], "B2", {(1, 2, 4)}),
    ("A5", [(1, 5), (2, 4)], "B3", {(1, 2, 3), (2, 3, 4)}),
    ("D4", [(1, 3, 4)], "G2", {(1, 2, 6)}),
    ("D4", [(1, 3)], "B3", {(1, 2, 4), (2, 4, 3)}),
    ("D5", [(4, 5)], "B4", {(1, 2, 3), (2, 3, 3), (3, 4, 4)}),
    ("E6", [(1, 6), (3, 5)], "F4", {(1, 3, 3), (2, 4, 3), (3, 4, 4)}),
    ("F4", [(1, 4), (2, 3)], "I2(8)", {(1, 2, 8)}),
]


class TestFoldTable:
    @pytest.mark.parametrize("name,cycles,ftype,edges", FOLDS)
    def test_folded_diagram(self, name, cycles, ftype, edges):
        d = builtin(name)
        res = fold(d, helpers.gen_group(d, cycles))
        assert type_name(res.folded) == ftype
        got = {(a, b, res.folded.m(a, b))
               for a in res.folded.nodes for b in res.folded.nodes
               if a < b and res.folded.m(a, b) >= 3}
        assert got == edges

    @pytest.mark.parametrize("name,cycles,ftype,edges", FOLDS)
    def test_fixed_subgroup_has_folded_order(self, name, cycles, ftype, edges):
        d = builtin(name)
        res = fold(d, helpers.gen_group(d, cycles))
        assert closure_order(list(res.generators.values())) == group_order(res.folded)

    def test_disjoint_components_identified(self):
        d = new_diagram([1, 2, 3, 4], [(1, 2, 3), (3, 4, 3)])
        res = fold(d, helpers.gen_group(d, [(1, 3), (2, 4)]))
        assert type_name(res.folded) == "A2"
        assert closure_order(list(res.generators.values())) == 6


class TestNodeMap:
    def test_labels_are_orbit_minima(self):
        d = builtin("E6")
        g = helpers.gen_group(d, [(1, 6), (3, 5)])
        res = fold(d, g)
        for orb in orbits(d, g):
            assert all(res.node_map[i] == min(orb) for i in orb)

    def test_surjective(self):
        d = builtin("A5")
        res = fold(d, helpers.gen_group(d, [(1, 5), (2, 4)]))
        assert set(res.node_map.values()) == set(res.folded.nodes)
        assert set(res.node_map.keys()) == set(d.nodes)

    def test_generators_keyed_by_folded_nodes(self):
        d = builtin("D4")
        res = fold(d, diagram_automorphisms(d))
        assert set(res.generators.keys()) == set(res.folded.nodes) == {1, 2}


class TestTrivialFold:
    def test_identity_on_crystallographic(self):
        d = builtin("B3")
        res = fold(d, AutGroup.trivial(d.nodes))
        assert res.folded.nodes == d.nodes
        assert all(res.folded.m(i, j) == d.m(i, j) for i in d.nodes for j in d.nodes)
        assert res.node_map == {i: i for i in d.nodes}
        for i, g in res.generators.items():
            assert g.times(g).is_identity and g.word == (i,)

    def test_noncrystallographic_trivial_gamma_allowed(self):
        d = builtin("H3")
        res = fold(d, AutGroup.trivial(d.nodes))
        assert res.folded.nodes == d.nodes
        assert res.generators is None

    def test_i2_generic_trivial_gamma(self):
        d = builtin("I2(7)")
        res = fold(d, AutGroup.trivial(d.nodes))
        assert type_name(res.folded) == "I2(7)"
        assert res.generators is None


class TestNonCrystallographicFolds:
    def test_i2_swap_folds_to_a1(self):
        d = builtin("I2(7)")
        res = fold(d, helpers.gen_group(d, [(1, 2)]))
        assert type_name(res.folded) == "A1"
        assert res.folded.nodes == (1,)
        assert res.generators is None
        assert res.node_map == {1: 1, 2: 1}

    def test_h3_pair_swap_rejected(self):
        d = new_diagram([1, 2, 3, 4, 5, 6],
                        [(1, 2, 5), (2, 3, 3), (4, 5, 5), (5, 6, 3)])
        g = helpers.gen_group(d, [(1, 4), (2, 5), (3, 6)])
        with pytest.raises(NonCrystallographic):
            fold(d, g)

    def test_i2_5_pair_swap_rejected(self):
        d = new_diagram([1, 2, 3, 4], [(1, 2, 5), (3, 4, 5)])
        g = helpers.gen_group(d, [(1, 3), (2, 4)])
        with pytest.raises(NonCrystallographic):
            fold(d, g)


class TestErrors:
    def test_not_an_automorphism(self):
        d = builtin("B3")
        g = AutGroup.generated_by(
            [Permutation.from_cycles([(1, 3)], d.nodes)], d.nodes)
        with pytest.raises(NotAnAutomorphism):
            fold(d, g)


class TestGeneratorProperties:
    @pytest.mark.parametrize("name,cycles", [(n, c) for n, c, _, _ in FOLDS])
    def test_generators_are_involutions(self, name, cycles):
        d = builtin(name)
        res = fold(d, helpers.gen_group(d, cycles))
        for g in res.generators.values():
            assert g.times(g).is_identity

    def test_folded_bond_matches_product_order(self):
        from coxangle.weyl import element_order

        d = builtin("E6")
        res = fold(d, helpers.gen_group(d, [(1, 6), (3, 5)]))
        gens = res.generators
        for a in res.folded.nodes:
            for b in res.folded.nodes:
                if a >= b:
                    continue
                assert element_order(gens[a].times(gens[b])) == res.folded.m(a, b)


class TestGammaCommutation:
    # the permutation action alpha_i -> alpha_{g(i)} is orthogonal on the
    # root span only when g preserves root lengths, so this property is
    # quantified over simply-laced diagrams
    SIMPLY_LACED = [
        ("A3", [(1, 3)]),
        ("A4", [(1, 4), (2, 3)]),
        ("A5", [(1, 5), (2, 4)]),
        ("D4", [(1, 3, 4)]),
        ("D4", [(1, 3)]),
        ("D5", [(4, 5)]),
        ("E6", [(1, 6), (3, 5)]),
    ]

    @pytest.mark.parametrize("name,cycles", SIMPLY_LACED)
    def test_generators_commute_with_gamma(self, name, cycles):
        from coxangle.geometry import realize, root_coefficients, vadd, vscale
        from fractions import Fraction

        d = builtin(name)
        g = helpers.gen_group(d, cycles)
        r = realize(d)
        res = fold(d, g)

        def permute(p, v):
            coeffs = root_coefficients(r, v)
            out = tuple(Fraction(0) for _ in range(r.ambient_dim))
            for j, c in coeffs.items():
                out = vadd(out, vscale(c, r.simple_roots[p(j)]))
            return out

        for p in g.elements():
            for w in res.generators.values():
                for i in d.nodes:
                    alpha = r.simple_roots[i]
                    assert permute(p, w.apply(alpha)) == w.apply(permute(p, alpha))


class TestFoldTits:
    def test_anisotropic_pushforward(self):
        d = builtin("A5")
        g = helpers.gen_group(d, [(1, 5), (2, 4)])
        t = TitsDiagram(d, g, frozenset({1, 2, 4, 5}))
        res, a_folded = fold_tits(t)
        assert a_folded == frozenset({1, 2})
        assert set(res.folded.nodes) - a_folded == {3}

    def test_invalid_tits_rejected(self):
        from coxangle.errors import InvalidTitsDiagram

        d = builtin("A5")
        g = helpers.gen_group(d, [(1, 5), (2, 4)])
        t = TitsDiagram(d, g, frozenset({2}))  # not gamma-invariant
        with pytest.raises(InvalidTitsDiagram):
            fold_tits(t)

    def test_trivial_gamma_empty_a(self):
        d = builtin("B3")
        t = TitsDiagram(d, AutGroup.trivial(d.nodes), frozenset())
        res, a_folded = fold_tits(t)
        assert a_folded == frozenset()
        assert res.folded.nodes == d.nodes


class TestFoldResultShape:
    def test_is_dataclass_with_expected_fields(self):
        d = builtin("A3")
        res = fold(d, helpers.gen_group(d, [(1, 3)]))
        assert isinstance(res, FoldResult)
        assert hasattr(res, "folded") and hasattr(res, "node_map")
        assert hasattr(res, "generators")


# every builtin of rank <= 8 with a nontrivial diagram automorphism
SYMMETRIC = ([f"A{n}" for n in range(2, 9)] + ["B2", "G2", "F4", "E6"]
             + [f"D{n}" for n in range(4, 9)])
SUMS = ["A2+A2", "A3+A3", "B3+B3", "D4+D4", "E6+E6", "F4+F4", "G2+E6", "D4+A3",
        "A2+A2+A2"]
CRYSTALLOGRAPHIC = (["A1", "G2"] + [f"A{n}" for n in range(2, 9)]
                    + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(3, 9)]
                    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4"])


def _oracle_cases():
    """(id, diagram, group): each SYMMETRIC builtin with its full group and
    with every distinct cyclic subgroup, each sum with its full group, and
    two random relabellings each of E6 and D4+D4 with their full groups."""
    cases = []
    for name in SYMMETRIC:
        d = builtin(name)
        full = diagram_automorphisms(d)
        cases.append((f"{name}-full", d, full))
        seen = {full.elements()}
        for p in sorted(full.elements(), key=lambda p: p.mapping):
            cyclic = AutGroup.generated_by([p], d.nodes)
            if not p.is_identity and cyclic.elements() not in seen:
                seen.add(cyclic.elements())
                cases.append((f"{name}-<{p.cycle_string()}>", d, cyclic))
    for name in SUMS:
        d = builtin(name)
        cases.append((f"{name}-full", d, diagram_automorphisms(d)))
    rng = random.Random(20)
    for name in ("E6", "D4+D4"):
        for k in range(2):
            d = helpers.relabeled(builtin(name), rng)
            cases.append((f"{name}-relabelled-{k}", d, diagram_automorphisms(d)))
    return cases


ORACLE_CASES = _oracle_cases()


class TestBondsAgainstAmbientOracle:
    """Folded bonds from positive-root counts against the order of w_J w_K
    in the realized ambient group, with the generators built on demand."""

    @pytest.mark.parametrize("d,g", [c[1:] for c in ORACLE_CASES],
                             ids=[c[0] for c in ORACLE_CASES])
    def test_bond_is_order_of_generator_product(self, d, g):
        res = fold(d, g)
        gens = res.generators
        assert set(gens) == set(res.folded.nodes)
        for a in res.folded.nodes:
            for b in res.folded.nodes:
                if a < b:
                    want = element_order(gens[a].times(gens[b]))
                    assert res.folded.m(a, b) == want, (a, b)

    @pytest.mark.parametrize("name", CRYSTALLOGRAPHIC)
    def test_positive_roots_is_longest_element_length(self, name):
        d = builtin(name)
        assert _positive_roots(d) == len(longest_element(realize(d)).word)

    @pytest.mark.parametrize("name,degrees", [
        ("H3", (2, 6, 10)), ("H4", (2, 12, 20, 30)), ("I2(5)", (2, 5)), ("I2(8)", (2, 8)),
    ])
    def test_noncrystallographic_entries_match_degrees(self, name, degrees):
        # N = sum of (d_i - 1) and |W| = product of d_i over the degrees d_i
        # (Humphreys, Reflection Groups and Coxeter Groups, 3.9)
        d = builtin(name)
        assert group_order(d) == math.prod(degrees)
        assert _positive_roots(d) == sum(k - 1 for k in degrees)

    def test_sums_add(self):
        assert _positive_roots(builtin("G2+E6+A3")) == 6 + 36 + 6
