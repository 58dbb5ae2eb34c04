from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import coxangle.diagram as diagram_mod
import helpers
from coxangle import weyl
from coxangle.diagram import (
    AutGroup,
    Permutation,
    _classify_induced,
    _partition,
    builtin,
    check_automorphisms,
    classify,
    component_of,
    component_type,
    is_automorphism,
    new_diagram,
    orbits,
    restrict,
    type_name,
)
from coxangle.errors import (
    DuplicateLabel,
    InvalidEntry,
    NotAnAutomorphism,
    NotSpherical,
    RankOutOfRange,
    UnknownNode,
    UnknownType,
)


class TestConstruction:
    def test_nodes_sorted_and_deduped_rejected(self):
        with pytest.raises(DuplicateLabel):
            new_diagram([1, 2, 2], [])

    @pytest.mark.parametrize("nodes,dupes", [
        ([7, 2, 7, 5, 2, 2, 1], "[2, 7]"),
        # 100,000 labels: listing the duplicates must not rescan the list per label
        ([*range(99_998, 0, -1), 70_000, 3], "[3, 70000]"),
    ], ids=["small", "100000-labels"])
    def test_duplicate_label_message(self, nodes, dupes):
        with pytest.raises(DuplicateLabel) as exc:
            new_diagram(nodes, [])
        assert str(exc.value) == f"duplicate node labels: {dupes}"

    def test_edge_label_below_two_rejected(self):
        with pytest.raises(InvalidEntry):
            new_diagram([1, 2], [(1, 2, 1)])

    def test_explicit_m_two_means_no_edge(self):
        d = new_diagram([1, 2], [(1, 2, 2)])
        assert d.m(1, 2) == 2 and not d._edge_map

    def test_self_edge_rejected(self):
        with pytest.raises(InvalidEntry):
            new_diagram([1, 2], [(1, 1, 3)])

    def test_edge_to_missing_node_rejected(self):
        with pytest.raises(UnknownNode):
            new_diagram([1, 2], [(1, 3, 3)])

    def test_conflicting_edge_labels_rejected(self):
        with pytest.raises(InvalidEntry):
            new_diagram([1, 2], [(1, 2, 3), (2, 1, 4)])

    def test_repeated_consistent_edge_allowed(self):
        d = new_diagram([1, 2], [(1, 2, 5), (2, 1, 5)])
        assert d.m(1, 2) == 5

    def test_m_is_symmetric_and_defaults_to_two(self):
        d = new_diagram([1, 2, 3], [(1, 2, 3)])
        assert d.m(1, 2) == d.m(2, 1) == 3
        assert d.m(1, 3) == 2
        assert d.m(1, 1) == 1

    def test_m_unknown_node(self):
        d = builtin("A2")
        with pytest.raises(UnknownNode):
            d.m(1, 9)


class TestBuiltin:
    @pytest.mark.parametrize(
        "name,rank",
        [("A1", 1), ("A7", 7), ("B2", 2), ("C5", 5), ("D4", 4), ("E6", 6),
         ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2), ("H3", 3), ("H4", 4),
         ("I2(7)", 2)],
    )
    def test_rank(self, name, rank):
        assert builtin(name).rank == rank

    def test_b_and_c_agree(self):
        b, c = builtin("B4"), builtin("C4")
        assert b.nodes == c.nodes
        assert all(b.m(i, j) == c.m(i, j) for i in b.nodes for j in b.nodes)

    @pytest.mark.parametrize("name", ["Z9", "E", "I2(x)", ""])
    def test_unknown_type(self, name):
        with pytest.raises(UnknownType):
            builtin(name)

    @pytest.mark.parametrize("name", ["A0", "B1", "D3", "E9", "F5", "G3", "H5", "I2(1)"])
    def test_rank_out_of_range(self, name):
        with pytest.raises(RankOutOfRange):
            builtin(name)

    def test_i2_2_is_reducible_pair(self):
        assert type_name(builtin("I2(2)")) == "A1+A1"


class TestClassification:
    @pytest.mark.parametrize(
        "name", ["A1", "A6", "B2", "B5", "D4", "D7", "E6", "E7", "E8",
                 "F4", "G2", "H3", "H4", "I2(5)", "I2(30)"],
    )
    def test_builtin_roundtrip(self, name):
        d = builtin(name)
        cts = classify(d)
        assert len(cts) == 1
        got = cts[0].name
        canonical = {"G2": "I2(6)", "B2": "I2(4)"}.get(name, name)
        assert got in (name, canonical) or (name == "I2(30)" and got == "I2(30)")

    def test_rank2_m3_is_a2(self):
        d = new_diagram([10, 20], [(10, 20, 3)])
        (ct,) = classify(d)
        assert ct.family == "A" and ct.rank == 2

    def test_rank2_m4_is_b2(self):
        d = new_diagram([10, 20], [(10, 20, 4)])
        (ct,) = classify(d)
        assert ct.family == "B" and ct.rank == 2

    def test_rank2_m6_is_g2(self):
        d = new_diagram([10, 20], [(10, 20, 6)])
        (ct,) = classify(d)
        assert ct.family == "G"

    def test_disjoint_sum_classifies_componentwise(self):
        d = new_diagram([1, 2, 3, 4, 5], [(1, 2, 3), (4, 5, 4)])
        names = sorted(ct.name for ct in classify(d))
        assert names == ["A1", "A2", "B2"]
        assert type_name(d) == "A2+A1+B2"

    def test_cycle_not_spherical(self):
        with pytest.raises(NotSpherical):
            new_diagram([1, 2, 3], [(1, 2, 3), (2, 3, 3), (1, 3, 3)])

    def test_affine_e8_tilde_not_spherical(self):
        with pytest.raises(NotSpherical):
            new_diagram(
                list(range(1, 10)),
                [(1, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (6, 7, 3),
                 (7, 8, 3), (8, 9, 3), (2, 6, 3)],
            )

    def test_branch_vertex_degree_four_not_spherical(self):
        with pytest.raises(NotSpherical):
            new_diagram([1, 2, 3, 4, 5],
                        [(1, 5, 3), (2, 5, 3), (3, 5, 3), (4, 5, 3)])

    def test_two_high_labels_not_spherical(self):
        with pytest.raises(NotSpherical):
            new_diagram([1, 2, 3], [(1, 2, 4), (2, 3, 4)])

    def test_h_with_long_tail_not_spherical(self):
        with pytest.raises(NotSpherical):
            new_diagram([1, 2, 3, 4, 5],
                        [(1, 2, 5), (2, 3, 3), (3, 4, 3), (4, 5, 3)])

    # one case per rejection rule, with the message the CLI prints on stderr
    @pytest.mark.parametrize(
        "nodes,entries,message",
        [
            ([7, 3, 5, 40], [(3, 5, 3), (5, 7, 3), (3, 7, 4)],
             "component on [3, 5, 7] contains a circuit"),
            ([1, 2, 3, 4, 5, 6], [(1, 5, 3), (2, 5, 3), (3, 5, 3), (4, 5, 3)],
             "component on [1, 2, 3, 4, 5] has a node of degree > 3"),
            ([1, 2, 3, 4, 5, 6], [(1, 3, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (4, 6, 3)],
             "component on [1, 2, 3, 4, 5, 6] has two branch nodes"),
            ([10, 20, 30, 40], [(10, 20, 4), (20, 30, 3), (20, 40, 3)],
             "branched component on [10, 20, 30, 40] with edge label > 3"),
            (list(range(1, 8)),
             [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (3, 6, 3), (6, 7, 3)],
             "component on [1, 2, 3, 4, 5, 6, 7]: branched shape (2, 2, 2) is not finite"),
            # the labels are listed along the path from its smaller end, 20
            ([10, 20, 30, 99], [(20, 10, 3), (10, 30, 6)],
             "path component on [10, 20, 30] with labels [3, 6] is not finite"),
            ([1, 2, 3, 4, 5], [(1, 2, 3), (2, 3, 4), (3, 4, 3), (4, 5, 3)],
             "path component on [1, 2, 3, 4, 5] with interior double edge is not finite"),
            ([1, 2, 3, 4, 5], [(1, 2, 5), (2, 3, 3), (3, 4, 3), (4, 5, 3)],
             "path component on [1, 2, 3, 4, 5] with a 5-edge and rank 5"),
            ([1, 2, 3, 4], [(1, 2, 3), (2, 3, 5), (3, 4, 3)],
             "path component on [1, 2, 3, 4] with interior 5-edge"),
        ],
        ids=["circuit", "degree-4", "two-branch-nodes", "branched-label", "branched-shape",
             "path-labels", "interior-double-edge", "five-edge-rank", "interior-five-edge"],
    )
    def test_not_spherical_message(self, nodes, entries, message):
        with pytest.raises(NotSpherical) as info:
            new_diagram(nodes, entries)
        assert str(info.value) == message

    def test_position_of_is_consistent(self):
        d = builtin("E6")
        (ct,) = classify(d)
        assert sorted(ct.position_of.values()) == list(range(1, 7))
        for lab, pos in ct.position_of.items():
            assert ct.label_at[pos] == lab


class TestComponents:
    def test_connected_components_partition(self):
        d = new_diagram([1, 2, 3, 4, 5, 6], [(1, 2, 3), (3, 4, 5), (4, 5, 3)])
        comps = helpers.connected_components(d)
        covered = sorted(n for c in comps for n in c.nodes)
        assert covered == [1, 2, 3, 4, 5, 6]
        sizes = sorted(c.rank for c in comps)
        assert sizes == [1, 2, 3]

    def test_component_of(self):
        d = new_diagram([1, 2, 3], [(1, 2, 3)])
        assert set(component_of(d, 1).nodes) == {1, 2}
        assert set(component_of(d, 3).nodes) == {3}
        with pytest.raises(UnknownNode):
            component_of(d, 9)

    def test_restrict(self):
        d = builtin("A5")
        sub = restrict(d, [2, 3, 5])
        assert sub.nodes == (2, 3, 5)
        assert sub.m(2, 3) == 3 and sub.m(3, 5) == 2
        with pytest.raises(UnknownNode):
            restrict(d, [2, 9])


# every builtin of rank <= 8 (C_n is the B_n diagram) and two sums
INDUCED_CASES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "H3", "H4", "I2(5)", "I2(7)", "I2(8)"]
    + ["B3+A2", "I2(7)+A3"]
)


@pytest.mark.parametrize("name", INDUCED_CASES)
def test_classify_induced_matches_restricted_copy(name):
    # in-place types on every node subset against a classified restricted copy
    d = builtin(name)
    for k in range(d.rank + 1):
        for keep in itertools.combinations(d.nodes, k):
            sub = restrict(d, keep)
            types = _classify_induced(d, keep)
            assert types == classify(sub), keep
            sigma = Permutation.from_dict(
                {i: ct.opposite(i) for ct in types for i, _ in ct.canonical})
            assert sigma == weyl.opposition(sub), keep


def test_classify_induced_reads_a_kept_node_set_without_a_walk(monkeypatch):
    # the second call on one connected node set partitions nothing
    d = builtin("E8")
    first = _classify_induced(d, [2, 3, 4, 5, 6])
    calls = []
    monkeypatch.setattr(diagram_mod, "_partition",
                        lambda *args: calls.append(args) or _partition(*args))
    assert _classify_induced(d, [6, 5, 4, 3, 2]) == first
    assert calls == []


def _generator_sets(d):
    """The generator sets the tests here build on d: none, each
    automorphism alone, and all of them together."""
    full = sorted(helpers.diagram_automorphisms(d).generators, key=lambda p: p.mapping)
    return [[]] + [[p] for p in full] + ([full] if len(full) > 1 else [])


def _fresh_orbits(d, g):
    return _partition(d.nodes, lambda x: (p(x) for p in g.generators))


@pytest.mark.parametrize("name", INDUCED_CASES + ["relabelled A3+D4+A3"])
def test_kept_derivations_match_fresh_ones(name):
    # the classification a diagram keeps, the lookups in it and a group's
    # kept orbit partition, against the same facts derived afresh
    if name.startswith("relabelled "):
        d = helpers.relabeled(builtin(name.split()[1]), random.Random(16))
    else:
        d = builtin(name)
    assert classify(d) == _classify_induced(d)
    for i in d.nodes:
        assert component_type(d, i) == classify(component_of(d, i))[0], i
    for gens in _generator_sets(d):
        g = AutGroup.generated_by(gens, d.nodes)
        assert orbits(d, g) == _fresh_orbits(d, g), gens


AUT_ORDERS = {
    "A1": 1, "A2": 2, "A3": 2, "A5": 2, "B2": 2, "B3": 1, "B4": 1,
    "D4": 6, "D5": 2, "D6": 2, "E6": 2, "E7": 1, "E8": 1, "F4": 2,
    "G2": 2, "H3": 1, "H4": 1, "I2(5)": 2, "I2(12)": 2,
}


class TestAutomorphisms:
    @pytest.mark.parametrize("name,order", sorted(AUT_ORDERS.items()))
    def test_full_group_order(self, name, order):
        assert len(helpers.diagram_automorphisms(builtin(name)).elements()) == order

    def test_d4_triality_is_s3(self):
        g = helpers.diagram_automorphisms(builtin("D4"))
        fixed = [p for p in g.elements() if p(2) == 2]
        assert len(fixed) == 6  # node 2 is the branch point, fixed by all

    def test_is_automorphism(self):
        d = builtin("A3")
        assert is_automorphism(d, Permutation.from_cycles([(1, 3)], d.nodes))
        assert not is_automorphism(d, Permutation.from_cycles([(1, 2)], d.nodes))

    @pytest.mark.parametrize("name", ["A4", "B3", "D4", "A2+A2", "I2(5)+A1"])
    def test_is_automorphism_matches_pairwise_definition(self, name):
        # an automorphism is a permutation of the nodes that keeps m_ij for
        # every pair, joined or not
        d = builtin(name)
        accepted = 0
        for images in itertools.permutations(d.nodes):
            p = Permutation.from_dict(dict(zip(d.nodes, images)))
            want = all(d.m(p(i), p(j)) == d.m(i, j)
                       for i, j in itertools.combinations(d.nodes, 2))
            assert is_automorphism(d, p) == want, p.cycle_string()
            accepted += want
        assert accepted == len(helpers.diagram_automorphisms(d).elements())

    def test_is_automorphism_needs_the_node_set(self):
        d = builtin("A3")
        assert not is_automorphism(d, Permutation.identity([1, 2]))
        assert not is_automorphism(d, Permutation.identity([1, 2, 3, 4]))

    def test_check_automorphisms_raises(self):
        d = builtin("B3")
        g = AutGroup.generated_by(
            [Permutation.from_cycles([(1, 3)], d.nodes)], d.nodes)
        with pytest.raises(NotAnAutomorphism):
            check_automorphisms(d, g)

    def test_generated_by_drops_identity(self):
        d = builtin("A2")
        g = AutGroup.generated_by([Permutation.identity(d.nodes)], d.nodes)
        assert g.is_trivial and len(g.elements()) == 1

    def test_orbits_trivial(self):
        d = builtin("A4")
        assert orbits(d, AutGroup.trivial(d.nodes)) == ((1,), (2,), (3,), (4,))

    def test_orbits_flip(self):
        d = builtin("A4")
        g = AutGroup.generated_by(
            [Permutation.from_cycles([(1, 4), (2, 3)], d.nodes)], d.nodes)
        assert orbits(d, g) == ((1, 4), (2, 3))

    def test_orbits_triality(self):
        d = builtin("D4")
        g = helpers.diagram_automorphisms(d)
        assert orbits(d, g) == ((1, 3, 4), (2,))


class TestPermutation:
    def test_from_cycles_and_string(self):
        p = Permutation.from_cycles([(1, 5), (2, 4)], [1, 2, 3, 4, 5])
        assert p(1) == 5 and p(3) == 3
        assert p.cycle_string() == "(1 5)(2 4)"
        assert Permutation.identity([1, 2]).cycle_string() == "id"

    def test_compose_inverse(self):
        dom = [1, 2, 3]
        p = Permutation.from_cycles([(1, 2, 3)], dom)
        q = p.compose(p)
        assert q(1) == p(p(1))

    def test_bad_cycle_entry(self):
        with pytest.raises(UnknownNode):
            Permutation.from_cycles([(1, 9)], [1, 2])
        with pytest.raises(InvalidEntry):
            Permutation.from_cycles([(1, 2), (1, 3)], [1, 2, 3])

    @pytest.mark.parametrize("mapping", [
        ((1, 2), (2, 2), (3, 3)),  # 3 has no preimage
        ((1, 1), (1, 2)),  # 1 is mapped twice
        ((1, 2),),  # 2 is not in the domain
    ])
    def test_non_bijection_rejected_on_construction(self, mapping):
        with pytest.raises(InvalidEntry):
            Permutation(mapping)


@given(st.integers(min_value=1, max_value=9))
def test_a_chain_classifies(n):
    d = new_diagram(list(range(1, n + 1)),
                    [(i, i + 1, 3) for i in range(1, n)])
    (ct,) = classify(d)
    assert ct.family == "A" and ct.rank == n


@given(st.sets(st.integers(min_value=1, max_value=8), min_size=1))
def test_restrict_idempotent(labels):
    d = builtin("A8")
    sub = restrict(d, labels)
    again = restrict(sub, labels)
    assert sub.nodes == again.nodes
    assert all(sub.m(i, j) == again.m(i, j) for i in sub.nodes for j in sub.nodes)


@given(st.permutations(list(range(1, 6))))
def test_automorphism_preserves_m_iff_accepted(perm):
    d = builtin("A5")
    mapping = {i + 1: perm[i] for i in range(5)}
    p = Permutation.from_dict(mapping)
    ok = all(d.m(i, j) == d.m(p(i), p(j)) for i in d.nodes for j in d.nodes)
    assert is_automorphism(d, p) == ok


SUMMANDS = ["A1", "A2", "A3", "A5", "B2", "B3", "D4", "D5", "E6", "F4", "G2", "H3", "I2(5)"]


@st.composite
def sums_with_gamma(draw):
    """A relabelled sum of up to three builtins of total rank <= 8, with a
    subgroup of its automorphisms generated by up to three random ones."""
    names: list[str] = []
    room = 8
    while len(names) < 3 and (not names or draw(st.booleans())):
        fits = [n for n in SUMMANDS if builtin(n).rank <= room]
        if not fits:
            break
        names.append(draw(st.sampled_from(fits)))
        room -= builtin(names[-1]).rank
    d = builtin("+".join(names))
    labels = draw(st.lists(st.integers(1, 100), min_size=d.rank, max_size=d.rank, unique=True))
    label = dict(zip(d.nodes, labels))
    d = new_diagram(labels, [(label[i], label[j], m) for i, j, m in d.edges])
    full = sorted(helpers.diagram_automorphisms(d).generators, key=lambda p: p.mapping)
    gens = draw(st.lists(st.sampled_from(full), max_size=3)) if full else []
    return d, AutGroup.generated_by(gens, d.nodes)


def _is_connected(d):
    """Grow a node set along edges until nothing joins; no walk of the library."""
    reached = {d.nodes[0]}
    while True:
        more = {x for a, b, _ in d.edges if a in reached or b in reached for x in (a, b)}
        if more <= reached:
            return reached == d.node_set
        reached |= more


@settings(deadline=None, max_examples=60)
@given(sums_with_gamma())
def test_components_orbits_and_group_closure(case):
    d, g = case
    comps = helpers.connected_components(d)
    assert sorted(i for c in comps for i in c.nodes) == list(d.nodes)
    assert [c.nodes[0] for c in comps] == sorted(c.nodes[0] for c in comps)
    assert all(_is_connected(c) for c in comps)
    which = {i: k for k, c in enumerate(comps) for i in c.nodes}
    assert all(which[a] == which[b] for a, b, _ in d.edges)
    for i in d.nodes:
        assert component_of(d, i) == comps[which[i]]

    elements = g.elements()
    assert Permutation.identity(d.nodes) in elements
    assert all(a.compose(b) in elements for a in elements for b in elements)
    orbs = orbits(d, g)
    assert sorted(i for orb in orbs for i in orb) == list(d.nodes)
    assert all(orb == tuple(sorted(orb)) for orb in orbs)
    assert [orb[0] for orb in orbs] == sorted(orb[0] for orb in orbs)
    for orb in orbs:
        assert all({p(i) for i in orb} == set(orb) for p in g.generators)
        assert {e(orb[0]) for e in elements} == set(orb)
    assert orbs == _fresh_orbits(d, g)
    assert classify(d) == _classify_induced(d)
    assert all(component_type(d, i) == classify(component_of(d, i))[0] for i in d.nodes)
