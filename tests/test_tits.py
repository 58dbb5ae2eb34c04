from __future__ import annotations

import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coxangle.diagram as diagram_mod
import coxangle.tits as tits_mod
import coxangle.weyl as weyl_mod
import helpers
from coxangle.angle import PI, PI_OVER_2, PI_OVER_3, Angle, Verdict
from coxangle.diagram import (
    AutGroup,
    Permutation,
    builtin,
    classify,
    component_of,
    new_diagram,
    restrict,
)
from coxangle.dsl import parse_spec
from coxangle.errors import (
    CoxangleError,
    InvalidEntry,
    InvalidTitsDiagram,
    NonCrystallographic,
    NontrivialGamma,
    UnknownNode,
    ZeroRelativeRank,
)
from coxangle.fold import fold_tits
from coxangle.geometry import dot, realize
from coxangle.tits import (
    TitsDiagram,
    admissibility,
    angular_distance,
    enumerate_indices,
    minimal_angle,
    minimal_angle_report,
    rank_one_subdiagrams,
    reference_catalog,
    relative_rank,
    tits_diagram,
    validate,
)


def qs(name: str) -> TitsDiagram:
    d = builtin(name)
    return tits_diagram(d)


class TestTitsDiagramType:
    def test_coercion_and_defaults(self):
        d = builtin("A3")
        t = tits_diagram(d)
        assert t.gamma.is_trivial
        assert t.anisotropic == frozenset()
        assert t.isotropic == (1, 2, 3)

    def test_anisotropic_label_checked(self):
        with pytest.raises(UnknownNode):
            tits_diagram(builtin("A3"), anisotropic=[9])

    def test_gamma_domain_checked(self):
        d = builtin("A3")
        g = AutGroup.trivial([1, 2])
        with pytest.raises(InvalidEntry):
            TitsDiagram(d, g, frozenset())

    def test_isotropic_complement(self):
        t = tits_diagram(builtin("A5"), anisotropic=[2, 3])
        assert t.isotropic == (1, 4, 5)


class TestValidate:
    def test_a3_middle_ok(self):
        t = tits_diagram(builtin("A3"), anisotropic=[1, 3])
        assert validate(t).ok

    def test_a3_opposition_violation(self):
        t = tits_diagram(builtin("A3"), anisotropic=[2, 3])
        rep = validate(t)
        assert not rep.ok
        assert [v.clause for v in rep.violations] == ["opposition-violated"]
        assert rep.violations[0].orbit == (1,)

    def test_everything_anisotropic_vacuous(self):
        d = builtin("F4")
        t = tits_diagram(d, anisotropic=list(d.nodes))
        assert validate(t).ok

    def test_gamma_not_automorphism_clause(self):
        d = builtin("B3")
        g = AutGroup.generated_by(
            [Permutation.from_cycles([(1, 2)], d.nodes)], d.nodes)
        t = TitsDiagram(d, g, frozenset())
        rep = validate(t)
        assert not rep.ok
        assert rep.violations[0].clause == "gamma-not-automorphism"

    def test_a_not_invariant_clause(self):
        d = builtin("A5")
        g = helpers.gen_group(d, [(1, 5), (2, 4)])
        t = TitsDiagram(d, g, frozenset({1}))
        rep = validate(t)
        assert not rep.ok
        assert any(v.clause == "A-not-invariant" for v in rep.violations)

    def test_report_is_data_not_exception(self):
        t = tits_diagram(builtin("A3"), anisotropic=[2, 3])
        rep = validate(t)  # must not raise
        assert bool(rep) is False
        with pytest.raises(InvalidTitsDiagram):
            relative_rank(t)

    def test_opposition_checked_per_orbit_restriction(self):
        # orbit {1} of A_5 with A = {3,4,5}: restriction to {1,3,4,5} is
        # A_1 + A_3 and opposition fixes the isolated node 1
        t = tits_diagram(builtin("A5"), anisotropic=[3, 4, 5])
        rep = validate(t)
        clauses = {v.orbit: v.clause for v in rep.violations}
        assert (1,) not in clauses  # isolated node survives
        assert (2,) in clauses  # {2}: restrict to A_5 sans 1, opposition moves it

    def test_reads_sigma_at_the_orbit_only(self, monkeypatch):
        # E8 with A = {2, ..., 7}: the pieces of the orbits {1} and {8}
        # have seven nodes each, and sigma is read at 1 and at 8 alone
        calls = []
        opposite = diagram_mod.ComponentType.opposite
        monkeypatch.setattr(diagram_mod.ComponentType, "opposite",
                            lambda ct, label: calls.append(label) or opposite(ct, label))
        assert validate(tits_diagram(builtin("E8"), anisotropic=range(2, 8))).ok
        assert sorted(calls) == [1, 8]


class TestRelativeRank:
    def test_a7_alternating(self):
        assert relative_rank(tits_diagram(builtin("A7"), anisotropic=[1, 3, 5, 7])) == 3

    def test_quasi_split_e7(self):
        assert relative_rank(qs("E7")) == 7

    def test_folded_a5(self):
        d = builtin("A5")
        g = helpers.gen_group(d, [(1, 5), (2, 4)])
        assert relative_rank(TitsDiagram(d, g, frozenset({1, 2, 4, 5}))) == 1

    def test_zero(self):
        d = builtin("B3")
        assert relative_rank(tits_diagram(d, anisotropic=list(d.nodes))) == 0


class TestRankOneSubdiagrams:
    def test_a7_three_pieces(self):
        t = tits_diagram(builtin("A7"), anisotropic=[1, 3, 5, 7])
        subs = rank_one_subdiagrams(t)
        assert len(subs) == 3
        node_sets = [set(s.diagram.nodes) for s in subs]
        assert node_sets == [{1, 2, 3, 5, 7}, {1, 3, 4, 5, 7}, {1, 3, 5, 6, 7}]
        for s in subs:
            assert relative_rank(s) == 1
            assert validate(s).ok

    def test_rank_one_idempotent(self):
        t = tits_diagram(builtin("A3"), anisotropic=[1, 3])
        (s,) = rank_one_subdiagrams(t)
        assert s.diagram.nodes == t.diagram.nodes
        assert s.anisotropic == t.anisotropic

    def test_e7_d4_kernel(self):
        t = tits_diagram(builtin("E7"), anisotropic=[2, 3, 4, 5])
        subs = rank_one_subdiagrams(t)
        assert [set(s.diagram.nodes) for s in subs] == [
            {1, 2, 3, 4, 5}, {2, 3, 4, 5, 6}, {2, 3, 4, 5, 7}]

    def test_nontrivial_gamma_rejected(self):
        d = builtin("A5")
        g = helpers.gen_group(d, [(1, 5), (2, 4)])
        t = TitsDiagram(d, g, frozenset({1, 2, 4, 5}))
        with pytest.raises(NontrivialGamma):
            rank_one_subdiagrams(t)

    def test_outputs_always_valid(self):
        # validity is preserved by deleting other isotropic orbits
        for name, aniso in [("A7", [1, 3, 5, 7]), ("E7", [2, 3, 4, 5]),
                            ("E6", [3, 4, 5]), ("D5", [2, 3, 4, 5])]:
            t = tits_diagram(builtin(name), anisotropic=aniso)
            if not validate(t).ok:
                continue
            for s in rank_one_subdiagrams(t):
                assert validate(s).ok


GOLDEN_ANGLES = [
    ("A1", 1, Angle.rational_pi(1, 1)),
    ("A3", 1, Angle.exact_cos(Fraction(-1, 3))),
    ("A3", 2, PI_OVER_2),
    ("A5", 3, Angle.exact_cos(Fraction(1, 3))),
    ("B2", 1, PI_OVER_2),
    ("B3", 3, Angle.exact_cos(Fraction(1, 3))),
    ("B4", 1, PI_OVER_2),
    ("B4", 4, PI_OVER_3),
    ("B5", 5, Angle.exact_cos(Fraction(3, 5))),
    ("D5", 1, PI_OVER_2),
    ("D5", 2, PI_OVER_3),
    ("D5", 5, Angle.exact_cos(Fraction(1, 5))),
    ("D8", 8, PI_OVER_3),
    ("E6", 1, Angle.exact_cos(Fraction(1, 4))),
    ("E6", 2, PI_OVER_3),
    ("E7", 1, PI_OVER_3),
    ("E7", 7, Angle.exact_cos(Fraction(1, 3))),
    ("F4", 1, PI_OVER_3),
    ("F4", 4, PI_OVER_3),
    ("G2", 1, PI_OVER_3),
    ("G2", 2, PI_OVER_3),
    ("I2(5)", 1, Angle.rational_pi(2, 5)),
    ("I2(12)", 2, Angle.rational_pi(1, 6)),
]


class TestAngularDistance:
    @pytest.mark.parametrize("name,i,want", GOLDEN_ANGLES)
    def test_golden(self, name, i, want):
        assert angular_distance(builtin(name), i) == want

    @pytest.mark.parametrize("m", range(3, 13))
    def test_rank_two_analytic(self, m):
        name = {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
        d = builtin(name)
        for i in d.nodes:
            assert angular_distance(d, i) == Angle.rational_pi(2, m)

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            angular_distance(builtin("A3"), 9)

    def test_h_type_rejected(self):
        with pytest.raises(NonCrystallographic):
            angular_distance(builtin("H3"), 1)
        with pytest.raises(NonCrystallographic):
            angular_distance(builtin("H4"), 4)

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "A4", "B3", "B4", "D4", "F4"])
    def test_matches_brute_force(self, name):
        # independent oracle: max cosine over the full-group orbit
        d = builtin(name)
        r = realize(d)
        for i in d.nodes:
            want = Angle.exact_cos(helpers.brute_max_cos(r, i))
            assert angular_distance(d, i) == want

    def test_component_reduction(self):
        d = new_diagram([1, 2, 3, 4, 5, 6, 7],
                        [(1, 2, 3), (2, 3, 3), (4, 5, 4), (6, 7, 5)])
        for i in d.nodes:
            comp = component_of(d, i)
            assert angular_distance(d, i) == angular_distance(comp, i)

    def test_classifies_components_in_place(self, monkeypatch):
        restricted = []
        restrict = diagram_mod.restrict

        def counting_restrict(d, keep):
            restricted.append(keep)
            return restrict(d, keep)

        monkeypatch.setattr(diagram_mod, "restrict", counting_restrict)
        d = builtin("E8+D5+B3+F4+G2+I2(7)+A1+A1")
        diagram_mod.classify(d)
        for i in d.nodes:
            angular_distance(d, i)
        assert restricted == []
        # the counter sees the calls that do restrict
        component_of(d, 1)
        assert len(restricted) == 1

    def test_keyed_by_position_not_label(self):
        d1 = new_diagram([1, 2, 3], [(1, 2, 3), (2, 3, 3)])
        d2 = new_diagram([10, 20, 30], [(10, 20, 3), (20, 30, 3)])
        assert angular_distance(d1, 1) == angular_distance(d2, 10)
        assert angular_distance(d1, 2) == angular_distance(d2, 20)


# every crystallographic builtin of rank 3 to 8 (C_n and B_n share a diagram)
RANK_3_TO_8 = (
    [f"A{n}" for n in range(3, 9)] + [f"B{n}" for n in range(3, 9)] + ["C3"]
    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4"]
)
RANK_UP_TO_8 = ["A1", "A2", "B2", "G2"] + RANK_3_TO_8
SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"


class TestClosedFormAngle:
    """The closed form against the orbit scan it replaced."""

    @pytest.mark.parametrize("name", RANK_3_TO_8)
    def test_matches_orbit_scan(self, name):
        d = builtin(name)
        for i in d.nodes:
            want = Angle.exact_cos(helpers.orbit_scan_max_cos(d, i))
            assert angular_distance(d, i) == want, (name, i)

    @pytest.mark.parametrize("name,seed", [("E6", 1), ("E7", 2), ("F4", 3), ("D5", 4)])
    def test_relabelled_matches_orbit_scan(self, name, seed):
        # canonical positions differ from labels here, so position_of is used
        d = helpers.relabeled(builtin(name), random.Random(seed))
        for i in d.nodes:
            want = Angle.exact_cos(helpers.orbit_scan_max_cos(d, i))
            assert angular_distance(d, i) == want, (name, i)


@functools.lru_cache(maxsize=None)
def _valid_kernels(name: str) -> tuple:
    d = builtin(name)
    rows = enumerate_indices(d, AutGroup.trivial(d.nodes))
    return tuple((tuple(sorted(t.anisotropic)), angle) for t, angle, _ in rows)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_angles_invariant_under_relabelling(data):
    name = data.draw(st.sampled_from(RANK_UP_TO_8))
    d = builtin(name)
    labels = data.draw(st.lists(st.integers(1, 100), min_size=d.rank,
                                max_size=d.rank, unique=True))
    label = dict(zip(d.nodes, labels))
    e = new_diagram(labels, [(label[i], label[j], m) for i, j, m in d.edges])
    for i in d.nodes:
        assert angular_distance(e, label[i]) == angular_distance(d, i)
    kernel, angle = data.draw(st.sampled_from(_valid_kernels(name)))
    assert minimal_angle(tits_diagram(e, anisotropic=[label[a] for a in kernel])) == angle


class TestMinimalAngle:
    def test_reads_rank_one_pieces_only(self, monkeypatch):
        # each isotropic node 2k of A41 with the odd nodes anisotropic has
        # the piece {2k-1, 2k, 2k+1}; the whole A u O has 22 nodes
        classified = []
        classify_induced = diagram_mod._classify_induced

        def recording(d, keep=None):
            keep = None if keep is None else set(keep)
            classified.append(keep)
            return classify_induced(d, keep)

        t = tits_diagram(builtin("A41"), anisotropic=range(1, 42, 2))
        monkeypatch.setattr(diagram_mod, "_classify_induced", recording)
        assert validate(t).ok
        assert minimal_angle_report(t) == (PI_OVER_2, [(i,) for i in range(2, 41, 2)])
        # 20 orbits, each once in validate, once in the report's own
        # validation and once for its angle, and no whole-diagram pass
        pieces = [{i - 1, i, i + 1} for i in range(2, 41, 2)]
        assert classified == pieces * 3

    def test_quasi_split_is_pi(self):
        for name in ("A1", "A5", "B3", "D4", "E8", "F4", "G2", "H4", "I2(9)"):
            assert minimal_angle(qs(name)) == PI

    def test_a7_alternating(self):
        assert minimal_angle(tits_diagram(builtin("A7"), anisotropic=[1, 3, 5, 7])) == PI_OVER_2

    def test_a5_folded(self):
        d = builtin("A5")
        g = helpers.gen_group(d, [(1, 5), (2, 4)])
        t = TitsDiagram(d, g, frozenset({1, 2, 4, 5}))
        assert minimal_angle(t) == Angle.exact_cos(Fraction(1, 3))

    def test_a5_folded_smaller_kernel(self):
        d = builtin("A5")
        g = helpers.gen_group(d, [(1, 5), (2, 4)])
        t = TitsDiagram(d, g, frozenset({2, 3, 4}))
        assert minimal_angle(t) == PI_OVER_2

    def test_e7_d4_kernel(self):
        t = tits_diagram(builtin("E7"), anisotropic=[2, 3, 4, 5])
        assert minimal_angle(t) == PI_OVER_2

    def test_zero_relative_rank(self):
        d = builtin("B3")
        t = tits_diagram(d, anisotropic=list(d.nodes))
        with pytest.raises(ZeroRelativeRank):
            minimal_angle(t)

    def test_invalid_rejected(self):
        t = tits_diagram(builtin("A3"), anisotropic=[2, 3])
        with pytest.raises(InvalidTitsDiagram):
            minimal_angle(t)

    def test_report_ties(self):
        t = tits_diagram(builtin("A7"), anisotropic=[1, 3, 5, 7])
        angle, achieved = minimal_angle_report(t)
        assert angle == PI_OVER_2
        assert achieved == [(2,), (4,), (6,)]

    def test_report_single_winner(self):
        t = tits_diagram(builtin("A5"), anisotropic=[1, 2, 4, 5])
        angle, achieved = minimal_angle_report(t)
        assert angle == Angle.exact_cos(Fraction(1, 3))
        assert achieved == [(3,)]

    def test_report_orbit_preimages(self):
        d = builtin("A5")
        g = helpers.gen_group(d, [(1, 5), (2, 4)])
        t = TitsDiagram(d, g, frozenset({1, 2, 4, 5}))
        angle, achieved = minimal_angle_report(t)
        assert achieved == [(3,)]

    def test_monotonicity_roundtrip(self):
        # definitional identity: the minimum over rank-one subdiagrams of
        # their own minimal angles reproduces minimal_angle of the whole
        for name, aniso in [("A7", [1, 3, 5, 7]), ("E7", [2, 3, 4, 5]),
                            ("D5", [2, 3, 4, 5]), ("E6", [3, 4, 5])]:
            t = tits_diagram(builtin(name), anisotropic=aniso)
            if not validate(t).ok:
                continue
            whole = minimal_angle(t)
            parts = [minimal_angle(s) for s in rank_one_subdiagrams(t)]
            assert whole == min(parts)


class TestAdmissibility:
    def test_quasi_split_gt(self):
        assert admissibility(qs("E8")) is Verdict.GreaterThanPiOver3

    def test_a5_folded_gt(self):
        d = builtin("A5")
        g = helpers.gen_group(d, [(1, 5), (2, 4)])
        t = TitsDiagram(d, g, frozenset({1, 2, 4, 5}))
        assert admissibility(t) is Verdict.GreaterThanPiOver3

    def test_e7_quadrangle_eq(self):
        t = tits_diagram(builtin("E7"), anisotropic=[2, 3, 4, 5, 7])
        assert relative_rank(t) == 2
        assert minimal_angle(t) == PI_OVER_3
        assert admissibility(t) is Verdict.EqualPiOver3

    def test_e8_quadrangle_eq(self):
        t = tits_diagram(builtin("E8"), anisotropic=[2, 3, 4, 5, 6, 7])
        assert relative_rank(t) == 2
        assert admissibility(t) is Verdict.EqualPiOver3

    def test_lt_exists(self):
        # E8 with everything but node 1 anisotropic: arccos(3/4) < pi/3
        t = tits_diagram(builtin("E8"), anisotropic=[2, 3, 4, 5, 6, 7, 8])
        if validate(t).ok:
            assert minimal_angle(t) == Angle.exact_cos(Fraction(3, 4))
            assert admissibility(t) is Verdict.LessThanPiOver3


class TestEnumerate:
    def test_a3_rank_one(self):
        d = builtin("A3")
        rows = enumerate_indices(d, AutGroup.trivial(d.nodes), rel_rank=1)
        assert [(sorted(t.anisotropic), a, v) for t, a, v in rows] == [
            ([1, 3], PI_OVER_2, Verdict.GreaterThanPiOver3)]

    def test_b2_rank_one(self):
        d = builtin("B2")
        rows = enumerate_indices(d, AutGroup.trivial(d.nodes), rel_rank=1)
        assert [(sorted(t.anisotropic), a) for t, a, _ in rows] == [
            ([1], PI_OVER_2), ([2], PI_OVER_2)]

    def test_e7_rank_two_contains_eq(self):
        d = builtin("E7")
        rows = enumerate_indices(d, AutGroup.trivial(d.nodes), rel_rank=2)
        verdicts = {tuple(sorted(t.anisotropic)): v for t, v in
                    [(t, v) for t, _, v in rows]}
        assert verdicts[(2, 3, 4, 5, 7)] is Verdict.EqualPiOver3

    def test_quasi_split_always_included(self):
        d = builtin("A4")
        rows = enumerate_indices(d, AutGroup.trivial(d.nodes))
        assert sorted(t.anisotropic for t, _, _ in rows)[0] == frozenset()
        first = [r for r in rows if not r[0].anisotropic]
        assert first[0][1] == PI and first[0][2] is Verdict.GreaterThanPiOver3

    def test_full_kernel_excluded(self):
        d = builtin("A3")
        rows = enumerate_indices(d, AutGroup.trivial(d.nodes))
        assert all(t.anisotropic != frozenset(d.nodes) for t, _, _ in rows)

    def test_gamma_invariant_subsets_only(self):
        d = builtin("E6")
        g = helpers.gen_group(d, [(1, 6), (3, 5)])
        rows = enumerate_indices(d, g)
        for t, _, _ in rows:
            for gen in [p for p in g.elements()]:
                assert frozenset(gen(a) for a in t.anisotropic) == t.anisotropic

    def test_deterministic_order(self):
        d = builtin("D4")
        g = AutGroup.trivial(d.nodes)
        r1 = enumerate_indices(d, g)
        r2 = enumerate_indices(d, g)
        assert [sorted(t.anisotropic) for t, _, _ in r1] == \
               [sorted(t.anisotropic) for t, _, _ in r2]
        keys = [tuple(sorted(t.anisotropic)) for t, _, _ in r1]
        assert keys == sorted(keys)

    def test_all_rows_valid(self):
        d = builtin("B3")
        for t, a, v in enumerate_indices(d, AutGroup.trivial(d.nodes)):
            assert validate(t).ok
            assert minimal_angle(t) == a
            assert admissibility(t) is v


def _groups(d) -> list:
    """The trivial group, every distinct cyclic subgroup of the automorphism
    group, and the full group."""
    full = helpers.diagram_automorphisms(d)
    groups = [AutGroup.trivial(d.nodes)]
    seen = {groups[0].elements()}
    for p in sorted(full.elements(), key=lambda p: p.mapping) + [None]:
        g = full if p is None else AutGroup.generated_by([p], d.nodes)
        if g.elements() not in seen:
            seen.add(g.elements())
            groups.append(g)
    return groups


def _enumerate_cases() -> list:
    cases = []
    for name in RANK_UP_TO_8 + ["H3", "H4", "I2(5)", "I2(8)", "A2+A2", "A3+A3",
                                "D4+A3", "G2+E6", "I2(5)+I2(5)"]:
        d = builtin(name)
        cases += [pytest.param(d, g, id=f"{name}-{k}") for k, g in enumerate(_groups(d))]
    for seed, name in enumerate(["E6", "D4+A3", "A3+A3"]):
        d = helpers.relabeled(builtin(name), random.Random(seed))
        cases += [pytest.param(d, g, id=f"{name}-relabelled-{k}")
                  for k, g in enumerate(_groups(d))]
    for path in sorted(SPECS.glob("enum-*.spec")):
        doc = parse_spec(path.read_text(), str(path))
        cases.append(pytest.param(doc.diagram, doc.payload.gamma, id=path.stem))
    return cases


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CoxangleError as e:
        return type(e).__name__, str(e)


class TestEnumerateSearch:
    """The pruned search against the exhaustive loop, and closed forms."""

    @pytest.mark.parametrize("d,g", _enumerate_cases())
    def test_matches_brute_enumerate(self, d, g):
        for rel_rank in (None, 1, 2):
            want = _outcome(helpers.brute_enumerate, d, g, rel_rank)
            assert _outcome(enumerate_indices, d, g, rel_rank) == want, rel_rank

    def test_noncrystallographic_kernel_raises(self):
        # the first kernel with a rank-one H3 component is {1, 2}
        d = builtin("H3")
        with pytest.raises(NonCrystallographic, match="type H3$"):
            enumerate_indices(d, AutGroup.trivial(d.nodes))

    def test_gamma_on_another_node_order_is_refused(self):
        d = builtin("A3")
        g = AutGroup((3, 2, 1), ())
        for enumerate_fn in (enumerate_indices, helpers.brute_enumerate):
            with pytest.raises(InvalidEntry):
                enumerate_fn(d, g, 2)
            assert enumerate_fn(d, g, 0) == []

    @pytest.mark.parametrize("n,relabel", [(n, False) for n in range(1, 31)]
                             + [(11, True), (24, True)])
    def test_inner_type_a_kernels(self, n, relabel):
        # Tits 1966: the kernels of inner A_n are the complements of
        # {d, 2d, ...} for the divisors d <= n of n + 1
        d = builtin(f"A{n}")
        label = {i: i for i in d.nodes}
        if relabel:
            label = dict(zip(d.nodes, random.Random(n).sample(range(1, 101), n)))
            d = new_diagram(label.values(), [(label[i], label[j], m) for i, j, m in d.edges])
        rows = enumerate_indices(d, AutGroup.trivial(d.nodes))
        want = sorted(
            tuple(sorted(label[i] for i in range(1, n + 1) if i % k))
            for k in range(1, n + 1) if (n + 1) % k == 0
        )
        assert [tuple(sorted(t.anisotropic)) for t, _, _ in rows] == want

    @pytest.mark.parametrize("n", [*range(2, 11), 200, 201])
    @pytest.mark.parametrize("flip", [False, True], ids=["trivial", "quasi-split"])
    def test_type_a_rel_rank_one(self, n, flip):
        # one isotropic orbit O, whose rank-one piece is all of A_n: the
        # opposition i -> n + 1 - i keeps every orbit {i, n + 1 - i} of the
        # flip, and of the single nodes only the middle one of odd n
        d = builtin(f"A{n}")
        if flip:
            g = helpers.gen_group(d, [(i, n + 1 - i) for i in range(1, n // 2 + 1)])
            want = [tuple(sorted({i, n + 1 - i})) for i in range(1, (n + 1) // 2 + 1)]
        else:
            g = AutGroup.trivial(d.nodes)
            want = [((n + 1) // 2,)] * (n % 2)
        rows = enumerate_indices(d, g, 1)
        assert sorted(tuple(sorted(set(d.nodes) - t.anisotropic)) for t, _, _ in rows) == want
        if n <= 10:
            assert rows == helpers.brute_enumerate(d, g, 1)

    def test_rows_form_no_piece_again(self, monkeypatch):
        # every row's angles are read on the Cs the search closed
        calls = []
        piece = tits_mod._rank_one_piece
        monkeypatch.setattr(tits_mod, "_rank_one_piece",
                            lambda *args: calls.append(args) or piece(*args))
        for name, cycles in [("E6", [(1, 6), (3, 5)]), ("D4", [(1, 3, 4)]),
                             ("B3+A2", []), ("A7", [])]:
            d = builtin(name)
            assert enumerate_indices(d, helpers.gen_group(d, cycles))
        assert calls == []

    @pytest.mark.parametrize("k", range(1, 11))
    def test_every_kernel_of_a1_power(self, k):
        d = builtin("+".join(["A1"] * k))
        rows = enumerate_indices(d, AutGroup.trivial(d.nodes))
        assert len(rows) == 2 ** k - 1
        assert all(a == PI for _, a, _ in rows)


def _element_orbits(d, g) -> list[tuple[int, ...]]:
    """The orbits of g on d's nodes, read off the closure g.elements()."""
    elements = g.elements()
    return sorted({tuple(sorted({e(i) for e in elements})) for i in d.nodes})


def _geometric_angle(d, orbits, kernel: frozenset, orbit: tuple) -> Angle:
    """The angle of the isotropic orbit O = orbit, read off geometry with
    neither the fold nor the closed form: realize the restriction to
    K = kernel u O, take v = sum of omega_i over O, close its orbit under
    the w_J of the Gamma-orbits J in K, and take the largest cosine between
    v and another point. W^Gamma acts on the Gamma-fixed space as the
    reflection group of the folded type (Steinberg, Lectures on Chevalley
    Groups, 11), and v spans the folded fundamental weight at O.
    """
    keep = kernel.union(orbit)
    sub = restrict(d, keep)
    node_map = {i: min(o) for o in orbits if keep.issuperset(o) for i in o}
    gens = [w.matrix for w in helpers.orbit_generators(sub, node_map).values()]
    weights = realize(sub).fundamental_weights
    v = tuple(map(sum, zip(*(weights[i] for i in orbit))))
    points = diagram_mod._reach((v,), lambda x: (weyl_mod._mat_vec(g, x) for g in gens))
    return Angle.exact_cos(max(dot(v, x) for x in points if x != v) / dot(v, v))


def _geometry_cases() -> list:
    """(diagram, groups): connected builtins under every group of _groups;
    sums with a swap of isomorphic components or a symmetric summand under
    the trivial and the full group, and, under the full group, with two
    random relabellings, as the fold tests take them."""
    cases = [pytest.param(builtin(name), _groups(builtin(name)), id=name)
             for name in ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "E6"]]
    rng = random.Random(20)
    for name in ["A2+A2", "A3+A3", "D4+A2", "G2+A3"]:
        d = builtin(name)
        cases.append(pytest.param(
            d, [AutGroup.trivial(d.nodes), helpers.diagram_automorphisms(d)], id=name))
        for k in range(2):
            d = helpers.relabeled(builtin(name), rng)
            cases.append(pytest.param(d, [helpers.diagram_automorphisms(d)],
                                      id=f"{name}-relabelled-{k}"))
    return cases


@pytest.mark.parametrize("d,groups", _geometry_cases())
def test_enumerate_angles_match_geometry(d, groups):
    """Each enumerate row's minimal angle is the smallest geometric angle
    of its isotropic orbits, under each group of groups."""
    for g in groups:
        orbits = _element_orbits(d, g)
        for t, angle, _ in enumerate_indices(d, g):
            want = min(_geometric_angle(d, orbits, t.anisotropic, o)
                       for o in orbits if not t.anisotropic.issuperset(o))
            assert angle == want, (g.generators, t.anisotropic)


@pytest.mark.parametrize("entry", reference_catalog(), ids=lambda entry: entry.name)
def test_catalog_angles_match_geometry(entry):
    """Each reference catalog entry states the smallest geometric angle of
    its isotropic orbits, Gamma's orbits read off Gamma's elements."""
    t = entry.tits
    orbits = _element_orbits(t.diagram, t.gamma)
    want = min(_geometric_angle(t.diagram, orbits, t.anisotropic, o)
               for o in orbits if not t.anisotropic.issuperset(o))
    assert entry.expected == want


# Exceptional indices X^t_{n,r} from Tits, Classification of algebraic
# semisimple groups (Boulder, 1966), Table II, in Bourbaki numbering: the
# label, the type, the cycles of each generator of Gamma, A, and the
# minimal angle. r is the number of isotropic Gamma-orbits, and t the
# dimension of the anisotropic kernel, n - r + 2N(A).
TITS_TABLE_II = [
    ("G2-0-2,2", "G2", [], (), PI),
    ("F4-0-4,4", "F4", [], (), PI),
    ("F4-21-4,1", "F4", [], (1, 2, 3), PI_OVER_3),
    ("3D4-2-4,2", "D4", [[(1, 3, 4)]], (), PI),
    ("3D4-9-4,1", "D4", [[(1, 3, 4)]], (1, 3, 4), PI_OVER_3),
    ("6D4-2-4,2", "D4", [[(1, 3, 4)], [(1, 3)]], (), PI),
    ("6D4-9-4,1", "D4", [[(1, 3, 4)], [(1, 3)]], (1, 3, 4), PI_OVER_3),
    ("2E6-2-6,4", "E6", [[(1, 6), (3, 5)]], (), PI),
    ("E8-28-8,4", "E8", [], (2, 3, 4, 5), PI_OVER_2),
]


@pytest.mark.parametrize("label,name,gens,aniso,angle", TITS_TABLE_II,
                         ids=[row[0] for row in TITS_TABLE_II])
def test_tits_table_ii(label, name, gens, aniso, angle):
    """Each index of the table validates, passes both checksums of its
    label, is a row of enumerate_indices, and has the minimal angle that
    geometry gives."""
    t_label, n_r = label.split("-")[1:]
    n, r = map(int, n_r.split(","))
    d = builtin(name)
    g = AutGroup.generated_by([Permutation.from_cycles(c, d.nodes) for c in gens], d.nodes)
    index = TitsDiagram(d, g, frozenset(aniso))
    assert validate(index).ok
    positive_roots = sum(k - 1 for ct in classify(restrict(d, aniso)) for k in ct.degrees)
    assert (d.rank, relative_rank(index)) == (n, r)
    assert n - r + 2 * positive_roots == int(t_label)
    assert index.anisotropic in {row.anisotropic for row, _, _ in enumerate_indices(d, g)}
    orbits = _element_orbits(d, g)
    want = min(_geometric_angle(d, orbits, index.anisotropic, o)
               for o in orbits if not index.anisotropic.issuperset(o))
    assert minimal_angle(index) == want == angle


class TestCatalog:
    def test_every_entry_reproduces(self):
        for entry in reference_catalog():
            assert validate(entry.tits).ok, entry.name
            assert minimal_angle(entry.tits) == entry.expected, entry.name

    def test_all_verdicts_gt(self):
        for entry in reference_catalog():
            assert admissibility(entry.tits) is Verdict.GreaterThanPiOver3, entry.name

    def test_names_unique_and_nonempty(self):
        names = [e.name for e in reference_catalog()]
        assert len(names) == len(set(names))
        assert all(names)

    def test_known_entries_present(self):
        byname = {e.name: e for e in reference_catalog()}
        assert byname["A7-aniso-1357"].expected == PI_OVER_2
        assert byname["E7-aniso-123456"].expected == Angle.exact_cos(Fraction(1, 3))
        assert byname["A5-flip-aniso-1245"].expected == Angle.exact_cos(Fraction(1, 3))


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(["A3", "B3", "A4", "B2", "G2"]),
       st.sampled_from(["A2", "B2", "A1"]),
       st.integers(min_value=1, max_value=3))
def test_component_reduction_random_sums(left, right, node_index):
    dl, dr = builtin(left), builtin(right)
    shift = max(dl.nodes)
    nodes = list(dl.nodes) + [i + shift for i in dr.nodes]
    edges = [(i, j, dl.m(i, j)) for i in dl.nodes for j in dl.nodes
             if i < j and dl.m(i, j) >= 3]
    edges += [(i + shift, j + shift, dr.m(i, j)) for i in dr.nodes
              for j in dr.nodes if i < j and dr.m(i, j) >= 3]
    d = new_diagram(nodes, edges)
    i = dl.nodes[(node_index - 1) % dl.rank]
    assert angular_distance(d, i) == angular_distance(dl, i)


@settings(deadline=None, max_examples=15)
@given(st.sampled_from(["A3", "A5", "B3", "D4", "E6", "F4", "I2(8)"]))
def test_quasi_split_law_over_subgroups(name):
    d = builtin(name)
    full = helpers.diagram_automorphisms(d)
    groups = [AutGroup.trivial(d.nodes), full]
    groups += [AutGroup.generated_by([p], d.nodes) for p in full.elements()]
    for g in groups:
        t = TitsDiagram(d, g, frozenset())
        assert validate(t).ok
        assert minimal_angle(t) == PI


PIECE_PARTS = ["A1", "A2", "A3", "A4", "A5", "B3", "D4", "D5", "E6", "F4", "G2", "I2(5)", "H3"]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_rank_one_pieces_match_whole_set_reference(data):
    # a relabelled sum, a random subgroup of its automorphisms and a random
    # A, either a union of orbits or any node set
    names = data.draw(st.lists(st.sampled_from(PIECE_PARTS), min_size=1, max_size=3))
    d = helpers.relabeled(builtin("+".join(names)), data.draw(st.randoms(use_true_random=False)))
    automorphisms = sorted(helpers.diagram_automorphisms(d).generators, key=lambda p: p.mapping)
    picked = data.draw(st.lists(st.sampled_from(automorphisms), min_size=1, max_size=2,
                                unique=True) if automorphisms else st.just([]))
    g = AutGroup.generated_by(picked, d.nodes)
    if data.draw(st.booleans()):
        orbits = diagram_mod.orbits(d, g)
        taken = data.draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
        aniso = {i for orbit, take in zip(orbits, taken) if take for i in orbit}
    else:
        aniso = data.draw(st.sets(st.sampled_from(d.nodes)))
    t = TitsDiagram(d, g, frozenset(aniso))
    assert validate(t).violations == helpers.whole_set_violations(t)
    assert (_outcome(minimal_angle_report, t)
            == _outcome(helpers.whole_set_minimal_angle_report, t))


class TestPublicEntryPointsStillCheck:
    """The unchecked internal paths do not weaken the public functions."""

    INVALID = [
        ("A3", None, (2, 3)),  # opposition-violated
        ("A5", [(1, 5), (2, 4)], (1,)),  # A-not-invariant
    ]

    @pytest.mark.parametrize("name,cycles,aniso", INVALID)
    @pytest.mark.parametrize(
        "entry",
        [minimal_angle_report, rank_one_subdiagrams, fold_tits, relative_rank],
        ids=lambda f: f.__name__,
    )
    def test_raises_invalid(self, entry, name, cycles, aniso):
        with pytest.raises(InvalidTitsDiagram):
            entry(helpers.tits(name, cycles, aniso))

    def test_non_automorphism_gamma(self):
        d = builtin("A3")
        p = Permutation.from_cycles([(1, 2)], d.nodes)
        t = TitsDiagram(d, AutGroup(d.nodes, (p,)), frozenset())
        for entry in (minimal_angle_report, rank_one_subdiagrams, fold_tits, relative_rank):
            with pytest.raises(InvalidTitsDiagram):
                entry(t)
