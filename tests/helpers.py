"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's orbit/longest-element machinery:
the full group is enumerated as ambient matrices by closure, so tests can
compare the production algorithms against an independent computation.
orbit_scan_max_cos is the exception: it reuses the library's orbit walk,
but reads each angle off the Gram matrix of the realized weights, not off
the closed form it checks. walk_only_orbit_size reuses the walk too: it
counts an orbit on a realization's Cartan matrix (realized_cartan), where
weyl.orbit_size reads the index |W|/|W_J| off the degrees. orbit_generators
also reuses the library's longest_element: it realizes the w_J that
fold.fold never builds, so the folded bonds, read off positive-root
counts, can be checked against the order of w_J·w_K. brute_enumerate
validates every candidate kernel, where tits.enumerate_indices searches
with pruning. whole_set_violations and whole_set_minimal_angle_report
read each isotropic orbit's opposition clause and angle on the whole
anisotropic set, where tits reads them on the orbit's rank-one piece.
diagram_automorphisms lists the full automorphism group, at a cost that
grows as k! on A1^k, where the library takes Gamma from its generators;
connected_components builds a restricted copy per component, where the
library classifies components in place.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from coxangle import diagram as diag
from coxangle import geometry as geom
from coxangle import tits as tits_mod
from coxangle import weyl
from coxangle.angle import verdict_against_pi_over_3
from coxangle.diagram import AutGroup, CoxeterDiagram, Permutation
from coxangle.errors import InvalidTitsDiagram, ZeroRelativeRank
from coxangle.fold import fold


def full_group_matrices(r: geom.Realization) -> frozenset:
    """Every element of W as an ambient matrix, by right-multiplication closure.

    realize is deterministic, so the group is built once per diagram.
    """
    return _full_group(r.diagram)


@functools.lru_cache(maxsize=None)
def _full_group(d: CoxeterDiagram) -> frozenset:
    r = geom.realize(d)
    gens = [weyl.reflection_element(r, i).matrix for i in r.simple_roots]
    ident = weyl._identity_matrix(r.ambient_dim)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = weyl._mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(seen)


def brute_orbit(r: geom.Realization, v) -> frozenset:
    return frozenset(weyl._mat_vec(m, v) for m in full_group_matrices(r))


def brute_max_cos(r: geom.Realization, i: int) -> Fraction:
    w = r.fundamental_weights[i]
    orbit = brute_orbit(r, w)
    norm = geom.dot(w, w)
    return max(geom.dot(w, x) for x in orbit if x != w) / norm


def orbit_scan_max_cos(comp: CoxeterDiagram, i: int) -> Fraction:
    """Best cosine between omega_i and another vector of its Weyl orbit.

    Realizes the component and scans the whole orbit in fundamental-weight
    coordinates: (omega_i, sum mu_k omega_k) is the Gram row of omega_i,
    scaled to integers, dotted with mu. An independent check of the closed
    form in tits.angular_distance.
    """
    r = geom.realize(comp)
    nodes = tuple(r.simple_roots)
    w = r.fundamental_weights[i]
    gram = [geom.dot(w, r.fundamental_weights[k]) for k in nodes]
    scale = math.lcm(*(g.denominator for g in gram))
    row = [int(g * scale) for g in gram]
    seed = tuple(int(k == i) for k in nodes)
    orbit = weyl._walk(realized_cartan(r), seed, None)
    best = max(sum(a * b for a, b in zip(row, mu)) for mu in orbit if mu != seed)
    return Fraction(best, row[nodes.index(i)])


def realized_cartan(r: geom.Realization) -> list[list[int]]:
    """The Cartan matrix (alpha_j, alpha_k^vee) of a realization, in the
    order of its simple roots."""
    nodes = tuple(r.simple_roots)
    return [[int(geom.dot(r.simple_roots[j], r.coroots[k])) for k in nodes] for j in nodes]


def all_roots(r: geom.Realization) -> frozenset:
    """The full root set: reflection closure of the simple roots."""
    seen = set(r.simple_roots.values())
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for i in r.simple_roots:
                w = geom.reflect(r, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def root_coefficients(r: geom.Realization, v) -> dict[int, Fraction]:
    """Coordinates of v in the simple-root basis (v must lie in the span)."""
    out = {}
    for j, alpha in r.simple_roots.items():
        norm = geom.dot(alpha, alpha)
        out[j] = Fraction(2) * geom.dot(v, r.fundamental_weights[j]) / norm
    return out


def brute_longest(r: geom.Realization):
    """w_0 as the unique element sending every simple root to a negative root."""
    for m in full_group_matrices(r):
        if all(
            all(c <= 0 for c in root_coefficients(r, weyl._mat_vec(m, alpha)).values())
            for alpha in r.simple_roots.values()
        ):
            return m
    raise AssertionError("no longest element found")


def brute_opposition(r: geom.Realization) -> dict[int, int]:
    w0 = brute_longest(r)
    out = {}
    neg = {geom.vscale(Fraction(-1), a): i for i, a in r.simple_roots.items()}
    for i, alpha in r.simple_roots.items():
        out[i] = neg[weyl._mat_vec(w0, alpha)]
    return out


def realized_opposition(d: CoxeterDiagram) -> dict[int, int]:
    """sigma by realizing each component and building w_0 by greedy descent.

    I_2(m) components use the dihedral oracle below; H components have
    w_0 = -1 (it lies in W(H_3) and W(H_4)), so sigma is the identity there.
    """
    out: dict[int, int] = {}
    for comp in connected_components(d):
        ct = diag.classify(comp)[0]
        if ct.family == "I2":
            a, b = comp.nodes
            swapped = dihedral_opposition(ct.m)
            out.update({a: b, b: a} if swapped else {a: a, b: b})
            continue
        if ct.family == "H":
            out.update({i: i for i in comp.nodes})
            continue
        r = geom.realize(comp)
        w0 = weyl.longest_element(r)
        negated = {geom.vscale(Fraction(-1), a): i for i, a in r.simple_roots.items()}
        for i, alpha in r.simple_roots.items():
            out[i] = negated[w0.apply(alpha)]
    return out


def brute_enumerate(d: CoxeterDiagram, g: AutGroup, rel_rank=None) -> list:
    """tits.enumerate_indices as an exhaustive loop: every union of
    Gamma-orbits but the whole node set, fewest orbits first, validated and
    then measured one by one.
    """
    diag.check_automorphisms(d, g)
    orbits = diag.orbits(d, g)
    results = []
    for take in range(len(orbits)):
        if rel_rank is not None and len(orbits) - take != rel_rank:
            continue
        for combo in itertools.combinations(orbits, take):
            t = tits_mod.TitsDiagram(d, g, frozenset(i for orbit in combo for i in orbit))
            if tits_mod.validate(t).ok:
                angle = tits_mod.minimal_angle(t)
                results.append((t, angle, verdict_against_pi_over_3(angle)))
    results.sort(key=lambda row: tuple(sorted(row[0].anisotropic)))
    return results


def whole_set_violations(t) -> tuple:
    """tits.validate's violations, with the opposition clause of each
    isotropic orbit O read on the restriction to all of A u O."""
    Violation = tits_mod.Violation
    violations = [
        Violation("gamma-not-automorphism", None,
                  f"{p.cycle_string()} is not an automorphism of the diagram")
        for p in t.gamma.generators if not diag.is_automorphism(t.diagram, p)
    ]
    if violations:
        return tuple(violations)
    aniso = t.anisotropic
    for orbit in diag.orbits(t.diagram, t.gamma):
        inside = aniso.intersection(orbit)
        if inside and len(inside) < len(orbit):
            violations.append(Violation(
                "A-not-invariant", orbit,
                f"orbit {set(orbit)} meets the anisotropic set without being contained in it",
            ))
        elif not inside:
            whole = sorted(aniso.union(orbit))
            sigma = weyl.opposition(diag.restrict(t.diagram, whole))
            image = frozenset(sigma(i) for i in orbit)
            if image != frozenset(orbit):
                violations.append(Violation(
                    "opposition-violated", orbit,
                    f"opposition maps orbit {set(orbit)} to {set(image)} "
                    f"in the restriction to {whole}",
                ))
    return tuple(violations)


def whole_set_minimal_angle_report(t) -> tuple:
    """tits.minimal_angle_report with each folded isotropic node v's angle
    read on the restriction of the fold to all of A' u {v}, and the tied
    orbits gathered by a scan of the node map per node."""
    violations = whole_set_violations(t)
    if violations:
        raise InvalidTitsDiagram(violations)
    folding = fold(t.diagram, t.gamma)
    folded_a = frozenset(folding.node_map[a] for a in t.anisotropic)
    isotropic = [v for v in folding.folded.nodes if v not in folded_a]
    if not isotropic:
        raise ZeroRelativeRank("every node is anisotropic; the minimal angle is undefined")
    best, achieving = None, []
    for v in isotropic:
        angle = tits_mod.angular_distance(diag.restrict(folding.folded, folded_a | {v}), v)
        orbit = tuple(sorted(i for i, f in folding.node_map.items() if f == v))
        if best is None or angle < best:
            best, achieving = angle, [orbit]
        elif angle == best:
            achieving.append(orbit)
    return best, achieving


def walk_only_orbit_size(d: CoxeterDiagram, node: int, budget=None) -> int:
    """weyl.orbit_size counted by walking the orbit on the realized
    component of node: the count and any OrbitBudgetExceeded come from the
    walk alone, with no index |W|/|W_J|."""
    r = geom.realize(diag.component_of(d, node))
    lam = [int(i == node) for i in r.simple_roots]
    return sum(1 for _ in weyl._walk(realized_cartan(r), lam, budget))


def relabeled(d: CoxeterDiagram, rng) -> CoxeterDiagram:
    """d under a random injective relabelling into 1..100."""
    labels = dict(zip(d.nodes, rng.sample(range(1, 101), d.rank)))
    return diag.new_diagram(
        labels.values(), [(labels[i], labels[j], m) for i, j, m in d.edges]
    )


def dihedral_opposition(m: int) -> bool:
    """True if the I_2(m) opposition swaps the two nodes.

    Roots are direction indices 0..2m-1 on the circle (step pi/m); the
    generator for the root at index a reflects across the perpendicular
    hyperplane, sending z to 2a + m - z. Simple roots sit at indices 0
    and m-1; index z + m is the negative of z. The longest element is
    the unique group element sending every positive index 0..m-1 to a
    negative one.
    """
    n = 2 * m
    s0 = tuple((m - z) % n for z in range(n))
    s1 = tuple((3 * m - 2 - z) % n for z in range(n))
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for s in (s0, s1):
                q = tuple(s[p[z]] for z in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    assert len(seen) == n
    longest = [p for p in seen if all(m <= p[z] < n for z in range(m))]
    assert len(longest) == 1
    w0 = longest[0]
    if w0[0] == m:
        return False  # fixes the first simple root up to sign
    assert w0[0] == (m - 1) + m
    return True


def orbit_generators(d: CoxeterDiagram, node_map: dict[int, int]):
    """w_J of each orbit J of a fold of d, as an ambient matrix keyed by
    the orbit's folded label: weyl.longest_element on geometry.realize.

    node_map is FoldResult.node_map. None when d has no rational
    realization (it is not crystallographic; this includes the analytic
    I_2(m) fold).
    """
    if not all(ct.crystallographic for ct in diag.classify(d)):
        return None
    r = geom.realize(d)
    orbits: dict[int, list[int]] = {}
    for i, label in node_map.items():
        orbits.setdefault(label, []).append(i)
    return {label: weyl.longest_element(r, orbits[label]) for label in sorted(orbits)}


def connected_components(d: CoxeterDiagram) -> list[CoxeterDiagram]:
    """Maximal connected subdiagrams, ordered by smallest label."""
    return [diag.restrict(d, c) for c in diag._partition(d.nodes, d.neighbors)]


def diagram_automorphisms(d: CoxeterDiagram) -> AutGroup:
    """The full automorphism group, every element listed as a generator.

    Extends the partial maps that keep m_ij on the first k nodes to the
    first k + 1, node by node: k! of them on A1^k, but the tests' diagrams
    are small. A node maps only to a node with the same sorted incident
    bond labels, which drops no map that completes; without that filter,
    the unjoined nodes that lead a relabelled sum multiply the partial maps.
    """
    nodes, maps = d.nodes, [()]
    bonds = {i: sorted(d.m(i, j) for j in d.neighbors(i)) for i in nodes}
    for i in nodes:
        maps = [images + (c,) for images in maps for c in nodes if c not in images
                and bonds[c] == bonds[i]
                and all(d.m(i, j) == d.m(c, img) for j, img in zip(nodes, images))]
    perms = (Permutation.from_dict(dict(zip(nodes, images))) for images in maps)
    return AutGroup(nodes, tuple(p for p in perms if not p.is_identity))


def gen_group(d: CoxeterDiagram, cycles) -> AutGroup:
    p = Permutation.from_cycles(cycles, d.nodes)
    return AutGroup.generated_by([p], d.nodes)


def tits(d_name, cycles, aniso):
    from coxangle.tits import TitsDiagram

    d = diag.builtin(d_name)
    g = gen_group(d, cycles) if cycles else AutGroup.trivial(d.nodes)
    return TitsDiagram(d, g, frozenset(aniso))
