"""Tits diagrams (M, Gamma, A): validity, relative rank, rank-one
subdiagrams, angular distance, minimal angle, and the pi/3 trichotomy.

A request validates its diagram once and derives nothing twice. The
public entry points (minimal_angle_report, rank_one_subdiagrams,
relative_rank, and fold.fold_tits) check their input; minimal_angle_report
validates and folds through fold_tits alone. validate checks each
generator of Gamma, then walks Gamma's one orbit partition
(AutGroup._orbits); fold_tits folds on that partition with no second
check of the generators, and every whole-diagram type is read from the
one classification that new_diagram made. enumerate_indices calls no
validate at all: its search checks the opposition clause of each
isotropic orbit itself and prunes on the first failure, walking the open
components again only after a decision that can close one. It holds its
decisions in one list that each search state cuts back to its own depth,
so no state copies or recounts them. enumerate_indices folds (M, Gamma)
once for all of its kernels, and only if some kernel is valid.

An isotropic orbit O's opposition clause and its angle depend only on O's
rank-one piece: O and the anisotropic nodes joined to it through A, which
are the components of A u O that meet O. validate and minimal_angle_report
form each piece once (_rank_one_piece). The search of enumerate_indices
forms the same piece as its C to check the clause, and returns each C it
closed with its kernel, so every row reads its angles on the pieces the
search formed and forms none again. Pieces and candidate components are
classified in place (diagram.classify(d, nodes)), with no restricted copy:
validate and the search read an orbit's clause from the resulting
component types through one helper (_opposed), which reads sigma at the
orbit's own labels only, and the angle is read from them too
(ComponentType.angle). diagram.ComponentType is the one source of sigma
and of the angle. The diagram keeps each type it finds under its node
set, so no node set is classified twice on one diagram.

The angular distance at a node only depends on its connected component (the
Weyl group acts componentwise and the fundamental weight lies in the
component's root span), so everything reduces to a classified component and
a canonical node position. At every crystallographic rank the nearest
other vertex of the orbit of omega_i is s_i omega_i, so cos = 1 - 1/(A^-1)_pp
with p the canonical position of i. The component's type reads it off
the diagonal of the inverse Cartan matrix (diagram.ComponentType.angle),
as it reads the opposition (ComponentType.opposite), and nothing is
realized. The one formula gives pi at A1, 2pi/3 at A2, pi/2 at B2 and
pi/3 at G2. I2(m) has no rational realization; its orbit of omega_i is a
regular m-gon, so it gives 2pi/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import diagram as diag
from .fold import _fold, fold_tits
from .angle import PI, Angle, Verdict, verdict_against_pi_over_3
from .diagram import AutGroup, CoxeterDiagram
from .errors import (
    InvalidEntry,
    InvalidTitsDiagram,
    NontrivialGamma,
    UnknownNode,
    ZeroRelativeRank,
)


@dataclass(frozen=True)
class TitsDiagram:
    """Diagram M with a symmetry group Gamma and anisotropic node set A."""

    diagram: CoxeterDiagram
    gamma: AutGroup
    anisotropic: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "anisotropic", frozenset(self.anisotropic))
        for a in self.anisotropic:
            if a not in self.diagram.node_set:
                raise UnknownNode(f"anisotropic node {a} is not in the diagram")
        if tuple(self.gamma.domain) != self.diagram.nodes:
            raise InvalidEntry("gamma is defined on a different node set")

    @property
    def isotropic(self) -> tuple[int, ...]:
        return tuple(i for i in self.diagram.nodes if i not in self.anisotropic)


def tits_diagram(
    d: CoxeterDiagram,
    gamma: Optional[AutGroup] = None,
    anisotropic: Iterable[int] = (),
) -> TitsDiagram:
    if gamma is None:
        gamma = AutGroup.trivial(d.nodes)
    return TitsDiagram(d, gamma, frozenset(anisotropic))


@dataclass(frozen=True)
class Violation:
    clause: str
    orbit: Optional[tuple[int, ...]]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate(t: TitsDiagram) -> ValidationReport:
    """Check the three structural conditions; violations are data, not errors.

    Each generator of Gamma is checked here, once; the orbits are then
    Gamma's own partition (AutGroup._orbits). The opposition clause of an
    isotropic orbit O is read on O's rank-one piece (_rank_one_piece); its
    message names all of A u O, the restriction whose opposition the
    clause is about.
    """
    violations = [
        Violation("gamma-not-automorphism", None,
                  f"{p.cycle_string()} is not an automorphism of the diagram")
        for p in t.gamma.generators if not diag.is_automorphism(t.diagram, p)
    ]
    if violations:
        return ValidationReport(tuple(violations))
    aniso = t.anisotropic
    for orbit in t.gamma._orbits:
        inside = aniso.intersection(orbit)
        if inside and len(inside) < len(orbit):
            violations.append(Violation(
                "A-not-invariant", orbit,
                f"orbit {set(orbit)} meets the anisotropic set without being contained in it",
            ))
        elif not inside:
            image = _opposed(t.diagram, _rank_one_piece(t.diagram, aniso, orbit), orbit)
            if image != frozenset(orbit):
                violations.append(Violation(
                    "opposition-violated", orbit,
                    f"opposition maps orbit {set(orbit)} to {set(image)} "
                    f"in the restriction to {sorted(aniso.union(orbit))}",
                ))
    return ValidationReport(tuple(violations))


def _rank_one_piece(d: CoxeterDiagram, aniso: frozenset[int], orbit) -> set[int]:
    """The nodes of the rank-one piece of the isotropic orbit: the orbit
    and the nodes of aniso joined to it through aniso, which are the
    components of aniso u orbit that meet the orbit.

    Opposition and angular distance act componentwise, so the orbit's
    opposition clause and its angle read on the piece are those read on all
    of aniso u orbit.
    """
    return diag._reach(orbit, lambda i: aniso.intersection(d.neighbors(i)))


def _opposed(d: CoxeterDiagram, piece: Iterable[int], orbit) -> frozenset[int]:
    """The image of orbit under the opposition of the subdiagram of d
    induced on piece, classified in place: the orbit's opposition clause
    holds when the image is the orbit itself.

    sigma is read at the orbit's labels only, each from the type of the
    component that holds it, and in orbit order, so the image set is built
    (and printed) the same way whichever components the orbit spans. A set
    meets a component's labels in the smaller of the two sizes, so this
    costs O(|orbit|) on a one-component piece and stays linear in the
    piece when the orbit spans many components.
    """
    labels = set(orbit)
    owner = {i: ct for ct in diag.classify(d, piece) for i in labels & ct.position_of.keys()}
    return frozenset(owner[i].opposite(i) for i in orbit)


def ensure_valid(t: TitsDiagram) -> None:
    report = validate(t)
    if not report.ok:
        raise InvalidTitsDiagram(report.violations)


def relative_rank(t: TitsDiagram) -> int:
    """The number of isotropic orbits, counted on the partition that
    ensure_valid has just checked."""
    ensure_valid(t)
    return sum(not t.anisotropic.issuperset(orbit) for orbit in t.gamma._orbits)


def rank_one_subdiagrams(t: TitsDiagram) -> list[TitsDiagram]:
    """One Tits diagram per isotropic node: restrict to A plus that node.

    Callers fold first; a nontrivial gamma is refused rather than folded
    implicitly.
    """
    ensure_valid(t)
    if not t.gamma.is_trivial:
        raise NontrivialGamma("rank-one extraction needs a trivial symmetry group")
    out = []
    for i in t.isotropic:
        sub = diag.restrict(t.diagram, t.anisotropic.union((i,)))
        out.append(TitsDiagram(sub, AutGroup.trivial(sub.nodes), t.anisotropic))
    return out


def angular_distance(d: CoxeterDiagram, i: int) -> Angle:
    """Minimal angle between distinct vertices of type i on the sphere.

    Reduces to the connected component of i. A crystallographic component
    of any rank gives arccos(1 - 1/(A^-1)_pp) at the canonical position p
    of i, I2(m) gives 2pi/m, and H3 and H4 are refused: the angle is a fact
    of the component's type (diagram.ComponentType.angle).
    """
    return diag.component_type(d, i).angle(i)


def minimal_angle_report(t: TitsDiagram) -> tuple[Angle, list[tuple[int, ...]]]:
    """Minimal angle plus the isotropic orbits achieving it (tie diagnostics).

    Folds by fold_tits, then reads each isotropic orbit's angle on the
    fold, in orbit order: the angular distance at the orbit's node (its
    smallest member) on its rank-one piece, that node and the nodes of the
    folded A joined to it through the folded A (_rank_one_piece).
    """
    folding, folded_a = fold_tits(t)
    folded = folding.folded
    angles = {o: diag.classify(folded, _rank_one_piece(folded, folded_a, o[:1]))[0].angle(o[0])
              for o in t.gamma._orbits if o[0] not in folded_a}
    if not angles:
        raise ZeroRelativeRank("every node is anisotropic; the minimal angle is undefined")
    best = min(angles.values())
    return best, [o for o, angle in angles.items() if angle == best]


def minimal_angle(t: TitsDiagram) -> Angle:
    """Fold, then minimize the angular distance over rank-one subdiagrams."""
    return minimal_angle_report(t)[0]


def admissibility(t: TitsDiagram) -> Verdict:
    """Exact trichotomy of the minimal angle against pi/3."""
    return verdict_against_pi_over_3(minimal_angle(t))


def enumerate_indices(
    d: CoxeterDiagram, g: AutGroup, rel_rank: Optional[int] = None
) -> list[tuple[TitsDiagram, Angle, Verdict]]:
    """All valid anisotropic kernels A (unions of Gamma-orbits, A != I), each
    with its exact minimal angle and verdict.

    Validity here is the combinatorial condition only; no claim is made that
    an algebraic group with that index exists over some field. Deterministic
    order: sorted A, lexicographically.

    Kernels are found by a depth-first search that decides the
    Gamma-orbits in a fixed order (see _search_kernels), each into A or
    isotropic. The opposition clause of an isotropic orbit O depends only
    on C, the component of A u O that meets O, so it is checked as soon as
    every orbit next to C is decided, and a failing clause prunes the
    branch; rel_rank prunes once it cannot be met. The search returns each
    kernel with the Cs it closed, one per isotropic orbit, in fold labels.
    The fold of (d, g) does not depend on A; it is computed once, and only
    if some kernel is valid. A C in fold labels is the orbit's rank-one
    piece in the fold, since two orbits are joined in the fold exactly when
    an edge of d joins them, so each row's angle is the least angular
    distance at an orbit's node on its C, and no row forms a piece again.
    Angles are computed kernel by kernel, fewest anisotropic orbits first,
    and orbit by orbit within a kernel, so a non-crystallographic component
    raises at the same kernel and orbit as a plain loop over the candidates
    would.
    """
    orbits = diag.orbits(d, g)
    if rel_rank is not None and not 0 < rel_rank <= len(orbits):
        return []
    TitsDiagram(d, g, frozenset())  # the domain check every row makes
    kernels = _search_kernels(d, orbits, rel_rank)
    if not kernels:
        return []
    folded = _fold(d, g).folded
    results = []
    for in_a, closed in sorted(kernels, key=lambda row: (len(row[0]), row[0])):
        angle = min(diag.classify(folded, piece)[0].angle(node) for node, piece in closed)
        # from a set, which CPython copies into a table sized once; one built
        # from a generator grows by steps and can hold twice the table
        kernel = frozenset({i for p in in_a for i in orbits[p]})
        results.append((TitsDiagram(d, g, kernel), angle, verdict_against_pi_over_3(angle)))
    results.sort(key=lambda row: tuple(sorted(row[0].anisotropic)))
    return results


def _search_kernels(
    d: CoxeterDiagram, orbits: tuple[tuple[int, ...], ...], rel_rank: Optional[int]
) -> list[tuple[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]]:
    """Valid kernels of enumerate_indices, each as the sorted indices of
    its orbits in A, with the Cs it closed; see there. A closing is an
    isotropic orbit's fold node and its C, both in fold labels (the
    smallest member of each orbit), and a kernel's closings are in orbit
    order.

    Orbits are decided in breadth-first order over the orbit graph, from an
    orbit with the fewest neighbours (an end of a path), so that each C
    closes soon whatever the node labels, and the search numbers them by
    their place in that order. C is a set of those numbers: an isotropic
    orbit O and the orbits of A joined to it through A. A C closes when no
    orbit next to it is undecided, and only two decisions can make that
    happen: an isotropic orbit, or an orbit of A with no undecided
    neighbour. The open Cs are walked again only after one of those, so a
    run of orbits of A along a path costs no walk. A != I prunes as rel_rank
    does: no branch puts more than len(orbits) - rel_rank orbits into A,
    or len(orbits) - 1 when rel_rank is None.

    The search keeps an explicit stack, so its depth is not bounded by
    Python's recursion limit. The decisions live in one list, in_a: a
    popped state cuts it back to the decisions of its ancestors and appends
    its own. Each state carries its count of isotropic orbits as an int, so
    no state copies or recounts the decisions made before it. The closings
    live in one list too: each isotropic orbit that a state's ancestors
    decided is either open or closed, so the state cuts the list back to
    its count of isotropic orbits less its open ones.
    """
    index = {i: p for p, orbit in enumerate(orbits) for i in orbit}
    adjacent = [
        sorted({index[j] for i in orbit for j in d.neighbors(i)} - {p})
        for p, orbit in enumerate(orbits)
    ]
    step: dict[int, int] = {}  # each orbit's place in the search order
    for start in sorted(range(len(orbits)), key=lambda p: len(adjacent[p])):
        queue = [start]
        for p in queue:  # breadth first: the queue grows as it is read
            if p not in step:
                step[p] = len(step)
                queue += adjacent[p]
    ordered = [orbits[p] for p in step]  # orbits and adjacent, renumbered
    near = [[step[q] for q in adjacent[p]] for p in step]
    in_a: list[bool] = []  # the decisions so far, in search order
    closed: list[tuple[int, tuple[int, ...]]] = []  # the closings so far

    def component(o: int) -> Optional[set[int]]:
        """C for the isotropic orbit o, or None while an orbit next to it is
        undecided."""
        seen, stack = {o}, [o]
        while stack:
            for q in near[stack.pop()]:
                if q >= len(in_a):
                    return None
                if in_a[q] and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    def holds(o: int, comp: set[int]) -> bool:
        return _opposed(d, [i for p in comp for i in ordered[p]], ordered[o]) == set(ordered[o])

    found = []
    # (depth, the decision made there, isotropic orbits among the decisions,
    # isotropic orbits whose C is still open)
    stack: list[tuple[int, bool, int, tuple[int, ...]]] = [(0, False, 0, ())]
    while stack:
        depth, decision, isotropic, open_ = stack.pop()
        if depth:
            in_a[depth - 1:] = [decision]  # cut back to the ancestors' decisions
            del closed[isotropic - len(open_):]  # and to their closings
            if not decision or all(q < depth for q in near[depth - 1]):
                comps = [(o, component(o)) for o in open_]
                shut = [(o, comp) for o, comp in comps if comp is not None]
                if not all(holds(o, comp) for o, comp in shut):
                    continue
                open_ = tuple(o for o, comp in comps if comp is None)
                closed += [(ordered[o][0], tuple(ordered[p][0] for p in comp)) for o, comp in shut]
        if depth == len(orbits):
            found.append((tuple(sorted(p for p, a in zip(step, in_a) if a)), sorted(closed)))
            continue
        if depth - isotropic < len(orbits) - (rel_rank or 1):
            stack.append((depth + 1, True, isotropic, open_))
        if rel_rank is None or isotropic < rel_rank:
            stack.append((depth + 1, False, isotropic + 1, (*open_, depth)))
    return found


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    tits: TitsDiagram
    expected: Angle


def _catalog_tits(type_name, gamma_cycles, aniso) -> TitsDiagram:
    d = diag.builtin(type_name)
    if gamma_cycles:
        g = AutGroup.generated_by(
            [diag.Permutation.from_cycles(gamma_cycles, d.nodes)], d.nodes
        )
    else:
        g = AutGroup.trivial(d.nodes)
    return TitsDiagram(d, g, frozenset(aniso))


def reference_catalog() -> list[CatalogEntry]:
    """Worked reference indices with their known minimal angles.

    Every entry's expected value is reproduced by minimal_angle; all of them
    sit strictly above pi/3.
    """
    third = Angle.exact_cos(Fraction(1, 3))
    half_pi = Angle.rational_pi(1, 2)
    rows = [
        ("I24-swap-quasisplit", "I2(4)", [(1, 2)], (), PI),
        ("A5-flip-aniso-234", "A5", [(1, 5), (2, 4)], (2, 3, 4), half_pi),
        ("A7-aniso-1357", "A7", None, (1, 3, 5, 7), half_pi),
        ("B4-aniso-234", "B4", None, (2, 3, 4), half_pi),
        ("D5-aniso-2345", "D5", None, (2, 3, 4, 5), half_pi),
        ("A3-aniso-13", "A3", None, (1, 3), half_pi),
        ("A5-aniso-1245", "A5", None, (1, 2, 4, 5), third),
        ("E7-aniso-123456", "E7", None, (1, 2, 3, 4, 5, 6), third),
        ("B3-aniso-12", "B3", None, (1, 2), third),
        ("A5-flip-aniso-1245", "A5", [(1, 5), (2, 4)], (1, 2, 4, 5), third),
        ("E7-aniso-2345", "E7", None, (2, 3, 4, 5), half_pi),
        ("E6-aniso-2345", "E6", None, (2, 3, 4, 5), half_pi),
        ("F4-aniso-23", "F4", None, (2, 3), half_pi),
        ("E6-flip-aniso-345", "E6", [(1, 6), (3, 5)], (3, 4, 5), half_pi),
        ("E6-flip-aniso-1356", "E6", [(1, 6), (3, 5)], (1, 3, 5, 6), third),
        ("E6-aniso-1356", "E6", None, (1, 3, 5, 6), third),
        ("E8-aniso-123456", "E8", None, (1, 2, 3, 4, 5, 6), third),
    ]
    return [
        CatalogEntry(name, _catalog_tits(type_name, cycles, aniso), expected)
        for name, type_name, cycles, aniso, expected in rows
    ]
