"""Spherical Coxeter diagrams: construction, builtin families, components
and restriction.

A diagram is stored as its sorted node-label tuple plus the set of labeled
edges (i, j, m) with i < j and m >= 3; absent pairs mean m = 2. Labels are
arbitrary positive integers so that restriction and folding can preserve the
identity of surviving nodes.

Components are classified in place: classify partitions the diagram once,
and recognizes each component in one chain walk that reads degrees,
neighbours and bond labels from the diagram itself, with no restricted
copy. A subdiagram induced on a node set is classified the same way
(_classify_induced), on the parent's adjacency filtered to the set, so the
rank-one pieces of validate and min-angle, the candidate components of
enumerate's search and the orbits and orbit pairs of fold are classified
without a restricted copy either.

Each derived fact is derived once per value and kept on it. A diagram
keeps its classification (CoxeterDiagram._types), filled by the classify
call in new_diagram that checks sphericity; classify and component_type
read it, and so does every layer that asks for a type, its order,
opposition or crystallographic check. A diagram also keeps the type of
each connected node set it classifies (CoxeterDiagram._component_types,
keyed by the sorted nodes), whole components included, so a rank-one
piece, candidate component, orbit or stabilizer met again by any layer
is not classified again. A group keeps its orbit partition
(AutGroup._orbits), which depends only on its generators and domain;
orbits checks the generators against the diagram and then reads it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    DuplicateLabel,
    InvalidEntry,
    NotAnAutomorphism,
    NotSpherical,
    RankOutOfRange,
    UnknownNode,
    UnknownType,
)


@dataclass(frozen=True)
class CoxeterDiagram:
    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int, int]]

    @property
    def rank(self) -> int:
        return len(self.nodes)

    def m(self, i: int, j: int) -> int:
        """Coxeter matrix entry m_ij (1 on the diagonal, 2 when unjoined)."""
        if i not in self.node_set or j not in self.node_set:
            raise UnknownNode(f"node {i if i not in self.node_set else j} not in diagram")
        if i == j:
            return 1
        a, b = (i, j) if i < j else (j, i)
        return self._edge_map.get((a, b), 2)

    @cached_property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes)

    @cached_property
    def _edge_map(self) -> dict[tuple[int, int], int]:
        return {(i, j): m for i, j, m in self.edges}

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        adjacent: dict[int, list[int]] = {i: [] for i in self.nodes}
        for a, b, _ in self.edges:
            adjacent.setdefault(a, []).append(b)
            adjacent.setdefault(b, []).append(a)
        return {i: tuple(sorted(js)) for i, js in adjacent.items()}

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Nodes joined to i by an edge (m >= 3), ascending."""
        if i not in self.node_set:
            raise UnknownNode(f"node {i} not in diagram")
        return self._adjacency[i]

    @cached_property
    def _types(self) -> tuple[ComponentType, ...]:
        """Types of the components, ordered by smallest label: the one
        classification of this diagram, which classify reads."""
        return _classify_induced(self)

    @cached_property
    def _component_types(self) -> dict[tuple[int, ...], ComponentType]:
        """Type of each connected node set classified so far, keyed by its
        sorted nodes: _classify_induced reads it and fills it."""
        return {}

    def __str__(self) -> str:
        return type_name(self)


@dataclass(frozen=True)
class Permutation:
    """A permutation of a finite set of node labels, stored as a total map.

    Built only as a bijection: the keys are distinct and the values are
    the keys, rearranged.
    """

    mapping: tuple[tuple[int, int], ...]

    def __post_init__(self):
        keys = {i for i, _ in self.mapping}
        if len(keys) != len(self.mapping) or keys != {j for _, j in self.mapping}:
            raise InvalidEntry(f"not a permutation: {self.mapping}")

    @staticmethod
    def from_dict(d: dict[int, int]) -> "Permutation":
        return Permutation(tuple(sorted(d.items())))

    @staticmethod
    def identity(domain: Iterable[int]) -> "Permutation":
        return Permutation(tuple((i, i) for i in sorted(domain)))

    @staticmethod
    def from_cycles(cycles: Sequence[Sequence[int]], domain: Iterable[int]) -> "Permutation":
        out = {i: i for i in domain}
        for cyc in cycles:
            for x in cyc:
                if x not in out:
                    raise UnknownNode(f"cycle entry {x} not in domain")
            for k, x in enumerate(cyc):
                out[x] = cyc[(k + 1) % len(cyc)]
        return Permutation.from_dict(out)

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.mapping)

    def of(self, i: int) -> int:
        try:
            return self._map[i]
        except KeyError:
            raise UnknownNode(f"node {i} not in permutation domain") from None

    def __call__(self, i: int) -> int:
        return self.of(i)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.mapping)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(tuple(sorted((i, self.of(other.of(i))) for i in other.domain)))

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in self.mapping)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its smallest member."""
        seen: set[int] = set()
        out = []
        for start, _ in self.mapping:
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self.of(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.of(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(sorted(out))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)


@dataclass(frozen=True)
class AutGroup:
    """A group of diagram automorphisms given by generating permutations."""

    domain: tuple[int, ...]
    generators: tuple[Permutation, ...]

    @staticmethod
    def trivial(domain: Iterable[int]) -> "AutGroup":
        return AutGroup(tuple(sorted(domain)), ())

    @staticmethod
    def generated_by(gens: Sequence[Permutation], domain: Iterable[int]) -> "AutGroup":
        dom = tuple(sorted(domain))
        for g in gens:
            if g.domain != frozenset(dom):
                raise UnknownNode("generator domain does not match the node set")
        return AutGroup(dom, tuple(g for g in gens if not g.is_identity))

    @property
    def is_trivial(self) -> bool:
        return all(g.is_identity for g in self.generators)

    @cached_property
    def _orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the domain, orbits ordered by smallest
        member: the one partition of this group, which orbits reads once
        the generators are checked against a diagram."""
        return _partition(self.domain, lambda x: (p.of(x) for p in self.generators))

    def elements(self) -> frozenset[Permutation]:
        """Closure of the generators (always contains the identity)."""
        ident = Permutation.identity(self.domain)
        return frozenset(_reach((ident,), lambda e: (g.compose(e) for g in self.generators)))


_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
}


@dataclass(frozen=True)
class ComponentType:
    """Recognized finite type of one connected component.

    family is one of A, B, D, E, F, G, H, I2 (B covers C; rank-2 diagrams
    with m = 3, 4, 6 are reported as A2, B2, G2). canonical maps each node
    label to its conventional position 1..rank within the family.
    """

    family: str
    rank: int
    canonical: tuple[tuple[int, int], ...]
    m: Optional[int] = None

    @property
    def name(self) -> str:
        if self.family == "I2":
            return f"I2({self.m})"
        return f"{self.family}{self.rank}"

    @property
    def position_of(self) -> dict[int, int]:
        return dict(self.canonical)

    @property
    def label_at(self) -> dict[int, int]:
        return {pos: lab for lab, pos in self.canonical}

    @property
    def crystallographic(self) -> bool:
        return self.family in ("A", "B", "D", "E", "F", "G")

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degrees d_i of the basic invariants of W: |W| is their product
        and the number of positive roots is the sum of d_i - 1 (Humphreys,
        Reflection Groups and Coxeter Groups, 3.7-3.9, Table 3.1)."""
        n = self.rank
        if self.family == "A":
            return tuple(range(2, n + 2))
        if self.family == "B":
            return tuple(range(2, 2 * n + 1, 2))
        if self.family == "D":
            return tuple(range(2, 2 * n - 1, 2)) + (n,)
        if self.family == "I2":
            return (2, self.m)
        return _EXCEPTIONAL_DEGREES[self.name]


def new_diagram(nodes: Iterable[int], entries: Iterable[tuple[int, int, int]]) -> CoxeterDiagram:
    """Build and validate a spherical Coxeter diagram.

    entries lists off-diagonal matrix values (i, j, m); omitted pairs get
    m = 2. Rejects duplicate labels, malformed entries, and any diagram with
    a component outside the finite-type classification.
    """
    node_list = list(nodes)
    for n in node_list:
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            raise InvalidEntry(f"node labels must be positive integers, got {n!r}")
    if len(set(node_list)) != len(node_list):
        dupes = sorted(n for n, k in Counter(node_list).items() if k > 1)
        raise DuplicateLabel(f"duplicate node labels: {dupes}")
    node_set = set(node_list)
    edge_map: dict[tuple[int, int], int] = {}
    for i, j, m in entries:
        if i == j:
            raise InvalidEntry(f"diagonal entry ({i},{j}) not allowed")
        if not isinstance(m, int) or m < 2:
            raise InvalidEntry(f"edge label m must be an integer >= 2, got {m!r}")
        if i not in node_set or j not in node_set:
            raise UnknownNode(f"edge ({i},{j}) references a missing node")
        a, b = (i, j) if i < j else (j, i)
        if (a, b) in edge_map and edge_map[(a, b)] != m:
            raise InvalidEntry(f"conflicting labels for pair ({a},{b})")
        edge_map[(a, b)] = m
    edges = frozenset((a, b, m) for (a, b), m in edge_map.items() if m >= 3)
    d = CoxeterDiagram(tuple(sorted(node_list)), edges)
    classify(d)  # raises NotSpherical on any bad component
    return d


_BUILTIN_RE = re.compile(r"^([A-I])(\d+)$")
_I2_RE = re.compile(r"^I2\((\d+)\)$")


def _builtin_single(name: str) -> tuple[list[int], list[tuple[int, int, int]]]:
    m_i2 = _I2_RE.match(name)
    if m_i2:
        m = int(m_i2.group(1))
        if m < 2:
            raise RankOutOfRange(f"I2(m) needs m >= 2, got {m}")
        return [1, 2], ([(1, 2, m)] if m >= 3 else [])
    mo = _BUILTIN_RE.match(name)
    if not mo:
        raise UnknownType(f"unrecognized builtin diagram name {name!r}")
    fam, n = mo.group(1), int(mo.group(2))
    if fam == "A":
        if n < 1:
            raise RankOutOfRange("A_n needs n >= 1")
        return list(range(1, n + 1)), [(i, i + 1, 3) for i in range(1, n)]
    if fam in ("B", "C"):
        if n < 2:
            raise RankOutOfRange("B_n/C_n needs n >= 2")
        edges = [(i, i + 1, 3) for i in range(1, n - 1)] + [(n - 1, n, 4)]
        return list(range(1, n + 1)), edges
    if fam == "D":
        if n < 4:
            raise RankOutOfRange("D_n needs n >= 4")
        edges = [(i, i + 1, 3) for i in range(1, n - 2)] + [(n - 2, n - 1, 3), (n - 2, n, 3)]
        return list(range(1, n + 1)), edges
    if fam == "E":
        if n not in (6, 7, 8):
            raise RankOutOfRange("E_n needs n in {6, 7, 8}")
        row = [1] + list(range(3, n + 1))
        edges = [(row[k], row[k + 1], 3) for k in range(len(row) - 1)] + [(2, 4, 3)]
        return list(range(1, n + 1)), sorted((min(a, b), max(a, b), m) for a, b, m in edges)
    if fam == "F":
        if n != 4:
            raise RankOutOfRange("F_n exists only for n = 4")
        return [1, 2, 3, 4], [(1, 2, 3), (2, 3, 4), (3, 4, 3)]
    if fam == "G":
        if n != 2:
            raise RankOutOfRange("G_n exists only for n = 2")
        return [1, 2], [(1, 2, 6)]
    if fam == "H":
        if n not in (3, 4):
            raise RankOutOfRange("H_n needs n in {3, 4}")
        return list(range(1, n + 1)), [(1, 2, 5)] + [(i, i + 1, 3) for i in range(2, n)]
    raise UnknownType(f"unrecognized builtin diagram name {name!r}")


def builtin(name: str) -> CoxeterDiagram:
    """Builtin diagram by conventional name; direct sums join with '+'.

    Families: A<n> (n>=1), B<n>/C<n> (n>=2, identical diagrams), D<n> (n>=4),
    E6/E7/E8, F4, G2, H3, H4, I2(<m>) (m>=2). For sums the second summand's
    labels are shifted past the first's, e.g. "A2+A2" has nodes 1..4.
    """
    parts = [p.strip() for p in name.split("+")]
    if any(not p for p in parts):
        raise UnknownType(f"malformed builtin name {name!r}")
    nodes: list[int] = []
    entries: list[tuple[int, int, int]] = []
    shift = 0
    for part in parts:
        part_nodes, part_edges = _builtin_single(part)
        nodes.extend(n + shift for n in part_nodes)
        entries.extend((i + shift, j + shift, m) for i, j, m in part_edges)
        shift += len(part_nodes)
    return new_diagram(nodes, entries)


def restrict(d: CoxeterDiagram, keep: Iterable[int]) -> CoxeterDiagram:
    """Induced subdiagram on `keep`, original labels preserved. Its edges
    come from the kept nodes' adjacency, not from a scan of every edge
    of d."""
    keep_set = set(keep)
    missing = keep_set - d.node_set
    if missing:
        raise UnknownNode(f"nodes {sorted(missing)} not in diagram")
    edges = frozenset((a, b, d._edge_map[a, b]) for a in keep_set
                      for b in d._adjacency[a] if a < b and b in keep_set)
    return CoxeterDiagram(tuple(sorted(keep_set)), edges)


def _reach(starts: Sequence, step) -> set:
    """starts and everything reached from them by repeated step(x), an
    iterable of successors, by depth-first search."""
    seen, stack = set(starts), list(starts)
    while stack:
        for y in step(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _partition(nodes: Iterable[int], step) -> tuple[tuple[int, ...], ...]:
    """Classes of nodes under the reach of step, which must be symmetric
    (edges, or the generators of a finite group), each sorted and ordered
    by smallest member."""
    classes: list[tuple[int, ...]] = []
    placed: set[int] = set()
    for x in sorted(nodes):
        if x not in placed:
            cls = _reach((x,), step)
            placed |= cls
            classes.append(tuple(sorted(cls)))
    return tuple(classes)


def component_of(d: CoxeterDiagram, i: int) -> CoxeterDiagram:
    """The connected component containing node i."""
    return restrict(d, _reach((i,), d.neighbors))


def _chain(adjacency: dict[int, tuple[int, ...]], prev: Optional[int], cur: int) -> list[int]:
    """cur and the nodes after it on the unbranched chain that leaves prev
    through cur, up to its leaf."""
    chain = [cur]
    while nxt := [x for x in adjacency[cur] if x != prev]:
        prev, cur = cur, nxt[0]
        chain.append(cur)
    return chain


def _classify_component(
    d: CoxeterDiagram, adjacency: dict[int, tuple[int, ...]], nodes: tuple[int, ...]
) -> ComponentType:
    """Recognize the connected component on nodes (sorted) of the graph
    given by adjacency, a subgraph of d's, against the finite-type list.

    The component is classified in place, in one walk: degrees and
    neighbours are read from adjacency and bond labels from d, and one
    chain walk gives the arms at a branch node or the whole path. Rank 1
    and 2 are paths; only G2 and I2(m) need a rank-2 rule.
    """
    n = len(nodes)
    # a connected graph is a tree exactly when its degrees sum to 2(n - 1)
    if sum(len(adjacency[i]) for i in nodes) != 2 * (n - 1):
        raise NotSpherical(f"component on {list(nodes)} contains a circuit")
    if any(len(adjacency[i]) > 3 for i in nodes):
        raise NotSpherical(f"component on {list(nodes)} has a node of degree > 3")
    branch = [i for i in nodes if len(adjacency[i]) == 3]
    big = sorted(m for i in nodes for j in adjacency[i] if i < j and (m := d.m(i, j)) > 3)
    if len(branch) > 1:
        raise NotSpherical(f"component on {list(nodes)} has two branch nodes")

    if branch:
        if big:
            raise NotSpherical(f"branched component on {list(nodes)} with edge label > 3")
        (b,) = branch
        arms = sorted((_chain(adjacency, b, x) for x in adjacency[b]),
                      key=lambda a: (len(a), a[-1]))
        lens = tuple(len(a) for a in arms)
        if lens[:2] == (1, 1):
            # D_n: two short arms become the fork, long arm runs to position 1
            family = "D"
            canon = {b: n - 2}
            short_sorted = sorted((arms[0][0], arms[1][0]))
            canon[short_sorted[0]] = n - 1
            canon[short_sorted[1]] = n
            for k, lab in enumerate(arms[2]):
                canon[lab] = n - 3 - k
        elif lens in ((1, 2, 2), (1, 2, 3), (1, 2, 4)):
            family = "E"
            canon = {b: 4, arms[0][0]: 2}
            # the length-2 arm holds positions 3 (inner) and 1 (leaf);
            # for E_6 the tie between the two length-2 arms is broken by leaf label
            canon[arms[1][0]] = 3
            canon[arms[1][1]] = 1
            for k, lab in enumerate(arms[2]):
                canon[lab] = 5 + k
        else:
            raise NotSpherical(f"component on {list(nodes)}: branched shape {lens} is not finite")
        return ComponentType(family, n, tuple(sorted(canon.items())))

    path = _chain(adjacency, None, next(i for i in nodes if len(adjacency[i]) < 2))
    labels = [d.m(path[k], path[k + 1]) for k in range(n - 1)]
    if n == 2 and labels[0] > 4:
        canon = ((path[0], 1), (path[1], 2))
        if labels[0] == 6:
            return ComponentType("G", 2, canon)
        return ComponentType("I2", 2, canon, m=labels[0])
    if len(big) > 1 or (big and big[-1] >= 6):
        raise NotSpherical(f"path component on {list(nodes)} with labels {labels} is not finite")
    if not big:
        family, ordered = "A", path
    elif big == [4]:
        pos = labels.index(4)
        if pos == n - 2:
            family, ordered = "B", path
        elif pos == 0:
            family, ordered = "B", path[::-1]
        elif n == 4 and pos == 1:
            family, ordered = "F", path
        else:
            raise NotSpherical(
                f"path component on {list(nodes)} with interior double edge is not finite"
            )
    else:
        if n not in (3, 4):
            raise NotSpherical(f"path component on {list(nodes)} with a 5-edge and rank {n}")
        pos = labels.index(5)
        if pos == 0:
            family, ordered = "H", path
        elif pos == n - 2:
            family, ordered = "H", path[::-1]
        else:
            raise NotSpherical(f"path component on {list(nodes)} with interior 5-edge")
    return ComponentType(family, n, tuple((lab, k + 1) for k, lab in enumerate(ordered)))


def _classify_induced(
    d: CoxeterDiagram, keep: Optional[Iterable[int]] = None
) -> tuple[ComponentType, ...]:
    """Types of the components of the subdiagram of d induced on keep
    (nodes of d; all of d when None), ordered by smallest label.

    The subdiagram is classified in place: d's adjacency, filtered to keep,
    gives its components and their shapes, and d gives the bond labels, so
    no restricted copy is built. The types equal classify(restrict(d, keep)).

    Each component is classified once per diagram. Its type depends only on
    d and its nodes, since the filtered adjacency restricted to a component
    is d's adjacency on it, so the type is kept in d._component_types under
    the sorted nodes, and a later call that meets the same node set reads it.
    """
    adjacency = d._adjacency
    if keep is not None:
        keep = set(keep)
        adjacency = {i: tuple(j for j in adjacency[i] if j in keep) for i in keep}
    parts = _partition(adjacency, adjacency.__getitem__)
    kept = d._component_types
    for c in parts:
        if c not in kept:
            kept[c] = _classify_component(d, adjacency, c)
    return tuple(kept[c] for c in parts)


def classify(d: CoxeterDiagram) -> tuple[ComponentType, ...]:
    """Recognized types of all components, ordered by smallest label.

    d is classified once, in place, on first use (new_diagram does it to
    check sphericity), and every later call reads that classification.
    """
    return d._types


def component_type(d: CoxeterDiagram, i: int) -> ComponentType:
    """Recognized type of the connected component holding node i: a
    lookup in d's one classification, which classifies nothing again."""
    for ct in d._types:
        for label, _ in ct.canonical:
            if label == i:
                return ct
    raise UnknownNode(f"node {i} not in diagram")


def type_name(d: CoxeterDiagram) -> str:
    """Human-readable type, e.g. 'A5', 'B3+A1', 'I2(7)'."""
    if not d.nodes:
        return "empty"
    return "+".join(t.name for t in classify(d))


def is_automorphism(d: CoxeterDiagram, p: Permutation) -> bool:
    """p permutes the nodes and carries the labeled edges onto themselves;
    as p is a bijection, the unjoined pairs then go to unjoined pairs."""
    if p.domain != d.node_set:
        return False
    return {(*sorted((p.of(i), p.of(j))), m) for i, j, m in d.edges} == d.edges


def check_automorphisms(d: CoxeterDiagram, g: AutGroup) -> None:
    """Raise NotAnAutomorphism unless every generator preserves the matrix."""
    if set(g.domain) != set(d.nodes):
        raise NotAnAutomorphism("automorphism group domain differs from the node set")
    for p in g.generators:
        if not is_automorphism(d, p):
            raise NotAnAutomorphism(f"{p.cycle_string()} does not preserve the Coxeter matrix")


def orbits(d: CoxeterDiagram, g: AutGroup) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the node set, orbits ordered by smallest member.

    The generators are checked against d on every call; the partition is
    g's own, computed once per group.
    """
    check_automorphisms(d, g)
    return g._orbits
