"""Diagram folding under an automorphism group.

The folded diagram has one node per orbit J, standing for w_J, the longest
element of the parabolic on J. Edge labels come from positive-root counts.
Let N(X) be the number of positive roots of W_X, which is the length of its
longest element. For two orbits J and K joined by an edge of M, the longest
element of W_{J∪K} is the alternating product of w_J and w_K with m(J, K)
factors, and lengths add along it (Steinberg, *Lectures on Chevalley
Groups*, on W^σ; Lusztig, *Hecke Algebras with Unequal Parameters*, ch. 16,
the quasisplit case). So

    m(J, K) = 2·N(J∪K) / (N(J) + N(K)).

When m is odd the product can start with either factor, which forces
N(J) = N(K), so the formula holds for every m. Orbits with no edge between
them commute (m = 2). N is the sum of d_i - 1 over the degrees d_i of
each component (ComponentType.degrees), so reducible diagrams and
component-swapping groups need no special case and nothing is realized.
Each orbit and each joined orbit pair is classified in place
(diagram._classify_induced), with no restricted copy.

Nothing is derived twice. The orbits are g's own partition
(AutGroup._orbits) and the crystallographic check reads d's one
classification. fold checks g's generators against d; fold_tits folds
right after validate has checked them, and enumerate_indices right
after orbits has, so both fold through _fold with no second check.

No matrix is built here. The test suite realizes each w_J
(weyl.longest_element on geometry.realize) and checks every folded bond
against the order of their product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import diagram as diag
from .diagram import AutGroup, CoxeterDiagram
from .errors import NonCrystallographic


@dataclass
class FoldResult:
    """Folded diagram and the orbit projection.

    Folded nodes are labeled by the smallest member of their orbit. The
    bonds come from positive-root counts, m(J, K) = 2·N(J∪K) / (N(J) + N(K))
    (length additivity on the fixed subgroup: Steinberg; Lusztig ch. 16; see
    the module docstring).
    """

    folded: CoxeterDiagram
    node_map: dict[int, int]


def _positive_roots(d: CoxeterDiagram, nodes: Optional[Iterable[int]] = None) -> int:
    """N(X) for the subdiagram X of d induced on nodes (all of d when None):
    the sum of d_i - 1 over the degrees d_i of its components, classified
    in place."""
    return sum(k - 1 for ct in diag._classify_induced(d, nodes) for k in ct.degrees)


def fold(d: CoxeterDiagram, g: AutGroup) -> FoldResult:
    """Fold d by g; see FoldResult. Trivial g returns d unchanged.

    Raises NotAnAutomorphism unless every generator of g preserves d.
    g swapping the two nodes of I_2(m) folds to A_1 by the same formula:
    the one orbit has no bond to another, and no matrix is needed.
    """
    diag.check_automorphisms(d, g)
    return _fold(d, g)


def _fold(d: CoxeterDiagram, g: AutGroup) -> FoldResult:
    """fold, for a g whose generators are already checked against d."""
    orbits = g._orbits
    node_map = {i: orbit[0] for orbit in orbits for i in orbit}  # orbits are sorted
    if g.is_trivial:
        return FoldResult(d, node_map)
    if not (d.rank == 2 and len(orbits) == 1) and not all(
        ct.crystallographic for ct in diag.classify(d)
    ):
        raise NonCrystallographic(
            "folding with nontrivial symmetry needs a crystallographic diagram "
            "(or a single rank-2 diagram)"
        )
    members = {orbit[0]: orbit for orbit in orbits}
    count = {a: _positive_roots(d, orbit) for a, orbit in members.items()}
    joined = {tuple(sorted((node_map[i], node_map[j]))) for i, j, _ in d.edges}
    entries = [
        (a, b, 2 * _positive_roots(d, members[a] + members[b]) // (count[a] + count[b]))
        for a, b in sorted(joined)
        if a != b
    ]
    folded = diag.new_diagram(sorted(members), entries)
    return FoldResult(folded, node_map)


def fold_tits(t) -> tuple[FoldResult, frozenset[int]]:
    """Fold a Tits diagram's (M, Gamma) and push A forward to orbit labels."""
    from .tits import ensure_valid

    ensure_valid(t)
    result = _fold(t.diagram, t.gamma)
    folded_a = frozenset(result.node_map[a] for a in t.anisotropic)
    return result, folded_a
