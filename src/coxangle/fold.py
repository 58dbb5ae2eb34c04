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

No matrix is built here. The test suite realizes each w_J
(weyl.longest_element on geometry.realize) and checks every folded bond
against the order of their product.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _positive_roots(d: CoxeterDiagram) -> int:
    """N(d), the number of positive roots of W_d: the sum of d_i - 1 over
    the degrees d_i of its components."""
    return sum(k - 1 for ct in diag.classify(d) for k in ct.degrees)


def fold(d: CoxeterDiagram, g: AutGroup) -> FoldResult:
    """Fold d by g; see FoldResult. Trivial g returns d unchanged."""
    diag.check_automorphisms(d, g)
    if g.is_trivial:
        return FoldResult(d, {i: i for i in d.nodes})
    orbits = diag.orbits(d, g)
    node_map = {i: min(orbit) for orbit in orbits for i in orbit}
    if not all(ct.crystallographic for ct in diag.classify(d)):
        if d.rank == 2 and len(orbits) == 1:
            # I_2(m) swapped onto itself: W_gamma is generated by the single
            # involution w_0, so the fold is A_1; no rational matrices exist
            label = min(d.nodes)
            folded = diag.new_diagram([label], [])
            return FoldResult(folded, node_map)
        raise NonCrystallographic(
            "folding with nontrivial symmetry needs a crystallographic diagram "
            "(or a single rank-2 diagram)"
        )
    members = {min(orbit): orbit for orbit in orbits}
    count = {a: _positive_roots(diag.restrict(d, orbit)) for a, orbit in members.items()}
    joined = {tuple(sorted((node_map[i], node_map[j]))) for i, j, _ in d.edges}
    entries = [
        (a, b, 2 * _positive_roots(diag.restrict(d, members[a] + members[b]))
         // (count[a] + count[b]))
        for a, b in sorted(joined)
        if a != b
    ]
    folded = diag.new_diagram(sorted(members), entries)
    return FoldResult(folded, node_map)


def fold_tits(t) -> tuple[FoldResult, frozenset[int]]:
    """Fold a Tits diagram's (M, Gamma) and push A forward to orbit labels."""
    from .tits import ensure_valid

    ensure_valid(t)
    result = fold(t.diagram, t.gamma)
    folded_a = frozenset(result.node_map[a] for a in t.anisotropic)
    return result, folded_a
