"""Weyl-group computations: orbit size and orbit enumeration, group order,
longest elements, the opposition involution, and element orders.

No CLI request enumerates anything here. The opposition involution is
read from each component's type (diagram.ComponentType.opposite), and
orbit_size, which the `orbit` command calls, is the index |W|/|W_J| of the
fundamental weight's stabilizer, read off the degrees of the node's
component and of the rest of it. It reads the component from the
diagram's one classification, so an orbit request classifies only the
whole diagram and the stabilizer's nodes. Longest elements, element
orders and orbit enumeration serve the test oracles (the fold's w_J
generators among them).

weyl_orbit enumerates W*v by one walk (_walk) in fundamental-weight
coordinates with integer Cartan entries: it starts from the dominant
weight, and each other weight has exactly one parent, so the walk is a
reverse search that keeps no visited set; each weight is mapped back to
an ambient vector. orbit_size and weyl_orbit share one safety budget: an
orbit of more weights than the budget raises OrbitBudgetExceeded. The
default of 10^7 vectors clears the largest fundamental-weight orbit in
rank 8 (483 840) with margin.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from . import diagram as diag
from . import geometry as geom
from .diagram import CoxeterDiagram, Permutation
from .errors import (
    DimensionMismatch,
    OrbitBudgetExceeded,
    OrderBudgetExceeded,
    UnknownNode,
)
from .geometry import Realization, Vector

DEFAULT_ORBIT_BUDGET = 10_000_000
ORBIT_BUDGET_ENV = "COXANGLE_ORBIT_BUDGET"


def orbit_budget() -> int:
    """Effective orbit cap: the environment variable, else the default."""
    env = os.environ.get(ORBIT_BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    return DEFAULT_ORBIT_BUDGET


Matrix = tuple[tuple[Fraction, ...], ...]


def _identity_matrix(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if r == c else zero for c in range(n)) for r in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


@dataclass(frozen=True)
class OrthogonalElement:
    """A Weyl-group element in its ambient matrix form.

    word, when present, lists simple-reflection indices whose matrices multiply
    (left to right) to `matrix`.
    """

    matrix: Matrix
    word: Optional[tuple[int, ...]] = None

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, v: Vector) -> Vector:
        return _mat_vec(self.matrix, v)

    def times(self, other: "OrthogonalElement") -> "OrthogonalElement":
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return OrthogonalElement(_mat_mul(self.matrix, other.matrix), word)

    @property
    def is_identity(self) -> bool:
        return self.matrix == _identity_matrix(self.dim)

    @staticmethod
    def identity(dim: int) -> "OrthogonalElement":
        return OrthogonalElement(_identity_matrix(dim), ())


def reflection_element(r: Realization, i: int) -> OrthogonalElement:
    """The simple reflection s_i as an ambient matrix."""
    if i not in r.simple_roots:
        raise UnknownNode(f"node {i} not in realization")
    alpha, beta = r.simple_roots[i], r.coroots[i]
    n = r.ambient_dim
    one, zero = Fraction(1), Fraction(0)
    mat = tuple(
        tuple((one if r_ == c else zero) - alpha[r_] * beta[c] for c in range(n))
        for r_ in range(n)
    )
    return OrthogonalElement(mat, (i,))


def group_order(d: CoxeterDiagram) -> int:
    """|W| as the product of the degrees of its components, read from d's
    one classification."""
    return _order(diag.classify(d))


def _order(types: Iterable[diag.ComponentType]) -> int:
    return math.prod(k for ct in types for k in ct.degrees)


def _budget_exceeded(budget: int) -> OrbitBudgetExceeded:
    return OrbitBudgetExceeded(f"orbit exceeded the safety budget of {budget} vectors")


def _walk(
    cartan: Sequence[Sequence[int]], lam: Sequence[int], budget: Optional[int]
) -> Iterator[tuple[int, ...]]:
    """Yield every element of W*lam once, in fundamental-weight coordinates.

    s_j changes coordinate k by -mu_j * A_jk. The walk reflects lam to the
    dominant chamber, then searches the tree in which the parent of a
    non-dominant mu is s_j mu for the first j with mu_j < 0 (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12; Avis and Fukuda, Reverse
    search for enumeration, 1996), so it keeps no visited set. Raises
    OrbitBudgetExceeded at element budget + 1; one element never raises.
    """
    if budget is None:
        budget = orbit_budget()
    limit = max(budget, 1)
    rows = tuple(enumerate(cartan))
    links = [[(k, a) for k, a in enumerate(row) if a] for row in cartan]
    mu = tuple(lam)
    while (j := next((j for j, c in enumerate(mu) if c < 0), -1)) >= 0:
        mu = tuple(x - mu[j] * a for x, a in zip(mu, cartan[j]))
    stack = [mu]
    count = 0
    while stack:
        mu = stack.pop()
        count += 1
        if count > limit:
            raise _budget_exceeded(budget)
        yield mu
        for j, row in rows:
            c = mu[j]
            if c <= 0:
                continue
            # s_j mu is a child when no coordinate before j is negative in it
            for k in range(j):
                if mu[k] < c * row[k]:
                    break
            else:
                nu = list(mu)
                for k, a in links[j]:
                    nu[k] -= c * a
                stack.append(tuple(nu))


def weyl_orbit(r: Realization, v: Vector, budget: Optional[int] = None) -> frozenset[Vector]:
    """The full W-orbit {w·v}, closed under the simple reflections.

    v enters the walk through its coroot pairings, scaled by P, the lcm of
    their denominators; each weight mu maps back to v_perp + (1/P) sum
    mu_k omega_k, v_perp being the part of v fixed by W. Raises
    OrbitBudgetExceeded beyond the safety cap (see orbit_budget()).
    """
    if len(v) != r.ambient_dim:
        raise DimensionMismatch(
            f"vector has dimension {len(v)}, ambient is {r.ambient_dim}"
        )
    v = geom.as_vector(v)
    nodes = tuple(r.simple_roots)
    cartan = [[int(geom.dot(r.simple_roots[j], r.coroots[k])) for k in nodes] for j in nodes]
    weights = [r.fundamental_weights[k] for k in nodes]
    pairings = [geom.dot(v, r.coroots[k]) for k in nodes]
    p = math.lcm(*(c.denominator for c in pairings))
    fixed = v
    for c, w in zip(pairings, weights):
        fixed = geom.vsub(fixed, geom.vscale(c, w))
    q = math.lcm(*(c.denominator for u in weights + [fixed] for c in u))
    base = [int(c * q * p) for c in fixed]
    # cols[t] holds coordinate t of q*omega_k for every k
    cols = [[int(w[t] * q) for w in weights] for t in range(len(v))]
    points = [
        tuple(b + sum(map(operator.mul, mu, col)) for b, col in zip(base, cols))
        for mu in _walk(cartan, [int(c * p) for c in pairings], budget)
    ]
    # few numerators recur across the orbit, so each Fraction is built once
    frac = {n: Fraction(n, q * p) for n in {n for u in points for n in u}}
    return frozenset(tuple(map(frac.__getitem__, u)) for u in points)


def orbit_size(d: CoxeterDiagram, node: int, budget: Optional[int] = None) -> int:
    """|W·omega_node| as the index |W|/|W_J|; nothing is realized or walked.

    The component of node, which must be crystallographic, is looked up in
    d's one classification (diagram.component_type); its type gives its
    nodes and |W|. The stabilizer of omega_node is the parabolic W_J on
    the rest J of the component (Humphreys, Reflection Groups and Coxeter
    Groups, 1.12), classified in place, and both orders are read off the
    degrees. An orbit larger than the budget raises the OrbitBudgetExceeded
    that weyl_orbit's walk would raise on it, so a budget of n admits an
    orbit of n weights and refuses it at n - 1.
    """
    ct = diag.component_type(d, node)
    geom._crystallographic((ct,))
    budget = orbit_budget() if budget is None else budget
    rest = diag._classify_induced(d, [label for label, _ in ct.canonical if label != node])
    size = _order((ct,)) // _order(rest)
    if size > max(budget, 1):
        raise _budget_exceeded(budget)
    return size


def longest_element(r: Realization, nodes: Optional[Iterable[int]] = None) -> OrthogonalElement:
    """w_0 of the standard parabolic W_J (default: the whole group).

    Greedy descent from the J-dominant vector sum of the fundamental weights:
    while some coroot pairing is positive, reflect it away. The recorded word
    is reduced; its length is the number of positive roots of W_J.
    """
    J = tuple(r.simple_roots) if nodes is None else tuple(sorted(set(nodes)))
    for i in J:
        if i not in r.simple_roots:
            raise UnknownNode(f"node {i} not in realization")
    if not J:
        return OrthogonalElement.identity(r.ambient_dim)
    v = tuple(
        sum((r.fundamental_weights[i][c] for i in J), Fraction(0))
        for c in range(r.ambient_dim)
    )
    refl = {i: reflection_element(r, i) for i in J}
    mat = _identity_matrix(r.ambient_dim)
    word_rev: list[int] = []
    while True:
        moved = False
        for i in J:
            if geom.dot(v, r.coroots[i]) > 0:
                v = geom.reflect(r, i, v)
                mat = _mat_mul(refl[i].matrix, mat)
                word_rev.append(i)
                moved = True
        if not moved:
            break
    return OrthogonalElement(mat, tuple(reversed(word_rev)))


def element_order(g: OrthogonalElement, cap: int = 1000) -> int:
    """Least k >= 1 with g^k = identity; raises past the safety cap."""
    ident = _identity_matrix(g.dim)
    power = g.matrix
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = _mat_mul(power, g.matrix)
    raise OrderBudgetExceeded(f"element order exceeds the cap of {cap}")


def opposition(d: CoxeterDiagram) -> Permutation:
    """The involution sigma with w_0(alpha_i) = -alpha_sigma(i), componentwise.

    sigma depends only on the component type, so it is read from the type
    of each component in d's one classification (ComponentType.opposite);
    nothing is realized. The test suite checks the type against the
    realized longest element. tits reads sigma from the types too, at an
    orbit's labels only (tits._opposed).
    """
    return Permutation.from_dict(
        {label: ct.opposite(label) for ct in diag.classify(d) for label, _ in ct.canonical}
    )
