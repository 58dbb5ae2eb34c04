"""Weyl-group computations on a realization: orbit enumeration, group order,
longest elements, the opposition involution, and element orders.

The opposition involution is read from the component-type table, not
from a realization. Longest elements and element orders serve the fold's
generators, which are built only when FoldResult.generators is read, and
the test oracles; no CLI request builds them.

Orbit enumeration serves the `orbit` command and the test oracles; the
angle path uses a closed form instead. Orbit vectors are scaled to integer
tuples so the BFS runs on plain int arithmetic with set-of-tuples
deduplication; the scale also clears the denominators of the seed's coroot
pairings, which keeps the walk exact for every rational seed (see _orbit).
orbit_size counts the orbit without turning it into Fraction vectors. The
default safety budget of 10^7 vectors clears the largest fundamental-weight
orbit in rank 8 (483 840) with margin.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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

_budget_override: Optional[int] = None


def orbit_budget() -> int:
    """Effective orbit cap: explicit override, else environment, else default."""
    if _budget_override is not None:
        return _budget_override
    env = os.environ.get(ORBIT_BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    return DEFAULT_ORBIT_BUDGET


def set_orbit_budget(n: Optional[int]) -> None:
    """Set (or with None, clear) the process-wide orbit budget override."""
    global _budget_override
    _budget_override = n


Matrix = tuple[tuple[Fraction, ...], ...]


def _identity_matrix(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if r == c else zero for c in range(n)) for r in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
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
    """|W| as the product of the degrees of its components."""
    return math.prod(k for ct in diag.classify(d) for k in ct.degrees)


# (support of s*alpha, its nonzero entries, their squared norm, s)
_Gen = tuple[tuple[int, ...], tuple[int, ...], int, int]


def _orbit_ints(
    seed: tuple[int, ...], gens: Sequence[_Gen], budget: int
) -> set[tuple[int, ...]]:
    """Integer orbit BFS; the scale chosen by _orbit keeps every step exact."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for u in frontier:
            for support, avals, dd, _ in gens:
                c = 0
                for k in range(len(support)):
                    c += u[support[k]] * avals[k]
                c += c
                if c == 0:
                    continue
                q, rem = divmod(c, dd)
                if rem:
                    raise AssertionError("unreachable")
                v = list(u)
                for k in range(len(support)):
                    v[support[k]] -= q * avals[k]
                tv = tuple(v)
                if tv not in seen:
                    if len(seen) >= budget:
                        raise OrbitBudgetExceeded(
                            f"orbit exceeded the safety budget of {budget} vectors"
                        )
                    seen.add(tv)
                    nxt.append(tv)
        frontier = nxt
    return seen


def _integer_gens(r: Realization) -> tuple[_Gen, ...]:
    """One _Gen per simple root alpha, s the lcm of its denominators."""
    gens = []
    for i in r.simple_roots:
        alpha = r.simple_roots[i]
        scale = math.lcm(*(c.denominator for c in alpha))
        avals_full = [int(c * scale) for c in alpha]
        support = tuple(k for k, a in enumerate(avals_full) if a)
        avals = tuple(avals_full[k] for k in support)
        dd = sum(a * a for a in avals)
        gens.append((support, avals, dd, scale))
    return tuple(gens)


def _orbit(
    r: Realization, v: Vector, budget: Optional[int] = None
) -> tuple[int, set[tuple[int, ...]]]:
    """(scale, orbit of scale*v as integer tuples).

    scale is L*P. L is the lcm of the denominators of v and of every simple
    root; P is the lcm of the denominators of the coroot pairings
    <v, alpha_i^vee>. The Cartan integers are integers, so every pairing
    along the orbit stays in (1/P)Z, and each reflection moves scale*v by an
    integer multiple of L*alpha_i: the walk is exact for every rational v.
    A weight has P = 1. One lcm over all the denominators is not enough.
    """
    if len(v) != r.ambient_dim:
        raise DimensionMismatch(
            f"vector has dimension {len(v)}, ambient is {r.ambient_dim}"
        )
    if budget is None:
        budget = orbit_budget()
    v = geom.as_vector(v)
    gens = _integer_gens(r)
    lcm = math.lcm(*(c.denominator for c in v), *(g[3] for g in gens))
    u = tuple(int(c * lcm) for c in v)
    # with a = s*alpha: <v, alpha^vee> = 2*s*(u . a) / (lcm * |a|^2)
    pairing_lcm = math.lcm(*(
        lcm * dd // math.gcd(2 * s * sum(u[k] * a for k, a in zip(support, avals)),
                             lcm * dd)
        for support, avals, dd, s in gens
    ))
    seed = tuple(c * pairing_lcm for c in u)
    return lcm * pairing_lcm, _orbit_ints(seed, gens, budget)


def weyl_orbit(r: Realization, v: Vector, budget: Optional[int] = None) -> frozenset[Vector]:
    """The full W-orbit {w·v}, closed under the simple reflections.

    Vectors are deduplicated exactly. Raises OrbitBudgetExceeded beyond the
    safety cap (default 10^7 vectors, see orbit_budget()).
    """
    scale, orbit = _orbit(r, v, budget)
    inv = Fraction(1, scale)
    return frozenset(tuple(inv * c for c in u) for u in orbit)


def orbit_size(r: Realization, v: Vector, budget: Optional[int] = None) -> int:
    """len(weyl_orbit(r, v, budget)), without building the Fraction vectors."""
    return len(_orbit(r, v, budget)[1])


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


def _component_opposition(ct: diag.ComponentType) -> dict[int, int]:
    """sigma on one component, read from its type in canonical positions.

    A_n reverses the path, D_n with n odd swaps the fork, E_6 is
    (1 6)(3 5), I_2(m) with m odd swaps its two nodes; every other type
    (B, C, D_n with n even, E_7, E_8, F_4, G_2, H, even I_2) has w_0 = -1
    and sigma is the identity (Bourbaki, Lie Groups ch. VI, plates I-IX).
    """
    n = ct.rank
    if ct.family == "A" or (ct.family == "I2" and ct.m % 2):
        positions = {k: n + 1 - k for k in range(1, n + 1)}
    elif ct.family == "D" and n % 2:
        positions = {n - 1: n, n: n - 1}
    elif ct.family == "E" and n == 6:
        positions = {1: 6, 6: 1, 3: 5, 5: 3}
    else:
        positions = {}
    label_at = ct.label_at
    return {
        lab: label_at[positions.get(pos, pos)] for lab, pos in ct.canonical
    }


def opposition(d: CoxeterDiagram) -> Permutation:
    """The involution sigma with w_0(alpha_i) = -alpha_sigma(i), componentwise.

    sigma depends only on the component type, so it is read from the type
    table (see _component_opposition); nothing is realized. The test suite
    checks the table against the realized longest element.
    """
    mapping: dict[int, int] = {}
    for ct in diag.classify(d):
        mapping.update(_component_opposition(ct))
    return Permutation.from_dict(mapping)
