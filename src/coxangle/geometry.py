"""Exact rational root-system realizations in conventional ambient coordinates.

Only crystallographic diagrams (all edge labels in {2, 3, 4, 6}) are realized.
Per component: A_n lives in dimension n+1, B_n and D_n in n, the E family in 8,
F_4 in 4, G_2 in 3; a reducible diagram gets the orthogonal direct sum of its
component blocks. Fundamental weights are solved exactly from the duality
system inside the rational span of the simple roots, so all orbit vectors of a
given weight share one squared norm and angles live on the unit sphere after a
single normalization that never has to be carried out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from . import diagram as diag
from .diagram import ComponentType, CoxeterDiagram
from .errors import DimensionMismatch, NonCrystallographic, UnknownNode

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def as_vector(coords: Iterable) -> Vector:
    return tuple(Fraction(c) for c in coords)


@dataclass(frozen=True, eq=False)
class Realization:
    """Exact realization of a crystallographic diagram as a reflection group."""

    diagram: CoxeterDiagram
    ambient_dim: int
    simple_roots: dict[int, Vector] = field(repr=False)
    coroots: dict[int, Vector] = field(repr=False)
    fundamental_weights: dict[int, Vector] = field(repr=False)


def _unit(dim: int, k: int) -> Vector:
    return tuple(Fraction(1) if i == k else _ZERO for i in range(dim))


def _component_roots(ct: ComponentType) -> tuple[int, dict[int, Vector]]:
    """Ambient block dimension and simple roots by canonical position."""
    fam, n = ct.family, ct.rank
    if fam == "A":
        dim = n + 1
        roots = {i: vsub(_unit(dim, i - 1), _unit(dim, i)) for i in range(1, n + 1)}
        return dim, roots
    if fam == "B":
        dim = n
        roots = {i: vsub(_unit(dim, i - 1), _unit(dim, i)) for i in range(1, n)}
        roots[n] = _unit(dim, n - 1)
        return dim, roots
    if fam == "D":
        dim = n
        roots = {i: vsub(_unit(dim, i - 1), _unit(dim, i)) for i in range(1, n)}
        roots[n] = vadd(_unit(dim, n - 2), _unit(dim, n - 1))
        return dim, roots
    if fam == "E":
        dim = 8
        roots = {
            1: tuple([_HALF] + [-_HALF] * 6 + [_HALF]),
            2: vadd(_unit(8, 0), _unit(8, 1)),
        }
        for i in range(3, n + 1):
            roots[i] = vsub(_unit(8, i - 2), _unit(8, i - 3))
        return dim, roots
    if fam == "F":
        return 4, {
            1: vsub(_unit(4, 1), _unit(4, 2)),
            2: vsub(_unit(4, 2), _unit(4, 3)),
            3: _unit(4, 3),
            4: (_HALF, -_HALF, -_HALF, -_HALF),
        }
    if fam == "G":
        return 3, {
            1: vsub(_unit(3, 0), _unit(3, 1)),
            2: (Fraction(-2), Fraction(1), Fraction(1)),
        }
    raise NonCrystallographic(f"no rational realization for type {ct.name}")


def _solve(matrix: list[list[Fraction]], rhs_count: int) -> list[list[Fraction]]:
    """Invert the square system: returns columns x with M x = e_i, i < rhs_count."""
    n = len(matrix)
    aug = [row[:] + [Fraction(1) if c == r else _ZERO for c in range(rhs_count)]
           for r, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [[aug[r][n + i] for r in range(n)] for i in range(rhs_count)]


def _crystallographic(types: tuple[ComponentType, ...]) -> tuple[ComponentType, ...]:
    """types; raises NonCrystallographic on H or I_2(m) among them."""
    bad = [ct.name for ct in types if not ct.crystallographic]
    if bad:
        raise NonCrystallographic(f"components {bad} have no rational root-system realization")
    return types


def realize(d: CoxeterDiagram) -> Realization:
    """Exact realization of d, block by block over classify(d), d's one
    classification; raises NonCrystallographic on H or I_2(m) parts."""
    comps = _crystallographic(diag.classify(d))
    total_dim = 0
    blocks: list[tuple[ComponentType, int, dict[int, Vector]]] = []
    for ct in comps:
        dim, roots = _component_roots(ct)
        blocks.append((ct, total_dim, roots))
        total_dim += dim

    def place(offset: int, v: Vector) -> Vector:
        return tuple(
            v[i - offset] if offset <= i < offset + len(v) else _ZERO
            for i in range(total_dim)
        )

    simple_roots: dict[int, Vector] = {}
    coroots: dict[int, Vector] = {}
    weights: dict[int, Vector] = {}
    for ct, offset, roots_by_pos in blocks:
        label_at = ct.label_at
        n = ct.rank
        # Cartan system: row j, column k holds <alpha_k, alpha_j^vee>
        alphas = [roots_by_pos[p] for p in range(1, n + 1)]
        norms = [dot(a, a) for a in alphas]
        cartan = [
            [Fraction(2) * dot(alphas[k], alphas[j]) / norms[j] for k in range(n)]
            for j in range(n)
        ]
        weight_cols = _solve(cartan, n)
        for pos in range(1, n + 1):
            lab = label_at[pos]
            alpha = alphas[pos - 1]
            simple_roots[lab] = place(offset, alpha)
            coroots[lab] = place(offset, vscale(Fraction(2) / norms[pos - 1], alpha))
            w = tuple(
                sum((weight_cols[pos - 1][k] * alphas[k][c] for k in range(n)), _ZERO)
                for c in range(len(alphas[0]))
            )
            weights[lab] = place(offset, w)
    return Realization(d, total_dim, simple_roots, coroots, weights)


def reflect(r: Realization, i: int, v: Vector) -> Vector:
    """Simple reflection s_i applied to v."""
    if i not in r.simple_roots:
        raise UnknownNode(f"node {i} not in realization")
    if len(v) != r.ambient_dim:
        raise DimensionMismatch(f"vector has dimension {len(v)}, ambient is {r.ambient_dim}")
    c = dot(v, r.coroots[i])
    if c == 0:
        return v
    return vsub(v, vscale(c, r.simple_roots[i]))
