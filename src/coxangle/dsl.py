"""Line-oriented diagram-specification format.

Grammar ('#' starts a comment, blank lines ignored, LF or CRLF):

    diagram <builtin-name | custom>
    nodes <int>+            # custom only, required there
    edge <i> <j> <m>        # custom only, zero or more
    gamma <cycles>          # optional, one generator per line, e.g. (1 5)(2 4)
    anisotropic <int>+      # optional

Unknown keys are errors. A gamma or anisotropic clause makes the payload a
TitsDiagram; with neither, the payload is the plain CoxeterDiagram. The
renderer always emits the custom form, and a Tits payload with trivial
symmetry and empty kernel gets an explicit identity gamma clause so the
payload kind survives a round trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from . import diagram as diag
from . import tits as tits_mod
from .diagram import AutGroup, CoxeterDiagram, Permutation
from .errors import CoxangleError, ParseError
from .tits import TitsDiagram

if TYPE_CHECKING:
    # annotation only: a runtime typing.Union would sit in typing's cache
    # and keep every re-imported copy of these classes (and their modules)
    # alive
    Payload = Union[TitsDiagram, CoxeterDiagram]

_CYCLE = re.compile(r"\(([^()]*)\)")


@dataclass
class SpecDocument:
    source: str
    payload: Payload
    filename: Optional[str] = None
    spans: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def diagram(self) -> CoxeterDiagram:
        if isinstance(self.payload, TitsDiagram):
            return self.payload.diagram
        return self.payload

    @property
    def tits(self) -> TitsDiagram:
        """The payload as a Tits diagram; plain diagrams become quasi-split."""
        if isinstance(self.payload, TitsDiagram):
            return self.payload
        return tits_mod.tits_diagram(self.payload)


def _ints(words: list[str], line_no: int, line: str, key: str) -> list[int]:
    out = []
    for w in words:
        try:
            out.append(int(w))
        except ValueError:
            raise ParseError(
                f"{key} expects integers, got {w!r}",
                line_no,
                line.index(w) + 1,
            ) from None
    return out


def _parse_cycles(rest: str, line_no: int, line: str) -> list[tuple[int, ...]]:
    stripped = _CYCLE.sub(" ", rest)
    if stripped.strip():
        bad = stripped.strip().split()[0]
        raise ParseError(
            f"gamma expects disjoint cycles in parentheses, got {bad!r}",
            line_no,
            line.index(bad) + 1,
        )
    cycles = []
    seen: set[int] = set()
    paren_cols = [k + 1 for k, ch in enumerate(line) if ch == "("]
    for m, col in zip(_CYCLE.finditer(rest), paren_cols):
        inner = m.group(1).split()
        if not inner:
            raise ParseError("empty cycle in gamma clause", line_no, line.index("(") + 1)
        cycle = tuple(_ints(inner, line_no, line, "gamma"))
        for x in cycle:
            if x in seen:
                raise ParseError(
                    f"gamma expects disjoint cycles, {x} occurs twice", line_no, col
                )
            seen.add(x)
        cycles.append(cycle)
    if not cycles:
        raise ParseError("gamma clause has no cycles", line_no)
    return cycles


def parse_spec(
    text: str, filename: Optional[str] = None, require_valid: bool = True
) -> SpecDocument:
    """Parse (and by default validate) one specification document.

    Parse failures raise ParseError with position; with require_valid, a
    Tits payload that fails the structural conditions raises
    InvalidTitsDiagram carrying the violations.
    """
    diagram_name: Optional[str] = None
    diagram_line = 0
    nodes: Optional[list[int]] = None
    edges: list[tuple[int, int, int]] = []
    edge_lines: list[int] = []
    gamma_cycles: list[list[tuple[int, ...]]] = []
    aniso: Optional[list[int]] = None
    spans: dict[str, tuple[int, int]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        key, rest = words[0], words[1:]
        if diagram_name is None and key != "diagram":
            raise ParseError(
                f"expected a diagram clause first, got {key!r}", line_no, 1
            )
        if key in ("nodes", "edge") and diagram_name != "custom":
            raise ParseError(
                f"{key} clause is only valid after 'diagram custom'", line_no, 1
            )
        if key in ("diagram", "nodes", "anisotropic") and key in spans:
            raise ParseError(f"duplicate {key} clause", line_no, 1)
        if key in ("nodes", "anisotropic") and not rest:
            raise ParseError(f"{key} expects at least one label", line_no, 1)
        if key == "diagram":
            if len(rest) != 1:
                raise ParseError("diagram expects exactly one name", line_no, 1)
            diagram_name = rest[0]
            diagram_line = line_no
        elif key == "nodes":
            nodes = _ints(rest, line_no, line, key)
            if len(set(nodes)) != len(nodes):
                raise ParseError("duplicate node labels", line_no, 1)
        elif key == "edge":
            if len(rest) != 3:
                raise ParseError("edge expects: edge <i> <j> <m>", line_no, 1)
            i, j, m = _ints(rest, line_no, line, key)
            if m < 2:
                raise ParseError(f"edge label must be >= 2, got {m}", line_no, 1)
            edges.append((i, j, m))
            edge_lines.append(line_no)
        elif key == "gamma":
            gamma_cycles.append(_parse_cycles(" ".join(rest), line_no, line))
        elif key == "anisotropic":
            aniso = _ints(rest, line_no, line, key)
        else:
            raise ParseError(f"unknown key {key!r}", line_no, 1)
        spans[key] = (spans.get(key, (line_no,))[0], line_no)

    if diagram_name is None:
        raise ParseError("empty specification: no diagram clause", 1, 1)
    if diagram_name == "custom":
        if nodes is None:
            raise ParseError("diagram custom requires a nodes clause", diagram_line, 1)
        known = set(nodes)
        for (i, j, _), ln in zip(edges, edge_lines):
            if i not in known or j not in known:
                missing = i if i not in known else j
                raise ParseError(f"edge references unknown node {missing}", ln, 1)
    try:
        d = (diag.new_diagram(nodes, edges) if diagram_name == "custom"
             else diag.builtin(diagram_name))
    except CoxangleError as exc:
        raise ParseError(str(exc), diagram_line, 1) from exc

    if not gamma_cycles and aniso is None:
        return SpecDocument(text, d, filename, spans)

    try:
        perms = [Permutation.from_cycles(cycles, d.nodes) for cycles in gamma_cycles]
        gamma = AutGroup.generated_by(perms, d.nodes)
        payload = TitsDiagram(d, gamma, frozenset(aniso or ()))
    except CoxangleError as exc:
        line_no = spans.get("gamma", spans.get("anisotropic", (diagram_line,) * 2))[0]
        raise ParseError(str(exc), line_no, 1) from exc
    if require_valid:
        tits_mod.ensure_valid(payload)
    return SpecDocument(text, payload, filename, spans)


def render(payload: Payload) -> str:
    """Emit DSL text (always the custom form) that reparses to this payload."""
    if isinstance(payload, TitsDiagram):
        d = payload.diagram
    else:
        d = payload
    lines = ["diagram custom", "nodes " + " ".join(str(n) for n in d.nodes)]
    for i, j, m in sorted(d.edges):
        lines.append(f"edge {i} {j} {m}")
    if isinstance(payload, TitsDiagram):
        gens = payload.gamma.generators
        for p in gens:
            lines.append("gamma " + p.cycle_string())
        if payload.anisotropic:
            lines.append(
                "anisotropic " + " ".join(str(a) for a in sorted(payload.anisotropic))
            )
        elif not gens:
            # keep the payload a Tits diagram across the round trip
            lines.append(f"gamma ({d.nodes[0]})")
    return "\n".join(lines) + "\n"
