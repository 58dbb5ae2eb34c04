"""Command-line interface.

Commands wrap the library operations one to one; all exact values are
computed by the library and only formatted here. Exit codes: 0 success,
1 domain or validation error, 2 parse/usage error, 3 catalog mismatch.
In JSON mode errors go to stderr as a single JSON document with a
machine-readable code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Optional

from . import diagram as diag
from . import dsl
from . import tits as tits_mod
from . import weyl
from .angle import Angle
from .diagram import AutGroup, CoxeterDiagram
from .errors import CoxangleError, ParseError
from .fold import fold_tits
from .tits import TitsDiagram

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_CATALOG = 3


def _angle_cells(a: Angle) -> tuple[str, str, str]:
    cos = a.cos_exact
    return str(a), str(cos) if cos is not None else "-", f"{a.radians_approx:.12g}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines)


def _csv(headers: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _emit(fmt: str, headers: list[str], rows: list[list[str]], payload: dict) -> str:
    if fmt == "json":
        return json.dumps(payload, separators=(",", ":"))
    if fmt == "csv":
        return _csv(headers, rows)
    return _table(headers, rows)


def _load_doc(ns) -> dsl.SpecDocument:
    if getattr(ns, "diagram", None):
        d = diag.builtin(ns.diagram)
        return dsl.SpecDocument(source="", payload=d, filename=None)
    spec_path = getattr(ns, "spec", None)
    if not spec_path:
        raise CoxangleError("provide a spec file or --diagram <builtin>")
    try:
        with open(spec_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CoxangleError(f"cannot read {spec_path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {spec_path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    # min-angle and fold validate in fold_tits, so the parse does not
    return dsl.parse_spec(
        text, filename=spec_path,
        require_valid=ns.command not in ("validate", "min-angle", "fold"),
    )


def _diagram_json(d: CoxeterDiagram) -> dict:
    return {
        "type": diag.type_name(d),
        "nodes": list(d.nodes),
        "edges": [list(e) for e in sorted(d.edges)],
    }


def _cmd_validate(ns) -> tuple[str, int]:
    doc = _load_doc(ns)
    report = tits_mod.validate(doc.tits)
    rows = [[v.clause, " ".join(map(str, v.orbit or ())), v.message] for v in report.violations]
    payload = {
        "ok": report.ok,
        "violations": [
            {"clause": v.clause, "orbit": list(v.orbit or ()), "message": v.message}
            for v in report.violations
        ],
    }
    if ns.format == "table" and report.ok:
        return "ok", EXIT_OK
    out = _emit(ns.format, ["clause", "orbit", "message"], rows, payload)
    return out, EXIT_OK if report.ok else EXIT_DOMAIN


def _want_node(ns) -> int:
    if ns.node is None:
        raise CoxangleError("this command needs --node <i>")
    return ns.node


def _cmd_angle(ns) -> tuple[str, int]:
    doc = _load_doc(ns)
    d = doc.diagram
    node = _want_node(ns)
    a = tits_mod.angular_distance(d, node)
    cells = _angle_cells(a)
    out = _emit(
        ns.format,
        ["angle", "cos", "radians_approx"],
        [list(cells)],
        a.to_json(),
    )
    return out, EXIT_OK


def _cmd_min_angle(ns) -> tuple[str, int]:
    doc = _load_doc(ns)
    t = doc.tits
    a, achieved = tits_mod.minimal_angle_report(t)
    verdict = tits_mod.verdict_against_pi_over_3(a)
    angle_s, cos_s, rad_s = _angle_cells(a)
    achieved_s = " ".join("{" + ",".join(map(str, orb)) + "}" for orb in achieved)
    payload = {
        "angle": a.to_json(),
        "verdict": verdict.code,
        "achieved_by": [list(orb) for orb in achieved],
    }
    out = _emit(
        ns.format,
        ["angle", "cos", "radians_approx", "verdict", "achieved_by"],
        [[angle_s, cos_s, rad_s, verdict.code, achieved_s]],
        payload,
    )
    return out, EXIT_OK


def _cmd_fold(ns) -> tuple[str, int]:
    result, folded_a = fold_tits(_load_doc(ns).tits)
    aniso = sorted(folded_a)
    rows = [
        [
            diag.type_name(result.folded),
            " ".join(map(str, result.folded.nodes)),
            " ".join(f"({i},{j},{m})" for i, j, m in sorted(result.folded.edges)),
            " ".join(f"{k}->{v}" for k, v in sorted(result.node_map.items())),
            " ".join(map(str, aniso)),
        ]
    ]
    payload = {
        "folded": _diagram_json(result.folded),
        "node_map": {str(k): v for k, v in sorted(result.node_map.items())},
        "anisotropic": aniso,
    }
    out = _emit(
        ns.format, ["type", "nodes", "edges", "node_map", "anisotropic"], rows, payload
    )
    return out, EXIT_OK


def _cmd_opposition(ns) -> tuple[str, int]:
    doc = _load_doc(ns)
    d = doc.diagram
    sigma = weyl.opposition(d)
    mapping = {i: sigma(i) for i in d.nodes}
    payload = {
        "opposition": sigma.cycle_string(),
        "mapping": {str(k): v for k, v in mapping.items()},
    }
    out = _emit(
        ns.format,
        ["opposition", "mapping"],
        [[sigma.cycle_string(), " ".join(f"{k}->{v}" for k, v in mapping.items())]],
        payload,
    )
    return out, EXIT_OK


def _cmd_orbit(ns) -> tuple[str, int]:
    doc = _load_doc(ns)
    d = doc.diagram
    node = _want_node(ns)
    size = weyl.orbit_size(d, node, ns.orbit_budget)
    ct = diag.component_type(d, node)
    order = math.prod(ct.degrees)
    rows = [[str(node), ct.name, str(size), str(order)]]
    payload = {
        "node": node,
        "component": ct.name,
        "orbit_size": size,
        "group_order": order,
    }
    out = _emit(
        ns.format, ["node", "component", "orbit_size", "group_order"], rows, payload
    )
    return out, EXIT_OK


def _cmd_enumerate(ns) -> tuple[str, int]:
    doc = _load_doc(ns)
    if isinstance(doc.payload, TitsDiagram):
        d, g = doc.payload.diagram, doc.payload.gamma
    else:
        d, g = doc.payload, AutGroup.trivial(doc.payload.nodes)
    results = tits_mod.enumerate_indices(d, g, ns.rel_rank)
    orbits = diag.orbits(d, g)
    headers = ["anisotropic", "rel_rank", "angle", "cos", "radians_approx", "verdict"]
    rows = []
    entries = []
    for t, a, v in results:
        aniso = sorted(t.anisotropic)
        rel = sum(not t.anisotropic.issuperset(orbit) for orbit in orbits)
        angle_s, cos_s, rad_s = _angle_cells(a)
        rows.append(
            [" ".join(map(str, aniso)) or "-", str(rel), angle_s, cos_s, rad_s, v.code]
        )
        entries.append(
            {
                "anisotropic": aniso,
                "rel_rank": rel,
                "angle": a.to_json(),
                "verdict": v.code,
            }
        )
    payload = {
        "diagram": _diagram_json(d),
        "note": "combinatorial validity only; arithmetic existence not checked",
        "entries": entries,
    }
    out = _emit(ns.format, headers, rows, payload)
    return out, EXIT_OK


def _cmd_catalog(ns) -> tuple[str, int]:
    headers = ["name", "type", "anisotropic", "expected", "computed", "status"]
    rows = []
    entries = []
    failures = 0
    for entry in tits_mod.reference_catalog():
        computed = tits_mod.minimal_angle(entry.tits)
        ok = computed == entry.expected
        failures += 0 if ok else 1
        rows.append(
            [
                entry.name,
                diag.type_name(entry.tits.diagram),
                " ".join(map(str, sorted(entry.tits.anisotropic))) or "-",
                str(entry.expected),
                str(computed),
                "PASS" if ok else "FAIL",
            ]
        )
        entries.append(
            {
                "name": entry.name,
                "expected": entry.expected.to_json(),
                "computed": computed.to_json(),
                "ok": ok,
            }
        )
    payload = {"ok": failures == 0, "entries": entries}
    out = _emit(ns.format, headers, rows, payload)
    return out, EXIT_OK if failures == 0 else EXIT_CATALOG


_COMMANDS = {
    "validate": _cmd_validate,
    "angle": _cmd_angle,
    "min-angle": _cmd_min_angle,
    "fold": _cmd_fold,
    "opposition": _cmd_opposition,
    "orbit": _cmd_orbit,
    "enumerate": _cmd_enumerate,
    "catalog": _cmd_catalog,
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser, with every subparser or only `command`'s.

    Once the first argument names a command, argparse hands everything
    after it to that command's subparser, and no other subparser can be
    reached; building only that one saves most of the construction cost.
    The narrowed parser spells out the full `{validate,...,catalog}`
    metavar, so the top-level usage line it prints for unrecognized
    arguments is the full parser's, byte for byte. The full parser keeps
    the default metavar, because argparse names a subparsers action by
    its metavar in the "invalid choice" and "required" errors, which only
    the full parser can raise.
    """
    parser = argparse.ArgumentParser(
        prog="coxangle",
        description="Exact minimal angles of spherical Tits diagrams.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if command else None,
    )

    def add(name: str, help_text: str, spec: bool = True, node: bool = False,
            rel_rank: bool = False):
        if command not in (None, name):
            return
        p = sub.add_parser(name, help=help_text)
        if spec:
            p.add_argument("spec", nargs="?", help="specification file (DSL)")
            p.add_argument("--diagram", help="builtin diagram name instead of a file")
        if node:
            p.add_argument("--node", type=int, help="node label")
        if rel_rank:
            p.add_argument("--rel-rank", type=int, dest="rel_rank",
                           help="keep only this relative rank")
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")
        p.add_argument("--orbit-budget", type=int, dest="orbit_budget",
                       help="orbit safety cap (default from "
                            "COXANGLE_ORBIT_BUDGET or 10^7)")

    add("validate", "check the structural conditions of a Tits diagram")
    add("angle", "angular distance at a node", node=True)
    add("min-angle", "minimal angle and pi/3 verdict of a Tits diagram")
    add("fold", "fold the diagram by its symmetry group")
    add("opposition", "opposition involution of a diagram")
    add("orbit", "Weyl orbit size of a fundamental weight", node=True)
    add("enumerate", "all valid anisotropic kernels with angles", rel_rank=True)
    add("catalog", "verify the built-in reference catalog", spec=False)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    fmt = ns.format
    try:
        out, code = _COMMANDS[ns.command](ns)
        if out:
            print(out)
        return code
    except ParseError as exc:
        _print_error(exc, fmt)
        return EXIT_PARSE
    except CoxangleError as exc:
        _print_error(exc, fmt)
        return EXIT_DOMAIN


def _print_error(exc: CoxangleError, fmt: str) -> None:
    if fmt == "json":
        doc = {"error": {"code": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(doc, separators=(",", ":")), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def main() -> None:
    """Console entry point. A reader that closes the pipe early (`| head`)
    ends the run with exit 1 and nothing on stderr: stdout is pointed at
    devnull so that the flush at shutdown cannot fail again."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1  # the status Python itself gives an EPIPE exit
    sys.exit(code)
