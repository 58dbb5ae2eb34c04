"""Command-line interface.

Commands wrap the library operations one to one; all exact values are
computed by the library and only formatted here. Every request takes one
path through `run`: parse the command line, load the input once as a
TitsDiagram (a builtin or a plain diagram becomes quasi-split), call the
command's handler, and emit its headers, rows and JSON payload in the
chosen format. `_COMMANDS` is the one table of commands: dispatch, each
command's parser, the full parser built from those, and the rule of which
parses validate the spec read it.

`catalog` takes neither a spec file nor `--diagram`; every other command
takes one of them. Every command accepts `--format` and `--orbit-budget`,
but only `orbit` reads the budget.

Exit codes: 0 success, 1 domain or validation error, 2 parse/usage error,
3 catalog mismatch. In JSON mode the errors a command raises go to stderr
as a single JSON document with a machine-readable code; a usage error
(exit 2 from argparse) prints argparse's plain-text usage in every format.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional

from . import diagram as diag
from . import dsl
from . import tits as tits_mod
from . import weyl
from .angle import Angle
from .diagram import CoxeterDiagram
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
    if payload.get("ok") and not rows:
        return "ok"  # a valid `validate` report
    return _table(headers, rows)


def _load(ns: argparse.Namespace, require_valid: bool) -> TitsDiagram:
    if ns.diagram:
        return tits_mod.tits_diagram(diag.builtin(ns.diagram))
    if not ns.spec:
        raise CoxangleError("provide a spec file or --diagram <builtin>")
    try:
        with open(ns.spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CoxangleError(f"cannot read {ns.spec}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {ns.spec}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    return dsl.parse_spec(text, filename=ns.spec, require_valid=require_valid).tits


def _diagram_json(d: CoxeterDiagram) -> dict:
    return {
        "type": diag.type_name(d),
        "nodes": list(d.nodes),
        "edges": [list(e) for e in sorted(d.edges)],
    }


def _want_node(ns) -> int:
    if ns.node is None:
        raise CoxangleError("this command needs --node <i>")
    return ns.node


def _cmd_validate(t: TitsDiagram, ns):
    report = tits_mod.validate(t)
    rows = [[v.clause, " ".join(map(str, v.orbit or ())), v.message] for v in report.violations]
    payload = {"ok": report.ok, "violations": [
        {"clause": v.clause, "orbit": list(v.orbit or ()), "message": v.message}
        for v in report.violations
    ]}
    return ["clause", "orbit", "message"], rows, payload, EXIT_OK if report.ok else EXIT_DOMAIN


def _cmd_angle(t: TitsDiagram, ns):
    a = tits_mod.angular_distance(t.diagram, _want_node(ns))
    return ["angle", "cos", "radians_approx"], [list(_angle_cells(a))], a.to_json()


def _cmd_min_angle(t: TitsDiagram, ns):
    a, achieved = tits_mod.minimal_angle_report(t)
    verdict = tits_mod.verdict_against_pi_over_3(a)
    achieved_s = " ".join("{" + ",".join(map(str, orb)) + "}" for orb in achieved)
    payload = {"angle": a.to_json(), "verdict": verdict.code,
               "achieved_by": [list(orb) for orb in achieved]}
    headers = ["angle", "cos", "radians_approx", "verdict", "achieved_by"]
    return headers, [[*_angle_cells(a), verdict.code, achieved_s]], payload


def _cmd_fold(t: TitsDiagram, ns):
    result, folded_a = fold_tits(t)
    aniso = sorted(folded_a)
    rows = [[
        diag.type_name(result.folded),
        " ".join(map(str, result.folded.nodes)),
        " ".join(f"({i},{j},{m})" for i, j, m in sorted(result.folded.edges)),
        " ".join(f"{k}->{v}" for k, v in sorted(result.node_map.items())),
        " ".join(map(str, aniso)),
    ]]
    payload = {
        "folded": _diagram_json(result.folded),
        "node_map": {str(k): v for k, v in sorted(result.node_map.items())},
        "anisotropic": aniso,
    }
    return ["type", "nodes", "edges", "node_map", "anisotropic"], rows, payload


def _cmd_opposition(t: TitsDiagram, ns):
    sigma = weyl.opposition(t.diagram)
    mapping = {i: sigma(i) for i in t.diagram.nodes}
    payload = {"opposition": sigma.cycle_string(),
               "mapping": {str(k): v for k, v in mapping.items()}}
    rows = [[sigma.cycle_string(), " ".join(f"{k}->{v}" for k, v in mapping.items())]]
    return ["opposition", "mapping"], rows, payload


def _cmd_orbit(t: TitsDiagram, ns):
    node = _want_node(ns)
    size = weyl.orbit_size(t.diagram, node, ns.orbit_budget)
    ct = diag.component_type(t.diagram, node)
    order = math.prod(ct.degrees)
    payload = {"node": node, "component": ct.name, "orbit_size": size, "group_order": order}
    return list(payload), [list(map(str, payload.values()))], payload


def _cmd_enumerate(t: TitsDiagram, ns):
    results = tits_mod.enumerate_indices(t.diagram, t.gamma, ns.rel_rank)
    orbits = t.gamma._orbits  # checked by enumerate_indices
    headers = ["anisotropic", "rel_rank", "angle", "cos", "radians_approx", "verdict"]
    rows = []
    entries = []
    for index, a, v in results:
        aniso = sorted(index.anisotropic)
        # a kernel is a union of orbits: it holds an orbit when it holds its first member
        rel = sum(orbit[0] not in index.anisotropic for orbit in orbits)
        rows.append([" ".join(map(str, aniso)) or "-", str(rel), *_angle_cells(a), v.code])
        entries.append({"anisotropic": aniso, "rel_rank": rel, "angle": a.to_json(),
                        "verdict": v.code})
    payload = {
        "diagram": _diagram_json(t.diagram),
        "note": "combinatorial validity only; arithmetic existence not checked",
        "entries": entries,
    }
    return headers, rows, payload


def _cmd_catalog(t, ns):
    headers = ["name", "type", "anisotropic", "expected", "computed", "status"]
    rows = []
    entries = []
    for entry in tits_mod.reference_catalog():
        computed = tits_mod.minimal_angle(entry.tits)
        ok = computed == entry.expected
        rows.append([entry.name, diag.type_name(entry.tits.diagram),
                     " ".join(map(str, sorted(entry.tits.anisotropic))) or "-",
                     str(entry.expected), str(computed), "PASS" if ok else "FAIL"])
        entries.append({"name": entry.name, "expected": entry.expected.to_json(),
                        "computed": computed.to_json(), "ok": ok})
    ok = all(e["ok"] for e in entries)
    return headers, rows, {"ok": ok, "entries": entries}, EXIT_OK if ok else EXIT_CATALOG


def _option(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_SPEC = (
    _option("spec", nargs="?", help="specification file (DSL)"),
    _option("--diagram", help="builtin diagram name instead of a file"),
)
_NODE = _option("--node", type=int, help="node label")
_COMMON = (
    _option("--format", choices=("table", "json", "csv"), default="table"),
    _option("--orbit-budget", type=int, dest="orbit_budget",
            help="orbit safety cap (default from COXANGLE_ORBIT_BUDGET or 10^7)"),
)


class _Command(NamedTuple):
    """One command: its handler, its help line, the options it adds before
    `_COMMON`, and whether parsing its spec validates the Tits diagram.
    validate, min-angle and fold validate in the handler, so their parse
    does not; catalog has no spec option and reads no input.

    A handler takes the loaded TitsDiagram (None for catalog) and the
    namespace, and returns headers, rows and the JSON payload, plus an exit
    code when the command can report a failure (validate, catalog)."""

    handler: Callable[..., tuple]
    help: str
    options: tuple = _SPEC
    require_valid: bool = True


_COMMANDS = {
    "validate": _Command(_cmd_validate, "check the structural conditions of a Tits diagram",
                         require_valid=False),
    "angle": _Command(_cmd_angle, "angular distance at a node", (*_SPEC, _NODE)),
    "min-angle": _Command(_cmd_min_angle, "minimal angle and pi/3 verdict of a Tits diagram",
                          require_valid=False),
    "fold": _Command(_cmd_fold, "fold the diagram by its symmetry group", require_valid=False),
    "opposition": _Command(_cmd_opposition, "opposition involution of a diagram"),
    "orbit": _Command(_cmd_orbit, "Weyl orbit size of a fundamental weight", (*_SPEC, _NODE)),
    "enumerate": _Command(
        _cmd_enumerate, "all valid anisotropic kernels with angles",
        (*_SPEC, _option("--rel-rank", type=int, dest="rel_rank",
                         help="keep only this relative rank")),
    ),
    "catalog": _Command(_cmd_catalog, "verify the built-in reference catalog", ()),
}


def _add_options(parser: argparse.ArgumentParser, cmd: _Command) -> argparse.ArgumentParser:
    for flags, kwargs in (*cmd.options, *_COMMON):
        parser.add_argument(*flags, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser: one subparser per command.

    `run` builds it only for a line that the named command's own parser
    cannot take whole. A subparser is the parser `run` builds for its
    command (`ArgumentParser(prog="coxangle <name>")` given the same
    options by `_add_options`), so every help text and every error that
    the command's parser raises is the full parser's, byte for byte.
    """
    parser = argparse.ArgumentParser(
        prog="coxangle",
        description="Exact minimal angles of spherical Tits diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=cmd.help), cmd)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a line with its command's own parser when the first argument
    names a command. Arguments that parser leaves over are an error the
    full parser reports with its top-level usage, so such a line, like one
    with no command, an unknown one or an option first, is parsed again
    by the full parser."""
    cmd = _COMMANDS.get(argv[0]) if argv else None
    if cmd is not None:
        parser = _add_options(argparse.ArgumentParser(prog=f"coxangle {argv[0]}"), cmd)
        ns, leftover = parser.parse_known_args(argv[1:])
        if not leftover:
            ns.command = argv[0]
            return ns
    return build_parser().parse_args(argv)


def run(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    cmd = _COMMANDS[ns.command]
    try:
        t = _load(ns, cmd.require_valid) if "spec" in ns else None
        headers, rows, payload, *code = cmd.handler(t, ns)
    except CoxangleError as exc:
        _print_error(exc, ns.format)
        return EXIT_PARSE if isinstance(exc, ParseError) else EXIT_DOMAIN
    print(_emit(ns.format, headers, rows, payload))
    return code[0] if code else EXIT_OK


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
