"""Write bench/data/expected.json: the exit code, stdout and row count
expected for every benchmark request, and the angle warm-up lists.

    python3 bench/generate_expected.py

Run it from the root of a checkout, once per intended change of output;
the benchmark then compares every request against this file. Where an
independent value exists the script checks the output against it and
stops on a mismatch:

- `orbit`: the orbit size equals |W| / |W_J| (`group_order`), W_J the
  stabilizer parabolic of the node;
- `angle`: the angle has cosine 1 - (a, a) / (2 (w, w)) for the simple root
  a and fundamental weight w of the node (the neighbour s_i w of w in its
  orbit), computed from the realization without any orbit;
- `min-angle` on a catalog spec: the angle the reference catalog states;
- `enumerate`: every catalog entry on the same diagram and symmetry is a row,
  with the catalog's angle;
- `validate` on a `bad-*` spec: exit code 1.
"""

from __future__ import annotations

import importlib
import json
import platform
import subprocess
import sys
from fractions import Fraction

import run
import workloads


def count_rows(argv, stdout: str) -> int:
    """Result rows in one command's stdout."""
    command, fmt = argv[0], argv[argv.index("--format") + 1]
    if fmt == "json":
        doc = json.loads(stdout)
        if command == "enumerate":
            return len(doc["entries"])
        if command == "validate":
            return max(1, len(doc["violations"]))
        return 1
    lines = stdout.rstrip("\n").splitlines()
    if lines == ["ok"]:
        return 1
    return len(lines) - (2 if fmt == "table" else 1)


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"expected data check failed: {what}")


class Checker:
    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.dsl = importlib.import_module("coxangle.dsl")
        self.catalog = {e.name: e for e in pkg.reference_catalog()}

    def angle_json(self, argv) -> dict:
        pkg = self.pkg
        name, node = argv[argv.index("--diagram") + 1], int(argv[argv.index("--node") + 1])
        r = pkg.realize(pkg.builtin(name))
        a, w = r.simple_roots[node], r.fundamental_weights[node]
        dot = lambda u, v: sum((x * y for x, y in zip(u, v)), Fraction(0))  # noqa: E731
        return pkg.Angle.exact_cos(1 - dot(a, a) / (2 * dot(w, w))).to_json()

    def orbit_size_ok(self, argv, size: int) -> bool:
        """size = |W| / |W_J|, checked without division."""
        pkg = self.pkg
        name, node = argv[argv.index("--diagram") + 1], int(argv[argv.index("--node") + 1])
        d = pkg.builtin(name)
        parabolic = pkg.restrict(d, [i for i in d.nodes if i != node])
        return size * pkg.group_order(parabolic) == pkg.group_order(d)

    def check(self, req, code: int, stdout: str) -> None:
        argv, command = req.argv, req.argv[0]
        stem = req.key.split(":")[1]
        if command == "validate":
            require(code == 1, (req.key, code))
            return
        require(code == 0, (req.key, code, stdout))
        if command == "orbit":
            require(self.orbit_size_ok(argv, json.loads(stdout)["orbit_size"]), req.key)
        elif command == "angle":
            require(json.loads(stdout) == self.angle_json(argv), req.key)
        elif command == "min-angle" and stem.startswith("cat-"):
            want = self.catalog[stem[len("cat-"):]].expected
            require(json.loads(stdout)["angle"] == want.to_json(), req.key)
        elif command == "enumerate":
            self.check_enumerate(req, stdout)

    def check_enumerate(self, req, stdout: str) -> None:
        rows = {tuple(e["anisotropic"]): e["angle"] for e in json.loads(stdout)["entries"]}
        require(rows, req.key)
        t = self.tits_of(req)
        for entry in self.catalog.values():
            if (entry.tits.diagram, entry.tits.gamma.elements()) == (t.diagram, t.gamma.elements()):
                aniso = tuple(sorted(entry.tits.anisotropic))
                require(rows.get(aniso) == entry.expected.to_json(), (req.key, entry.name))

    def tits_of(self, req):
        """The (diagram, symmetry) a request names, as a quasi-split Tits diagram."""
        pkg, argv = self.pkg, req.argv
        if "--diagram" in argv:
            return pkg.tits_diagram(pkg.builtin(argv[argv.index("--diagram") + 1]))
        with open(argv[1], encoding="utf-8") as fh:
            return self.dsl.parse_spec(fh.read(), require_valid=False).tits


def angle_keys(pkg, t) -> set[tuple[str, int]]:
    """(builtin name, node) whose angular distance the minimal angle of t reads."""
    keys = set()
    result, folded_a = pkg.fold_tits(t)
    folded = pkg.TitsDiagram(
        result.folded, pkg.AutGroup.trivial(result.folded.nodes), folded_a
    )
    for sub in pkg.rank_one_subdiagrams(folded):
        (node,) = set(sub.diagram.nodes) - sub.anisotropic
        ct = pkg.classify(pkg.component_of(sub.diagram, node))[0]
        if ct.rank >= 3:
            canonical = pkg.classify(pkg.builtin(ct.name))[0]
            keys.add((ct.name, canonical.label_at[ct.position_of[node]]))
    return keys


def warm_list(pkg, checker, workload: str) -> list[list]:
    keys: set = set()
    for req in workloads.requests(workload):
        if req.argv[0] == "min-angle":
            keys |= angle_keys(pkg, checker.tits_of(req))
        elif req.argv[0] == "enumerate":
            t = checker.tits_of(req)
            for kernel, _angle, _verdict in pkg.enumerate_indices(t.diagram, t.gamma):
                keys |= angle_keys(pkg, kernel)
    return [list(k) for k in sorted(keys)]


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    sys.path.insert(0, str(run.SRC_DIR))
    pkg, cli = run.fresh_import()
    checker = Checker(pkg)
    expected = {}
    for workload in workloads.WORKLOADS:
        for req in workloads.requests(workload):
            if req.key in expected:
                continue
            code, stdout = run.call(cli, req.argv)
            if code is None:
                raise SystemExit(f"{req.key} raised {stdout}")
            checker.check(req, code, stdout)
            expected[req.key] = {"code": code, "stdout": stdout,
                                 "rows": count_rows(req.argv, stdout)}
    warm = {w: warm_list(pkg, checker, w) for w in ("enumerate", "query-stream")}
    doc = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "warm": warm,
        "requests": dict(sorted(expected.items())),
    }
    run.EXPECTED.parent.mkdir(exist_ok=True)
    run.EXPECTED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(expected)} requests to {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
