"""Re-importing the package must not leave old module copies alive, and
the package keeps every name it exports and every name the benchmark
scripts under bench/ read."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import coxangle

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"

SCRIPT = textwrap.dedent(
    """
    import gc, importlib, sys, types

    def reimport():
        for name in [n for n in sys.modules if n.split(".")[0] == "coxangle"]:
            del sys.modules[name]
        importlib.import_module("coxangle.cli")
        gc.collect()
        return sum(
            1 for o in gc.get_objects()
            if isinstance(o, types.ModuleType) and o.__name__.split(".")[0] == "coxangle"
        )

    counts = [reimport() for _ in range(30)]
    print(counts[0], counts[-1])
    """
)


def test_reimport_does_not_accumulate_modules():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    first, last = map(int, proc.stdout.split())
    assert last <= first


def test_all_names_resolve_and_star_import_works():
    assert [name for name in coxangle.__all__ if not hasattr(coxangle, name)] == []
    namespace: dict = {}
    exec("from coxangle import *", namespace)
    assert set(coxangle.__all__) <= namespace.keys()


def test_benchmark_package_names_resolve():
    # every pkg.<name> of the benchmark runner and of its expected-data
    # generator, which imports the package as pkg
    names = set()
    for script in ("run.py", "generate_expected.py"):
        text = (BENCH / script).read_text(encoding="utf-8")
        names |= set(re.findall(r"\bpkg\.([A-Za-z]\w*)", text))
    assert {"component_of", "rank_one_subdiagrams"} <= names
    assert sorted(name for name in names if not hasattr(coxangle, name)) == []


def test_traced_functions_resolve():
    # TRACED is read from the tracer's text, not imported. Each module is
    # taken from import_module, as the package root binds coxangle.fold to
    # the function fold
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
    assert ("diagram", "restrict") in traced
    missing = [(module, fn) for module, fn in traced
               if not hasattr(importlib.import_module(f"coxangle.{module}"), fn)]
    assert missing == []
