"""Re-importing the package must not leave old module copies alive."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
