"""Request lists of the three benchmark workloads.

A request is one `coxangle` command line. A workload is a fixed list of
requests, one pass; the seed only fixes the order in which a pass issues
them, so every seed runs the same mix and the same seed always runs the
same sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_DIR = BENCH_DIR / "specs"

WORKLOADS = ("enumerate", "node-sweep", "query-stream")

# enumerate: (builtin name or spec file stem, whether it is a spec). Every
# request is short enough to repeat about ten times in a run, so that its
# mean latency is steady on a shared machine: E7 (8-10 s), A7 (3.5 s)
# and E6 with its flip (2 s) are left out. A5 stands in for the large
# type A on which most candidates fail validation.
ENUMERATE_TARGETS = (
    ("enum-D5-flip", True),
    ("enum-A5-flip", True),
    ("enum-D4-triality", True),
    ("A3", False),
    ("A4", False),
    ("A5", False),
    ("B3", False),
    ("B4", False),
    ("D4", False),
    ("D5", False),
    ("F4", False),
    ("G2", False),
    ("B3+A2", False),
)

# node-sweep: every crystallographic builtin of rank 3 to 8 but E8 (C_n is
# the B_n diagram, so it is left out to keep every angle lookup distinct).
# E8 is left out because its angles at nodes 4 and 5 alone take 8 s and
# 4 s, too long to repeat in a run.
SWEEP_TYPES = (
    [f"A{n}" for n in range(3, 9)]
    + [f"B{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "F4"]
)
# orbit BFS only up to rank 7: on E8 it takes tens of seconds and
# hundreds of MB
ORBIT_MAX_RANK = 7


@dataclass(frozen=True)
class Request:
    key: str
    argv: tuple[str, ...]


def _rank(name: str) -> int:
    return int(name[1:])


def _spec_path(stem: str) -> str:
    return str(SPEC_DIR / f"{stem}.spec")


def enumerate_requests() -> list[Request]:
    out = []
    for target, is_spec in ENUMERATE_TARGETS:
        source = (_spec_path(target),) if is_spec else ("--diagram", target)
        out.append(
            Request(f"enumerate:{target}", ("enumerate", *source, "--format", "json"))
        )
    return out


def node_sweep_requests() -> list[Request]:
    out = []
    for name in SWEEP_TYPES:
        commands = ["angle"] + (["orbit"] if _rank(name) <= ORBIT_MAX_RANK else [])
        for command in commands:
            for node in range(1, _rank(name) + 1):
                out.append(
                    Request(
                        f"{command}:{name}:{node}",
                        (command, "--diagram", name, "--node", str(node),
                         "--format", "json"),
                    )
                )
    return out


def query_pool() -> list[Request]:
    """One request per committed pool spec.

    `bad-*` specs are invalid and go to `validate` (exit 1); the rest go to
    `min-angle`. Catalog specs use JSON; the others rotate through the
    three output formats.
    """
    stems = sorted(
        p.stem for p in SPEC_DIR.glob("*.spec") if not p.stem.startswith("enum-")
    )
    formats = ("table", "json", "csv")
    out = []
    for k, stem in enumerate(stems):
        command = "validate" if stem.startswith("bad-") else "min-angle"
        fmt = "json" if stem.startswith("cat-") else formats[k % 3]
        out.append(
            Request(
                f"{command}:{stem}:{fmt}",
                (command, _spec_path(stem), "--format", fmt),
            )
        )
    return out


def requests(workload: str) -> list[Request]:
    """The requests of one pass, in committed order."""
    if workload == "enumerate":
        return enumerate_requests()
    if workload == "node-sweep":
        return node_sweep_requests()
    if workload == "query-stream":
        return query_pool()
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(workload: str, seed: int, pass_index: int) -> list[Request]:
    """The requests of pass `pass_index`, shuffled by (workload, seed, pass)."""
    reqs = requests(workload)
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(reqs)
    return reqs
