"""coxangle benchmark: one closed-loop client, one process per run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout: `coxangle` is imported from its `src/`.
Each request is one `coxangle` command line, passed to `coxangle.cli.run`
with stdout and stderr captured; its exit code and stdout must equal the
committed expected data (`bench/data/expected.json`). A wrong output or an
exception counts as a failed request and the run goes on.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones, with `--trace 1` the per-layer ones from a separate traced pass. See
bench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
EXPECTED = BENCH_DIR / "data" / "expected.json"

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# set-ups per run before the first pass, so setup_s is a median
SETUPS = 7
# ladder for op_tail_ms: the highest percentile with ten samples beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_REPORTED_FAILURES = 5

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "rows_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class HarnessError(Exception):
    """The benchmark cannot run here (no coxangle source, no expected data)."""


def fresh_import():
    """Drop every `coxangle` module and import the package from SRC_DIR again."""
    for name in [n for n in sys.modules if n == "coxangle" or n.startswith("coxangle.")]:
        del sys.modules[name]
    pkg = importlib.import_module("coxangle")
    if Path(pkg.__file__).resolve().parent != SRC_DIR / "coxangle":
        raise HarnessError(f"coxangle was imported from {pkg.__file__}, not from {SRC_DIR}")
    return pkg, importlib.import_module("coxangle.cli")


def setup(workload: str):
    """Fresh modules, inputs and warm-up; returns (seconds, cli module, expected)."""
    gc.collect()
    start = time.perf_counter()
    pkg, cli = fresh_import()
    data = json.loads(EXPECTED.read_text(encoding="utf-8"))
    expected = data["requests"]
    missing = [r.key for r in workloads.requests(workload) if r.key not in expected]
    if missing:
        raise HarnessError(f"no expected data for {missing[:3]}; run bench/generate_expected.py")
    for name, node in data["warm"].get(workload, ()):
        pkg.angular_distance(pkg.builtin(name), node)
    return time.perf_counter() - start, cli, expected


def call(cli, argv) -> tuple[int | None, str]:
    """One request: (exit code, stdout); an exception is reported as code None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except (Exception, SystemExit) as exc:  # a crash is a failed request
        return None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


class PassResult:
    def __init__(self) -> None:
        self.keys: list[str] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.rows = 0
        self.wall_s = 0.0


def run_pass(cli, requests, expected, tracer=None) -> PassResult:
    result = PassResult()
    start = time.perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.start_request()
        t0 = time.perf_counter()
        code, stdout = call(cli, req.argv)
        result.latencies.append(time.perf_counter() - t0)
        result.keys.append(req.key)
        want = expected[req.key]
        if code == want["code"] and stdout == want["stdout"]:
            result.rows += want["rows"]
        else:
            result.failures.append(f"{req.key}: exit {code}, stdout {stdout[:120]!r}")
    result.wall_s = time.perf_counter() - start
    return result


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return 100.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def slot_latencies(passes: list[PassResult]) -> list[float]:
    """Mean latency of each request slot of a pass across the passes.

    A slot is the k-th occurrence of a request key in a pass; every pass
    has the same slots in another order. On a shared machine the speed
    drifts in phases of tens of seconds. The mean weighs each phase by its
    share of the run, so it varies less from run to run than the median
    or the fastest repeat of a slot does.
    """
    by_slot = defaultdict(list)
    for p in passes:
        seen: Counter = Counter()
        for key, latency in zip(p.keys, p.latencies):
            by_slot[key, seen[key]].append(latency)
            seen[key] += 1
    return [statistics.fmean(v) for v in by_slot.values()]


def end_to_end(workload: str, seed: int, seconds: float):
    deadline = time.perf_counter() + seconds
    setup_times = [setup(workload)[0] for _ in range(SETUPS - 1)]
    passes: list[PassResult] = []
    while True:
        setup_s, cli, expected = setup(workload)
        setup_times.append(setup_s)
        order = workloads.pass_order(workload, seed, len(passes))
        passes.append(run_pass(cli, order, expected))
        longest = max(p.wall_s for p in passes)
        if time.perf_counter() + setup_s + longest > deadline:
            break
    slots = slot_latencies(passes)
    tail_p = tail_percentile(len(slots))
    wall_s = math.fsum(slots)
    metrics = {
        "wall_s": wall_s,
        "ops_per_s": len(slots) / wall_s,
        "rows_per_s": statistics.median(p.rows for p in passes) / wall_s,
        "op_p50_ms": statistics.median(slots) * 1000.0,
        "op_tail_ms": percentile(slots, tail_p) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    print(f"# {workload} seed={seed}: {len(passes)} passes of {len(slots)} requests, "
          f"{len(setup_times)} set-ups; op_tail_ms is p{tail_p:g} of {len(slots)} samples")
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced(workload: str, seed: int):
    _, cli, expected = setup(workload)
    order = workloads.pass_order(workload, seed, 0)
    plain = run_pass(cli, order, expected)
    _, cli, expected = setup(workload)
    tracer = tracing.Tracer()
    tracer.install()
    traced_pass = run_pass(cli, order, expected, tracer)
    values = tracer.metrics(len(order), traced_pass.wall_s, plain.wall_s)
    units = tracing.metric_units()
    print(f"# {workload} seed={seed}: traced pass of {len(order)} requests, "
          f"{len(tracer.spans)} spans")
    return [plain, traced_pass], {k: (values[k], units[k]) for k in units}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC_DIR / "coxangle" / "__init__.py").is_file():
        raise HarnessError(f"no coxangle source under {SRC_DIR}")
    if not EXPECTED.is_file():
        raise HarnessError(f"missing {EXPECTED}")
    sys.path.insert(0, str(SRC_DIR))
    passes, metrics = traced(workload, seed) if trace else end_to_end(workload, seed, seconds)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {workload}")
        for name, m in result["metrics"].items():
            print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
        error_rate = result["failed"] / result["attempted"]
        print(f"{'error_rate':40s} {error_rate:14.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} requests)")
        if result["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
