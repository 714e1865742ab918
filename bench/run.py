"""homkit benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; nothing needs installing, the
package is imported from ``src/``.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (see ``bench/README.md``).  Earlier lines of standard output describe
the machine, the traffic mix, every metric with its unit and any failed
operation; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5       # spread evenly over the timed loop
MIN_OPS = 100           # so that at least 10 samples lie beyond p90
MAX_SECONDS = 120       # hard stop for the timed loop
PROCESS_SAMPLES = 7     # interpreter and import timings on ``cli``
PROBE_EVERY = 0.25      # seconds of operations between speed probes
REFERENCE_PROBE = 0.002  # seconds one probe takes on the reference host


def declared_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares in
    ``section`` (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model}


def probe() -> float:
    """The host's current speed: the median time, in seconds, of three
    runs of a fixed loop of ``Fraction`` arithmetic, the kind of work
    homkit does.  It uses no homkit code, so no change to the program
    moves it."""
    times = []
    for _ in range(3):
        t = perf_counter()
        s = Fraction(0)
        for i in range(1, 400):
            s += Fraction(i, i + 7) * Fraction(3, i + 1)
        times.append(perf_counter() - t)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into the
    time it would take on the reference host."""
    return 2 * REFERENCE_PROBE / (before + after)


def fresh_workloads():
    """Import the workload module and homkit anew, so that every set-up
    pays for its imports."""
    for name in list(sys.modules):
        if name in ("homkit", "workloads", "generators") or name.startswith("homkit."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(args, workdir: Path):
    """One timed set-up from a collected heap: returns its time, the
    workload module and the workload."""
    gc.collect()
    workdir.mkdir()
    t = perf_counter()
    workloads = fresh_workloads()
    wl = workloads.build(args.workload, args.seed, workdir)
    return perf_counter() - t, workloads, wl


def run_op(op):
    """Run one operation: its time and what was wrong, if anything."""
    t = perf_counter()
    try:
        problem = op.run()
    except Exception as e:  # a raised error is a failed operation
        problem = f"{type(e).__name__}: {e}"
    return perf_counter() - t, problem


def timed_loop(ops, seconds: float, extra_setup):
    """Run the pool in order, one operation at a time, until ``seconds``
    of operation time have passed and at least ``MIN_OPS`` operations
    ran.  A probe runs every ``PROBE_EVERY`` seconds of operations, and
    each latency is scaled by the probes on either side of it.
    ``extra_setup()`` is called ``SETUP_REPEATS - 1`` times, evenly spread
    over the loop and outside its clock.  Returns the scaled latencies,
    the raw ones, the failures and the extra set-up times."""
    latencies, raw, failures, setups = [], [], [], []
    span = min(seconds, MAX_SECONDS)
    busy = since = 0.0
    before = probe()
    pending: list[float] = []

    def rescale():
        nonlocal before, since
        after = probe()
        factor = scale(before, after)
        latencies.extend(t * factor for t in pending)
        pending.clear()
        before, since = after, 0.0

    i = 0
    while busy < MAX_SECONDS and (busy < seconds or i < MIN_OPS):
        if len(setups) < SETUP_REPEATS - 1 and busy >= (len(setups) + 1) * span / SETUP_REPEATS:
            rescale()
            setups.append(extra_setup())
            before = probe()
            continue
        op = ops[i % len(ops)]
        took, problem = run_op(op)
        busy += took
        since += took
        raw.append(took)
        pending.append(took)
        if problem:
            failures.append((i, op.label, problem))
        if since >= PROBE_EVERY:
            rescale()
        i += 1
    rescale()
    return latencies, raw, failures, setups


def end_to_end(args, workdir: Path) -> tuple[dict, int, list, dict]:
    before = probe()
    first, _, wl = set_up(args, workdir / "setup0")
    first *= scale(before, probe())
    gc.collect()
    print_run(args, wl)

    dirs = (workdir / f"setup{j}" for j in itertools.count(1))

    def extra_setup():
        # A second pool in this process would raise its peak memory, so
        # the later set-ups run in a child of their own; on ``cli`` the
        # peak is that of the children, so they stay here.
        before = probe()
        if wl.inprocess:
            took, _, _ = set_up(args, next(dirs))
        else:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", args.workload, "--seed",
                 str(args.seed), "--seconds", "0", "--setup-only", str(next(dirs))],
                check=True, capture_output=True, text=True, timeout=120)
            took = float(child.stdout.split()[-1])
        took *= scale(before, probe())
        gc.collect()
        return took
    latencies, raw, failures, setups = timed_loop(wl.ops, args.seconds, extra_setup)
    attempted = len(latencies)
    ms = sorted(t * 1e3 for t in latencies)
    metrics = {
        "setup_s": statistics.median([first, *setups]),
        "ops_per_s": attempted / sum(latencies),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    raw_ms = sorted(t * 1e3 for t in raw)
    detail = {"operations": attempted, "seconds": sum(raw),
              "raw_ops_per_s": attempted / sum(raw),
              "raw_latency_p50_ms": statistics.median(raw_ms),
              "raw_latency_p90_ms": statistics.quantiles(raw_ms, n=10)[-1],
              "error_rate": len(failures) / attempted,
              "setup_runs_s": [first, *setups]}
    if wl.statuses:
        total = sum(wl.statuses.values())
        detail["solved_ratio"] = (total - wl.statuses["residual"]) / total
        detail["statuses"] = dict(wl.statuses)
    return metrics, attempted, failures, detail


def process_ms(argv: list[str], env: dict) -> float:
    """Median wall time of a short child process, in ms."""
    times = []
    for _ in range(PROCESS_SAMPLES):
        t = perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        times.append(perf_counter() - t)
    return statistics.median(times) * 1e3


def traced(args, workdir: Path) -> tuple[dict, int, list, dict]:
    """Run every operation three times in a row, for ``seconds`` in all:
    once to warm up (a first run pays for growing the heap), then once
    traced and once not, in alternating order.  The tracing overhead is
    the ratio of the two summed times over the same operations."""
    import spans

    _, workloads, wl = set_up(args, workdir / "setup0")
    gc.collect()
    print_run(args, wl)
    ops = wl.inprocess or wl.ops
    tracer = spans.Tracer()
    tracer.install()
    spent = [0.0, 0.0]  # untraced, traced
    failures = []
    attempted = i = 0
    while sum(spent) < args.seconds or i < len(ops):
        op = ops[i % len(ops)]
        for on in ((None, False, True) if i % 2 == 0 else (None, True, False)):
            tracer.enable(bool(on))
            tracer.op = attempted
            took, problem = run_op(op)
            if on is not None:
                spent[on] += took
            if problem:
                failures.append((attempted, op.label, problem))
            attempted += 1
        i += 1
    tracer.enable(False)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    m: dict[str, float] = {}
    for name, (calls, busy, own) in tracer.totals.items():
        m.update({f"{name}.calls": calls, f"{name}.busy_ms": busy * 1e3,
                  f"{name}.self_ms": own * 1e3})
    m.update(tracer.counts)

    def rate(amount, span):
        busy = tracer.totals[span][1]
        return amount / busy if busy else 0.0
    m["reporting.scan.tuples_per_s"] = rate(m["reporting.scan.tuples"], "reporting.scan")
    m["dsl.parse.bytes_per_s"] = rate(m["dsl.parse.bytes"], "dsl.parse")
    m["dsl.serialize.bytes_per_s"] = rate(m["dsl.serialize.bytes"], "dsl.serialize")
    m["cli.interpreter_ms"] = m["cli.import_ms"] = 0.0
    if wl.inprocess:
        env = workloads.child_env()
        m["cli.interpreter_ms"] = process_ms([sys.executable, "-c", "pass"], env)
        m["cli.import_ms"] = process_ms(
            [sys.executable, "-c", "import homkit.cli"], env) - m["cli.interpreter_ms"]
    solved = m["solver.status.finite"] + m["solver.status.affine_family"]
    classified = solved + m["solver.status.residual"]
    m["solved_ratio"] = solved / classified if classified else 0.0
    m["error_rate"] = len(failures) / attempted
    m["trace_overhead"] = spent[0] / spent[1]
    detail = {"operations": attempted, "untraced_s": spent[0], "traced_s": spent[1]}
    return m, attempted, failures, detail


def print_run(args, wl) -> None:
    info = {"seed": args.seed, "workload": args.workload, "pool": len(wl.ops),
            **machine()}
    print("# run " + json.dumps(info))
    print("# mix " + json.dumps(wl.mix, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("audit", "solve", "document", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="make one set-up in DIR and print its time")
    args = parser.parse_args(argv)

    if not (SRC / "homkit" / "__init__.py").is_file():
        print(f"error: no homkit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.setup_only:
        print(set_up(args, Path(args.setup_only))[0])
        return 0
    units = declared_units("per_layer" if args.trace else "end_to_end")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        metrics, attempted, failures, detail = (traced if args.trace else end_to_end)(
            args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# detail " + json.dumps(detail))
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    for i, label, problem in failures:
        print(f"# FAILED op {i} {label}: {problem}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
