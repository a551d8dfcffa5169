"""Run one homfill benchmark workload and print its metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload fa-z3ext --seed 1 --seconds 32 --trace 0

The run has three phases, in one process with a single caller:
  1. rounds of SETUPS set-ups followed by one timed pass of the workload,
     until the next round would end after ``--seconds`` (at least one);
     ``wall_s`` is the median pass and ``setup_s`` the median set-up, both
     in seconds at the reference speed of speed.py's probes;
  2. checks of every pass's outputs against perfbench/reference.json;
  3. a seeded sample of fills re-solved with the ``brute_force`` oracle,
     and the workload's input properties.

With ``--trace 1`` untraced and traced passes alternate (at least one of
each), every set-up is traced, and the per-layer metrics are printed in
place of the end-to-end ones; the spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full report (provenance, properties, run counts, failures).  The exit
code is 0 when every check passed, 1 when one failed, 2 when the sources or
the reference cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from speed import Speed
from tracing import PASS, SETUP, Tracer, layer_units, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-ups before each pass
WORKLOAD_NAMES = ("fa-z3ext", "compare-z2", "pushdown-ext")

# name -> unit; the end-to-end metrics of an untraced run
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_frac": "ratio",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}


def git_revision() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core

        highs = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "git_revision": git_revision(),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def run(args, workload, expected: dict):
    tracer = Tracer() if args.trace else None
    # untraced runs time on the work clock of the speed probes; a traced run
    # has no probes, which would land inside its spans
    speed = None if tracer else Speed()
    clock = speed.now if speed else time.perf_counter

    def region(name, traced):
        if not traced:
            return nullcontext()
        tracer.install()
        return tracer.region(name)

    # SETUPS set-ups before every pass spread the set-up samples over the
    # run; every set-up and pass starts from a collected heap, without the
    # previous set-up's state alive, so that they measure the same thing.
    # Set-ups, passes and ops are kept as (start, end) on the clock.
    setups, untraced, traced, ops, outputs = [], [], [], [], []
    state, start = None, time.perf_counter()
    with speed or nullcontext():
        while True:
            round_start = time.perf_counter()
            for _ in range(SETUPS):
                state = None
                gc.collect()
                t0 = clock()
                with region(SETUP, tracer is not None):
                    state = workload.setup()
                setups.append((t0, clock()))
                if tracer:
                    tracer.uninstall()
            trace_this = tracer is not None and len(traced) < len(untraced)
            gc.collect()
            t0 = clock()
            with region(PASS, trace_this):
                op_spans, out = workload.run_pass(state, clock)
            span = (t0, clock())
            if trace_this:
                tracer.uninstall()
                traced.append(span)
            else:
                untraced.append(span)
                ops += op_spans
            outputs += out
            if tracer is not None and not traced:
                continue
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break

    def raw(spans):
        return [b - a for a, b in spans]

    def scaled(spans):
        return [speed.scaled(a, b) for a, b in spans]

    failures = workload.check(state, outputs, expected)
    properties, oracle_attempted, oracle_failures = workload.audit(state, expected)
    failures += oracle_failures
    attempted = len(outputs) + oracle_attempted
    failed = min(len(failures), attempted)
    report = {
        "workload": workload.name,
        "provenance": provenance(args),
        "runs": {"setups": len(setups), "untraced_passes": len(untraced), "traced_passes": len(traced)},
        "ops_per_pass": len(outputs) // (len(untraced) + len(traced)),
        "properties": properties,
        "failures": failures[:20],
    }
    if tracer is None:
        latencies = sorted(scaled(ops))
        metrics = {
            "wall_s": statistics.median(scaled(untraced)),
            "setup_s": statistics.median(scaled(setups)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified_frac": (attempted - failed) / attempted,
            "op_p50_ms": 1000.0 * statistics.median(latencies),
            "op_p99_ms": 1000.0 * percentile(latencies, 0.99),
        }
        units = END_TO_END
        report["samples"] = {
            "setup_s": scaled(setups),
            "pass_s": scaled(untraced),
            "raw_setup_s": raw(setups),
            "raw_pass_s": raw(untraced),
            "raw_op_p50_ms": 1000.0 * statistics.median(raw(ops)),
            "ops": len(ops),
        }
        report["speed"] = speed.summary()
    else:
        metrics = tracer.summary(len(setups), len(traced))
        wall = statistics.median(raw(untraced))
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / wall - 1.0
        units = layer_units()
        report["absent"] = tracer.absent
        report["self_time_check"] = {
            "sum_self_s": sum(v for k, v in metrics.items() if k.endswith(".self_s")),
            "traced_setup_plus_wall_s": metrics["trace.setup_s"] + metrics["trace.wall_s"],
        }
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}.json")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full", help="small: the self-test's inputs")
    parser.add_argument("--reference", default=str(HERE / "reference.json"), help="expected outputs")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "homfill" / "__init__.py").is_file():
        print(f"perfbench: no homfill sources under {src}", file=sys.stderr)
        return 2
    try:
        with open(args.reference, encoding="utf-8") as fh:
            expected = json.load(fh)[args.workload][args.size]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read the reference for {args.workload}: {exc!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT / "groups", args.size, args.seed)
    report, result = run(args, workload, expected)
    for name, metric in result["metrics"].items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
