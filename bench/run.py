"""mstream benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--out FILE]

Run from the repository root.  The engine is imported from ``src/`` next to
this directory and nowhere else.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer ones.  ``--all`` runs every workload both ways, each in its
own process, and prints every metric by name with its unit.

Load is one closed-loop client: one command or one law instance at a time,
in one process, with no threads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups timed per run; the median is reported.
SETUP_REPS = 11
#: Repetitions per run at the least, however short ``--seconds`` is.
MIN_REPS = 3
DEFAULT_SEED = 0xACCE97


#: Time of one ``calibrate()`` at the reference host speed: about its
#: median on the 2-vCPU Xeon (2.1 GHz) VM where the baseline was recorded.
CALIBRATION_S = 0.12


def calibrate():
    """Seconds for a fixed loop of the engine's kind of work: Fraction
    arithmetic, dict updates keyed by tuples, and a growing chain of tuples
    and closures."""
    gc.collect()
    t0 = perf_counter()
    acc, q, chain = {}, Fraction(1, 3), None
    for i in range(30_000):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + q * (i % 3)
        chain = (chain, (i,), lambda i=i: i)
    return perf_counter() - t0


def use_engine_source():
    """Put ``src/`` first on the import path, or exit if it is missing."""
    if not (SRC / "mstream" / "__init__.py").is_file():
        sys.exit(f"bench: no engine source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mstream
    if not Path(mstream.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: mstream was imported from {mstream.__file__}, "
                 f"not from {SRC}")


def unit_of(name: str) -> str:
    if name.endswith(".sloc"):
        return "lines"
    if name.endswith("instances_per_s") or name == "ops_per_s":
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("kb_per_tick"):
        return "KB/tick"
    if name.endswith(("_calls", "_max", "_nodes")):
        return "count"
    return "ratio"


def result(tally, metrics):
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }


def measure(wl, seconds):
    """End-to-end metrics with tracing off.

    Times are scaled to the reference host speed: the host's speed drifts
    by up to a fifth within seconds, so each timed stretch is bracketed by
    ``calibrate()`` runs and scaled by their mean over ``CALIBRATION_S``.
    ``ops_per_s`` is the ops of one repetition over the sum of each
    command's median time across the run's repetitions.
    """
    from workloads import Tally

    setups, cal = [], calibrate()
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    setup_speed = (cal + calibrate()) / 2 / CALIBRATION_S
    commands = wl.commands()
    tally, times, reps = Tally(), [[] for _ in commands], 0
    start, before = perf_counter(), calibrate()
    while reps < MIN_REPS or perf_counter() - start < seconds:
        outputs = []
        for (_, command), spent in zip(commands, times):
            t0 = perf_counter()
            outputs.append(command(tally))
            elapsed = perf_counter() - t0
            after = calibrate()
            spent.append(elapsed / ((before + after) / 2 / CALIBRATION_S))
            before = after
        reps += 1
    wl.final_check(tally, outputs)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result(tally, {
        "setup_s": statistics.median(setups) / setup_speed,
        "ops_per_s": wl.ops / sum(map(statistics.median, times)),
        "peak_rss_mb": rss_kb / 1024,
        "ok_share": 1 - tally.failed / tally.attempted,
        "decided_share": 1 - tally.capped / tally.attempted,
    })


def trace(wl):
    """Per-layer metrics: a repetition with spans between two untraced ones,
    a tick-stepping pass, a heap-growth pass and static counts."""
    import laws
    import tracing
    from workloads import Tally

    def timed_rep():
        outputs, seconds = [], []
        for _, command in wl.commands():
            gc.collect()
            t0 = perf_counter()
            outputs.append(command(tally))
            seconds.append(perf_counter() - t0)
        return outputs, seconds

    tally = Tally()
    wl.setup()
    untraced, before = timed_rep()
    per_law = wl.law_stats(untraced, before)
    with tracing.Tracer() as tr:
        wl.setup()
        traced, traced_times = timed_rep()
    # Untraced on both sides of the traced repetition, so that warming up
    # and drift of the host's speed do not count as tracing overhead.
    again, after = timed_rep()
    untraced_s = (sum(before) + sum(after)) / 2
    traced_s = sum(traced_times)
    for out in (traced, again):
        if out != untraced:
            tally.add(0, failed=wl.ops)

    chains = wl.step(tally, untraced)
    metrics = tracing.sloc_metrics(SRC / "mstream")
    metrics.update(tracing.term_counts(wl.terms()))
    metrics.update(tracing.span_metrics(tr))
    metrics.update(tracing.chain_metrics(chains))
    metrics["stream_core.retained_kb_per_tick"] = \
        tracing.retained_kb_per_tick(lambda probe: wl.held_chain(probe)[1])
    for law in laws.LAWS:
        n, capped, secs = per_law.get(law, (0, 0, 0.0))
        metrics[f"laws.{law}.instances_per_s"] = n / secs if secs else 0.0
        metrics[f"laws.{law}.capped_share"] = capped / n if n else 0.0
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return result(tally, metrics)


def run_one(args):
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        wl = WORKLOADS[args.workload](args.seed, args.size == "tiny", tmp)
        out = trace(wl) if args.trace else measure(wl, args.seconds)
    print(json.dumps(out))
    return 0


def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit}


def run_all(args):
    """Every workload, untraced then traced, each in a process of its own."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        results[name] = {}
        for mode in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(mode),
                   "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.splitlines()[-1])
            results[name]["traced" if mode else "end_to_end"] = res
            for metric, m in sorted(res["metrics"].items()):
                print(f"{name:17} {metric:38} {m['value']:>16.6g} "
                      f"{m['unit']}")
            print(f"{name:17} {'(correct/attempted/failed)':38} "
                  f"{str(res['correct']):>16} "
                  f"{res['attempted']}/{res['failed']}")
    if args.out:
        report = {"environment": environment(), "seed": args.seed,
                  "seconds": args.seconds, "size": args.size,
                  "results": results}
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("run-fib", "sample-ehrenfest",
                                          "exact-ehrenfest", "laws"))
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25,
                   help="measured time per run (at least 3 repetitions)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the self-test")
    p.add_argument("--out", help="with --all: write the results as JSON")
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload NAME or --all")
    return args


def main(argv=None):
    args = parse_args(argv)
    use_engine_source()
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
