"""Closed-loop benchmark of ``structent``: one client, in one process.

    python3 perfbench/run.py --workload bound_trials --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark imports ``structent`` from
the checkout's ``src``, generates its inputs from ``--seed`` under
``.perfbench_work/``, and calls the program in-process: ``structent.cli.main``
for subcommands, public functions otherwise.  Each operation starts when
the previous one has returned.  Every output is checked against the
benchmark's own computations.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
"""

import os
import time

T_START = time.perf_counter()

# The client and the program share one CPU.  The program's work holds the
# interpreter lock, so one client never keeps two CPUs busy; on a shared
# two-CPU machine, handing the lock between CPUs made conserve's wall time
# vary by a third from one call to the next.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import harness  # noqa: E402

WORKLOADS = ("bound_trials", "conserve_msa", "cli_suite")
MIN_ROUNDS = 3
WORK_DIR = os.path.join(harness.ROOT, ".perfbench_work")


def make_workload(name: str, seed: int, work: str):
    if name == "bound_trials":
        from bound_trials import BoundTrials as W
    elif name == "conserve_msa":
        from conserve_msa import ConserveMsa as W
    else:
        from cli_suite import CliSuite as W
    return W(seed, work)


class Tally:
    """Operations attempted and failed, and the first failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problem = None

    def add(self, ops, check) -> None:
        self.attempted += len(ops)
        self.failed += sum(not op.ok for op in ops)
        try:
            check(ops)
        except harness.CheckFailed as e:
            if self.problem is None:
                self.problem = str(e)
                sys.stderr.write(f"perfbench: check failed: {e}\n")


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def timed(wl, seconds: float, tally: Tally) -> float:
    """Whole rounds until ``seconds`` of round time have passed.  A round
    is costed as the sum, over its calls, of each call's upper-quartile
    time.  On a shared host a call runs at one of two speeds: the
    sustained clock, or up to 1.6 times faster while the host has cycles
    to spare, in spells of seconds to minutes.  The median follows
    whichever speed held for most of a run; the upper quartile follows the
    sustained one, which moves much less between runs."""
    calls: dict[str, list[float]] = {}
    spent = 0.0
    rounds = 0
    while spent < seconds or rounds < MIN_ROUNDS:
        t = time.perf_counter()
        ops = wl.round(rounds)
        spent += time.perf_counter() - t
        rounds += 1
        for op in ops:
            calls.setdefault(op.label, []).append(op.seconds)
        tally.add(ops, wl.check)
    return wl.items_per_round / sum(upper_quartile(v) for v in calls.values())


def traced(wl, tally: Tally, trace_path: str) -> dict:
    """Untraced and traced rounds in turn; per-layer metrics from spans."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    plain = spanned = 0.0
    for r in range(wl.trace_rounds):
        t = time.perf_counter()
        ops = wl.round(r)
        plain += time.perf_counter() - t
        tally.add(ops, wl.check)
        layers.install(tracer)
        try:
            t = time.perf_counter()
            ops = wl.traced_round(r, tracer)
            spanned += time.perf_counter() - t
        finally:
            tracer.restore()
        tally.add(ops, getattr(wl, "check_traced", wl.check))
    totals = tracer.totals()
    found = layers.metrics(tracer, totals)
    found.update(wl.layer_metrics(tracer, totals))
    found["trace.overhead_pct"] = 100.0 * (spanned - plain) / plain
    tracer.write(trace_path, {
        "workload": wl.name, "untraced_s": plain, "traced_s": spanned,
        "metrics": found,
    })
    return {name: float(found.get(name, 0.0)) for name, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    harness.add_source_path()
    import structent.cli  # noqa: F401  (the cold import is part of set-up)

    import_s = time.perf_counter() - T_START
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        wl = make_workload(args.workload, args.seed, work)
        tally = Tally()
        t = time.perf_counter()
        ops = wl.warmup()
        setup_s = import_s + time.perf_counter() - t
        tally.add(ops, wl.check)
        if args.trace:
            import layers

            trace_dir = os.path.join(WORK_DIR, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
            values = traced(wl, tally, trace_path)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
            sys.stderr.write(f"perfbench: spans written to {trace_path}\n")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "items_per_s": {"value": timed(wl, args.seconds, tally), "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.problem is None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
