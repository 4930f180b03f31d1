"""The simulator's benchmark: jobs per CPU-second and simulated outcomes.

Run from the repository root::

    python3 perfbench/run.py --workload sustained_stream --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass, then traced passes, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the details (host facts, quartiles, sample counts, failures).
See ``perfbench/README.md`` for the workloads and metrics.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(HERE, "goldens.json")
#: Where traced runs write their kept spans (ignored by git).
SPANS_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("sustained_stream", "fleet_backlog", "paper_battery",
                  "cluster_knee")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-goldens", action="store_true",
                        help="record this seed's outcome digests as the "
                             "goldens of the workload")
    return parser.parse_args(argv)


def _quartiles(values):
    """Median, first and third quartile and count of ``values``."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _host_facts():
    import numpy
    facts = {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "commit": None}
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        facts["commit"] = result.stdout.strip() or None
    return facts


# ----------------------------------------------------------------------
# Set-up time: fresh interpreter to run()
# ----------------------------------------------------------------------

def _probe_setup(args) -> None:
    """Child side: build the workload's first cell, print the CPU time.

    The process CPU clock starts with the process, so it covers
    interpreter start-up and imports too.
    """
    from cells import WORKLOADS
    WORKLOADS[args.workload](args.seed)[0].prepare()
    print(repr(time.process_time()))


def _measure_setup(args, tally, probe: int, samples) -> None:
    """Append the CPU seconds a fresh interpreter takes to reach ``run()``."""
    command = [sys.executable, os.path.abspath(__file__), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
    try:
        child = subprocess.run(command, capture_output=True, text=True,
                               cwd=ROOT, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() killed and reaped it
        tally.fail(("setup", probe),
                   f"setup probe exceeded {SETUP_TIMEOUT_S} s")
        return
    if child.returncode != 0:
        tally.fail(("setup", probe),
                   f"setup probe exited {child.returncode}: "
                   f"{child.stderr.strip()[-500:]}")
        return
    samples.append(float(child.stdout.split()[-1]))


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def _run_pass(cells, tally, tracer=None):
    """Prepare and run every cell once; returns the outcomes that ran.

    Only ``simulate()`` is timed.  Under a ``tracer``, the spans the
    runner's own bookkeeping (``summarize``) opens are dropped.
    """
    outcomes = []
    for cell in cells:
        key = tally.attempt(cell.label)
        try:
            prepared = cell.prepare()
            gc.collect()
            traced = tracer.root_time if tracer is not None else 0.0
            wall = time.perf_counter()
            cpu = time.process_time()
            result = prepared.simulate()
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            if tracer is not None:
                traced = tracer.root_time - traced
                state = tracer.mark()
            outcome = prepared.summarize(result)
            if tracer is not None:
                tracer.rollback(state)
        except Exception as exc:  # a failed cell is data, not a crash
            tally.fail(key, f"{cell.label}: {type(exc).__name__}: {exc}")
            continue
        outcome.cpu_seconds = cpu
        outcome.wall_seconds = wall
        outcome.traced_seconds = traced
        outcome.key = key
        for error in outcome.identity_errors:
            tally.fail(key, error)
        outcomes.append(outcome)
    return outcomes


def _check_repeat(first, outcomes, tally, what):
    expected = {o.label: o.digest for o in first}
    for outcome in outcomes:
        if expected.get(outcome.label) != outcome.digest:
            tally.fail(outcome.key, f"{outcome.label}: {what} digest "
                                    "differs from the first pass")


def _check_goldens(args, outcomes, tally):
    with open(GOLDENS) as handle:
        goldens = json.load(handle).get(args.workload, {})
    if not goldens:
        tally.fail(("goldens",), f"no goldens for {args.workload}")
    by_label = {o.label: o for o in outcomes}
    for label, digest in sorted(goldens.items()):
        outcome = by_label.get(label)
        found = outcome.digest if outcome is not None else None
        if found != digest:
            key = outcome.key if outcome is not None else ("goldens", label)
            tally.fail(key, f"{label}: outcome digest {found} != golden "
                            f"{digest}")


def _write_goldens(args, outcomes):
    goldens = {}
    if os.path.exists(GOLDENS):
        with open(GOLDENS) as handle:
            goldens = json.load(handle)
    goldens[args.workload] = {o.label: o.digest for o in outcomes}
    with open(GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _validate(args, tally):
    """Reduced cells under the invariant checker and the oracles."""
    from cells import WORKLOADS
    cells = WORKLOADS[args.workload](args.seed, validate=True)
    outcomes = _run_pass(cells, tally)
    for outcome in outcomes:
        for violation in outcome.violations:
            tally.fail(outcome.key, f"{outcome.label}: {violation}")
    return {"cells": len(cells), "ran": len(outcomes),
            "checks": sum(o.checks for o in outcomes),
            "violations": sum(len(o.violations) for o in outcomes)}


def _rate(outcomes):
    return (sum(o.jobs for o in outcomes)
            / sum(o.cpu_seconds for o in outcomes))


def _end_to_end(args, cells, tally, detail):
    """Set-up probes, timed passes, output checks; end-to-end metrics."""
    from cells import (DEFAULT_SEED, paper_ratio_error, simulated_metrics,
                       wasted_wg_fraction)
    setup = []
    probes = 0
    # Seconds spent in passes; the set-up probes do not count.
    measured = 0.0
    # Only the first pass's outcomes are kept, so the memory high-water
    # mark is one pass's, whatever the number of passes.
    first = None
    rates = []
    while True:
        # The host's speed drifts over seconds, so probes taken back to
        # back would share one state: spread them over the passes.
        while probes < min(SETUP_PROBES,
                           1 + SETUP_PROBES * measured / args.seconds):
            _measure_setup(args, tally, probes, setup)
            probes += 1
        started = time.monotonic()
        outcomes = _run_pass(cells, tally)
        measured += time.monotonic() - started
        if len(outcomes) != len(cells):
            break
        if first is None:
            first = outcomes
        else:
            _check_repeat(first, outcomes, tally, "repeat-pass")
        rates.append(_rate(outcomes))
        if measured >= args.seconds:
            break
    while probes < SETUP_PROBES:
        _measure_setup(args, tally, probes, setup)
        probes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if first is None or not setup:
        return {}
    if args.write_goldens:
        _write_goldens(args, first)
    elif args.seed == DEFAULT_SEED:
        _check_goldens(args, first, tally)
    detail["validation"] = _validate(args, tally)
    detail["jobs_per_cpu_s"] = _quartiles(rates)
    detail["setup_s"] = _quartiles(setup)
    detail["peak_rss_mb"] = _quartiles([peak_rss_mb])
    detail["digests"] = {o.label: o.digest for o in first}
    # Simulated, but too seed-dependent for a bound (see the README).
    detail["wasted_wg_fraction"] = wasted_wg_fraction(first)
    detail["paper_ratio_error"] = paper_ratio_error(first)
    metrics = {
        "jobs_per_cpu_s": (statistics.median(rates), "jobs/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics.update(simulated_metrics(first))
    return metrics


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def _traced(args, cells, tally, detail):
    """One untraced pass, then traced passes; per-layer metrics."""
    from layers import Tracer
    from per_layer import layer_metrics
    deadline = time.monotonic() + args.seconds
    untraced = _run_pass(cells, tally)
    if len(untraced) != len(cells):
        return {}
    tracer = Tracer()
    tracer.install()
    samples = []
    try:
        while True:
            tracer.reset()
            outcomes = _run_pass(cells, tally, tracer)
            if len(outcomes) != len(cells):
                break
            # Wrappers must not change a single simulated result.
            _check_repeat(untraced, outcomes, tally, "traced")
            sample = layer_metrics(tracer, outcomes, untraced)
            if samples and sample["counts"] != samples[0]["counts"]:
                tally.fail(("counts", len(samples)),
                           "per-layer counts differ between traced passes")
            if not samples:
                os.makedirs(SPANS_DIR, exist_ok=True)
                detail["spans_written"] = tracer.write_spans(os.path.join(
                    SPANS_DIR, f"spans-{args.workload}.jsonl"))
            samples.append(sample)
            if time.monotonic() >= deadline:
                break
    finally:
        tracer.uninstall()
    if not samples:
        return {}
    detail["traced_passes"] = len(samples)
    detail["counts"] = samples[0]["counts"]
    metrics = {}
    for name, (_, unit) in samples[0]["metrics"].items():
        values = [sample["metrics"][name][0] for sample in samples]
        metrics[name] = (statistics.median(values), unit)
    return metrics


class Tally:
    """Cells attempted and failed, with one message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = set()
        self.messages = []

    def attempt(self, label: str):
        """Count one attempted cell; returns its key for :meth:`fail`."""
        self.attempted += 1
        return (self.attempted, label)

    def fail(self, key, message: str) -> None:
        self.failed.add(key)
        self.messages.append(message)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_setup:
        _probe_setup(args)
        return 0
    from cells import WORKLOADS
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host_before": _host_facts()}
    cells = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    if args.trace:
        metrics = _traced(args, cells, tally, detail)
    else:
        metrics = _end_to_end(args, cells, tally, detail)
    detail["host_after"] = {"loadavg": list(os.getloadavg())}
    detail["failures"] = tally.messages
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": bool(metrics) and not tally.messages,
        "attempted": max(1, tally.attempted),
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
