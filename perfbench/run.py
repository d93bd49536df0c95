"""eamsim benchmark: host time per simulated slot, end to end and per layer.

    python3 perfbench/run.py --workload hvac_hour --seed 1 --seconds 35 --trace 0

Runs the workload's eamsim command again and again, each time in a fresh
process (perfbench/child.py), until --seconds have passed, and reports the
median of each metric over those runs.  Every run is checked: it must exit
0, every artifact must match the digest recorded at the seed commit
(golden.json), and every simulated cell's energy ledger must balance to
within 1 nJ.  A run failing any check counts in `failed`.

Host speed on a shared machine drifts by a quarter over minutes, longer
than a run, so the benchmark pins itself and its children to one CPU and
times a fixed pure-Python loop on it before every run of the command.
Every time it reports is scaled to the speed at which that loop takes
REFERENCE_S; the lines before the result give the raw figures.

--trace 0 reports the end-to-end metrics, measured with only one-shot
timers in place.  --trace 1 alternates untraced and traced runs and reports
the per-layer metrics of the traced ones; `trace.overhead_frac` compares the
two.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Workloads, metrics and units are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    GOLDEN,
    ROOT,
    SRC,
    WORKLOADS,
    artifact_digests,
    environment,
    ledger_residual,
    prepare,
    storm_selfcheck,
)

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 60
LEDGER_TOLERANCE_J = 1e-9
MIN_RUNS = 3
REFERENCE_LOOPS = 1_500_000
REFERENCE_S = 0.075  # the reference loop's time at the speed times are scaled to
TIME_UNITS = ("s", "ms", "us", "us/slot")


class _Buffer:
    __slots__ = ("v", "e", "n")

    def __init__(self):
        self.v, self.e, self.n = 1.0, 0.0, 0


def _reference_slot(buf, k, inputs, decay, log):
    v = buf.v * decay + inputs[k & 7]
    if v > 2.0:
        buf.e += 0.5 * v * v
        buf.n += 1
        log.append((k, v))
        v = math.sqrt(v)
    buf.v = v


def reference_s() -> float:
    """Host seconds of a fixed loop shaped like a slot update: a call per
    iteration, attribute access, float arithmetic and an occasional append."""
    buf, log = _Buffer(), []
    inputs = [0.001 * (j + 1) for j in range(8)]
    decay = math.exp(-1e-3)
    start = time.perf_counter()
    for k in range(REFERENCE_LOOPS):
        _reference_slot(buf, k, inputs, decay, log)
    return time.perf_counter() - start


def scaled(metrics: dict, factor: float) -> dict:
    """Time metrics multiplied by `factor`; others unchanged."""
    return {name: (value * factor if unit in TIME_UNITS else value, unit)
            for name, (value, unit) in metrics.items()}


def run_child(argv: list[str], out: Path, traced: bool) -> dict:
    """One eamsim invocation in a fresh process; wall time and peak RSS are
    taken from outside, the rest from the child's own report."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = out.parent / "child.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result), str(int(traced)), "--",
           *argv, "--out", str(out)]
    with open(out.parent / "child.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would report
        # the largest child ever waited for.
        old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}
    if result.is_file():
        sample.update(json.loads(result.read_text()))
    sample["stderr"] = (out.parent / "child.err").read_text()[-2000:]
    return sample


def problems_of(sample: dict, out: Path, expected: dict | None) -> list[str]:
    """Why a run is not correct; empty when it passed every check.

    `expected` holds the golden artifact digests; None checks all but those.
    """
    if sample["exit"] != 0 or "cells" not in sample:
        return [f"exit code {sample['exit']}: {sample['stderr'].strip()[-300:]}"]
    problems = []
    if expected is not None:
        got = artifact_digests(out)
        for name in sorted(set(got) | set(expected["artifacts"])):
            if got.get(name) != expected["artifacts"].get(name):
                problems.append(f"{name} differs from its golden digest")
    if not sample["cells"]:
        problems.append("no simulation ran")
    for cell in sample["cells"]:
        residual = ledger_residual(cell["totals"])
        if not abs(residual) < LEDGER_TOLERANCE_J:
            problems.append(f"{cell['policy']} ledger residual {residual!r} J")
    return problems


def _total_ns(sample: dict, name: str) -> int:
    return sample["spans"].get(name, [0, 0, 0])[1]


def _loop_ns_slots(sample: dict, policy: str | None = None) -> tuple[int, int]:
    """Host ns of engine.run's slot loop (without init_sim and _finalize),
    and slots, over the cells."""
    cells = [c for c in sample["cells"] if policy in (None, c["policy"])]
    return (sum(c["run_ns"] - c["init_ns"] - c["finalize_ns"] for c in cells),
            sum(c["slots"] for c in cells))


def end_to_end(sample: dict) -> dict:
    setup_ns = sample["import_ns"] + sum(
        _total_ns(sample, name)
        for name in ("config.load", "config.overrides", "config.build", "engine.init_sim")
    )
    loop_ns, slots = _loop_ns_slots(sample)
    return {
        "wall_s": (sample["wall_s"], "s"),
        "setup_s": (setup_ns / 1e9, "s"),
        "us_per_slot": (loop_ns / slots / 1e3, "us"),
        "peak_rss_mb": (sample["peak_rss_mb"], "MB"),
    }


def untraced_layers(sample: dict, compare: bool) -> dict:
    """Per-layer figures that need no tracing: loop cost per policy, cell cost."""
    metrics = {}
    for policy in ("eam", "fh", "central"):
        ns, slots = _loop_ns_slots(sample, policy)
        metrics[f"engine.loop_us.{policy}"] = (ns / slots / 1e3 if slots else 0.0, "us/slot")
    cells = len(sample["cells"])
    cell_ns = _total_ns(sample, "config.build") + _total_ns(sample, "engine.run")
    metrics["cli.compare.cell_ms"] = (cell_ns / cells / 1e6 if compare else 0.0, "ms")
    return metrics


def traced_layers(sample: dict, out_bytes: int) -> dict:
    spans, counts, cells = sample["spans"], sample["counts"], sample["cells"]
    slots = sum(c["slots"] for c in cells)

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def per_slot(name, self_only=False):
        n, total, child = spans.get(name, [0, 0, 0])
        return ((total - child) if self_only else total) / slots / 1e3

    metrics = {
        "engine.slots": (slots, "count"),
        "config.build_ms": (_total_ns(sample, "config.build") / 1e6, "ms"),
        "engine.init_sim_ms": (_total_ns(sample, "engine.init_sim") / 1e6, "ms"),
        "engine.step.self_us": (per_slot("engine.step", self_only=True), "us/slot"),
        "engine.finalize_ms": (_total_ns(sample, "engine.finalize") / 1e6, "ms"),
        "engine.idle_slot_frac": (1.0 - counts["active_slots"] / slots, "ratio"),
        "engine.busy_slot_frac": (counts["busy_slots"] / slots, "ratio"),
        "engine.events": (sum(c["events"] for c in cells), "count"),
        "engine.aborts": (sum(c["aborts"] for c in cells), "count"),
        "policy.policy_step.calls": (calls("policy.policy_step"), "count"),
        "policy.policy_step.us": (per_slot("policy.policy_step"), "us/slot"),
        "policy.policy_step.self_us": (per_slot("policy.policy_step", self_only=True), "us/slot"),
        "policy.policy_step.useful_ratio": (
            counts["useful"] / max(calls("policy.policy_step"), 1), "ratio"),
        "policy.policy_step.run_share": (
            _total_ns(sample, "policy.policy_step") / _total_ns(sample, "engine.run"), "ratio"),
        "policy.profile.us": (per_slot("policy.profile"), "us/slot"),
        "policy.fire_releases.us": (per_slot("policy.fire_releases"), "us/slot"),
        "policy.fire_releases.fired": (counts["fired"], "count"),
        "policy.set_task_states.us": (per_slot("policy.set_task_states"), "us/slot"),
        "policy.set_task_states.transitions": (counts["transitions"], "count"),
        "policy.pick_execution_task.us": (per_slot("policy.pick_execution_task"), "us/slot"),
        "policy.pick_execution_task.started": (counts["started"], "count"),
        "detector.detect.calls": (calls("detector.detect"), "count"),
        "detector.detect.us": (per_slot("detector.detect"), "us/slot"),
        "energy.withdraw.calls": (calls("energy.withdraw"), "count"),
        "energy.withdraw.us": (per_slot("energy.withdraw"), "us/slot"),
        "energy.withdraw.failed": (counts["withdraw_failed"], "count"),
        "cli.events_ms": (_total_ns(sample, "cli.write.events.log") / 1e6, "ms"),
        "cli.timeline_ms": (
            (_total_ns(sample, "cli.timeline_lines")
             + _total_ns(sample, "cli.write.timeline.csv")) / 1e6, "ms"),
        "cli.bytes": (out_bytes, "bytes"),
    }
    for policy in ("eam", "fh", "central"):
        policy_slots = sum(c["slots"] for c in cells if c["policy"] == policy)
        ns = _total_ns(sample, f"policy.allocate.{policy}")
        metrics[f"policy.allocate.us.{policy}"] = (
            ns / policy_slots / 1e3 if policy_slots else 0.0, "us/slot")
    return metrics


def medians(samples: list[dict]) -> dict:
    """Median of each metric over the runs, as {name: (value, unit)}."""
    return {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def describe(name: str, samples: list[dict]) -> str:
    values = [s[name][0] for s in samples]
    return (f"{name:40s} median {statistics.median(values):.6g} {samples[0][name][1]}"
            f"  (min {min(values):.6g}, max {max(values):.6g}, n={len(values)})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "eamsim" / "__init__.py").is_file():
        print(f"error: eamsim sources not found under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    # Children inherit the affinity, so every process of the run, and the
    # reference loop, share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, golden, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, golden: dict, work: Path) -> int:
    argv, variant, config_sha = prepare(args.workload, args.seed, work)
    expected = golden[args.workload].get(variant)
    if expected is None:
        fatal = ["no golden digests for this input"]
    elif expected["config_sha256"] != config_sha:
        fatal = [f"input config {config_sha[:16]} differs from the recorded one"]
    else:
        fatal = []
    out = work / "out"
    plain, traced, refs, failed, attempted = [], [], [], 0, 0
    out_bytes = 0
    start = time.perf_counter()
    while True:
        for tracing in (False, True) if args.trace else (False,):
            refs.append(reference_s())
            sample = run_child(argv, out, tracing)
            attempted += 1
            problems = fatal + problems_of(sample, out, expected)
            if problems:
                failed += 1
                print(f"run {attempted} FAILED: " + "; ".join(problems), file=sys.stderr)
                continue
            if tracing:
                out_bytes = sum(p.stat().st_size for p in out.iterdir())
                traced.append(sample)
            else:
                plain.append(sample)
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (args.trace or attempted >= MIN_RUNS):
            break
    if not plain or (args.trace and not traced):
        print("error: no run succeeded", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  input variant {variant}  "
          f"config sha256 {config_sha}")
    print("env " + json.dumps(environment()))
    reference = statistics.median(refs)
    factor = REFERENCE_S / reference
    print(f"reference loop median {reference:.6g} s over {len(refs)} runs "
          f"(min {min(refs):.6g}, max {max(refs):.6g}); "
          f"times below are raw, the result's are scaled by {factor:.6g}")
    e2e = [end_to_end(s) for s in plain]
    for name in e2e[0]:
        print(describe(name, e2e))
    if args.trace:
        compare = argv[0] == "compare"
        layers = [traced_layers(t, out_bytes) | untraced_layers(p, compare)
                  for t, p in zip(traced, plain)]
        traced_us = statistics.median(end_to_end(s)["us_per_slot"][0] for s in traced)
        overhead = traced_us / medians(e2e)["us_per_slot"][0] - 1.0
        for name in layers[0]:
            print(describe(name, layers))
        metrics = medians(layers)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        print(f"{'trace.overhead_frac':40s} {overhead:.6g} ratio")
        if args.workload == "attack_storm":
            values = {name: value for name, (value, _) in metrics.items()}
            problems = storm_selfcheck(values, golden["hvac_useful_ratio"])
            print("attack_storm self-check: " + ("; ".join(problems) or "pass"))
    else:
        metrics = medians(e2e)
    metrics = scaled(metrics, factor)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
