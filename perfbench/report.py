"""Run a set of workloads and print every metric with its unit and verdict.

    python3 perfbench/report.py [--workloads hvac_hour,attack_storm,policy_sweep]
                                [--seconds 35] [--seed 1]

Each workload is run twice through perfbench/run.py: with --trace 0 for the
end-to-end metrics and with --trace 1 for the per-layer ones.  The report
starts with the environment the numbers were taken in and ends with the
correctness verdict over every run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS, environment

HERE = Path(__file__).resolve().parent
# Share of the eam hvac_attack run spent in policy_step under cProfile, as
# the ROADMAP's baseline states it; the traced run is checked against it.
CPROFILE_POLICY_STEP_SHARE = 0.63


def full_environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return environment() | {"cpu": cpu, "git_sha": sha}


def bench(workload: str, trace: int, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("attack_storm self-check"):
            print(line)
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"run.py exited {proc.returncode}"}
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")

    env = full_environment()
    print("environment: " + json.dumps(env))
    results = {}
    for workload in workloads:
        for trace in (0, 1):
            res = bench(workload, trace, args.seed, args.seconds)
            results[f"{workload}/trace{trace}"] = res
            print(f"\n{workload} (trace {trace}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {res.get('error', '')}")
            for name, m in res["metrics"].items():
                print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
        share = results[f"{workload}/trace1"]["metrics"].get("policy.policy_step.run_share")
        if workload == "hvac_hour" and share:
            print(f"  cross-check: traced policy_step share {share['value']:.3f} of engine.run "
                  f"vs {CPROFILE_POLICY_STEP_SHARE} under cProfile")
    correct = all(r["correct"] for r in results.values())
    print(f"\nverdict: {'correct' if correct else 'INCORRECT'} over "
          f"{sum(r['attempted'] for r in results.values())} runs, "
          f"{sum(r['failed'] for r in results.values())} failed")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
