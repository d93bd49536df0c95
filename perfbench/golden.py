"""Record the digests every benchmark run is checked against (golden.json).

    python3 perfbench/golden.py

For every input of every workload (hvac_hour's one input and VARIANTS
inputs each of attack_storm and policy_sweep) this runs eamsim once untraced
and once traced.  Both runs must exit 0, write identical artifacts and
balance every energy ledger.  Each attack_storm config must also pass
eamsim's validate_config and the storm self-check.  Only then is
golden.json written.  Record it at a commit whose behaviour is the
reference; a change that alters the artifacts on purpose records them again
and says why.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import (
    GOLDEN,
    SRC,
    VARIANTS,
    WORKLOADS,
    artifact_digests,
    prepare,
    source_digest,
    storm_selfcheck,
)


def record(workload: str, variant: int, work, hvac_useful_ratio: float) -> tuple[dict, dict]:
    """Golden entry of one input, and the traced run's per-layer metrics."""
    from eamsim.config import build_sim_config, load_config
    from eamsim.engine import validate_config

    argv, _, config_sha = prepare(workload, variant, work)
    out = work / "out"
    plain = run.run_child(argv, out, traced=False)
    problems = run.problems_of(plain, out, None)
    entry = {"config_sha256": config_sha, "artifacts": artifact_digests(out)}
    traced = run.run_child(argv, out, traced=True)
    problems += run.problems_of(traced, out, entry)
    layers = {}
    if not problems:
        layers = run.traced_layers(traced, sum(p.stat().st_size for p in out.iterdir()))
        layers = {name: value for name, (value, _) in layers.items()}
    if workload == "attack_storm" and not problems:
        problems += validate_config(build_sim_config(load_config(argv[2])))
        problems += storm_selfcheck(layers, hvac_useful_ratio)
    if problems:
        raise SystemExit(f"{workload} variant {variant}: " + "; ".join(problems))
    print(f"{workload} variant {variant}: {config_sha[:16]} "
          + " ".join(f"{k} {v[:12]}" for k, v in entry["artifacts"].items()), flush=True)
    return entry, layers


def main() -> int:
    sys.path.insert(0, str(SRC))
    work = run.WORK / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        hvac, layers = record("hvac_hour", 0, work, 0.0)
        useful = layers["policy.policy_step.useful_ratio"]
        golden = {
            "eamsim_source": source_digest(),
            "hvac_useful_ratio": useful,
            "hvac_hour": {"0": hvac},
        }
        for workload in WORKLOADS[1:]:
            golden[workload] = {
                str(v): record(workload, v, work, useful)[0] for v in range(VARIANTS)
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
