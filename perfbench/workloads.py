"""The benchmark's workloads: what each one runs, and the inputs it is given.

Every workload is one eamsim command line, run in its own fresh process.
Its inputs are made from the benchmark seed and handed to eamsim as ordinary
files and flags, so the program sees nothing a user could not give it.

hvac_hour     the bundled configs/hvac_attack.yaml with eam: 720,000 slots
              of 5 ms, almost all of them idle.  Its input is the same for
              every seed; it is the reference run the ROADMAP's figures use.
attack_storm  a 600 s, 2 ms-slot config drawn from the seed (storm_config):
              a busy four-task pipeline, about eight attacks over half the
              horizon and a noisy, delayed detector, with a timeline row per
              slot.  Decision points are dense and export is large.
policy_sweep  `eamsim compare` on hvac_attack.yaml over all three policies
              and four attack durations, at a 600 s horizon with the
              timeline off.  The seed sets the sweep's attack starts.

A seed selects one of VARIANTS inputs (seed mod VARIANTS) for the seeded
workloads, so that every run's artifacts can be checked against digests
recorded once at the seed commit (golden.json).
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
from importlib import metadata
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HVAC_CONFIG = ROOT / "configs" / "hvac_attack.yaml"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("hvac_hour", "attack_storm", "policy_sweep")
VARIANTS = 16
ARTIFACTS = ("metrics.csv", "events.log", "timeline.csv", "compare.csv")

STORM_HORIZON_S = 600.0
STORM_ATTACKS = 8


def variant_of(workload: str, seed: int) -> str:
    """Key of the input a seed selects; hvac_hour has a single input."""
    return "0" if workload == "hvac_hour" else str(seed % VARIANTS)


def storm_config(variant: int) -> dict:
    """The attack_storm run configuration for one variant, drawn from it alone.

    Attacks: one per eighth of the horizon, each 45-55% of its eighth long,
    so about half of the horizon is under attack.  The detector reports each
    attack 0.5-1.5 s late and misjudges the remaining time by up to 30-40%.
    The pipeline is the HVAC shape (two sensors -> decision -> actuator),
    released every second in NML, with task costs jittered by +-10%, on a
    rectified-sine harvest of 3.0-3.2 V.  The ranges are narrow so that every
    variant costs about the same to simulate: runs on different seeds are
    compared with each other.
    """
    rng = random.Random(variant)
    segment = STORM_HORIZON_S / STORM_ATTACKS
    attacks = []
    for k in range(STORM_ATTACKS):
        duration = round(rng.uniform(0.45, 0.55) * segment, 3)
        start = round(k * segment + rng.uniform(0.0, segment - duration), 3)
        attacks.append(
            {"start_s": start, "duration_s": duration, "kind": "short", "id": f"storm{k}"}
        )
    nml = 3600.0

    def task(tid, cost_uj, duration_ms, buffer, component, preds=()):
        jitter = rng.uniform(0.9, 1.1)
        node = {
            "id": tid,
            "energy_cost_uj": round(cost_uj * jitter, 3),
            "duration_ms": round(duration_ms * jitter, 3),
            "buffer": buffer,
            "component": component,
            "rates_per_hour": {
                "nml": nml,
                "lp": round(nml / 2, 1),
                "ctl": round(nml / 4, 1),
                "sa": nml,
                "la": round(nml / 2, 1),
            },
        }
        if preds:
            node["predecessors"] = list(preds)
        return node

    return {
        "trace": {
            "kind": "sinusoid",
            "amplitude_v": round(rng.uniform(3.0, 3.2), 3),
            "period_s": round(rng.uniform(60.0, 90.0), 3),
            "length_s": STORM_HORIZON_S + 10.0,
            "sample_interval_s": 0.5,
            "load_resistance_ohm": 30000.0,
        },
        "attacks": attacks,
        "app": {
            "name": "storm",
            "sink": "AC",
            "tasks": [
                task("TS", 19.066, 12.03, 0, "sensing"),
                task("HS", 19.066, 12.03, 0, "sensing"),
                task("D", 15.731, 10.182, 0, "mcu", ("HS", "TS")),
                task("AC", 92.931, 60.15, 1, "actuation", ("D",)),
            ],
        },
        "policy": "eam",
        "params": {"alpha_s": 30.0, "omega0_frac": 0.2, "omega1_frac": 0.6},
        "bank": {
            "capacitors": [
                {"capacitance_uf": 33.0, "drain_fraction_per_slot": 1.0e-6,
                 "initial_soc": round(rng.uniform(0.7, 0.8), 3)},
                {"capacitance_uf": 220.0, "drain_fraction_per_slot": 1.0e-6,
                 "initial_soc": round(rng.uniform(0.7, 0.8), 3)},
            ],
            "components": {"mcu": 0, "sensing": 0, "actuation": 1},
        },
        "detector": {
            "detection_delay_s": round(rng.uniform(0.5, 1.5), 3),
            "remaining_time_error": round(rng.uniform(0.3, 0.4), 3),
            "reported_accuracy": round(rng.uniform(0.85, 0.95), 3),
            "rng_seed": rng.randrange(1 << 16),
        },
        "sim": {
            "dt_ms": 2.0,
            "horizon_s": STORM_HORIZON_S,
            "rng_seed": variant,
            "queue_capacity": 4,
            "timeline_stride": 1,
            "label": f"attack-storm-{variant}",
        },
    }


def prepare(workload: str, seed: int, work: Path) -> tuple[list[str], str, str]:
    """Write the workload's inputs under `work`.

    Returns (eamsim argv without --out, variant key, SHA-256 of the config
    file the program reads).
    """
    variant = variant_of(workload, seed)
    if workload == "hvac_hour":
        config = HVAC_CONFIG
        argv = ["run", "--config", str(config)]
    elif workload == "attack_storm":
        config = work / f"storm_{variant}.yaml"
        text = yaml.safe_dump(storm_config(int(variant)), sort_keys=True)
        config.write_text(text)
        argv = ["run", "--config", str(config)]
    elif workload == "policy_sweep":
        config = HVAC_CONFIG
        argv = [
            "compare", "--config", str(config), "--seed", variant,
            "--policies", "eam,fh,central", "--attack-durations", "30,60,120,300",
            "--set", "sim.horizon_s=600", "--set", "sim.timeline_stride=0",
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return argv, variant, sha256_file(config)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_digests(out: Path) -> dict:
    """SHA-256 of every artifact the run wrote, by file name."""
    return {name: sha256_file(out / name) for name in ARTIFACTS if (out / name).is_file()}


def source_digest() -> str:
    """SHA-256 over the simulator's source files, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "eamsim").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    """What a result was measured with, beside the machine's CPU model."""
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "eamsim_source": source_digest(),
    }


def ledger_residual(totals: dict) -> float:
    """Energy-ledger residual of one run, J; zero when the books balance."""
    return (
        totals["e_start"]
        + totals["charged"]
        - totals["sigma_drain"]
        - totals["withdrawn"]
        - totals["decision_drained"]
        - totals["spilled"]
        + totals["reset_delta"]
        - totals["e_end"]
    )


def storm_selfcheck(layers: dict, hvac_useful_ratio: float) -> list[str]:
    """Problems that would stop attack_storm from doing its job, if any.

    attack_storm exists to load the layers hvac_hour leaves idle: the
    detector, dense decisions and the running task's draw.
    """
    problems = []
    if layers["detector.detect.calls"] < 0.3 * layers["engine.slots"]:
        problems.append("detector consulted on fewer than 30% of slots")
    if layers["engine.idle_slot_frac"] > 0.5:
        problems.append("more than half of the slots are idle")
    if layers["policy.policy_step.useful_ratio"] < 10 * hvac_useful_ratio:
        problems.append("useful decision ratio below 10x hvac_hour's")
    return problems
