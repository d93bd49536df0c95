"""Differential check: every bundled config x policy x {plain, --equal-budget}
reproduces the recorded SHA-256 of metrics.csv, events.log and timeline.csv.

Horizons are shortened with --set overrides so the whole matrix stays near
2.2 M simulated slots; every run still contains its attack onset.  The same
runs back a second check: every logged task-state change is a legal
transition of the scheduler's state machine.  hvac_attack.yaml also runs in
two variants: unshortened (one hour, 720 k slots per run), the only runs
whose idle stretches last tens of minutes, and shortened with a late, noisy
detector and a timeline row per slot, the only runs whose remaining-time
estimates straddle the policy's thresholds.  One attack_storm input and one
policy_sweep input of the benchmark are also checked against the digests the
benchmark itself records (perfbench/golden.json), which this file only reads.

A change that means to alter run output re-records the digests with

    PYTHONPATH=src python tests/test_digests.py --record

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from eamsim.cli import main
from conftest import CONFIGS, NOISY_HVAC, WORKLOADS

DIGESTS = Path(__file__).with_name("golden_digests.json")
ARTIFACTS = ("metrics.csv", "events.log", "timeline.csv")
POLICIES = ("eam", "fh", "central")
MODES = ("plain", "equal_budget")

# Shortening overrides per bundled config (compare_* configs run in full).
SHORTEN = {
    "compare_constant_300s.yaml": (),
    "compare_constant_30s.yaml": (),
    "compare_sine_300s.yaml": (),
    "compare_sine_30s.yaml": (),
    "hvac_attack.yaml": ("attacks.0.start_s=300", "sim.horizon_s=600"),
    "twotask_short_attack.yaml": ("sim.horizon_s=300",),
}

# Observable task-state transitions.  SUSPENDED is entered only from RUNNING
# when an execution aborts on energy failure, and leaves on the next
# scheduling pass once the task is re-classified.
LEGAL_TRANSITIONS = frozenset(
    {
        ("blocked", "ready"),
        ("ready", "blocked"),
        ("ready", "running"),
        ("running", "blocked"),
        ("running", "suspended"),
        ("suspended", "ready"),
        ("suspended", "blocked"),
    }
)

CASES = [(c, p, m) for c in sorted(SHORTEN) for p in POLICIES for m in MODES]

# Variant runs of FULL, recorded under "<config>:<policy>:<mode>:<variant>",
# with their overrides.
FULL = "hvac_attack.yaml"
FULL_CASES = [(p, m) for p in POLICIES for m in MODES]
VARIANTS = {"full": (), "noisy": NOISY_HVAC}

# The benchmark inputs checked against perfbench/golden.json.
STORM_VARIANT = 7
SWEEP_VARIANT = 11


def test_shorten_table_covers_every_bundled_config():
    assert sorted(p.name for p in CONFIGS.glob("*.yaml")) == sorted(SHORTEN)


@lru_cache(maxsize=None)
def _artifacts(config: str, policy: str, mode: str, variant: str | None = None) -> dict:
    """Run one case through the CLI; artifact name -> bytes (None if absent)."""
    argv = ["run", "--config", str(CONFIGS / config), "--set", f"policy={policy}"]
    for override in SHORTEN[config] if variant is None else VARIANTS[variant]:
        argv += ["--set", override]
    if mode == "equal_budget":
        argv.append("--equal-budget")
    with tempfile.TemporaryDirectory() as out:
        assert main(argv + ["--out", out]) == 0
        return {
            name: (Path(out) / name).read_bytes() if (Path(out) / name).exists() else None
            for name in ARTIFACTS
        }


def _digests(config: str, policy: str, mode: str, variant: str | None = None) -> dict:
    return {
        name: None if data is None else hashlib.sha256(data).hexdigest()
        for name, data in _artifacts(config, policy, mode, variant).items()
    }


def _key(config: str, policy: str, mode: str, variant: str | None = None) -> str:
    return f"{config}:{policy}:{mode}" + (f":{variant}" if variant else "")


@pytest.mark.parametrize("config,policy,mode", CASES)
def test_artifacts_match_recorded_digests(config, policy, mode, capsys):
    expected = json.loads(DIGESTS.read_text())[_key(config, policy, mode)]
    got = _digests(config, policy, mode)
    capsys.readouterr()  # the run prints its metric summary
    assert got == expected


@pytest.mark.parametrize("policy,mode", FULL_CASES)
def test_full_hour_artifacts_match_recorded_digests(policy, mode, capsys):
    expected = json.loads(DIGESTS.read_text())[_key(FULL, policy, mode, "full")]
    got = _digests(FULL, policy, mode, "full")
    capsys.readouterr()
    assert got == expected


@pytest.mark.parametrize("policy,mode", FULL_CASES)
def test_noisy_detector_artifacts_match_recorded_digests(policy, mode, capsys):
    expected = json.loads(DIGESTS.read_text())[_key(FULL, policy, mode, "noisy")]
    got = _digests(FULL, policy, mode, "noisy")
    capsys.readouterr()
    assert got == expected


def test_attack_storm_artifacts_match_the_benchmark_digests(tmp_path, capsys):
    """One attack_storm input, built and run as the benchmark builds and runs
    it, reproduces the digests in perfbench/golden.json."""
    argv, variant, config_sha = WORKLOADS.prepare("attack_storm", STORM_VARIANT, tmp_path)
    expected = json.loads(WORKLOADS.GOLDEN.read_text())["attack_storm"][variant]
    assert config_sha == expected["config_sha256"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert WORKLOADS.artifact_digests(tmp_path / "out") == expected["artifacts"]


def test_policy_sweep_artifacts_match_the_benchmark_digests(tmp_path, capsys):
    """One policy_sweep input (12 cells of eam, fh and central), built and
    run as the benchmark builds and runs it, reproduces the digests in
    perfbench/golden.json."""
    argv, variant, config_sha = WORKLOADS.prepare("policy_sweep", SWEEP_VARIANT, tmp_path)
    expected = json.loads(WORKLOADS.GOLDEN.read_text())["policy_sweep"][variant]
    assert config_sha == expected["config_sha256"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert WORKLOADS.artifact_digests(tmp_path / "out") == expected["artifacts"]


@pytest.mark.parametrize("config,policy,mode", CASES)
def test_every_state_event_is_a_legal_transition(config, policy, mode, capsys):
    events = _artifacts(config, policy, mode)["events.log"].decode().splitlines()
    capsys.readouterr()
    illegal = []
    seen = 0
    for line in events:
        fields = line.split(",")
        if fields[1] == "state":
            seen += 1
            if (fields[3], fields[4]) not in LEGAL_TRANSITIONS:
                illegal.append(line)
    assert seen > 0
    assert illegal == []


def _record() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        table = {_key(*case): _digests(*case) for case in CASES}
        table.update({_key(FULL, *case, variant): _digests(FULL, *case, variant)
                      for variant in VARIANTS for case in FULL_CASES})
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} ({len(table)} cases)")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
