"""End-to-end checks: physics laws, the policy table, scheduler safety, the
attack storyboard, policy dominance, overhead and determinism.

Each test is one self-contained check with its tolerance stated inline, so a
verbose run prints one verdict line per property.  Heavy simulations are
cached and shared across tests.
"""

import math
import random
import time
from functools import lru_cache

from eamsim import cli
from eamsim.apps import Profile
from eamsim.config import apply_overrides, build_sim_config, load_config
from eamsim.detector import NO_ATTACK, AttackInfo
from eamsim.energy import Capacitor, energy_at, slot_constants, slot_update
from eamsim.engine import run
from eamsim.policy import PolicyParams, select_profile
from conftest import CONFIGS, of_kind

COMPARE_CONFIGS = (
    CONFIGS / "compare_constant_30s.yaml",
    CONFIGS / "compare_constant_300s.yaml",
    CONFIGS / "compare_sine_30s.yaml",
    CONFIGS / "compare_sine_300s.yaml",
)
POLICIES = ("eam", "fh", "central")


@lru_cache(maxsize=None)
def scenario_run(path, policy: str, equal_budget: bool = False):
    doc = load_config(path)
    doc["policy"] = policy
    if equal_budget:
        doc["sim"] = dict(doc["sim"], equal_budget=True)
    return run(build_sim_config(doc))


@lru_cache(maxsize=None)
def hvac_run():
    return run(build_sim_config(load_config(CONFIGS / "hvac_attack.yaml")))


def slots(cap, power, dt, k):
    """Run a one-buffer bank through k slots of slot_update at a constant
    allotted power; returns the stored energy after the last one."""
    caps, constants, shares = (cap,), (slot_constants(cap),), (power,)
    ledger = [0.0, 0.0, 0.0]
    energy = 0.5 * cap.capacitance * cap.voltage * cap.voltage
    for _ in range(k):
        energy = slot_update(caps, constants, shares, dt, ledger)
    return energy


def test_c01_charging_reaches_the_source_limited_plateau():
    """After 40/sigma slots at a constant share the stored energy sits at
    min(eta*P*dt/sigma, capacity) (rel 1e-9); about 40% of the plateaus lie
    above capacity, so the clip is tested too."""
    rng = random.Random(20260814)
    worst = 0.0
    clipped = 0
    for _ in range(200):
        c = rng.uniform(1e-6, 1e-2)
        sigma = rng.uniform(0.01, 0.05)
        eta = rng.uniform(0.5, 1.0)
        v_max = rng.uniform(3.0, 6.0)
        dt = rng.uniform(1e-3, 1.0)
        capacity = 0.5 * c * v_max * v_max
        # The plateau eta*P*dt/sigma is drawn as a multiple of the capacity.
        p = rng.uniform(0.05, 1.7) * capacity * sigma / (eta * dt)
        plateau = min(eta * p * dt / sigma, capacity)
        clipped += plateau == capacity
        cap = Capacitor(capacitance=c, drain_fraction=sigma, efficiency=eta,
                        v_max=v_max, voltage=rng.uniform(0.0, v_max))
        got = slots(cap, p, dt, math.ceil(40.0 / sigma))
        worst = max(worst, abs(got - plateau) / plateau)
    assert clipped >= 40, f"only {clipped} clipped plateaus"
    assert worst < 1e-9, f"worst steady-state error {worst:.3e}"


def test_c02_unpowered_buffer_decays_by_one_neper_per_time_constant():
    """With no harvest, k slots scale the stored energy by (1-sigma)^k, one
    neper per time constant -dt/ln(1-sigma) (rel 1e-9)."""
    rng = random.Random(20260814)
    worst = 0.0
    for _ in range(200):
        c = rng.uniform(1e-6, 1e-2)
        sigma = rng.uniform(1e-4, 0.05)
        v_max = rng.uniform(3.0, 6.0)
        v0 = rng.uniform(0.1, v_max)
        k = rng.randint(1, 2000)
        cap = Capacitor(capacitance=c, drain_fraction=sigma, v_max=v_max, voltage=v0)
        expected = 0.5 * c * v0 * v0 * (1.0 - sigma) ** k
        got = slots(cap, 0.0, rng.uniform(1e-3, 1.0), k)
        worst = max(worst, abs(got - expected) / expected)
    assert worst < 1e-9, f"worst decay error {worst:.3e}"


def test_c03_slot_update_matches_the_closed_form_bit_for_bit():
    """1000 random clamp-free slots: (1-sigma)*E + eta*P*dt, exactly."""
    rng = random.Random(20260814)
    for _ in range(1000):
        c = rng.uniform(1e-5, 1e-2)
        sigma = rng.uniform(0.0, 0.05)
        eta = rng.uniform(0.5, 1.0)
        v_max = rng.uniform(3.0, 6.0)
        v0 = rng.uniform(0.0, 0.5 * v_max)
        dt = rng.uniform(1e-3, 1.0)
        # Cap the harvest at half the remaining headroom so the energy
        # ceiling never binds and the closed form applies unclipped.
        kept = (1.0 - sigma) * (0.5 * c * v0 * v0)
        ceiling = 0.5 * c * v_max * v_max
        p = rng.uniform(0.0, 0.5 * (ceiling - kept) / (eta * dt))
        cap = Capacitor(capacitance=c, drain_fraction=sigma, efficiency=eta,
                        v_max=v_max, voltage=v0)
        expected = kept + eta * p * dt
        assert expected < energy_at(cap, v_max)
        got = slot_update((cap,), (slot_constants(cap),), (p,), dt, [0.0, 0.0, 0.0])
        assert got == expected  # bit-for-bit
        assert cap.voltage == min(math.sqrt(2.0 * expected / c), v_max)


def test_c04_profile_selection_grid_has_zero_mismatches():
    """Exhaustive 12-cell truth table of (attack?, remaining vs alpha, E vs
    the two thresholds)."""
    params = PolicyParams(alpha=60.0, omega0=2.0, omega1=6.0)
    grid = [
        (False, 30.0, 1.0, Profile.CTL),
        (False, 30.0, 4.0, Profile.LP),
        (False, 30.0, 9.0, Profile.NML),
        (False, 120.0, 1.0, Profile.CTL),
        (False, 120.0, 4.0, Profile.LP),
        (False, 120.0, 9.0, Profile.NML),
        (True, 30.0, 1.0, Profile.SA),
        (True, 30.0, 4.0, Profile.SA),
        (True, 30.0, 9.0, Profile.SA),
        (True, 120.0, 1.0, Profile.LA),
        (True, 120.0, 4.0, Profile.LA),
        (True, 120.0, 9.0, Profile.LA),
    ]
    mismatches = []
    for ongoing, remaining, total, expected in grid:
        info = (
            AttackInfo(ongoing=True, accuracy=1.0, elapsed=1.0, remaining=remaining)
            if ongoing
            else NO_ATTACK
        )
        got = select_profile(info, total, params)
        if got is not expected:
            mismatches.append((ongoing, remaining, total, expected, got))
    assert mismatches == []


def test_c05_scheduler_safety_over_an_attacked_hour():
    """One simulated hour, one 60 s outage: every start funded, at most one
    task running, nothing admitted mid-attack it could not finish, aborts
    leave queues untouched.  Wall time below 10 s."""
    t0 = time.perf_counter()
    report, log = hvac_run()
    wall = time.perf_counter() - t0
    assert wall < 10.0, f"simulation took {wall:.1f} s"

    config = build_sim_config(load_config(CONFIGS / "hvac_attack.yaml"))
    window = config.attacks[0]

    # At most one task Running in any slot, tracked over state transitions.
    running: set = set()
    for ev in of_kind(log, "state"):
        _, _, tid, old, new = ev
        if new == "running":
            running.add(tid)
        elif old == "running":
            running.discard(tid)
        assert len(running) <= 1, f"{running} running together at t={ev[0]}"
    assert running == set()

    # Every start is funded: usable energy at the start instant covers the
    # full task cost (1e-8 J slack for float accumulation).
    floor = {
        b: energy_at(cap, cap.v_off) for b, cap in enumerate(config.bank.capacitors)
    }
    buffer_of = {t.id: t.buffer for t in config.app.tasks}
    for t, _, tid, energy, cost in of_kind(log, "start"):
        assert energy - floor[buffer_of[tid]] >= cost - 1e-8, (tid, t)

    # Nothing becomes Ready mid-attack unless a full period fits into the
    # remaining attack time.  Replay the profile so periods are current.
    profile = Profile(of_kind(log, "init")[0][4])
    changes = iter(of_kind(log, "profile") + [(math.inf, "profile", None)])
    change = next(changes)
    violations = []
    for ev in of_kind(log, "state"):
        while ev[0] >= change[0]:
            profile = Profile(change[2])
            change = next(changes)
        if ev[4] == "ready" and window.start <= ev[0] < window.end:
            remaining = window.end - ev[0]
            period = 3600.0 / config.app.task(ev[2]).rates[profile]
            if period >= remaining:
                violations.append(ev)
    assert violations == []
    # For this workload the periods exceed any credible outage, so the
    # mitigation admits nothing at all inside the window.
    assert [e for e in of_kind(log, "state")
            if e[4] == "ready" and window.start <= e[0] < window.end] == []

    # Aborts are transactional: no queue traffic at the abort instant.
    for t, _, tid, _, _ in of_kind(log, "abort"):
        assert [e for e in log.events
                if e[0] == t and e[1] in ("push", "pop", "drop") and e[2] == tid] == []


def test_c06_short_attack_storyboard_on_the_two_task_pipeline():
    """Ordered event-log predicates: the attack is seen, the short-attack
    profile engages, harvest concentrates on the light task's buffer, the
    heavy dependent task is held back until the attack passes, then normal
    periodic execution resumes."""
    report, log = run(build_sim_config(load_config(CONFIGS / "twotask_short_attack.yaml")))
    begin, end = 180.0, 220.0

    assert of_kind(log, "attack_seen") == [
        (begin, "attack_seen", "begin"),
        (end, "attack_seen", "end"),
    ]
    assert of_kind(log, "profile") == [
        (begin, "profile", "SA"),
        (end, "profile", "NML"),
    ]

    # First allocation on or after the onset favours T1's buffer 0.
    alloc = next(e for e in of_kind(log, "alloc") if e[0] >= begin)
    assert alloc[2] > alloc[3], alloc

    t2_starts = [e[0] for e in of_kind(log, "start") if e[2] == "T2"]
    assert [t for t in t2_starts if begin <= t < end] == []

    t1_finishes = [e[0] for e in of_kind(log, "finish")
                   if e[2] == "T1" and begin <= e[0] < end]
    assert len(t1_finishes) >= 1  # the light task keeps running mid-attack

    resumed = [t for t in t2_starts if t >= end]
    assert resumed and resumed[0] < end + 1.0  # prompt resumption
    t2_finishes = [e[0] for e in of_kind(log, "finish")
                   if e[2] == "T2" and e[0] >= end]
    assert len(t2_finishes) >= 2  # periodic execution re-established

    # The whole storyboard in order.
    assert begin <= alloc[0] <= t1_finishes[0] < end <= resumed[0] < t2_finishes[1]


def test_c07_execution_rate_dominance_across_attack_scenarios():
    """Constant and sinusoid harvests, 30 s and 300 s outages: the mitigation
    never completes fewer pipelines than either baseline, and under a matched
    energy budget its in-attack rate clears the 1.10x bar on at least one
    scenario.  All 24 runs inside one minute."""
    t0 = time.perf_counter()
    for path in COMPARE_CONFIGS:
        rates = {p: scenario_run(path, p)[0].app_exec_rate for p in POLICIES}
        assert rates["eam"] >= max(rates["fh"], rates["central"]) - 1e-12, (path, rates)

    cleared = []
    for path in COMPARE_CONFIGS:
        counts = {
            p: scenario_run(path, p, equal_budget=True)[0].in_attack_completions
            for p in POLICIES
        }
        best_baseline = max(counts["fh"], counts["central"])
        cleared.append(counts["eam"] >= 1.10 * best_baseline)
        # The matched budget is sized so that no policy can finish a pipeline
        # inside the outage, so the margin holds with both sides at zero.
        assert counts == {p: 0 for p in POLICIES}, (path, counts)
    assert any(cleared)
    wall = time.perf_counter() - t0
    assert wall < 60.0, f"scenario sweep took {wall:.1f} s"


def test_c08_schedulability_and_availability_dominance():
    """Same four scenarios: per-task schedulability and actuation
    availability of the mitigation are never below either baseline; the
    measured relative improvements are printed for reference."""
    for path in COMPARE_CONFIGS:
        reports = {p: scenario_run(path, p)[0] for p in POLICIES}
        eam = reports["eam"]
        gains = []
        for baseline in ("fh", "central"):
            other = reports[baseline]
            for tid, frac in eam.schedulability.items():
                assert frac >= other.schedulability[tid] - 1e-12, (path, baseline, tid)
            mine = eam.availability["actuation"]
            theirs = other.availability["actuation"]
            assert mine >= theirs - 1e-12, (path, baseline)
            sched_gain = min(
                frac - other.schedulability[tid]
                for tid, frac in eam.schedulability.items()
            )
            gains.append(
                f"{baseline}: sched +{sched_gain:.3f} (worst task), "
                f"actuation availability {mine:.3f} vs {theirs:.3f}"
            )
        print(f"{path.name}: " + "; ".join(gains))


def test_c09_per_slot_decision_overhead_is_negligible():
    """Charging 1.781 nJ per scheduling decision moves the hourly execution
    rate by less than 1%, and the reported overhead energy is the exact
    product of invocations and the per-decision cost."""
    report, _ = hvac_run()
    doc = apply_overrides(
        load_config(CONFIGS / "hvac_attack.yaml"), ["params.decision_cost_nj=0"]
    )
    free, _ = run(build_sim_config(doc))
    assert free.app_exec_rate > 0.0
    delta = abs(report.app_exec_rate - free.app_exec_rate) / free.app_exec_rate
    assert delta < 0.01, f"rate shifted {delta:.2%} under decision overhead"
    assert report.overhead_energy == report.overhead_invocations * 1.781e-9
    assert free.overhead_energy == 0.0


def test_c10_repeated_runs_are_byte_identical(tmp_path):
    """The same configuration executed twice produces byte-identical
    metrics and event-log files."""
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        rc = cli.main(
            [
                "run",
                "--config", str(CONFIGS / "twotask_short_attack.yaml"),
                "--out", str(out),
            ]
        )
        assert rc == 0
    for name in ("metrics.csv", "events.log", "timeline.csv"):
        first = (outs[0] / name).read_bytes()
        second = (outs[1] / name).read_bytes()
        assert first == second, name
