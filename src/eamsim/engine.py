"""Slot-based simulation engine.

Each slot of length dt advances the world in a fixed order:

1. harvested power for the slot is read from its run.  A slot holds the
   trace sample last at or before its start (zero-order hold), or zero
   inside any attack window (the harvester is dead during an attack).
   init_sim finds the first slot each sample and attack edge reaches,
   computes V^2 / R once per stretch between them and keeps each stretch of
   equal power as one run, its end slot and its power;
2. the detector is consulted (the mitigation policy sees its report,
   baselines never do);
3. the policy runs: profile selection, release firing, task classification,
   dispatch and harvest allocation; then buffer 0 pays the decision cost;
4. every buffer integrates its allotted share of the harvested power;
5. the running task, if any, withdraws its pro-rata energy for the slot and
   either progresses, completes (publishing its output token), or aborts
   transactionally when its buffer collapses.

step() is the one-slot reference.  run() calls it only on slots where the
policy's inputs can change; on quiet stretches in between (no task passing
the readiness rule, no release, reset or detector window edge due, weights
and profile unchanged) it skips the policy and repeats the rest of the slot
with the same float operations in the same order, so its output is that of
step() on every slot.  A quiet stretch may hold a running task, which draws
its energy each slot; a profile switch ends it and step() applies it.

Inside a stretch the readiness and profile checks run only where they could
fail.  A buffer gains at most eta * share * dt per slot, so a waiting task's
energy deficit gives a count of slots before it can be funded; the stored
total, moving by at most the gains up and the leak, decision cost and draw
down, gives one for eam's energy profiles.  A report's noise band settles
SA/LA without a draw where it lies on one side of alpha: LA holds until its
bottom reaches alpha, SA to the window's end once its top has.  A task whose
period the band no longer exceeds waits out the window.  Blind policies never
change profile.  With no task running, the slots up to the next check run in
one tight loop of the same float operations (_charge), the only copy of the
slot physics beside step's.  While the band straddles alpha it settles SA/LA
on each slot, the one place a stretch switches profile.  Where a slot leaves
every buffer voltage bit-identical, the slots after it under the same power
repeat it, so run() only advances the ledger sums, availability counts and
timeline rows over them, however many they are.  Outside a reported attack
this carries on across changes of power: where the weights stay and a trial
of the new power's first slot leaves the bank as it is, the trial's terms
are the new power's, and the checks skipped there would pass as the last
did, as they read the bank, which has not moved.  Each sum advances only
where its terms change: the harvest gains once per _charge call and, with the
clipped excess, once per power run of a hold; a hold's leak, decision drain,
availability counts and timeline rows once per hold.  Within a binade every
sum is a whole number of ulps and each slot adds the same number, so a sum
advances a binade at a time in closed form, bit for bit what step()'s order
gives.
overhead_invocations still counts every slot, as the modelled device decides
on each one.

The engine keeps an explicit energy ledger (charged, drained, withdrawn,
spilled) so that tests can check conservation, and records every discrete
event plus a per-slot timeline for later analysis.
"""

from __future__ import annotations

import copy
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

from .apps import AppSpec, DataQueue, Profile, Token, validate
from .baselines import (
    POLICY_NAMES,
    central_app,
    central_bank,
    fh_capacity_fractions,
    fixed_split,
    pin_nml,
)
from .detector import (
    NO_ATTACK,
    AttackInfo,
    DetectorConfig,
    band_bottom,
    band_top,
    detect,
    estimate_against,
    idle_report,
    noise_key,
    report_windows,
)
from .energy import (
    CapacitorBank,
    capacity_of,
    drain,
    energy_of,
    fold_sum,
    set_energy,
    slot_constants,
    slot_update,
    total_energy,
    withdraw,
)
from .policy import (
    PolicyParams,
    SchedulerState,
    TaskState,
    allocate_harvest,
    any_ready,
    apply_profile,
    attack_profile,
    attack_profiles,
    energy_profile_slots,
    init_scheduler,
    policy_step,
    released_tasks,
    select_profile,
    unready_slots,
)
from .traces import AttackScenario, EnergyTrace, validate_scenarios

PROFILE_ORDER = tuple(Profile)
_PROFILE_INDEX = {p: i for i, p in enumerate(PROFILE_ORDER)}


MAX_SLOTS = 10**9  # caps on time and memory; 24 h at 5 ms is 17.28 M slots
MAX_TIMELINE_ROWS = 2**25


class EngineError(ValueError):
    pass


@dataclass
class SimConfig:
    """Everything one run needs.  Values are plain SI units."""

    trace: EnergyTrace
    app: AppSpec
    bank: CapacitorBank
    params: PolicyParams
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    attacks: list[AttackScenario] = field(default_factory=list)
    policy: str = "eam"  # eam | fh | central
    dt: float = 1e-3  # s per slot
    horizon: float = 3600.0  # s simulated
    rng_seed: int = 42
    queue_capacity: int = 4
    timeline_stride: int = 1  # record every k-th slot; 0 disables the timeline
    equal_budget: bool = False  # reset buffer energies at first attack onset
    budget_soc: float | None = None  # SOC used by the reset; None keeps initial
    label: str = ""

    @property
    def n_slots(self) -> int:
        """Slots simulated; validate_config checks that the count is finite."""
        return int(round(self.horizon / self.dt))


def validate_config(config: SimConfig) -> list[str]:
    problems: list[str] = []
    n_slots = None  # until dt and horizon are known to give a finite count
    if config.policy not in POLICY_NAMES:
        problems.append(f"unknown policy {config.policy!r}")
    if not 0 < config.dt < math.inf:
        problems.append("dt must be positive and finite")
    elif not (config.horizon >= config.dt and math.isfinite(config.horizon / config.dt)):
        problems.append("horizon must be finite and cover at least one slot")
    else:
        n_slots = config.n_slots
        rows = -(-n_slots // config.timeline_stride) if config.timeline_stride > 0 else 0
        if n_slots > MAX_SLOTS or rows > MAX_TIMELINE_ROWS:
            problems.append(f"{n_slots:.4g} slots ({rows:.4g} timeline rows) exceed the "
                            f"caps of {MAX_SLOTS:.0e} slots and {MAX_TIMELINE_ROWS} rows")
    if config.queue_capacity < 1:
        problems.append("queue capacity must be >= 1")
    if config.timeline_stride < 0:
        problems.append("timeline stride must be >= 0")
    if config.budget_soc is not None and not 0 <= config.budget_soc <= 1:
        problems.append("budget_soc must be in [0, 1]")
    problems.extend(validate(config.app, num_buffers=len(config.bank)))
    if n_slots is not None:
        # A release period shorter than a slot has no meaning here, and one
        # below the float spacing of the release times would stall
        # policy.fire_releases.
        for task in config.app.tasks:
            for profile, rate in task.rates.items():
                if rate > 0 and 3600.0 / rate < config.dt:
                    problems.append(
                        f"task {task.id}: {profile.value} period {3600.0 / rate!r} s "
                        f"is shorter than one slot ({config.dt!r} s)"
                    )
    try:
        validate_scenarios(config.attacks)
    except ValueError as exc:
        problems.append(str(exc))
    if n_slots is not None:
        lo, hi = config.trace.span
        last_t = (n_slots - 1) * config.dt
        if lo > 0 or hi < last_t:
            problems.append(
                f"trace span [{lo}, {hi}] does not cover simulated time [0, {last_t}]"
            )
    return problems


@dataclass
class EventLog:
    """Append-only record of a run plus the sampled timeline.

    Events are (t, kind, *fields) tuples with non-decreasing t.  The totals
    dict carries the engine's raw accumulators (energy ledger, availability
    counts, release bookkeeping) from which metrics are derived.  The timeline
    has one row per timeline_stride slots.  init_sim allocates its columns as
    flat arrays (float64 voltages, row-major with one per buffer; int8
    profile index; int16 running-task index, -1 for none), which the run
    fills; they stay None when the timeline is off.  Row times are not
    stored: timeline_times computes them for a range of rows.
    """

    events: list[tuple] = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    timeline_v: array | None = None
    timeline_profile: array | None = None
    timeline_running: array | None = None
    timeline_stride: int = 0
    dt: float = 0.0  # s per slot

    def timeline_times(self, lo: int, hi: int) -> list[float]:
        """Rows lo..hi-1's t: row r is slot i = r * stride, at its i * dt."""
        stride, dt = self.timeline_stride, self.dt
        return [i * dt for i in range(lo * stride, hi * stride, stride)]

    def add(self, t: float, kind: str, *fields) -> None:
        self.events.append((t, kind, *fields))

    def export_lines(self):
        """Render events as delimited text lines: sets sorted, sequences in order."""
        for ev in self.events:
            parts = [repr(ev[0]), ev[1]]
            for f in ev[2:]:
                if isinstance(f, float):
                    parts.append(repr(f))
                elif isinstance(f, (tuple, list, frozenset, set)):
                    items = sorted(f) if isinstance(f, (set, frozenset)) else f
                    parts.append("+".join(str(x) for x in items))
                else:
                    parts.append(str(f))
            yield ",".join(parts)


@dataclass
class MetricsReport:
    """Summary metrics of one run."""

    policy: str
    app_name: str
    horizon: float  # s
    dt: float  # s
    completions: int  # end-to-end pipeline completions at the sink
    app_exec_rate: float  # completions per hour
    post_onset_completions: int  # completions at or after the first attack start
    post_onset_rate: float  # per hour over [first attack start, horizon]
    in_attack_completions: int  # completions inside attack windows
    schedulability: dict  # task id -> served / fired releases
    availability: dict  # component name -> fraction of slots at or above v_on
    availability_latency: dict  # component name -> mean s to recover after attacks
    overhead_invocations: int
    overhead_energy: float  # J, invocations * decision_cost
    overhead_time: float  # s, invocations * decision_time
    aborts: int
    wasted_energy: float  # J withdrawn by executions that later aborted
    spilled_energy: float  # J lost to full buffers
    completions_timeline: list  # (t, cumulative completions)

    def to_rows(self) -> list[tuple[str, str]]:
        rows: list[tuple[str, str]] = [
            ("policy", self.policy),
            ("app", self.app_name),
            ("horizon_s", repr(self.horizon)),
            ("dt_s", repr(self.dt)),
            ("completions", str(self.completions)),
            ("app_exec_rate_per_h", repr(self.app_exec_rate)),
            ("post_onset_completions", str(self.post_onset_completions)),
            ("post_onset_rate_per_h", repr(self.post_onset_rate)),
            ("in_attack_completions", str(self.in_attack_completions)),
        ]
        for tid in sorted(self.schedulability):
            rows.append((f"schedulability.{tid}", repr(self.schedulability[tid])))
        for comp in sorted(self.availability):
            rows.append((f"availability.{comp}", repr(self.availability[comp])))
        for comp in sorted(self.availability_latency):
            rows.append(
                (f"availability_latency_s.{comp}", repr(self.availability_latency[comp]))
            )
        rows += [
            ("overhead_invocations", str(self.overhead_invocations)),
            ("overhead_energy_j", repr(self.overhead_energy)),
            ("overhead_time_s", repr(self.overhead_time)),
            ("aborts", str(self.aborts)),
            ("wasted_energy_j", repr(self.wasted_energy)),
            ("spilled_energy_j", repr(self.spilled_energy)),
        ]
        return rows


@dataclass(slots=True)
class SimState:
    """Full mutable state of a run; step() advances it one slot."""

    config: SimConfig
    app: AppSpec
    bank: CapacitorBank
    params: PolicyParams
    queues: dict
    sched: SchedulerState
    log: EventLog
    run_ends: list  # per run of equal harvested power: the slot after it
    run_powers: list  # per run: its power, W
    n_slots: int
    dt: float
    i: int = 0
    run: int = 0  # the run of slot i - 1, or of slot i (step moves it on)
    # policy hooks
    profile_fn: object = select_profile
    allocate_fn: object = allocate_harvest
    detector_blind: bool = False
    # detector fast path
    det_windows: list = field(default_factory=list)  # detector.report_windows()
    n_windows: int = 0
    wptr: int = 0
    idle_info: AttackInfo = NO_ATTACK
    report: AttackInfo | None = None  # slot i's report, handed over by _quiet_span
    prev_ongoing: bool = False
    prev_weights: tuple = ()
    buffer_constants: tuple = ()  # energy.slot_constants() per buffer
    comp_names: tuple = ()  # ((buffer, (component-name, ...)), ...)
    n_components: int = 0
    # latency watches and availability counting
    watches: list = field(default_factory=list)  # [end, {component: latency|None}]
    avail_counts: list = field(default_factory=list)  # per buffer
    # release bookkeeping
    releases_total: dict = field(default_factory=dict)
    releases_served: dict = field(default_factory=dict)
    window_served: dict = field(default_factory=dict)
    # completions
    completions: list = field(default_factory=list)  # timestamps of sink completions
    payload_seq: int = 0
    # energy ledger
    e_start: float = 0.0
    ledger: list = field(default_factory=lambda: [0.0, 0.0, 0.0])  # charged, sigma drain, spilled
    withdrawn: float = 0.0
    decision_drained: float = 0.0
    reset_delta: float = 0.0
    overhead_invocations: int = 0
    aborts: int = 0
    wasted: float = 0.0
    # equal-budget reset
    reset_at: float = math.inf  # s, first attack onset when the reset is on
    budget_targets: list = field(default_factory=list)  # J per buffer
    task_index: dict = field(default_factory=dict)  # task id -> timeline "running" code


def _first_slot(x: float, dt: float, n: int) -> int:
    """The first slot i in [0, n] whose start i * dt is >= x.

    A ceil guess, then a step down or up by one where the float comparison a
    slot makes with its own t = i * dt disagrees; one step suffices while the
    slot count is far below 2**52.  Clipping x to [0, n * dt] first changes
    no answer and keeps x / dt finite.  x must not be NaN."""
    i = min(math.ceil(min(x, n * dt) / dt), n) if x > 0.0 else 0
    if i > 0 and (i - 1) * dt >= x:
        i -= 1
    if i < n and i * dt < x:
        i += 1
    return i


def _slot_powers(config: SimConfig, n_slots: int) -> tuple[list, list]:
    """Harvested power, attacks silencing the harvester outright, as runs of
    slots with equal power: the slot after each run, and the run's power.

    Slot i holds the last trace sample at or before t = i * dt, or 0 V while
    an attack window [start, end) holds t.  Its power can change only at the
    first slot whose t reaches a sample time or an attack edge, so those
    slots cut the horizon into stretches and V^2 / R is computed once per
    stretch.  _first_slot makes the comparison t >= x that each slot would,
    so the runs are those of sampling every slot, bit for bit, at a cost in
    trace samples and attacks, not in slots."""
    dt, trace, n = config.dt, config.trace, n_slots
    times, volts, load = trace.times, trace.voltages, trace.load_resistance
    # The samples some slot holds: the last at or before t = 0 (validation
    # puts one there) and every later one up to the last slot's t.
    lo = bisect_right(times, 0.0) - 1
    hi = bisect_right(times, (n - 1) * dt)
    held = [_first_slot(x, dt, n) for x in times[lo:hi]]  # non-decreasing, held[0] == 0
    # Attack windows are disjoint, so their edges in start order are sorted;
    # a slot lies in a window while an odd count of edges is at or before it.
    attacks = sorted(config.attacks, key=lambda sc: sc.start)
    edges = [_first_slot(x, dt, n) for sc in attacks for x in (sc.start, sc.end)]
    # Merge the two sorted lists by position: each stretch starts at the next
    # slot either list reaches and takes every sample and edge up to it.
    held.append(n)
    edges.append(n)  # sentinels: no slot reaches n
    starts, powers, last = [], [], None
    j = e = start = 0
    while start < n:
        while held[j] <= start:
            j += 1
        while edges[e] <= start:
            e += 1
        v = 0.0 if e & 1 else volts[lo + j - 1]
        power = v * v / load
        if power != last:  # else the stretch extends the run
            starts.append(start)
            powers.append(power)
            last = power
        start = held[j] if held[j] < edges[e] else edges[e]
    return starts[1:] + [n], powers


def init_sim(config: SimConfig) -> SimState:
    problems = validate_config(config)
    if problems:
        raise EngineError(problems[0])
    app = config.app
    bank = copy.deepcopy(config.bank)  # runs must not mutate the input config
    if config.policy == "central":
        bank = central_bank(bank)
        app = central_app(app)
    if config.policy == "eam":
        profile_fn, allocate_fn = select_profile, allocate_harvest
    else:
        profile_fn, allocate_fn = pin_nml, fixed_split(fh_capacity_fractions(bank))
    n_slots = config.n_slots
    queues = {edge: DataQueue(config.queue_capacity) for edge in app.edges}
    initial_profile = profile_fn(NO_ATTACK, total_energy(bank), config.params)
    sched = init_scheduler(app, initial_profile, now=0.0)
    det_windows = report_windows(config.attacks, config.detector)
    stride = config.timeline_stride
    rows = (n_slots + stride - 1) // stride if stride > 0 else 0
    m = len(bank)
    run_ends, run_powers = _slot_powers(config, n_slots)
    sim = SimState(
        config=config,
        app=app,
        bank=bank,
        params=config.params,
        queues=queues,
        sched=sched,
        log=EventLog(),
        run_ends=run_ends,
        run_powers=run_powers,
        n_slots=n_slots,
        dt=config.dt,
        profile_fn=profile_fn,
        allocate_fn=allocate_fn,
        detector_blind=profile_fn is pin_nml,
        det_windows=det_windows,
        idle_info=idle_report(config.detector),
        buffer_constants=tuple(slot_constants(c) for c in bank.capacitors),
        avail_counts=[0] * m,
        releases_total={t.id: 0 for t in app.tasks},
        releases_served={t.id: 0 for t in app.tasks},
        window_served={t.id: True for t in app.tasks},
        e_start=total_energy(bank),
        budget_targets=[
            energy_of(c) if config.budget_soc is None else config.budget_soc * capacity_of(c)
            for c in bank.capacitors
        ],
        task_index={t.id: k for k, t in enumerate(app.tasks)},
    )
    sim.n_windows = len(det_windows)
    sim.n_components = sum(len(c) for c in bank.component_map.values())
    sim.comp_names = tuple(
        (b, tuple(c.value for c in comps)) for b, comps in bank.component_map.items()
    )
    if config.equal_budget and config.attacks:
        sim.reset_at = min(sc.start for sc in config.attacks)
    if rows:
        log = sim.log
        log.timeline_stride, log.dt = stride, config.dt
        log.timeline_v = array("d", [0.0]) * (rows * m)
        log.timeline_profile = array("b", [0]) * rows
        log.timeline_running = array("h", [0]) * rows
    sim.log.add(0.0, "init", config.policy, app.name, initial_profile.value)
    return sim


def _complete_task(sim: SimState, tid: str, now: float) -> None:
    """Publish the finishing task's output and settle bookkeeping."""
    app, sched, queues, log = sim.app, sim.sched, sim.queues, sim.log
    task = app.task(tid)
    lineage = {tid}
    for p in task.predecessors:
        q = queues[(p, tid)]
        if q:
            tok = q.pop()
            log.add(now, "pop", p, tid, tok.payload_id)
            lineage |= tok.lineage
    token = Token(sim.payload_seq, now, frozenset(lineage))
    sim.payload_seq += 1
    for succ in app.successors(tid):
        dropped = queues[(tid, succ)].push(token)
        log.add(now, "push", tid, succ, token.payload_id)
        if dropped is not None:
            log.add(now, "drop", tid, succ, dropped.payload_id)
    is_completion = tid == app.sink_task and bool(lineage.intersection(app.sources))
    log.add(now, "finish", tid, int(is_completion), tuple(sorted(lineage)))
    if is_completion:
        sim.completions.append(now)
    if not sim.window_served[tid]:
        sim.window_served[tid] = True
        sim.releases_served[tid] += 1
    sched.states[tid] = TaskState.BLOCKED
    log.add(now, "state", tid, TaskState.RUNNING.value, TaskState.BLOCKED.value)
    sched.executing = None
    sched.exec_remaining = 0.0
    sched.exec_drawn = 0.0


def _abort_task(sim: SimState, tid: str, now: float, reason: str) -> None:
    """Transactional abort: no output, progress lost, task re-released."""
    sched, log = sim.sched, sim.log
    sim.aborts += 1
    sim.wasted += sched.exec_drawn
    log.add(now, "abort", tid, sched.exec_drawn, reason)
    sched.states[tid] = TaskState.SUSPENDED
    log.add(now, "state", tid, TaskState.RUNNING.value, TaskState.SUSPENDED.value)
    sched.pending[tid] = True  # retry once energy permits
    sched.executing = None
    sched.exec_remaining = 0.0
    sched.exec_drawn = 0.0


def step(sim: SimState) -> None:
    """Advance the simulation by one slot."""
    i = sim.i
    if i >= sim.n_slots:
        raise EngineError("simulation already finished")
    dt = sim.dt
    t = i * dt
    log = sim.log
    bank = sim.bank
    caps = bank.capacitors
    sched = sim.sched

    # Equal-budget reset fires at the first slot of the first attack.
    if t >= sim.reset_at:
        for cap, target in zip(caps, sim.budget_targets):
            before = energy_of(cap)
            set_energy(cap, target)
            sim.reset_delta += energy_of(cap) - before
        sim.reset_at = math.inf
        log.add(t, "budget_reset", [energy_of(c) for c in caps])

    # (1) harvested power, already zeroed inside attack windows
    if i == sim.run_ends[sim.run]:
        sim.run += 1
    power = sim.run_powers[sim.run]

    # (2) detector report (baselines are blind by construction)
    wptr = sim.wptr
    windows = sim.det_windows
    n_win = sim.n_windows
    while wptr < n_win and t >= windows[wptr][1]:
        sim.watches.append([windows[wptr][1], {}])  # the attack is over: watch recovery
        wptr += 1
        sim.wptr = wptr
    if wptr < n_win and t >= windows[wptr][0]:
        true_info = sim.report or detect(t, (windows[wptr][2],), sim.config.detector)
        sim.report = None
    else:
        true_info = sim.idle_info
    if true_info.ongoing != sim.prev_ongoing:
        log.add(t, "attack_seen", "begin" if true_info.ongoing else "end")
        sim.prev_ongoing = true_info.ongoing
    info = sim.idle_info if sim.detector_blind else true_info

    # (3) policy invocation
    rec = policy_step(
        sched,
        sim.app,
        bank,
        info,
        sim.queues,
        sim.params,
        t,
        power,
        sim.profile_fn,
        sim.allocate_fn,
    )
    sim.overhead_invocations += 1
    sim.decision_drained += drain(caps[0], sim.params.decision_cost)
    if rec.profile_changed:
        log.add(t, "profile", rec.profile.value)
    if rec.weights != sim.prev_weights:
        sim.prev_weights = rec.weights
        log.add(t, "alloc", *rec.weights)
    if rec.fired:
        for tid in rec.fired:
            sim.releases_total[tid] += 1
            sim.window_served[tid] = False
            log.add(t, "release", tid)
    if rec.transitions:
        for tid, old, new in rec.transitions:
            log.add(t, "state", tid, old.value, new.value)
    if rec.started is not None:
        task = sim.app.task(rec.started)
        log.add(
            t,
            "start",
            rec.started,
            energy_of(caps[task.buffer]),
            task.energy_cost,
        )

    _slot_tail(sim, i, t, rec.shares, sched.executing)
    sim.i = i + 1


def _slot_tail(sim: SimState, i: int, t: float, shares: tuple, tid: str | None) -> None:
    """The rest of slot i once the decision cost is paid: (4) every buffer
    integrates its share, (5) the running task tid, if any, draws its slice,
    then the recovery watches and _tally."""
    slot_update(sim.bank.capacitors, sim.buffer_constants, shares, sim.dt, sim.ledger)
    if tid is not None:
        _draw(sim, tid, t)
    if sim.watches:
        _watch(sim, t)
    _tally(sim, i, -1 if tid is None else sim.task_index[tid])


def _draw(sim: SimState, tid: str, t: float) -> None:
    """The running task tid withdraws its pro-rata energy for slot t, then
    progresses, completes or, when its buffer collapses, aborts."""
    sched = sim.sched
    task = sim.app.task(tid)
    cap = sim.bank.capacitors[task.buffer]
    if cap.voltage < cap.v_off:
        _abort_task(sim, tid, t, "brownout")
        return
    dt = sim.dt
    remaining = sched.exec_remaining
    draw = task.energy_cost * (dt if dt < remaining else remaining) / task.duration
    if withdraw(cap, draw):
        sim.withdrawn += draw
        sched.exec_drawn += draw
        remaining -= dt
        sched.exec_remaining = remaining
        if remaining <= 1e-12:
            _complete_task(sim, tid, t)
    else:
        _abort_task(sim, tid, t, "withdrawal")


def _watch(sim: SimState, t: float) -> None:
    """Post-attack recovery watches: note each component back at or above
    v_on in slot t, and close the watches that have seen every component."""
    caps = sim.bank.capacitors
    done = []
    for watch in sim.watches:
        end, seen = watch
        for b, names in sim.comp_names:
            cap = caps[b]
            if cap.voltage >= cap.v_on:
                for name in names:
                    if name not in seen:
                        seen[name] = t - end
        if len(seen) == sim.n_components:
            sim.log.add(t, "recovered", end)
            done.append(watch)
    for watch in done:
        sim.watches.remove(watch)
        sim.log.totals.setdefault("latency_records", []).append(watch)


def _tally(sim: SimState, i: int, running: int) -> None:
    """Count the buffers at or above v_on in slot i and, on every
    timeline_stride-th slot, write its timeline row."""
    caps = sim.bank.capacitors
    avail = sim.avail_counts
    for b, cap in enumerate(caps):
        if cap.voltage >= cap.v_on:
            avail[b] += 1
    stride = sim.config.timeline_stride
    if stride > 0 and i % stride == 0:
        log = sim.log
        r = i // stride
        v, base = log.timeline_v, r * len(caps)
        for b, cap in enumerate(caps):
            v[base + b] = cap.voltage
        log.timeline_profile[r] = _PROFILE_INDEX[sim.sched.profile]
        log.timeline_running[r] = running


def _quiet_span(sim: SimState) -> None:
    """Advance over the quiet slots ahead without running the policy.

    A span starts only when every task but the running one, if any, is
    Blocked.  On a slot of it policy_step fires nothing, changes no task
    state and starts nothing, so only its profile and harvest shares are left
    to compute.  The span does the rest of step's work in step's order and
    with the same float operations: the decision-cost drain and _slot_tail.
    It stops before the first slot where one of these holds: a release is
    due, the equal-budget reset is due, a detector window opens or closes, a
    released task passes the readiness rule (policy.any_ready), the weights
    would change, or the profile would change; step then applies the
    switch.  It stops after the slot where the running task completes or
    aborts.  Before a window's onset is logged every policy stops at its
    first slot.  When a check stops the span inside a reported attack, step
    gets that slot's report, so the slot draws its noise at most once.
    Every slot of a span still counts as a policy invocation.

    The profile and readiness checks run only where they could fail.  After
    each check _next_check finds the next slot that could; the checks run
    again there, on a power-run change and where a stretch that settles the
    profile stops, which are all their inputs but the bank and the clock.
    Until then no task runs readiness, the profile keeps its value, and eam
    reads no report.

    While a task runs, the span steps one slot at a time, as its draw needs.
    With no task running, _charge runs the slots up to the next check in one
    loop, settling the profile on each slot where _next_check asks it to
    (the span checks again where it stops).  Where a slot leaves every buffer
    voltage bit-identical, it stops: each later slot under the same power has
    the same inputs, so it repeats that slot's float operations and, outside
    a reported attack, passes the same checks, as the slot before it was
    proven to; open recovery watches, which saw these voltages, stay inert.
    _hold replays such stretches in one call, advancing only the sums (in
    closed form, a binade at a time), counts and timeline; inside a reported
    attack, whose checks also read the clock, only up to the next check and
    the end of the power run.  Outside one it carries on into each next power
    run whose weights are unchanged and whose first slot, run as a trial,
    leaves every voltage as it is: the checks skipped there would pass as
    the last one did, as they read the bank, the idle report and the waiting
    tasks, which no release, reset or window edge changes before stop.
    Where a trial moves the bank, the hold returns at that run's first slot,
    which the span checks.
    """
    sched = sim.sched
    running = sched.executing
    for tid, state in sched.states.items():
        if state is not TaskState.BLOCKED and tid != running:
            return
    limit = min(sched._next_fire, sim.reset_at)
    reported, end = False, None
    if sim.wptr < sim.n_windows:
        first, end, attack = sim.det_windows[sim.wptr]
        if sim.prev_ongoing:
            reported = not sim.detector_blind
        else:
            limit = min(limit, first)
        limit = min(limit, end)
    waiting = released_tasks(sched, sim.queues)
    i0 = i = check = sim.i
    n, dt, r = sim.n_slots, sim.dt, sim.run
    stop = _first_slot(limit, dt, n)
    ends, powers = sim.run_ends, sim.run_powers
    app, bank, params, info = sim.app, sim.bank, sim.params, sim.idle_info
    caps, blind = bank.capacitors, sim.detector_blind
    profile_fn, allocate_fn, profile = sim.profile_fn, sim.allocate_fn, sched.profile
    cost = params.decision_cost
    shares = total = None
    while i < stop:
        t = i * dt
        if i == ends[r]:
            r, check, shares = r + 1, i, None
        if i >= check:
            if reported:
                info = detect(t, (attack,), sim.config.detector)
            if blind:  # pin_nml: the profile never changes
                new = profile
            else:
                total = total_energy(bank)
                new = profile_fn(info, total, params)
            if new is not profile or waiting and any_ready(waiting, bank, info):
                if reported:
                    sim.report = info
                break
            if shares is None:
                weights, shares = allocate_fn(sched, app, bank, powers[r], params)
                if weights != sim.prev_weights:
                    break
            check, settle = _next_check(sim, i, info, total, waiting, shares, running, end)
        if running is not None:
            sim.decision_drained += drain(caps[0], cost)
            _slot_tail(sim, i, t, shares, running)
            i += 1
            if sched.executing is None:
                break  # the task finished or aborted: step the next slot
            continue
        i, fixed = _charge(sim, i, min(check, ends[r], stop), shares, end if settle else None)
        if settle:  # _charge may have switched: check again where it stopped
            check, profile, waiting = i, sched.profile, released_tasks(sched, sim.queues)
            stop = min(stop, _first_slot(sched._next_fire, dt, n))
        elif fixed:
            i, r, shares = _hold(sim, i, r, stop, check if reported else None, shares)
    sim.overhead_invocations += i - i0
    sim.i, sim.run = i, r


# Relative slack per slot on the energy bounds of _next_check, far above the
# few roundings by which a slot's float operations can move stored energy
# beyond its drain, gain and draw.
_SLACK = 1e-12


def _next_check(sim: SimState, i: int, info: AttackInfo, total, waiting: list, shares,
                running, end) -> tuple[int, bool]:
    """The first slot after i at which a check of _quiet_span could fail,
    given that every check passed at slot i on the bank as it is and that
    the inputs other than the bank and the clock stay as they are.  info is
    slot i's report, end the end of its window when an attack is reported,
    and total the bank's energy that eam's profile check read.

    A buffer gains at most eta * share * dt usable energy per slot: it keeps
    at most what it holds, the decision drain, the leak and a running task's
    draw only take energy, and clipping at v_max only lowers it.  Adding a
    slack of _SLACK times its capacity for rounding gives its rise; the bank
    falls by less than the leak of full buffers, the decision cost and the
    running task's draw, plus the same slack, per slot.
    policy.unready_slots and policy.energy_profile_slots turn these into
    slot counts.  Under a trusted report LA holds to the first slot whose
    noise band bottom is at most alpha, SA to the window's end once the top
    is.  Where the band straddles alpha on slot i + 1, no task runs and SA
    and LA share their active set, the flag returned is True: _charge settles
    the profile on each slot up to the band top's slot or the energy bound,
    from the slot's estimate against alpha as select_profile would, with no
    report.  A switch there changes nothing but the profile and the release
    schedule, so it is policy_step's apply_profile alone: the active set
    stays, so no task is enabled or excluded; nothing fires, as each staying
    task's next release, min(next, now + period), is after now, and
    apply_profile keeps the earliest of them, where _charge stops; no task
    turns Ready or starts, as the bound reads readiness from the energy
    deficit alone, whatever the period; and the weights stay, as
    allocate_harvest reads only the active set and the task states."""
    params, dt, constants = sim.params, sim.dt, sim.buffer_constants
    k, settle = math.inf, False
    attack = attack_profiles(info, params)  # eam under a trusted report: SA or LA
    if attack:
        alpha, err = params.alpha, sim.config.detector.remaining_time_error
        if sim.sched.profile is Profile.LA:
            k = _band_slot(sim, i, end, band_bottom, err, alpha) - i - 1
        elif not info.never_exceeds(alpha):
            k = 0
        profiles = sim.sched._profiles
        if k == 0 and running is None and profiles[Profile.SA][0] == profiles[Profile.LA][0]:
            settle, info = True, sim.idle_info  # readiness by energy: the period may switch
            k = _band_slot(sim, i, end, band_top, err, alpha) - i - 1
    slack = [_SLACK * c[4] for c in constants]
    rises = [s + c[3] * share * dt for s, c, share in zip(slack, constants, shares)]
    if not attack and not sim.detector_blind:
        fall = fold_sum(s + c[2] * c[4] for s, c in zip(slack, constants)) + params.decision_cost
        if running is not None:
            task = sim.app.task(running)
            fall += task.energy_cost * dt / task.duration
        k = energy_profile_slots(total, params, fold_sum(rises), fall)
    for task in waiting:
        if k <= 0:
            break
        k = min(k, unready_slots(task, sim.bank, info, rises[task[1]]))
    return (sim.n_slots if k >= sim.n_slots - i else i + 1 + int(k)), settle


def _band_slot(sim: SimState, i: int, end: float, edge, err: float, alpha: float) -> int:
    """The first slot j > i (or the horizon) with edge(end - j * dt, err) <= alpha."""
    n, dt, scale = sim.n_slots, sim.dt, edge(1.0, err)
    j = math.ceil(min(max((end - alpha / scale) / dt, i + 1), n)) if scale > 0.0 else i + 1
    while j > i + 1 and not edge(end - (j - 1) * dt, err) > alpha:
        j -= 1
    while j < n and edge(end - j * dt, err) > alpha:
        j += 1
    return j


def _charge(sim: SimState, i: int, stop: int, shares: tuple,
            end: float | None = None) -> tuple[int, bool]:
    """Run slots i, i + 1, ... before stop with no task running and no check
    due: the decision drain (energy.drain) and energy.slot_update's float
    operations in the same order, then availability counting and timeline
    rows (_tally's, written as one block).  Each slot adds the same harvest
    gains to charged, with no other term between them, so charged advances
    once for all the slots run; the other sums move with the voltages.
    It stops after the first slot that leaves every voltage as it found it,
    returning True, and, while recovery watches are open, after a slot that
    lifts a buffer they still wait for to v_on, whose _watch it then runs.
    Given the end of a trusted reported attack's window, it settles SA/LA on
    each slot after the first as select_profile would, from that slot's
    estimate against alpha (detector.estimate_against), without building a
    report; it applies a switch (which changes only the profile and the
    release schedule, as _next_check shows) and logs it, stops at the first
    slot whose t reaches the next release and not at fixed points.
    Returns the first slot not run and whether that slot is a fixed point."""
    caps, detector, sched = sim.bank.capacitors, sim.config.detector, sim.sched
    dt, cost, alpha = sim.dt, sim.params.decision_cost, sim.params.alpha
    err, seed = detector.remaining_time_error, detector.rng_seed
    profile, p = sched.profile, _PROFILE_INDEX[sched.profile]
    settle_from = i + 1 if end is not None else stop
    bufs = [
        (b, half_c, keep, sigma, eta * share * dt, ceiling, c, v_max, cap.v_on)
        for b, (cap, (half_c, keep, sigma, eta, ceiling, c, v_max), share)
        in enumerate(zip(caps, sim.buffer_constants, shares))
    ]
    gains = [buf[4] for buf in bufs]
    half0, c0 = bufs[0][1], bufs[0][6]
    vs = [cap.voltage for cap in caps]
    # Buffers whose components an open recovery watch has yet to see.
    watched = [
        (b, caps[b].v_on) for b, names in sim.comp_names
        if any(name not in seen for _, seen in sim.watches for name in names)
    ]
    charged, sigma_drain, spilled = sim.ledger
    drained = sim.decision_drained
    avail = sim.avail_counts
    stride = sim.config.timeline_stride
    row0 = -(-i // stride) if stride > 0 else 0  # the first row written
    row_slot = row0 * stride if stride > 0 else -1  # the next slot with a row
    rows, profs = [], []  # the rows' voltages, flat, and profiles
    i0, fixed = i, False
    while i < stop:
        if i >= settle_from:
            t = i * dt
            picked = attack_profile(
                estimate_against(end - t, err, noise_key(seed, t), alpha) > alpha)
            if picked is not profile:
                next_fire = sched._next_fire
                apply_profile(sched, picked, t)
                sim.log.add(t, "profile", picked.value)
                if sched._next_fire < next_fire:  # else stop is already at or before it
                    stop = min(stop, _first_slot(sched._next_fire, dt, sim.n_slots))
                profile, p = picked, _PROFILE_INDEX[picked]
        v = v0 = vs[0]
        energy = half0 * v * v
        taken = cost if cost < energy else energy
        if taken > 0.0:
            vs[0] = math.sqrt(2.0 * (energy - taken) / c0)
        drained += taken
        moved = False
        for b, half_c, keep, sigma, gain, ceiling, c, v_max, v_on in bufs:
            v = vs[b]
            old = v if b else v0  # buffer 0: its voltage before the drain
            energy = half_c * v * v
            new = keep * energy + gain
            sigma_drain += sigma * energy
            if new > ceiling:
                spilled += new - ceiling
                new = ceiling
            v = math.sqrt(2.0 * new / c)
            if not v < v_max:
                v = v_max
            if v != old:
                moved = True
            vs[b] = v
            if v >= v_on:
                avail[b] += 1
        if i == row_slot:
            rows.extend(vs)
            profs.append(p)
            row_slot += stride
        i += 1
        if not moved and end is None:
            fixed = True
            break
        if watched and any(vs[b] >= v_on for b, v_on in watched):
            for cap, v in zip(caps, vs):
                cap.voltage = v
            _watch(sim, (i - 1) * dt)
            break
    for cap, v in zip(caps, vs):
        cap.voltage = v
    if profs:
        log, row1 = sim.log, row0 + len(profs)
        log.timeline_v[row0 * len(vs) : row1 * len(vs)] = array("d", rows)
        log.timeline_profile[row0:row1] = array("b", profs)
        log.timeline_running[row0:row1] = array("h", [-1]) * len(profs)
    sim.ledger[:] = _repeat_add(charged, gains, i - i0), sigma_drain, spilled
    sim.decision_drained = drained
    return i, fixed


def _hold(sim: SimState, i: int, r: int, stop: int, check: int | None,
          shares: tuple) -> tuple[int, int, tuple]:
    """Replay slots i, i + 1, ... as repeats of slot i - 1, which left every
    buffer as it found it with no task running, under power run r's shares:
    to the end of run r or the span's stop and, under a reported attack, to
    the next check, whose checks read the clock.  No cap bounds the count:
    _repeat_add advances a sum over any number of slots a binade at a time.
    Only charged and spilled change with the power, once per run; the leak,
    decision drain, availability and timeline advance once per hold.

    Outside a reported attack (check None) the hold then goes on into each
    next run that starts before stop, where allocate_fn at the run's power
    gives sim.prev_weights and a trial of the run's first slot on the bank,
    energy.drain and slot_update under the run's shares, leaves every
    voltage bit-identical; the trial's terms are the run's.  Where the
    trial moves a voltage, every voltage is restored and the hold returns
    at the run's first slot for _quiet_span to check.  A check there would
    pass as the last one did: the profile and readiness checks read the
    bank, which has not moved, and the idle report; the waiting tasks
    cannot change, as no release, reset or window edge falls before stop;
    the weights are compared here on every run; and open recovery watches
    saw these voltages already.  Returns the first slot not replayed, its
    run and that run's shares."""
    caps, ends, log = sim.bank.capacitors, sim.run_ends, sim.log
    saved, m, stride = [cap.voltage for cap in caps], len(caps), sim.config.timeline_stride
    charged, sigma_drain, spilled = sim.ledger
    i0, trial_r, trial_shares = i, r, shares
    end = min(ends[r], stop) if check is None else min(ends[r], stop, check)
    while True:
        if i < end:
            # Running slot i on the bank gives the terms each replayed slot
            # adds to the ledger sums, buffer by buffer in step's order (0.0
            # + x is exact; a 0.0 term for an unclipped buffer leaves a sum
            # >= +0.0 as it is).  Only a trial can move a voltage.
            taken = drain(caps[0], sim.params.decision_cost)
            parts = [[0.0, 0.0, 0.0] for _ in caps]
            for cap, constants, share, part in zip(caps, sim.buffer_constants, trial_shares,
                                                   parts):
                slot_update((cap,), (constants,), (share,), sim.dt, part)
            if any(cap.voltage != v for cap, v in zip(caps, saved)):
                for cap, v in zip(caps, saved):
                    cap.voltage = v
                break
            # The gains and clipped excess change with the power: add this run's.
            charged = _repeat_add(charged, [part[0] for part in parts], end - i)
            if any(spills := [part[2] for part in parts]):  # +0.0 leaves spilled
                spilled = _repeat_add(spilled, spills, end - i)
            i, r, shares = end, trial_r, trial_shares
        if check is not None or i != ends[r] or i >= stop:
            break
        weights, trial_shares = sim.allocate_fn(sim.sched, sim.app, sim.bank,
                                                sim.run_powers[r + 1], sim.params)
        if weights != sim.prev_weights:
            break
        trial_r, end = r + 1, min(ends[r + 1], stop)
    k = i - i0
    if k:
        # The rest reads only the held voltages, as did the last trial, moved
        # or not: its leak terms and decision drain are every slot's.
        leaks = [part[1] for part in parts]
        sim.ledger[:] = charged, _repeat_add(sigma_drain, leaks, k), spilled
        sim.decision_drained = _repeat_add(sim.decision_drained, (taken,), k)
        for b, cap in enumerate(caps):
            if cap.voltage >= cap.v_on:
                sim.avail_counts[b] += k
        r0, r1 = (-(-i0 // stride), -(-i // stride)) if stride > 0 else (0, 0)
        if r0 < r1:  # the rows of the slots replayed
            rows = r1 - r0
            log.timeline_v[r0 * m : r1 * m] = array("d", saved) * rows
            log.timeline_profile[r0:r1] = array("b", [_PROFILE_INDEX[sim.sched.profile]]) * rows
            log.timeline_running[r0:r1] = array("h", [-1]) * rows
    return i, r, shares


_BINADE_TOP = 2**53 - 1  # the last float of a binade, in ulps of the binade


def _repeat_add(s: float, addends, k: int) -> float:
    """What `for _ in range(k): for a in addends: s += a` leaves, bit for bit,
    for s and addends >= 0.

    Every float of the binade of s is a multiple of u = ulp(s), and so is
    the next binade's first (for a subnormal s or +0.0, u is the subnormal
    spacing, which the first normal binade shares).  While the sums stay
    below that, adding a rounds the sum to that grid: a adds its whole count
    of ulps rounded to nearest or, halfway between two, as many as make the
    sum's last bit even.  So a round's ulps depend on the parity of the sum
    it starts from alone, and a round with a halfway addend ends on a parity
    its addends fix: every round after the first adds the same n ulps.  The
    first round and the m after it that keep the sums inside the binade are
    added in exact integer arithmetic; the round after them, and any round
    from -0.0 or with an addend that is negative or above s, adds float by
    float."""
    while k > 0:
        grid = _ulps_of(s, addends)
        if grid is not None:
            u = math.ulp(s)
            first = _add_ulps(int(s / u), grid)
            if first <= _BINADE_TOP:
                n = _add_ulps(first, grid) - first
                m = k - 1 if n == 0 else min(k - 1, (_BINADE_TOP - first) // n)
                s, k = (first + m * n) * u, k - 1 - m
        if k > 0:
            for a in addends:
                s += a
            k -= 1
    return s


def _ulps_of(s: float, addends) -> list | None:
    """Each addend in ulps of s, as (ulps rounded to nearest, or down where
    it lies halfway, and whether it does), or None where _repeat_add must
    add float by float."""
    if not 0.0 <= s < math.inf or math.copysign(1.0, s) < 0.0:
        return None
    u, grid = math.ulp(s), []
    for a in addends:
        if not 0.0 <= a <= s:
            return None
        q = a / u  # exact, or far below a half: u is a power of two and q < 2**53
        whole = int(q)
        grid.append((whole + (q - whole > 0.5), q - whole == 0.5))
    return grid


def _add_ulps(units: int, grid: list) -> int:
    """A sum of units ulps after one round of the addends in grid, while it
    stays inside its binade: a halfway addend rounds it to even."""
    for whole, halfway in grid:
        units += whole
        if halfway:
            units += units & 1
    return units


def _finalize(sim: SimState) -> tuple[MetricsReport, EventLog]:
    config = sim.config
    records = sim.log.totals.setdefault("latency_records", [])
    # Close out recovery watches that never completed before the horizon.
    for end, seen in sim.watches:
        for comps in sim.bank.component_map.values():
            for comp in comps:
                seen.setdefault(comp.value, config.horizon - end)
        records.append([end, seen])
    sim.watches = []
    log = sim.log
    log.totals.update(
        {
            "e_start": sim.e_start,
            "e_end": total_energy(sim.bank),
            "charged": sim.ledger[0],
            "sigma_drain": sim.ledger[1],
            "withdrawn": sim.withdrawn,
            "decision_drained": sim.decision_drained,
            "spilled": sim.ledger[2],
            "reset_delta": sim.reset_delta,
            "completions": list(sim.completions),
            "releases_total": dict(sim.releases_total),
            "releases_served": dict(sim.releases_served),
            "avail_counts": list(sim.avail_counts),
            "component_buffers": {
                comp.value: b
                for b, comps in sim.bank.component_map.items()
                for comp in comps
            },
            "n_slots": sim.n_slots,
            "overhead_invocations": sim.overhead_invocations,
            "aborts": sim.aborts,
            "wasted": sim.wasted,
        }
    )
    return compute_metrics(log, config), log


def run(config: SimConfig) -> tuple[MetricsReport, EventLog]:
    """Simulate the whole horizon and return (metrics, event log).

    The result is that of calling step() on every slot; quiet stretches run
    through _quiet_span instead."""
    sim = init_sim(config)
    n = sim.n_slots
    while sim.i < n:
        step(sim)
        _quiet_span(sim)
    return _finalize(sim)


def compute_metrics(log: EventLog, config: SimConfig) -> MetricsReport:
    """Assemble the metrics report from a finished run's log."""
    totals = log.totals
    if "n_slots" not in totals:
        raise EngineError("log has no run totals; finish a run first")
    horizon_h = config.horizon / 3600.0
    completions = totals["completions"]
    schedulability = {
        tid: (
            totals["releases_served"][tid] / totals["releases_total"][tid]
            if totals["releases_total"][tid]
            else 1.0
        )
        for tid in totals["releases_total"]
    }
    availability = {
        comp: totals["avail_counts"][b] / totals["n_slots"]
        for comp, b in totals["component_buffers"].items()
    }
    latency: dict[str, float] = {}
    for comp in totals["component_buffers"]:
        vals = [seen[comp] for _, seen in totals["latency_records"] if comp in seen]
        latency[comp] = fold_sum(vals) / len(vals) if vals else float("nan")
    first_attack = min((sc.start for sc in config.attacks), default=None)
    if first_attack is not None:
        post = [ts for ts in completions if ts >= first_attack]
        post_hours = (config.horizon - first_attack) / 3600.0
        post_rate = len(post) / post_hours if post_hours > 0 else float("nan")
    else:
        post, post_rate = [], float("nan")
    in_attack = sum(
        1 for ts in completions for sc in config.attacks if sc.start <= ts < sc.end
    )
    invocations = totals["overhead_invocations"]
    return MetricsReport(
        policy=config.policy,
        app_name=config.app.name,
        horizon=config.horizon,
        dt=config.dt,
        completions=len(completions),
        app_exec_rate=len(completions) / horizon_h,
        post_onset_completions=len(post),
        post_onset_rate=post_rate,
        in_attack_completions=in_attack,
        schedulability=schedulability,
        availability=availability,
        availability_latency=latency,
        overhead_invocations=invocations,
        overhead_energy=invocations * config.params.decision_cost,
        overhead_time=invocations * config.params.decision_time,
        aborts=totals["aborts"],
        wasted_energy=totals["wasted"],
        spilled_energy=totals["spilled"],
        completions_timeline=[(ts, k + 1) for k, ts in enumerate(completions)],
    )
