"""Energy-attack-aware scheduling policy (EAM).

Per simulation slot the policy makes three coupled decisions:

1. Profile selection.  While an attack is reported, the expected remaining
   attack time picks between the short-attack and long-attack profiles
   (strictly longer than the alpha threshold means long).  Otherwise the
   total stored energy E selects among the energy-driven profiles:
   E > omega1 -> NML, E < omega0 -> CTL, in between -> LP.

2. Task scheduling.  Released tasks whose buffer holds enough usable energy
   to complete them become Ready; the first Ready task in order obtains the
   single MCU and runs to completion (no preemption).  While an attack is
   reported, a task additionally stays Blocked unless the remaining attack
   time strictly exceeds its release period, which suppresses work that could
   not recur within the attack anyway and preserves charge.

3. Federated harvest allocation.  Buffers backing a Ready or Running task
   weigh lambda_hi, the rest lambda_lo; weights are normalised so the shares
   of all buffers sum exactly to the harvested power.

Underfunded tasks are deferred rather than failed: a task only becomes Ready
once its buffer can fund the whole execution while staying at or above v_off,
so aborts are reserved for genuine mid-execution energy collapses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .apps import AppSpec, Profile
from .detector import AttackInfo
from .energy import CapacitorBank, total_energy, usable_energy


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class PolicyParams:
    """Tunables of the mitigation policy."""

    alpha: float = 60.0  # s, attack-duration split between SA and LA profiles
    omega0: float = 0.0  # J, below this total energy the CTL profile engages
    omega1: float = 0.0  # J, above this total energy the NML profile engages
    lambda_hi: float = 0.8  # harvest weight for buffers backing active work
    lambda_lo: float = 0.2  # harvest weight for idle buffers
    decision_cost: float = 1.781e-9  # J per policy invocation
    decision_time: float = 1.237e-6  # s per policy invocation
    accuracy_gate: bool = False  # require detector accuracy above threshold
    accuracy_threshold: float = 0.5  # minimum trusted detector accuracy
    edf_order: bool = False  # dispatch Ready tasks earliest-deadline-first

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < math.inf:
            raise PolicyError("alpha must be finite and >= 0")
        if not 0 <= self.omega0 <= self.omega1 < math.inf:
            raise PolicyError("need 0 <= omega0 <= omega1, all finite")
        if not 0 <= self.lambda_lo <= self.lambda_hi < math.inf:
            raise PolicyError("need lambda_hi >= lambda_lo >= 0, all finite")
        if self.lambda_hi <= 0:
            raise PolicyError("lambda_hi must be positive")
        if not (0 <= self.decision_cost < math.inf and 0 <= self.decision_time < math.inf):
            raise PolicyError("decision overhead must be finite and >= 0")
        if not math.isfinite(self.accuracy_threshold):
            raise PolicyError("accuracy threshold must be finite")


class TaskState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SUSPENDED = "suspended"


@dataclass(slots=True)
class SchedulerState:
    """Mutable scheduling state carried across slots."""

    profile: Profile
    active: list[str]  # task ids with a positive rate, in spec order
    periods: dict[str, float]  # s, 3600 / rate
    states: dict[str, TaskState]
    pending: dict[str, bool]  # release fired and not yet served
    next_release: dict[str, float]  # s, when the next release fires
    executing: str | None = None
    exec_remaining: float = 0.0  # s of work left on the executing task
    exec_drawn: float = 0.0  # J already withdrawn by the executing task
    # (id, buffer, cost, input edges) per task and each profile's (active,
    # periods), built from the app by init_scheduler (apply_profile shares
    # the latter, so nothing may mutate them); the earliest next release,
    # kept by fire_releases.
    _task_info: tuple = field(default=(), repr=False, compare=False)
    _profiles: dict = field(default_factory=dict, repr=False, compare=False)
    _next_fire: float = field(default=-math.inf, repr=False, compare=False)


class PolicyDecision(NamedTuple):
    """What one policy invocation decided (for logging and accounting)."""

    profile: Profile
    profile_changed: bool
    fired: tuple[str, ...]  # releases that fired this slot
    transitions: tuple[tuple[str, TaskState, TaskState], ...]
    started: str | None  # task dispatched this slot, if any
    weights: tuple[float, ...]  # normalised harvest fractions per buffer
    shares: tuple[float, ...]  # W allotted per buffer


def attack_profiles(info: AttackInfo, params: PolicyParams) -> bool:
    """Whether select_profile picks SA or LA from the report, rather than a
    profile from the stored energy: an attack is reported and, with the
    accuracy gate on, the detector is trusted."""
    if not info.ongoing:
        return False
    return not (params.accuracy_gate and not info.accuracy > params.accuracy_threshold)


def select_profile(info: AttackInfo, total: float, params: PolicyParams) -> Profile:
    """Pick the active profile from attack knowledge and stored energy."""
    if attack_profiles(info, params):
        return Profile.LA if info.remaining_exceeds(params.alpha) else Profile.SA
    if total > params.omega1:
        return Profile.NML
    if total < params.omega0:
        return Profile.CTL
    return Profile.LP


def energy_profile_slots(total: float, params: PolicyParams, rise: float, fall: float) -> float:
    """Slots after this one over which select_profile's energy rule keeps the
    answer it gives for total, if the total moves by less than rise up and
    fall down per slot (both positive): total + j * rise and total - j * fall
    must stay on the same side of omega0 and omega1 for every j up to it."""
    omega0, omega1 = params.omega0, params.omega1
    if total > omega1:
        return (total - omega1) // fall
    if total < omega0:
        return (omega0 - total) // rise
    return min((total - omega0) // fall, (omega1 - total) // rise)


def build_active_set(spec: AppSpec, profile: Profile) -> tuple[list[str], dict[str, float]]:
    """Tasks participating under a profile (rate > 0), with their rates."""
    active: list[str] = []
    rates: dict[str, float] = {}
    for task in spec.tasks:
        rate = float(task.rates.get(profile, 0.0))
        if rate > 0:
            active.append(task.id)
            rates[task.id] = rate
    return active, rates


def profile_periods(spec: AppSpec, profile: Profile) -> tuple[list[str], dict[str, float]]:
    """The active set under a profile, with each task's release period in s."""
    active, rates = build_active_set(spec, profile)
    return active, {tid: 3600.0 / r for tid, r in rates.items()}


def init_scheduler(spec: AppSpec, profile: Profile, now: float = 0.0) -> SchedulerState:
    state = SchedulerState(
        profile=profile,
        active=[],
        periods={},
        states={t.id: TaskState.BLOCKED for t in spec.tasks},
        pending={t.id: False for t in spec.tasks},
        next_release={},
        _task_info=tuple(
            (t.id, t.buffer, t.energy_cost, tuple((p, t.id) for p in t.predecessors))
            for t in spec.tasks
        ),
        _profiles={p: profile_periods(spec, p) for p in Profile},
    )
    apply_profile(state, profile, now)  # every task starts newly enabled
    return state


def released_tasks(state: SchedulerState, queues: dict) -> list[tuple]:
    """(task id, buffer, cost, period) of each task set_task_states judges:
    not running, active, released and with its inputs.  Any other task stays
    Blocked until a release, a profile change or a finish."""
    pending, periods = state.pending, state.periods
    return [
        (tid, buf, cost, periods[tid])
        for tid, buf, cost, edges in state._task_info
        if tid != state.executing and tid in periods and pending[tid]
        and (not edges or any(queues[edge] for edge in edges))
    ]


def is_ready(task: tuple, bank: CapacitorBank, info: AttackInfo) -> bool:
    """The readiness rule for a released task: its buffer funds the whole
    execution, and under a reported attack the attack outlasts its period."""
    _, buf, cost, period = task
    usable = usable_energy(bank.capacitors[buf])
    if info.ongoing:
        return usable > cost and info.remaining_exceeds(period)
    return usable >= cost


def unready_slots(task: tuple, bank: CapacitorBank, info: AttackInfo, rise: float) -> float:
    """Slots after this one over which is_ready(task, ...), False now, stays
    False, if the task's buffer gains less than rise (> 0) usable energy per
    slot, rounding included.  Either the usable energy cannot reach the cost
    in that many slots, or a reported attack's remainder can no longer exceed
    the period in this window (AttackInfo.never_exceeds)."""
    _, buf, cost, period = task
    if info.ongoing and info.never_exceeds(period):
        return math.inf
    deficit = cost - usable_energy(bank.capacitors[buf])
    return deficit // rise if deficit > 0.0 else 0.0


def any_ready(tasks: list, bank: CapacitorBank, info: AttackInfo) -> bool:
    for task in tasks:
        if is_ready(task, bank, info):
            return True
    return False


def set_task_states(
    state: SchedulerState,
    bank: CapacitorBank,
    info: AttackInfo,
    queues: dict,
) -> list[tuple[str, TaskState, TaskState]]:
    """Re-classify every non-running task; returns the observed transitions."""
    ready = {t[0] for t in released_tasks(state, queues) if is_ready(t, bank, info)}
    transitions: list[tuple[str, TaskState, TaskState]] = []
    states = state.states
    for tid, old in states.items():
        if tid == state.executing:
            continue
        new = TaskState.READY if tid in ready else TaskState.BLOCKED
        if old is not new:
            states[tid] = new
            transitions.append((tid, old, new))
    return transitions


def pick_execution_task(
    state: SchedulerState, spec: AppSpec, params: PolicyParams
) -> str | None:
    """Dispatch the first Ready task; the MCU runs at most one task."""
    if state.executing is not None:
        return None
    order = state.active
    if params.edf_order:
        order = sorted(order, key=lambda tid: (state.next_release.get(tid, 0.0), order.index(tid)))
    for tid in order:
        if state.states[tid] is TaskState.READY:
            state.states[tid] = TaskState.RUNNING
            state.executing = tid
            task = spec.task(tid)
            state.exec_remaining = task.duration
            state.exec_drawn = 0.0
            state.pending[tid] = False
            return tid
    return None


def split_power(power: float, fractions: tuple[float, ...]) -> tuple[float, ...]:
    """Split harvested power into per-buffer shares, power * fraction each.

    The last buffer with a positive fraction takes the residual instead, so
    the shares sum to the power to within one float rounding step and none
    is negative.
    """
    last = -1
    for i, f in enumerate(fractions):
        if f > 0.0:
            last = i
    shares = [0.0] * len(fractions)
    acc = 0.0
    for i, f in enumerate(fractions):
        if f > 0.0 and i != last:
            s = power * f
            shares[i] = s
            acc += s
    residual = power - acc
    shares[last] = residual if residual > 0.0 else 0.0
    return tuple(shares)


def allocate_harvest(
    state: SchedulerState,
    spec: AppSpec,
    bank: CapacitorBank,
    power: float,
    params: PolicyParams,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Split the harvested power across buffers by task-state weights.

    Returns (fractions, shares).  Buffers backing at least one Ready or
    Running task weigh lambda_hi, other buffers referenced by the active set
    weigh lambda_lo, and buffers the active set never touches get nothing
    (unless no buffer is referenced at all, in which case every buffer
    weighs lambda_lo).  Shares come from split_power.
    """
    states, periods = state.states, state.periods
    hot_mask = referenced = 0
    for tid, buf, _, _ in state._task_info:
        if tid in periods:
            referenced |= 1 << buf
            if states[tid] is TaskState.READY or states[tid] is TaskState.RUNNING:
                hot_mask |= 1 << buf
    referenced = referenced or -1  # no buffer referenced: all of them
    hi = params.lambda_hi
    lo = params.lambda_lo
    m = len(bank.capacitors)
    weights = [0.0] * m
    for i in range(m):
        if referenced >> i & 1:
            weights[i] = hi if hot_mask >> i & 1 else lo
    scale = sum(weights)
    if scale == 0.0:
        # All referenced buffers weigh zero (lambda_lo == 0 and nothing hot):
        # fall back to an even split so the power is not silently dropped.
        weights = [1.0 if referenced >> i & 1 else 0.0 for i in range(m)]
        scale = sum(weights)
    fractions = tuple(w / scale for w in weights)
    return fractions, split_power(power, fractions)


def fire_releases(state: SchedulerState, now: float) -> list[str]:
    """Mark due releases pending; strictly periodic, no backlog accumulation."""
    if now < state._next_fire:
        return []
    fired: list[str] = []
    next_release = state.next_release
    for tid in state.active:
        if now >= next_release[tid]:
            state.pending[tid] = True
            fired.append(tid)
            period = state.periods[tid]
            nxt = next_release[tid] + period
            while nxt <= now:
                nxt += period
            next_release[tid] = nxt
    state._next_fire = min(
        (next_release[tid] for tid in state.active), default=math.inf
    )
    return fired


def apply_profile(state: SchedulerState, profile: Profile, now: float) -> None:
    """Switch profiles at a slot boundary, re-phasing release schedules.

    Newly enabled tasks release immediately; tasks staying active keep their
    schedule but never wait longer than one period of the new profile.
    Excluded tasks lose any pending release.
    """
    old_active = set(state.active)
    active, periods = state._profiles[profile]
    for tid in active:
        if tid not in old_active:
            state.next_release[tid] = now
        else:
            state.next_release[tid] = min(state.next_release[tid], now + periods[tid])
    for tid in old_active.difference(active):
        state.pending[tid] = False
    state.profile = profile
    state.active = active
    state.periods = periods
    state._next_fire = -math.inf


def policy_step(
    state: SchedulerState,
    spec: AppSpec,
    bank: CapacitorBank,
    info: AttackInfo,
    queues: dict,
    params: PolicyParams,
    now: float,
    power: float,
    profile_fn=select_profile,
    allocate_fn=allocate_harvest,
) -> PolicyDecision:
    """One complete policy invocation for the current slot.

    Composes profile selection, release firing, task classification, dispatch
    and harvest allocation; the caller charges the decision cost.  The
    profile_fn/allocate_fn hooks let baseline policies reuse the scheduling
    core with their own profile pinning and allocation rules.
    """
    profile = profile_fn(info, total_energy(bank), params)
    changed = profile is not state.profile
    if changed:
        apply_profile(state, profile, now)
    fired = fire_releases(state, now)
    transitions = set_task_states(state, bank, info, queues)
    started = pick_execution_task(state, spec, params)
    if started is not None:
        transitions.append((started, TaskState.READY, TaskState.RUNNING))
    weights, shares = allocate_fn(state, spec, bank, power, params)
    return PolicyDecision(
        profile=profile,
        profile_changed=changed,
        fired=tuple(fired),
        transitions=tuple(transitions),
        started=started,
        weights=weights,
        shares=shares,
    )
