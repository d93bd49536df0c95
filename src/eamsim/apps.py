"""Application task model: profiles, task specs, pipelines and data queues.

An application is a small DAG of periodic tasks (sense -> decide -> actuate).
Every task carries a per-profile execution rate in runs per hour; the profile
in force decides how often each task is released.  Profiles:

    NML  normal operation, full rates
    LP   low power, reduced rates to rebuild charge
    CTL  critical, minimum rates to ride out deep energy deficits
    SA   short-attack response
    LA   long-attack response

Tasks exchange data through small non-volatile FIFO queues, one per producer
to consumer edge.  A queue survives power failures; a task that is interrupted
mid-execution never publishes anything (transactional execution), so queues
only ever contain results of complete runs.  Each payload carries its lineage,
the set of task ids whose outputs flowed into it, which lets the simulator
recognise end-to-end pipeline completions at the sink.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

from .energy import Component


class AppModelError(ValueError):
    """Structural problem in an application specification."""


class Profile(enum.Enum):
    NML = "NML"  # normal
    LP = "LP"  # low power
    CTL = "CTL"  # critical
    SA = "SA"  # short attack
    LA = "LA"  # long attack


@dataclass(frozen=True)
class TaskSpec:
    """Static description of one application task."""

    id: str
    energy_cost: float  # J per complete execution
    duration: float  # s of MCU/peripheral activity per execution
    buffer: int  # index of the energy buffer the task draws from
    rates: dict[Profile, float]  # executions per hour, per profile
    predecessors: tuple[str, ...] = ()  # any one supplying data releases the task
    component: Component = Component.MCU

    def __post_init__(self) -> None:
        if not 0 < self.energy_cost < math.inf:
            raise AppModelError(f"task {self.id}: energy cost must be positive and finite")
        if not 0 < self.duration < math.inf:
            raise AppModelError(f"task {self.id}: duration must be positive and finite")
        if self.buffer < 0:
            raise AppModelError(f"task {self.id}: buffer index must be >= 0")
        for profile, rate in self.rates.items():
            if not 0 <= rate < math.inf:
                raise AppModelError(f"task {self.id}: rate for {profile} must be finite and >= 0")


@dataclass(frozen=True)
class AppSpec:
    """An application: ordered tasks, dependency edges, and a sink."""

    name: str
    tasks: tuple[TaskSpec, ...]
    sink_task: str

    def __post_init__(self) -> None:
        ids = [t.id for t in self.tasks]
        if len(ids) != len(set(ids)):
            raise AppModelError("duplicate task ids")
        if self.sink_task not in ids:
            raise AppModelError(f"sink task {self.sink_task!r} not in task list")
        object.__setattr__(self, "_by_id", {t.id: t for t in self.tasks})

    def task(self, task_id: str) -> TaskSpec:
        return self._by_id[task_id]

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.tasks if not t.predecessors)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """(producer, consumer) pairs, in task order."""
        out = []
        for t in self.tasks:
            for p in t.predecessors:
                out.append((p, t.id))
        return tuple(out)

    def successors(self, task_id: str) -> tuple[str, ...]:
        return tuple(t.id for t in self.tasks if task_id in t.predecessors)


def validate(spec: AppSpec, num_buffers: int = 2) -> list[str]:
    """Collect structural violations; an empty list means the app is sound."""
    problems: list[str] = []
    ids = {t.id for t in spec.tasks}
    for t in spec.tasks:
        for p in t.predecessors:
            if p not in ids:
                problems.append(f"task {t.id}: unknown predecessor {p!r}")
        if t.buffer >= num_buffers:
            problems.append(f"task {t.id}: buffer index {t.buffer} >= bank size {num_buffers}")
    # Cycle check by repeated removal of tasks with no unresolved predecessors.
    remaining = {t.id: {p for p in t.predecessors if p in ids} for t in spec.tasks}
    while remaining:
        free = [tid for tid, preds in remaining.items() if not preds]
        if not free:
            problems.append(f"dependency cycle among {sorted(remaining)}")
            break
        for tid in free:
            del remaining[tid]
        for preds in remaining.values():
            preds.difference_update(free)
    # The sink should be fed, directly or transitively, by every source.
    reachable = set(spec.sources)
    changed = True
    while changed:
        changed = False
        for t in spec.tasks:
            if t.id not in reachable and any(p in reachable for p in t.predecessors):
                reachable.add(t.id)
                changed = True
    if spec.sink_task not in reachable and spec.sources:
        problems.append(f"sink {spec.sink_task!r} unreachable from sources")
    return problems


@dataclass(frozen=True)
class Token:
    """One queued payload with provenance."""

    payload_id: int
    birth_time: float  # s, simulation time the producing task completed
    lineage: frozenset[str]  # task ids whose outputs flowed into this payload


class DataQueue:
    """Bounded non-volatile FIFO on one producer->consumer edge.

    Overflow drops the oldest payload, favouring fresh sensor data.
    """

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise AppModelError("queue capacity must be >= 1")
        self.capacity = capacity
        self._items: deque[Token] = deque()

    def push(self, token: Token) -> Token | None:
        """Append a token; returns the dropped oldest token on overflow."""
        dropped = None
        if len(self._items) == self.capacity:
            dropped = self._items.popleft()
        self._items.append(token)
        return dropped

    def pop(self) -> Token:
        if not self._items:
            raise AppModelError("pop from empty queue")
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


# Task-class costs measured on an MSP430-class sensing platform.
SENSING_COST = 19.066e-6  # J
SENSING_DURATION = 12.030e-3  # s
DECISION_COST = 15.731e-6  # J
DECISION_DURATION = 10.182e-3  # s
CONTROL_COST = 92.931e-6  # J
CONTROL_DURATION = 60.150e-3  # s

# Buffer assignment convention for the two-buffer reference bank: sensing and
# decision work runs off buffer 0 (MCU + sensors), control/actuation off 1.
_SENSE_BUF = 0
_CTRL_BUF = 1


def _rates(nml: float, lp: float, ctl: float, sa: float, la: float) -> dict[Profile, float]:
    return dict(zip(Profile, (nml, lp, ctl, sa, la)))


def _sensing(tid: str, rates: dict[Profile, float]) -> TaskSpec:
    return TaskSpec(
        id=tid,
        energy_cost=SENSING_COST,
        duration=SENSING_DURATION,
        buffer=_SENSE_BUF,
        rates=rates,
        component=Component.SENSING,
    )


def _decision(tid: str, rates: dict[Profile, float], preds: tuple[str, ...]) -> TaskSpec:
    return TaskSpec(
        id=tid,
        energy_cost=DECISION_COST,
        duration=DECISION_DURATION,
        buffer=_SENSE_BUF,
        rates=rates,
        predecessors=preds,
        component=Component.MCU,
    )


def _control(tid: str, rates: dict[Profile, float], preds: tuple[str, ...]) -> TaskSpec:
    return TaskSpec(
        id=tid,
        energy_cost=CONTROL_COST,
        duration=CONTROL_DURATION,
        buffer=_CTRL_BUF,
        rates=rates,
        predecessors=preds,
        component=Component.ACTUATION,
    )


def builtin_app(which: str) -> AppSpec:
    """One of the three reference applications.

    hvac         TS, HS -> D -> AC   (temperature/humidity -> decision -> a/c)
    greenhouse   HS -> D -> SC       (humidity -> decision -> sprinkler)
    ventilation  TS, CS -> D -> WC   (temperature/CO2 -> decision -> window)
    """
    key = which.lower()
    if key == "hvac":
        r = _rates(30, 12, 4, 8, 4)
        return AppSpec(
            name="hvac",
            tasks=(
                _sensing("TS", r),
                _sensing("HS", r),
                _decision("D", r, ("HS", "TS")),
                _control("AC", r, ("D",)),
            ),
            sink_task="AC",
        )
    if key == "greenhouse":
        r = _rates(12, 6, 2, 4, 2)
        return AppSpec(
            name="greenhouse",
            tasks=(
                _sensing("HS", r),
                _decision("D", r, ("HS",)),
                _control("SC", r, ("D",)),
            ),
            sink_task="SC",
        )
    if key == "ventilation":
        r = _rates(45, 15, 6, 20, 6)
        return AppSpec(
            name="ventilation",
            tasks=(
                _sensing("TS", r),
                _sensing("CS", r),
                _decision("D", r, ("TS", "CS")),
                _control("WC", r, ("D",)),
            ),
            sink_task="WC",
        )
    raise AppModelError(f"unknown application {which!r}")
