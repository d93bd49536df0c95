"""Application model: builtin task graphs, rate tables, queues."""

import math
import pytest

from eamsim.apps import (
    AppModelError,
    AppSpec,
    DataQueue,
    Profile,
    TaskSpec,
    Token,
    builtin_app,
    validate,
)
from eamsim.energy import Component
from eamsim.policy import build_active_set, init_scheduler

ALL_PROFILES = (Profile.NML, Profile.LP, Profile.CTL, Profile.SA, Profile.LA)

# Per-hour rate tables of the three reference applications, (NML, LP, CTL, SA, LA).
RATE_TABLES = {
    "hvac": (30, 12, 4, 8, 4),
    "greenhouse": (12, 6, 2, 4, 2),
    "ventilation": (45, 15, 6, 20, 6),
}


@pytest.mark.parametrize("name", sorted(RATE_TABLES))
def test_builtin_rate_tables(name):
    app = builtin_app(name)
    expected = RATE_TABLES[name]
    for profile, rate in zip(ALL_PROFILES, expected):
        _, rates = build_active_set(app, profile)
        assert rates == {task.id: rate for task in app.tasks}
    # Sanity orderings: attack profiles throttle, the long profile hardest.
    nml, lp, ctl, sa, la = expected
    assert nml >= lp >= ctl and sa >= la and nml > sa


def test_builtin_structure():
    hvac = builtin_app("hvac")
    assert hvac.sink_task == "AC"
    assert hvac.sources == ("TS", "HS")
    assert set(hvac.edges) == {("HS", "D"), ("TS", "D"), ("D", "AC")}
    assert hvac.successors("D") == ("AC",)
    assert hvac.task("AC").component is Component.ACTUATION
    assert hvac.task("TS").component is Component.SENSING
    assert hvac.task("D").component is Component.MCU

    green = builtin_app("greenhouse")
    assert [t.id for t in green.tasks] == ["HS", "D", "SC"]
    vent = builtin_app("ventilation")
    assert vent.sink_task == "WC"
    assert vent.sources == ("TS", "CS")

    with pytest.raises(AppModelError):
        builtin_app("toaster")


def test_builtin_costs_and_buffers():
    hvac = builtin_app("hvac")
    assert hvac.task("HS").energy_cost == 19.066e-6
    assert hvac.task("HS").duration == 12.030e-3
    assert hvac.task("D").energy_cost == 15.731e-6
    assert hvac.task("D").duration == 10.182e-3
    assert hvac.task("AC").energy_cost == 92.931e-6
    assert hvac.task("AC").duration == 60.150e-3
    for tid in ("TS", "HS", "D"):
        assert hvac.task(tid).buffer == 0
    assert hvac.task("AC").buffer == 1


def test_period_for():
    # Release periods are 3600 / rate, as the scheduler installs them.
    hvac = builtin_app("hvac")
    assert init_scheduler(hvac, Profile.NML).periods["AC"] == 120.0
    assert init_scheduler(hvac, Profile.SA).periods["AC"] == 450.0
    assert init_scheduler(hvac, Profile.LA).periods["AC"] == 900.0


def test_period_for_disabled_task():
    task = TaskSpec(
        id="T", energy_cost=1e-6, duration=1e-3, buffer=0,
        rates={Profile.NML: 10.0, Profile.LA: 0.0},
    )
    app = AppSpec(name="x", tasks=(task,), sink_task="T")
    # A missing profile reads as rate 0; a zero-rate task has no period and
    # never joins the active set.
    assert build_active_set(app, Profile.SA) == ([], {})
    state = init_scheduler(app, Profile.LA)
    assert state.active == [] and state.periods == {}
    assert init_scheduler(app, Profile.NML).periods == {"T": 360.0}


# --------------------------------------------------------------- validation


def _task(tid, buffer=0, preds=()):
    return TaskSpec(
        id=tid, energy_cost=1e-6, duration=1e-3, buffer=buffer,
        rates={Profile.NML: 10.0}, predecessors=preds,
    )


def test_validate_clean_spec():
    for name in RATE_TABLES:
        assert validate(builtin_app(name), num_buffers=2) == []


def test_validate_detects_problems():
    bad_pred = AppSpec(name="x", tasks=(_task("A", preds=("ghost",)),), sink_task="A")
    assert any("unknown predecessor" in p for p in validate(bad_pred))

    bad_buf = AppSpec(name="x", tasks=(_task("A", buffer=5),), sink_task="A")
    assert any("buffer index" in p for p in validate(bad_buf, num_buffers=2))

    cycle = AppSpec(
        name="x",
        tasks=(_task("A", preds=("B",)), _task("B", preds=("A",))),
        sink_task="A",
    )
    assert any("cycle" in p for p in validate(cycle))


def test_validate_unreachable_sink():
    # The sink hangs off a cycle while a separate source exists, so it is
    # unreachable from the sources (in an acyclic graph every task traces
    # back to some source, so this only occurs together with a cycle).
    spec = AppSpec(
        name="x",
        tasks=(_task("S"), _task("A", preds=("B",)), _task("B", preds=("A",))),
        sink_task="A",
    )
    problems = validate(spec)
    assert any("cycle" in p for p in problems)
    assert any("unreachable" in p for p in problems)


def test_appspec_validation():
    with pytest.raises(AppModelError, match="duplicate"):
        AppSpec(name="x", tasks=(_task("A"), _task("A")), sink_task="A")
    with pytest.raises(AppModelError, match="sink"):
        AppSpec(name="x", tasks=(_task("A"),), sink_task="Z")


@pytest.mark.parametrize(
    "kw",
    [
        dict(energy_cost=0.0, duration=1e-3),
        dict(energy_cost=1e-6, duration=0.0),
        dict(energy_cost=1e-6, duration=1e-3, buffer=-1),
        dict(energy_cost=1e-6, duration=1e-3, rates={Profile.NML: -1.0}),
        dict(energy_cost=math.inf, duration=1e-3),
        dict(energy_cost=1e-6, duration=math.inf),
        dict(energy_cost=1e-6, duration=1e-3, rates={Profile.NML: math.inf}),
        dict(energy_cost=1e-6, duration=1e-3, rates={Profile.NML: math.nan}),
    ],
)
def test_taskspec_validation(kw):
    kw.setdefault("rates", {Profile.NML: 1.0})
    with pytest.raises(AppModelError):
        TaskSpec(id="T", buffer=kw.pop("buffer", 0), **kw)


# -------------------------------------------------------------------- queue


def tok(k, lineage=()):
    return Token(payload_id=k, birth_time=float(k), lineage=frozenset(lineage))


def test_queue_fifo_and_overflow():
    q = DataQueue(capacity=3)
    assert not q and len(q) == 0
    for k in range(3):
        assert q.push(tok(k)) is None
    dropped = q.push(tok(3))  # overflow drops the oldest payload
    assert dropped is not None and dropped.payload_id == 0
    assert len(q) == 3
    assert [q.pop().payload_id for _ in range(3)] == [1, 2, 3]
    assert not q


def test_queue_empty_pop_and_capacity():
    q = DataQueue(capacity=1)
    with pytest.raises(AppModelError):
        q.pop()
    with pytest.raises(AppModelError):
        DataQueue(capacity=0)


def test_token_lineage_is_frozen():
    t = tok(1, lineage=("HS", "D"))
    assert t.lineage == frozenset({"HS", "D"})
    with pytest.raises(Exception):
        t.payload_id = 2  # frozen dataclass
