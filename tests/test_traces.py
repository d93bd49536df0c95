"""Voltage traces: synthesis, file I/O, attack windows."""

import warnings

import numpy as np
import pytest

from eamsim.traces import (
    ATTACK_KINDS,
    AttackScenario,
    EnergyTrace,
    TraceError,
    load_trace,
    synthesize_trace,
    validate_scenarios,
)


# ---------------------------------------------------------------- synthesis


def test_synthesize_constant():
    tr = synthesize_trace("constant", 2.5, length=10.0, interval=1.0)
    assert tr.times == tuple(float(t) for t in range(11))  # both endpoints covered
    assert tr.voltages == (2.5,) * 11
    assert tr.span == (0.0, 10.0)
    assert tr.name == "constant"
    assert tr.load_resistance == 30e3


def test_synthesize_sinusoid():
    tr = synthesize_trace("sinusoid", 2.0, length=900.0, interval=1.0, period=900.0)
    v = dict(zip(tr.times, tr.voltages))
    assert v[0.0] == 0.0
    assert v[225.0] == pytest.approx(2.0, abs=1e-12)  # quarter period peak
    assert v[450.0] == pytest.approx(0.0, abs=1e-12)  # rectified zero
    assert v[675.0] == pytest.approx(2.0, abs=1e-12)  # |sin| second lobe
    assert len(tr.voltages) == 901 and all(v >= 0.0 for v in tr.voltages)
    assert max(tr.voltages) <= 2.0 + 1e-12


def test_synthesize_step():
    tr = synthesize_trace("step", 1.5, length=100.0, interval=10.0)
    assert tr.times == tuple(10.0 * k for k in range(11))
    assert tr.voltages == (0.0,) * 5 + (1.5,) * 6  # t < 50 and t >= 50


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(kind="triangle", amplitude=1.0, length=1.0, interval=0.1), "unknown"),
        (dict(kind="constant", amplitude=-1.0, length=1.0, interval=0.1), "amplitude"),
        (dict(kind="constant", amplitude=1.0, length=0.0, interval=0.1), "positive"),
        (dict(kind="constant", amplitude=1.0, length=1.0, interval=0.0), "positive"),
        (dict(kind="sinusoid", amplitude=1.0, length=1.0, interval=0.1, period=None), "period"),
        (dict(kind="constant", amplitude=1.0, length=np.inf, interval=0.1), "finite"),
        (dict(kind="constant", amplitude=1.0, length=1.0, interval=np.inf), "finite"),
    ],
)
def test_synthesize_rejects(kw, msg):
    with pytest.raises(TraceError, match=msg):
        synthesize_trace(**kw)


# ------------------------------------------------------------- trace object


def test_trace_validation():
    with pytest.raises(TraceError):
        EnergyTrace(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]), 30e3)
    with pytest.raises(TraceError):
        EnergyTrace(np.array([0.0, 1.0]), np.array([1.0, -0.1]), 30e3)
    with pytest.raises(TraceError):
        EnergyTrace(np.array([]), np.array([]), 30e3)
    with pytest.raises(TraceError):
        EnergyTrace(np.array([0.0, 1.0]), np.array([1.0]), 30e3)
    with pytest.raises(TraceError):
        EnergyTrace(np.array([0.0]), np.array([1.0]), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite_voltages(bad):
    with pytest.raises(TraceError, match="voltages must be finite"):
        EnergyTrace(np.array([0.0, 1.0, 2.0]), np.array([1.0, bad, 1.0]), 30e3)


@pytest.mark.parametrize(
    "times", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]]
)
def test_trace_rejects_non_finite_sample_times(times):
    # NaN compares False with everything, so the increasing check alone misses it.
    with pytest.raises(TraceError, match="sample times must be finite"):
        EnergyTrace(np.array(times), np.array([1.0, 1.0, 1.0]), 30e3)


@pytest.mark.parametrize("resistance", [np.nan, np.inf])
def test_trace_rejects_non_finite_load_resistance(resistance):
    with pytest.raises(TraceError, match="load resistance"):
        EnergyTrace(np.array([0.0, 1.0]), np.array([1.0, 1.0]), resistance)


def test_trace_is_immutable():
    tr = synthesize_trace("constant", 1.0, length=5.0, interval=1.0)
    assert type(tr.times) is tuple and type(tr.voltages) is tuple
    with pytest.raises(TypeError):
        tr.voltages[0] = 2.0
    with pytest.raises(TypeError):
        tr.times[0] = 2.0


def test_voltage_at_zero_order_hold():
    # Array samples are held as tuples of floats; a run holds each sample up
    # to the next (engine._slot_powers, tested against sampling every slot).
    tr = EnergyTrace(np.array([0.0, 10.0, 20.0]), np.array([1.0, 2.0, 3.0]), 30e3)
    assert tr.times == (0.0, 10.0, 20.0)
    assert tr.voltages == (1.0, 2.0, 3.0)


def test_power_from_voltage():
    # Harvested power is V(t)^2 / R_load over the zero-order-hold voltage.
    tr = synthesize_trace("constant", 3.0, length=5.0, interval=1.0, load_resistance=30e3)
    v = tr.voltages[2]  # held over [2, 3), so at t = 2.5
    assert v == 3.0
    assert v * v / tr.load_resistance == 9.0 / 30e3


# ------------------------------------------------------------ attack window


def test_attack_scenario_basics():
    sc = AttackScenario(start=10.0, duration=5.0, kind="short", id="w")
    assert sc.end == 15.0
    assert set(ATTACK_KINDS) == {"short", "long"}
    with pytest.raises(TraceError):
        AttackScenario(start=-1.0, duration=5.0)
    with pytest.raises(TraceError):
        AttackScenario(start=0.0, duration=0.0)
    with pytest.raises(TraceError):
        AttackScenario(start=0.0, duration=5.0, kind="medium")


@pytest.mark.parametrize("start", [np.nan, np.inf])
def test_attack_rejects_non_finite_start(start):
    with pytest.raises(TraceError, match="attack start must be finite"):
        AttackScenario(start=start, duration=5.0)


@pytest.mark.parametrize("duration", [np.nan, np.inf])
def test_attack_rejects_non_finite_duration(duration):
    with pytest.raises(TraceError, match="attack duration must be positive and finite"):
        AttackScenario(start=0.0, duration=duration)


def test_validate_scenarios_overlap():
    a = AttackScenario(start=0.0, duration=10.0)
    b = AttackScenario(start=5.0, duration=10.0, id="b")
    c = AttackScenario(start=10.0, duration=10.0, id="c")
    with pytest.raises(TraceError, match="overlap"):
        validate_scenarios([a, b])
    validate_scenarios([a, c])  # touching windows are fine
    validate_scenarios([c, a])  # order in the list does not matter


# ----------------------------------------------------------------- file I/O


def test_load_trace_tolerant_format(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text(
        "# a comment\n"
        "time_s,voltage_v\n"  # single header line is tolerated
        "0.0,1.0\n"
        "1.0 2.0\n"  # whitespace separator also accepted
        "\n"
        "2.5,0.5\n"
    )
    tr = load_trace(p, load_resistance=10e3, name="bench")
    assert tr.times == (0.0, 1.0, 2.5)
    assert tr.voltages == (1.0, 2.0, 0.5)
    assert tr.name == "bench"
    assert tr.load_resistance == 10e3


def test_load_trace_errors(tmp_path):
    with pytest.raises(TraceError, match="cannot read"):
        load_trace(tmp_path / "missing.csv", load_resistance=30e3)
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0,2.0\n")
    with pytest.raises(TraceError, match="two columns"):
        load_trace(bad, load_resistance=30e3)
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(TraceError, match="no samples"):
        load_trace(empty, load_resistance=30e3)


def test_load_trace_orders_samples_across_the_float_range(tmp_path):
    """Neighbouring sample times are compared, not subtracted: samples at
    -1.5e308 and 1.5e308, whose difference overflows, load with no warning,
    and the same samples out of order are still rejected."""
    wide = tmp_path / "wide.csv"
    wide.write_text("-1.5e308,1.0\n1.5e308,2.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = load_trace(wide, load_resistance=30e3)
    assert tr.times == (-1.5e308, 1.5e308)
    wide.write_text("1.5e308,1.0\n-1.5e308,2.0\n")
    with pytest.raises(TraceError, match="strictly increasing"):
        load_trace(wide, load_resistance=30e3)
