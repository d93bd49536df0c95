"""Attack detector: windowing, delay, remaining-time noise."""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eamsim.detector import NO_ATTACK, AttackInfo, DetectorConfig, detect, estimate, noise_key
from eamsim.traces import AttackScenario
from conftest import count_draws

WINDOW = [AttackScenario(start=100.0, duration=50.0, kind="short", id="w")]


def test_no_attack_constant():
    assert NO_ATTACK == AttackInfo(ongoing=False, accuracy=1.0, elapsed=0.0, remaining=0.0)


def test_outside_window_is_idle():
    cfg = DetectorConfig(reported_accuracy=0.8)
    for t in (0.0, 99.999, 150.0, 1000.0):
        info = detect(t, WINDOW, cfg)
        assert not info.ongoing
        assert info.accuracy == 0.8  # accuracy is reported either way
        assert info.elapsed == 0.0 and info.remaining == 0.0


def test_inside_window_exact_times():
    cfg = DetectorConfig()
    info = detect(120.0, WINDOW, cfg)
    assert info.ongoing
    assert info.elapsed == 20.0
    assert info.remaining == 30.0
    # Window edges: start inclusive, end exclusive.
    assert detect(100.0, WINDOW, cfg).ongoing
    assert not detect(150.0, WINDOW, cfg).ongoing


def test_detection_delay_hides_the_onset():
    cfg = DetectorConfig(detection_delay=10.0)
    assert not detect(105.0, WINDOW, cfg).ongoing  # still undetected
    info = detect(110.0, WINDOW, cfg)
    assert info.ongoing
    assert info.elapsed == 10.0  # elapsed counts from the true start


def test_remaining_time_noise_is_deterministic_and_bounded():
    cfg = DetectorConfig(remaining_time_error=0.2, rng_seed=3)
    a = detect(120.0, WINDOW, cfg)
    b = detect(120.0, WINDOW, cfg)
    assert a.remaining == b.remaining  # same (seed, t) -> same estimate
    assert 30.0 * 0.8 <= a.remaining <= 30.0 * 1.2
    other = detect(120.0, WINDOW, DetectorConfig(remaining_time_error=0.2, rng_seed=4))
    assert other.remaining != a.remaining  # seed matters


@given(st.floats(min_value=100.0, max_value=149.9))
def test_noisy_remaining_stays_in_band(t):
    cfg = DetectorConfig(remaining_time_error=0.5, rng_seed=11)
    info = detect(t, WINDOW, cfg)
    true_remaining = 150.0 - t
    assert info.ongoing
    assert 0.0 <= info.remaining <= true_remaining * 1.5 + 1e-9
    assert info.remaining >= true_remaining * 0.5 - 1e-9


@st.composite
def threshold_cases(draw):
    """A report inside WINDOW and a threshold x near one end of its noise
    band, or at its drawn estimate, a few ulps either way."""
    t = draw(st.floats(min_value=100.0, max_value=150.0, exclude_max=True))
    err = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=1.0, max_value=10.0, exclude_min=True),
    ))
    cfg = DetectorConfig(remaining_time_error=err, rng_seed=draw(st.integers(0, 1 << 16)))
    r = 150.0 - t
    x = draw(st.sampled_from([r * (1.0 - err), r * (1.0 + err), detect(t, WINDOW, cfg).remaining]))
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return t, cfg, x


@given(threshold_cases())
def test_remaining_exceeds_agrees_with_the_drawn_estimate(case):
    t, cfg, x = case
    assert detect(t, WINDOW, cfg).remaining_exceeds(x) == (detect(t, WINDOW, cfg).remaining > x)


def test_threshold_tests_outside_the_band_draw_no_noise(monkeypatch):
    made = count_draws(monkeypatch)
    cfg = DetectorConfig(remaining_time_error=0.2, rng_seed=3)
    info = detect(120.0, WINDOW, cfg)  # true remainder 30 s: band [24, 36]
    assert info.remaining_exceeds(23.0) and not info.remaining_exceeds(37.0)
    assert made == [0]
    assert info.remaining_exceeds(30.0) == (info.remaining > 30.0)
    assert made == [1]  # drawn once, then kept
    assert 24.0 <= info.remaining <= 36.0


@given(
    key=st.integers(0, 2**70) | st.integers(2**64 - 4, 2**64 + 4)
    | st.builds(noise_key, st.integers(0, 1 << 16), st.floats(0.0, 6.3e7)),
    err=st.sampled_from([5e-324, 1e-300, 1e-12, 0.35, 1.0, 1.5, 1e6])
    | st.floats(0.0, 10.0, exclude_min=True),
    remaining=st.sampled_from([1.0, 30.0]) | st.floats(0.0, 1e6),
)
@example(key=0, err=0.35, remaining=1.0)
@example(key=(42 << 56) + 123_456_000_000, err=0.35, remaining=30.0)
def test_the_reseeded_draw_equals_a_fresh_generators_bit_for_bit(key, err, remaining):
    """estimate reseeds one shared generator with the key, where the
    detector used to build random.Random(key) for every draw: the estimate
    is the same float, whatever was drawn before it."""
    u = random.Random(key).uniform(-err, err)
    assert estimate(remaining, err, key).hex() == max(remaining * (1.0 + u), 0.0).hex()
    assert estimate(1.0, err, key).hex() == max(1.0 + u, 0.0).hex()


def test_multiple_windows_pick_the_right_one():
    scenarios = [
        AttackScenario(start=10.0, duration=5.0, id="a"),
        AttackScenario(start=50.0, duration=5.0, id="b"),
    ]
    cfg = DetectorConfig()
    assert detect(12.0, scenarios, cfg).elapsed == 2.0
    assert detect(52.0, scenarios, cfg).elapsed == 2.0
    assert not detect(30.0, scenarios, cfg).ongoing


@pytest.mark.parametrize(
    "kw",
    [
        dict(detection_delay=-1.0),
        dict(remaining_time_error=-0.1),
        dict(reported_accuracy=1.5),
        dict(reported_accuracy=-0.1),
    ],
)
def test_detector_config_validation(kw):
    with pytest.raises(ValueError):
        DetectorConfig(**kw)
