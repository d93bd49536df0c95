"""Attack detector oracle.

The scheduler does not sense attacks itself; it consumes a small information
record produced by an external detector.  This module models that detector as
an oracle over the ground-truth attack windows with two configurable
imperfections: a detection delay (the attack is only reported once it has been
underway for that long) and a multiplicative error on the remaining-time
estimate, drawn uniformly from [-err, +err] so runs replay exactly: one
module-level generator is reseeded with the key (seed, t) (noise_key) before
every draw, which gives the value random.Random(key).uniform(-err, err) would,
bit for bit.  A draw is lazy: whether the estimate exceeds x needs none when x
lies outside the band [r * (1 - err), r * (1 + err)] around the true
remainder r (estimate_against), and drawing less often changes no value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .traces import AttackScenario

# Remaining-time noise must be reproducible per (seed, t) so that replaying a
# run, or re-querying the same slot, gives the identical perturbation.
_NS = 1_000_000_000
# One generator, reseeded with the draw's key before each draw, so no draw
# depends on an earlier one (a run draws from one thread).  _reseed is
# random.Random.seed less its Python wrapper, which for an int key only
# passes it on (and clears gauss_next, which random() never reads).
_RNG = random.Random()
_reseed, _random = super(random.Random, _RNG).seed, _RNG.random


def noise_key(rng_seed: int, t: float) -> int:
    """The seed of the draw at time t.  An integer (tuple seeding is
    deprecated); the shift keeps (seed, t) pairs distinct for any t below
    ~2 years in ns."""
    return (rng_seed << 56) + round(t * _NS)


def estimate(remaining: float, err: float, key: int) -> float:
    """The estimate of a true remainder: remaining * (1 + u), floored at 0,
    with u = random.Random(key).uniform(-err, err), which is
    -err + (err - -err) * random() once the generator is seeded with key."""
    _reseed(key)
    return max(remaining * (1.0 + (-err + (err - -err) * _random())), 0.0)


def band_bottom(remaining: float, err: float) -> float:
    """The least estimate a report of true remainder remaining can give."""
    return remaining * (1.0 - err)


def band_top(remaining: float, err: float) -> float:  # the greatest estimate
    return remaining * (1.0 + err)


def estimate_against(remaining: float, err: float, key: int, x: float) -> float:
    """estimate(remaining, err, key) where x lies inside its noise band,
    else inf where the band's bottom exceeds x and -inf where its top is at
    most x: a value that exceeds x exactly when the estimate does, drawn
    only where the band cannot tell.  uniform() keeps u in [-err, err]
    exactly and every operation rounds monotonically, so
    r * (1 - err) <= estimate <= r * (1 + err) holds in floats as it does in
    reals."""
    if band_bottom(remaining, err) > x:
        return math.inf
    if band_top(remaining, err) <= x:
        return -math.inf
    return estimate(remaining, err, key)


class DetectorError(ValueError):
    """Invalid detector configuration."""


class AttackInfo:
    """What the scheduler knows about the attack state at one instant.

    ongoing: an attack is reported; accuracy: the detector's self-reported
    accuracy, in [0, 1]; elapsed: s since the attack began; remaining: s of
    attack left, as estimated (both 0 when not ongoing).  detect() passes the
    true remainder, the noise bound err > 0 and the seed of the draw.
    """

    __slots__ = ("ongoing", "accuracy", "elapsed", "_true", "_err", "_key", "_est")

    def __init__(self, ongoing: bool, accuracy: float, elapsed: float, remaining: float,
                 err: float = 0.0, key: int = 0) -> None:
        self.ongoing, self.accuracy, self.elapsed = ongoing, accuracy, elapsed
        self._true, self._err, self._key = remaining, err, key
        self._est = remaining if err == 0.0 else None

    @property
    def remaining(self) -> float:
        if self._est is None:
            self._est = estimate(self._true, self._err, self._key)
        return self._est

    def remaining_exceeds(self, x: float) -> bool:
        """remaining > x, drawing the noise only if x is inside its band
        (estimate_against), and keeping what it draws."""
        if self._est is None:
            value = estimate_against(self._true, self._err, self._key, x)
            if -math.inf < value < math.inf:
                self._est = value
            return value > x
        return self._est > x

    def never_exceeds(self, x: float) -> bool:
        """Whether remaining_exceeds(x) is False now and at every later
        report of the same window: the band's top is at most x, and the true
        remainder only shrinks as t grows."""
        return band_top(self._true, self._err) <= x

    def _fields(self) -> tuple:
        return self.ongoing, self.accuracy, self.elapsed, self.remaining

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttackInfo):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "AttackInfo(ongoing=%r, accuracy=%r, elapsed=%r, remaining=%r)" % self._fields()


NO_ATTACK = AttackInfo(ongoing=False, accuracy=1.0, elapsed=0.0, remaining=0.0)


@dataclass(frozen=True)
class DetectorConfig:
    detection_delay: float = 0.0  # s before an ongoing attack is reported
    remaining_time_error: float = 0.0  # max relative error on remaining time
    reported_accuracy: float = 1.0  # accuracy the detector claims
    rng_seed: int = 42

    def __post_init__(self) -> None:
        if not 0 <= self.detection_delay < math.inf:
            raise DetectorError("detection delay must be finite and >= 0")
        if not 0 <= self.remaining_time_error < math.inf:
            raise DetectorError("remaining-time error must be finite and >= 0")
        if not 0 <= self.reported_accuracy <= 1:
            raise DetectorError("reported accuracy must be in [0, 1]")


def idle_report(cfg: DetectorConfig) -> AttackInfo:
    """The report while no attack is reported: only the accuracy is set."""
    return AttackInfo(ongoing=False, accuracy=cfg.reported_accuracy, elapsed=0.0, remaining=0.0)


def report_windows(scenarios, cfg: DetectorConfig) -> list[tuple[float, float, AttackScenario]]:
    """(first, end, attack) per attack, sorted by time: detect reports the
    attack while first <= t < end, with first = start + detection delay.
    The attacks must be disjoint (traces.validate_scenarios)."""
    return sorted((sc.start + cfg.detection_delay, sc.end, sc) for sc in scenarios)


def detect(t: float, scenarios: list[AttackScenario], cfg: DetectorConfig) -> AttackInfo:
    """Detector output at time t given the ground-truth attack windows.

    An attack is reported while start + delay <= t < end.  Elapsed time is
    measured from the true attack start; the remaining-time estimate is the
    true remainder scaled by (1 + u), u ~ Uniform(-err, +err), floored at 0,
    with u drawn when the report first needs it (AttackInfo).
    """
    err = cfg.remaining_time_error
    for sc in scenarios:
        if sc.start + cfg.detection_delay <= t < sc.end:
            key = noise_key(cfg.rng_seed, t) if err > 0 else 0
            return AttackInfo(True, cfg.reported_accuracy, t - sc.start, sc.end - t, err, key)
    return idle_report(cfg)
