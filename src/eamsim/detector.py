"""Attack detector oracle.

The scheduler does not sense attacks itself; it consumes a small information
record produced by an external detector.  This module models that detector as
an oracle over the ground-truth attack windows with two configurable
imperfections: a detection delay (the attack is only reported once it has been
underway for that long) and a multiplicative error on the remaining-time
estimate, drawn uniformly from [-err, +err] with a seeded generator so runs
replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .traces import AttackScenario

# Derives a per-query seed; remaining-time noise must be reproducible per
# (seed, t) so that replaying a run, or re-querying the same slot, gives the
# identical perturbation.
_NS = 1_000_000_000


@dataclass(frozen=True, slots=True)
class AttackInfo:
    """What the scheduler knows about the attack state at one instant."""

    ongoing: bool  # attack currently reported
    accuracy: float  # detector's self-reported accuracy, [0, 1]
    elapsed: float  # s since the attack began (0 when not ongoing)
    remaining: float  # s of attack left, as estimated (0 when not ongoing)


NO_ATTACK = AttackInfo(ongoing=False, accuracy=1.0, elapsed=0.0, remaining=0.0)


@dataclass(frozen=True)
class DetectorConfig:
    detection_delay: float = 0.0  # s before an ongoing attack is reported
    remaining_time_error: float = 0.0  # max relative error on remaining time
    reported_accuracy: float = 1.0  # accuracy the detector claims
    rng_seed: int = 42

    def __post_init__(self) -> None:
        if self.detection_delay < 0:
            raise ValueError("detection delay must be >= 0")
        if not 0 <= self.remaining_time_error:
            raise ValueError("remaining-time error must be >= 0")
        if not 0 <= self.reported_accuracy <= 1:
            raise ValueError("reported accuracy must be in [0, 1]")


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
    true remainder scaled by (1 + u), u ~ Uniform(-err, +err), floored at 0.
    """
    for sc in scenarios:
        if sc.start + cfg.detection_delay <= t < sc.end:
            remaining = sc.end - t
            if cfg.remaining_time_error > 0:
                # Integer seed (tuple seeding is deprecated); the shift keeps
                # (seed, t) pairs distinct for any t below ~2 years in ns.
                rng = random.Random((cfg.rng_seed << 56) + round(t * _NS))
                u = rng.uniform(-cfg.remaining_time_error, cfg.remaining_time_error)
                remaining = max(remaining * (1.0 + u), 0.0)
            return AttackInfo(
                ongoing=True,
                accuracy=cfg.reported_accuracy,
                elapsed=t - sc.start,
                remaining=remaining,
            )
    return idle_report(cfg)
