"""Command-line front-end.

Two subcommands cover the whole workflow:

    eamsim run     --config cfg.yaml [--out DIR] [--set k=v ...]
    eamsim compare --config cfg.yaml --policies eam,fh,central \\
                   --attack-durations 30,60,120 [--equal-budget]

`run` simulates one configuration and writes metrics.csv (flat key,value),
timeline.csv (sampled buffer voltages / profile / running task) and
events.log.  `compare` sweeps policies x attack durations, drawing one attack
start per duration (seeded, uniform over the middle 80% of the usable trace)
that is shared by every policy so cells differ only in the policy itself.
A measured trace is attacked by naming it (trace.kind: file) next to an
attacks: list in the config; a run zeroes the harvester inside each window.

All file output is deterministic for a given configuration: floats are
rendered with repr() and files are written atomically (temp file + rename).
The default output directory comes from $EAMSIM_OUT, falling back to ./out.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys
from pathlib import Path

from .apps import AppModelError
from .config import ConfigError, apply_overrides, build_sim_config, load_config
from .detector import DetectorError
from .energy import EnergyModelError
from .engine import PROFILE_ORDER, EngineError, MetricsReport, run
from .policy import PolicyError
from .traces import AttackScenario, TraceError

_ERRORS = (
    ConfigError,
    TraceError,
    EngineError,
    DetectorError,
    EnergyModelError,
    AppModelError,
    PolicyError,
    OSError,
)


def _default_out() -> str:
    return os.environ.get("EAMSIM_OUT", "out")


def _write_atomic(path: Path, lines) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    os.replace(tmp, path)


TIMELINE_BLOCK = 4096  # timeline rows rendered at a time


def _timeline_lines(log, app):
    """timeline.csv's header, then one string per block of rows, column by
    column, so export memory is bounded by a block."""
    n = len(log.timeline_profile)
    m = len(log.timeline_v) // n  # voltages per row
    header = ["time_s"] + [f"v{b}_volts" for b in range(m)] + ["profile", "running"]
    yield ",".join(header)
    profiles = [p.value for p in PROFILE_ORDER]
    task_ids = [task.id for task in app.tasks] + [""]  # running -1: no task
    for lo in range(0, n, TIMELINE_BLOCK):
        hi = min(lo + TIMELINE_BLOCK, n)
        volts = log.timeline_v[lo * m : hi * m]
        columns = [map(repr, log.timeline_times(lo, hi))]
        columns += [map(repr, volts[b::m]) for b in range(m)]
        columns.append(map(profiles.__getitem__, log.timeline_profile[lo:hi]))
        columns.append(map(task_ids.__getitem__, log.timeline_running[lo:hi]))
        yield "\n".join(map(",".join, zip(*columns)))


def _metrics_lines(report: MetricsReport):
    yield "key,value"
    for key, value in report.to_rows():
        yield f"{key},{value}"


def _print_summary(report: MetricsReport) -> None:
    for key, value in report.to_rows():
        print(f"{key} = {value}")


def _load(args) -> dict:
    doc = load_config(args.config)
    overrides = list(args.set or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"sim.rng_seed={args.seed}")
    if getattr(args, "equal_budget", False):
        overrides.append("sim.equal_budget=true")
    return apply_overrides(doc, overrides)


def cmd_run(args) -> int:
    doc = _load(args)
    config = build_sim_config(doc)
    report, log = run(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "metrics.csv", _metrics_lines(report))
    _write_atomic(out / "events.log", log.export_lines())
    if log.timeline_v is not None:
        _write_atomic(out / "timeline.csv", _timeline_lines(log, config.app))
    _print_summary(report)
    return 0


def _draw_start(seed: int, duration: float, usable: float) -> float:
    """Attack onset for one sweep cell: uniform over the middle 80%."""
    lo = 0.1 * usable
    hi = 0.9 * usable - duration
    if hi < lo:
        raise ConfigError(
            f"trace too short for a {duration} s attack inside its middle 80%"
        )
    # Integer seed (tuple seeding is deprecated); the shift keeps
    # (seed, duration) pairs distinct for durations below ~3 years in ms.
    rng = random.Random((seed << 40) + round(duration * 1e3))
    return rng.uniform(lo, hi)


def cmd_compare(args) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    durations = [float(d) for d in args.attack_durations.split(",") if d.strip()]
    if not policies or not durations:
        raise ConfigError("compare needs at least one policy and one duration")
    config = build_sim_config(_load(args))
    usable = min(config.trace.span[1], config.horizon)
    rows: list[dict] = []
    header: list[str] | None = None
    for duration in durations:
        start = _draw_start(config.rng_seed, duration, usable)
        kind = "long" if duration > 60.0 else "short"
        attacks = [AttackScenario(start, duration, kind, "sweep")]
        for policy in policies:
            # Cells share one config: init_sim copies the bank, and run mutates
            # nothing else it reads.
            report, _ = run(dataclasses.replace(config, policy=policy, attacks=attacks))
            row = {"attack_duration_s": repr(duration), "attack_start_s": repr(start)}
            row.update(dict(report.to_rows()))
            rows.append(row)
            if header is None:
                header = ["policy", "attack_duration_s", "attack_start_s"] + [
                    key for key, _ in report.to_rows() if key != "policy"
                ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(row[col] for col in header) for row in rows]
    _write_atomic(out / "compare.csv", lines)
    print(f"wrote {out / 'compare.csv'} ({len(rows)} rows)")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eamsim",
        description="Trace-driven simulator for energy-attack mitigation policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run configuration (YAML)")
        p.add_argument("--out", default=_default_out(), help="output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry, e.g. --set policy=fh",
        )
        p.add_argument("--seed", type=int, help="override sim.rng_seed")
        p.add_argument(
            "--equal-budget",
            action="store_true",
            help="reset buffers to their initial energy at the first attack onset",
        )

    p_run = sub.add_parser("run", help="simulate one configuration")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="sweep policies x attack durations")
    add_common(p_cmp)
    p_cmp.add_argument(
        "--policies", default="eam,fh,central", help="comma-separated policy list"
    )
    p_cmp.add_argument(
        "--attack-durations",
        default="30,60,120,300",
        help="comma-separated attack durations in seconds",
    )
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
