"""Run one eamsim command in this process and report host timings as JSON.

    python3 perfbench/child.py RESULT.json TRACE -- <eamsim arguments>

The command goes through eamsim.cli.main, exactly as `eamsim ...` would run
it.  Timings come from wrapping module-level names that eamsim's own code
looks up at call time, so the simulator's source is never touched:

* always: config loading and building, engine.init_sim, engine.run and
  engine._finalize, one call each per simulated cell, so the cost is nil;
* with TRACE=1 also the per-slot layers (engine.step, policy_step, detect,
  withdraw, the policy's inner steps and its profile/allocate hooks) and the
  artifact writers.

Spans are aggregated in memory per name as a call count, total ns and ns
spent in child spans; self time is total minus child time.
"""

import time

_T0 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import eamsim.cli as cli  # noqa: E402
import eamsim.engine as engine  # noqa: E402
import eamsim.policy as policy  # noqa: E402

_IMPORT_NS = time.perf_counter_ns() - _T0


class Spans:
    """Per-name [calls, total ns, child ns], plus a stack for self time.

    A wrapper's `after` hook is the benchmark's own bookkeeping, not
    eamsim's work: it runs once its span has closed, and its time is taken
    out of every enclosing span, so it counts in no span's total or self time.
    """

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._hook_ns = [0]

    def wrap(self, name, fn, after=None):
        """fn timed under `name`; after(args, result) runs outside the span."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        hook_ns = self._hook_ns
        clock = time.perf_counter_ns

        def timed(*args):
            stack.append(0)
            hooks0 = hook_ns[0]
            t0 = clock()
            try:
                result = fn(*args)
            finally:
                ns = clock() - t0 - (hook_ns[0] - hooks0)
                stats[0] += 1
                stats[1] += ns
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += ns
            if after is not None:
                t1 = clock()
                after(args, result)
                hook_ns[0] += clock() - t1
            return result

        return timed


class Probe:
    """Patches eamsim's module-level names and collects what one run did."""

    def __init__(self, traced: bool):
        self.spans = Spans()
        self.cells = []  # per engine.run call: policy, slots, run/init ns, ...
        self.counts = dict.fromkeys(
            ("fired", "transitions", "started", "withdraw_failed", "useful",
             "active_slots", "busy_slots"), 0)
        self._prev_weights = ()
        self.traced = traced
        wrap = self.spans.wrap
        cli.load_config = wrap("config.load", cli.load_config)
        cli.apply_overrides = wrap("config.overrides", cli.apply_overrides)
        cli.build_sim_config = wrap("config.build", cli.build_sim_config)
        engine.init_sim = wrap("engine.init_sim", engine.init_sim, self._after_init)
        self._patch(engine, "_finalize", "engine.finalize")
        cli.run = self._per_cell(wrap("engine.run", cli.run))
        if not traced:
            return
        # Per-slot layers and writers.  A name a later version no longer has
        # is left alone, and its metrics read 0.
        self._patch(engine, "step", "engine.step")
        self._patch(engine, "policy_step", "policy.policy_step", self._after_decision)
        self._patch(engine, "detect", "detector.detect")
        self._patch(engine, "withdraw", "energy.withdraw", self._after_withdraw)
        self._patch(policy, "fire_releases", "policy.fire_releases", self._count("fired"))
        self._patch(policy, "set_task_states", "policy.set_task_states",
                    self._count("transitions"))
        self._patch(policy, "pick_execution_task", "policy.pick_execution_task",
                    self._after_pick)
        if hasattr(cli, "_write_atomic"):
            write_atomic = cli._write_atomic
            cli._write_atomic = lambda path, lines: wrap(f"cli.write.{path.name}", write_atomic)(
                path, lines)
        if hasattr(cli, "_timeline_lines"):
            timeline_lines = cli._timeline_lines
            cli._timeline_lines = wrap(
                "cli.timeline_lines", lambda log, app: list(timeline_lines(log, app)))

    def _patch(self, module, attr, name, after=None):
        if hasattr(module, attr):
            setattr(module, attr, self.spans.wrap(name, getattr(module, attr), after))

    def _count(self, key):
        counts = self.counts

        def after(args, result):
            counts[key] += len(result)

        return after

    def _after_pick(self, args, result):
        if result is not None:
            self.counts["started"] += 1

    def _after_withdraw(self, args, result):
        if not result:
            self.counts["withdraw_failed"] += 1

    def _after_decision(self, args, rec):
        # A slot is active when a task runs or a release is pending after the
        # decision; a decision is useful when engine.step logs an event for it.
        state = args[0]
        counts = self.counts
        if state.executing is not None:
            counts["busy_slots"] += 1
            counts["active_slots"] += 1
        elif any(state.pending.values()):
            counts["active_slots"] += 1
        if rec.weights != self._prev_weights:
            self._prev_weights = rec.weights
            counts["useful"] += 1
        elif rec.profile_changed or rec.fired or rec.transitions or rec.started is not None:
            counts["useful"] += 1

    def _after_init(self, args, sim):
        self._prev_weights = ()
        if self.traced and hasattr(sim, "profile_fn"):
            wrap = self.spans.wrap
            sim.profile_fn = wrap("policy.profile", sim.profile_fn)
            sim.allocate_fn = wrap(f"policy.allocate.{sim.config.policy}", sim.allocate_fn)

    def _per_cell(self, run):
        """engine.run, recording each call's slots, times and energy ledger."""
        stats = self.spans.stats
        run_stats, init_stats = stats["engine.run"], stats["engine.init_sim"]
        finalize_stats = stats.get("engine.finalize", [0, 0, 0])

        def run_cell(config):
            run_ns, init_ns, finalize_ns = run_stats[1], init_stats[1], finalize_stats[1]
            report, log = run(config)
            self.cells.append({
                "policy": config.policy,
                "slots": log.totals["n_slots"],
                "run_ns": run_stats[1] - run_ns,
                "init_ns": init_stats[1] - init_ns,
                "finalize_ns": finalize_stats[1] - finalize_ns,
                "events": len(log.events),
                "aborts": log.totals["aborts"],
                "totals": {k: v for k, v in log.totals.items() if isinstance(v, float)},
            })
            return report, log

        return run_cell

    def finish(self, exit_code: int) -> dict:
        return {
            "exit_code": exit_code,
            "import_ns": _IMPORT_NS,
            "cells": self.cells,
            "counts": self.counts,
            "spans": self.spans.stats,
        }


def main(argv: list[str]) -> int:
    result_path, trace, sep, *eamsim_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE -- <eamsim arguments>")
    probe = Probe(traced=trace == "1")
    code = cli.main(eamsim_argv)
    Path(result_path).write_text(json.dumps(probe.finish(code)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
