"""Run-configuration files.

A run is described by a YAML document with the sections below; every physical
quantity carries its unit in the key name so files stay self-describing:

    trace:      kind (constant | sinusoid | step | file) + shape/path keys
    attacks:    list of {start_s, duration_s, kind, id}
    app:        builtin name, or {name, tasks, sink} for a custom task graph
    policy:     eam | fh | central (plain scalar, overridable via --set)
    params:     alpha_s, omega0_frac, omega1_frac, lambda_hi, lambda_lo, ...
    bank:       capacitors (list) + components (name -> buffer index)
    detector:   detection_delay_s, remaining_time_error, reported_accuracy
    sim:        dt_ms, horizon_s, rng_seed, queue_capacity, ...

Unknown keys are rejected everywhere: a typo like `omega0_fraction` should
fail loudly instead of silently running defaults.  `--set a.b.c=value`
overrides reach into the document before it is built; values are parsed as
YAML scalars, list items are addressed by integer index.
"""

from __future__ import annotations

import math
from pathlib import Path

import yaml

from .apps import AppModelError, AppSpec, Profile, TaskSpec, builtin_app
from .detector import DetectorConfig
from .energy import Capacitor, CapacitorBank, Component, total_capacity
from .engine import SimConfig
from .policy import PolicyParams
from .traces import AttackScenario, EnergyTrace, load_trace, synthesize_trace

__all__ = [
    "ConfigError",
    "load_config",
    "parse_override",
    "apply_overrides",
    "build_sim_config",
]


class ConfigError(ValueError):
    """Malformed or contradictory run configuration."""


_PROFILE_KEYS = ("nml", "lp", "ctl", "sa", "la")

_TOP_KEYS = {"trace", "attacks", "app", "policy", "params", "bank", "detector", "sim"}
_TRACE_KEYS = {
    "kind",
    "amplitude_v",
    "period_s",
    "length_s",
    "sample_interval_s",
    "path",
    "load_resistance_ohm",
    "name",
}
_ATTACK_KEYS = {"start_s", "duration_s", "kind", "id"}
_APP_KEYS = {"name", "tasks", "sink"}
_TASK_KEYS = {
    "id",
    "energy_cost_uj",
    "duration_ms",
    "buffer",
    "component",
    "predecessors",
    "rates_per_hour",
}
_PARAM_KEYS = {
    "alpha_s",
    "omega0_frac",
    "omega1_frac",
    "lambda_hi",
    "lambda_lo",
    "decision_cost_nj",
    "decision_time_us",
    "accuracy_gate",
    "accuracy_threshold",
    "edf_order",
}
_CAP_KEYS = {
    "capacitance_uf",
    "parallel_resistance_ohm",
    "efficiency",
    "drain_fraction_per_slot",
    "v_on",
    "v_off",
    "v_max",
    "initial_soc",
    "initial_v",
}
_BANK_KEYS = {"capacitors", "components"}
_DETECTOR_KEYS = {
    "detection_delay_s",
    "remaining_time_error",
    "reported_accuracy",
    "rng_seed",
}
_SIM_KEYS = {
    "dt_ms",
    "horizon_s",
    "rng_seed",
    "queue_capacity",
    "timeline_stride",
    "equal_budget",
    "budget_soc",
    "label",
}


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def load_config(path: str | Path) -> dict:
    """Parse a YAML run configuration; structural validation only."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    doc = _require_mapping(doc, str(path))
    _check_keys(doc, _TOP_KEYS, str(path))
    doc.setdefault("_config_dir", str(path.parent))
    return doc


def parse_override(text: str) -> tuple[tuple, object]:
    """Split one `a.b.c=value` override into (path, parsed value)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    parts = []
    for seg in key.split("."):
        if not seg:
            raise ConfigError(f"override {text!r} has an empty path segment")
        parts.append(int(seg) if seg.lstrip("-").isdigit() else seg)
    try:
        value = yaml.safe_load(raw) if raw else None
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {text!r}: bad value: {exc}") from exc
    return tuple(parts), value


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply `--set` overrides in order, mutating and returning the document."""
    for text in overrides:
        path, value = parse_override(text)
        node = doc
        for seg in path[:-1]:
            if isinstance(node, list):
                if not isinstance(seg, int) or not -len(node) <= seg < len(node):
                    raise ConfigError(f"override {text!r}: bad list index {seg!r}")
                node = node[seg]
            elif isinstance(node, dict):
                node = node.setdefault(seg, {})
            else:
                raise ConfigError(f"override {text!r}: {seg!r} is not a container")
        leaf = path[-1]
        if isinstance(node, list):
            if not isinstance(leaf, int) or not -len(node) <= leaf < len(node):
                raise ConfigError(f"override {text!r}: bad list index {leaf!r}")
            node[leaf] = value
        elif isinstance(node, dict):
            node[leaf] = value
        else:
            raise ConfigError(f"override {text!r}: cannot assign into {type(node).__name__}")
    return doc


def _build_trace(node, config_dir: str) -> EnergyTrace:
    node = _require_mapping(node, "trace")
    _check_keys(node, _TRACE_KEYS, "trace")
    kind = node.get("kind")
    if kind == "file":
        if "path" not in node:
            raise ConfigError("trace: kind=file needs a path")
        path = Path(node["path"])
        if not path.is_absolute():
            path = Path(config_dir) / path
        return load_trace(
            path,
            load_resistance=float(node.get("load_resistance_ohm", 30e3)),
            name=node.get("name", path.stem),
        )
    if kind not in ("constant", "sinusoid", "step"):
        raise ConfigError(f"trace: unknown kind {kind!r}")
    for req in ("amplitude_v", "length_s"):
        if req not in node:
            raise ConfigError(f"trace: kind={kind} needs {req}")
    return synthesize_trace(
        kind,
        amplitude=float(node["amplitude_v"]),
        period=float(node.get("period_s", 60.0)),
        length=float(node["length_s"]),
        interval=float(node.get("sample_interval_s", 1.0)),
        load_resistance=float(node.get("load_resistance_ohm", 30e3)),
        name=node.get("name", kind),
    )


def _build_attacks(node) -> tuple[AttackScenario, ...]:
    if node is None:
        return ()
    if not isinstance(node, list):
        raise ConfigError("attacks: expected a list")
    out = []
    for k, item in enumerate(node):
        item = _require_mapping(item, f"attacks[{k}]")
        _check_keys(item, _ATTACK_KEYS, f"attacks[{k}]")
        for req in ("start_s", "duration_s"):
            if req not in item:
                raise ConfigError(f"attacks[{k}]: missing {req}")
        out.append(
            AttackScenario(
                start=float(item["start_s"]),
                duration=float(item["duration_s"]),
                kind=item.get("kind", "short"),
                id=str(item.get("id", f"attack{k}")),
            )
        )
    return tuple(out)


def _build_task(node, k: int) -> TaskSpec:
    node = _require_mapping(node, f"app.tasks[{k}]")
    _check_keys(node, _TASK_KEYS, f"app.tasks[{k}]")
    for req in ("id", "energy_cost_uj", "duration_ms", "buffer", "component", "rates_per_hour"):
        if req not in node:
            raise ConfigError(f"app.tasks[{k}]: missing {req}")
    comp_key = str(node["component"]).lower()
    try:
        component = Component(comp_key)
    except ValueError:
        raise ConfigError(f"app.tasks[{k}]: unknown component {node['component']!r}") from None
    rates_node = _require_mapping(node["rates_per_hour"], f"app.tasks[{k}].rates_per_hour")
    _check_keys(rates_node, set(_PROFILE_KEYS), f"app.tasks[{k}].rates_per_hour")
    rates = {
        profile: float(rates_node.get(key, 0.0))
        for key, profile in zip(_PROFILE_KEYS, Profile)
    }
    return TaskSpec(
        id=str(node["id"]),
        energy_cost=float(node["energy_cost_uj"]) * 1e-6,
        duration=float(node["duration_ms"]) * 1e-3,
        buffer=int(node["buffer"]),
        rates=rates,
        predecessors=tuple(str(p) for p in node.get("predecessors", ())),
        component=component,
    )


def _build_app(node) -> AppSpec:
    if isinstance(node, str):
        return builtin_app(node)
    node = _require_mapping(node, "app")
    _check_keys(node, _APP_KEYS, "app")
    name = node.get("name")
    if "tasks" not in node:
        if not isinstance(name, str):
            raise ConfigError("app: need a builtin name or a tasks list")
        return builtin_app(name)
    tasks_node = node["tasks"]
    if not isinstance(tasks_node, list) or not tasks_node:
        raise ConfigError("app.tasks: expected a non-empty list")
    tasks = tuple(_build_task(t, k) for k, t in enumerate(tasks_node))
    sink = node.get("sink", tasks[-1].id)
    try:
        return AppSpec(name=str(name or "custom"), tasks=tasks, sink_task=str(sink))
    except AppModelError as exc:
        raise ConfigError(f"app: {exc}") from exc


def _build_capacitor(node, k: int) -> Capacitor:
    node = _require_mapping(node, f"bank.capacitors[{k}]")
    _check_keys(node, _CAP_KEYS, f"bank.capacitors[{k}]")
    if "capacitance_uf" not in node:
        raise ConfigError(f"bank.capacitors[{k}]: missing capacitance_uf")
    if "initial_soc" in node and "initial_v" in node:
        raise ConfigError(f"bank.capacitors[{k}]: give initial_soc or initial_v, not both")
    cap = Capacitor(
        capacitance=float(node["capacitance_uf"]) * 1e-6,
        parallel_resistance=float(node.get("parallel_resistance_ohm", 30e3)),
        efficiency=float(node.get("efficiency", 0.9)),
        drain_fraction=float(node.get("drain_fraction_per_slot", 0.001)),
        v_on=float(node.get("v_on", 2.4)),
        v_off=float(node.get("v_off", 1.8)),
        v_max=float(node.get("v_max", 3.0)),
    )
    if "initial_v" in node:
        cap.voltage = float(node["initial_v"])
        if not 0 <= cap.voltage <= cap.v_max:
            raise ConfigError(f"bank.capacitors[{k}]: initial_v outside [0, v_max]")
    else:
        soc = float(node.get("initial_soc", 0.5))
        if not 0 <= soc <= 1:
            raise ConfigError(f"bank.capacitors[{k}]: initial_soc outside [0, 1]")
        cap.voltage = cap.v_max * math.sqrt(soc)
    return cap


def _build_bank(node) -> CapacitorBank:
    node = _require_mapping(node, "bank")
    _check_keys(node, _BANK_KEYS, "bank")
    caps_node = node.get("capacitors")
    if not isinstance(caps_node, list) or not caps_node:
        raise ConfigError("bank.capacitors: expected a non-empty list")
    caps = [_build_capacitor(c, k) for k, c in enumerate(caps_node)]
    comp_node = _require_mapping(node.get("components", {}), "bank.components")
    by_buffer: dict[int, list[Component]] = {}
    for comp_name, buf in comp_node.items():
        try:
            component = Component(str(comp_name).lower())
        except ValueError:
            raise ConfigError(f"bank.components: unknown component {comp_name!r}") from None
        if not isinstance(buf, int) or not 0 <= buf < len(caps):
            raise ConfigError(f"bank.components.{comp_name}: bad buffer index {buf!r}")
        by_buffer.setdefault(buf, []).append(component)
    component_map = {b: tuple(comps) for b, comps in sorted(by_buffer.items())}
    return CapacitorBank(caps, component_map)


def _build_params(node, bank: CapacitorBank) -> PolicyParams:
    node = _require_mapping(node or {}, "params")
    _check_keys(node, _PARAM_KEYS, "params")
    capacity = total_capacity(bank)
    omega0 = float(node.get("omega0_frac", 0.2)) * capacity
    omega1 = float(node.get("omega1_frac", 0.6)) * capacity
    return PolicyParams(
        alpha=float(node.get("alpha_s", 60.0)),
        omega0=omega0,
        omega1=omega1,
        lambda_hi=float(node.get("lambda_hi", 0.8)),
        lambda_lo=float(node.get("lambda_lo", 0.2)),
        decision_cost=float(node.get("decision_cost_nj", 1.781)) * 1e-9,
        decision_time=float(node.get("decision_time_us", 1.237)) * 1e-6,
        accuracy_gate=bool(node.get("accuracy_gate", False)),
        accuracy_threshold=float(node.get("accuracy_threshold", 0.5)),
        edf_order=bool(node.get("edf_order", False)),
    )


def _build_detector(node) -> DetectorConfig:
    node = _require_mapping(node or {}, "detector")
    _check_keys(node, _DETECTOR_KEYS, "detector")
    return DetectorConfig(
        detection_delay=float(node.get("detection_delay_s", 0.0)),
        remaining_time_error=float(node.get("remaining_time_error", 0.0)),
        reported_accuracy=float(node.get("reported_accuracy", 1.0)),
        rng_seed=int(node.get("rng_seed", 42)),
    )


def build_sim_config(doc: dict) -> SimConfig:
    """Turn a parsed configuration document into a runnable SimConfig."""
    doc = dict(doc)
    config_dir = doc.pop("_config_dir", ".")
    _check_keys(doc, _TOP_KEYS, "config")
    for req in ("trace", "bank", "sim"):
        if req not in doc:
            raise ConfigError(f"config: missing section {req!r}")
    policy = doc.get("policy", "eam")
    if not isinstance(policy, str):
        raise ConfigError("policy: expected a plain string")
    sim_node = _require_mapping(doc["sim"], "sim")
    _check_keys(sim_node, _SIM_KEYS, "sim")
    if "horizon_s" not in sim_node:
        raise ConfigError("sim: missing horizon_s")
    bank = _build_bank(doc["bank"])
    budget_soc = sim_node.get("budget_soc")
    return SimConfig(
        trace=_build_trace(doc["trace"], config_dir),
        app=_build_app(doc.get("app", "hvac")),
        bank=bank,
        params=_build_params(doc.get("params"), bank),
        detector=_build_detector(doc.get("detector")),
        attacks=_build_attacks(doc.get("attacks")),
        policy=policy,
        dt=float(sim_node.get("dt_ms", 1.0)) * 1e-3,
        horizon=float(sim_node["horizon_s"]),
        rng_seed=int(sim_node.get("rng_seed", 42)),
        queue_capacity=int(sim_node.get("queue_capacity", 4)),
        timeline_stride=int(sim_node.get("timeline_stride", 1)),
        equal_budget=bool(sim_node.get("equal_budget", False)),
        budget_soc=None if budget_soc is None else float(budget_soc),
        label=str(sim_node.get("label", "")),
    )
