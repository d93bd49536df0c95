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

The tables below (_TRACE, _ATTACK, _TASK, _PARAMS, _CAPACITOR, _DETECTOR,
_SIM) are the full key list: each maps a key to the field it sets and the
key's unit conversion.  A key left out takes the field's dataclass default;
only the builders below give their own (omega0_frac 0.2, omega1_frac 0.6,
initial_soc 0.5, period_s 60, sample_interval_s 1, attack id, app hvac).
Unknown keys are rejected everywhere: a typo like `omega0_fraction` should
fail loudly instead of silently running defaults.  `--set a.b.c=value`
overrides reach into the document before it is built; values are parsed as
YAML scalars, list items are addressed by integer index.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .apps import AppModelError, AppSpec, Profile, TaskSpec, builtin_app
from .detector import DetectorConfig
from .energy import Capacitor, CapacitorBank, Component, set_soc, total_capacity
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


def _scaled(factor: float):
    return lambda value: float(value) * factor


# One table per section: YAML key -> (field of the object the section builds,
# conversion from the YAML value).  A table is also the section's list of
# accepted keys; a key mapped to None is read by the section's builder itself.
_TOP_KEYS = {"trace", "attacks", "app", "policy", "params", "bank", "detector", "sim"}
_TRACE = {
    "kind": None,
    "path": None,
    "name": ("name", str),
    "load_resistance_ohm": ("load_resistance", float),
    "amplitude_v": ("amplitude", float),
    "length_s": ("length", float),
    "period_s": ("period", float),
    "sample_interval_s": ("interval", float),
}
_ATTACK = {
    "start_s": ("start", float),
    "duration_s": ("duration", float),
    "kind": ("kind", str),
    "id": ("id", str),
}
_APP_KEYS = {"name", "tasks", "sink"}
_TASK = {
    "id": ("id", str),
    "energy_cost_uj": ("energy_cost", _scaled(1e-6)),
    "duration_ms": ("duration", _scaled(1e-3)),
    "buffer": ("buffer", int),
    "predecessors": ("predecessors", lambda preds: tuple(str(p) for p in preds)),
    "component": None,
    "rates_per_hour": None,
}
_PROFILES = {p.value.lower(): p for p in Profile}  # rates_per_hour keys
_PARAMS = {
    "alpha_s": ("alpha", float),
    "omega0_frac": None,
    "omega1_frac": None,
    "lambda_hi": ("lambda_hi", float),
    "lambda_lo": ("lambda_lo", float),
    "decision_cost_nj": ("decision_cost", _scaled(1e-9)),
    "decision_time_us": ("decision_time", _scaled(1e-6)),
    "accuracy_gate": ("accuracy_gate", bool),
    "accuracy_threshold": ("accuracy_threshold", float),
    "edf_order": ("edf_order", bool),
}
_CAPACITOR = {
    "capacitance_uf": ("capacitance", _scaled(1e-6)),
    "efficiency": ("efficiency", float),
    "drain_fraction_per_slot": ("drain_fraction", float),
    "v_on": ("v_on", float),
    "v_off": ("v_off", float),
    "v_max": ("v_max", float),
    "initial_soc": None,
    "initial_v": None,
}
_BANK_KEYS = {"capacitors", "components"}
_DETECTOR = {
    "detection_delay_s": ("detection_delay", float),
    "remaining_time_error": ("remaining_time_error", float),
    "reported_accuracy": ("reported_accuracy", float),
    "rng_seed": ("rng_seed", int),
}
_SIM = {
    "dt_ms": ("dt", _scaled(1e-3)),
    "horizon_s": ("horizon", float),
    "rng_seed": ("rng_seed", int),
    "queue_capacity": ("queue_capacity", int),
    "timeline_stride": ("timeline_stride", int),
    "equal_budget": ("equal_budget", bool),
    "budget_soc": ("budget_soc", lambda soc: None if soc is None else float(soc)),
    "label": ("label", str),
}


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed, where: str) -> None:
    unknown = sorted(set(node).difference(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _convert(convert, value, where: str):
    """convert(value), with a value it cannot take reported as a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: bad value {value!r} ({exc})") from None


def _fields(node: dict, table: dict, where: str) -> dict:
    """Check a section's keys against its table; return the converted fields."""
    _check_keys(node, table, where)
    return {
        table[key][0]: _convert(table[key][1], value, f"{where}.{key}")
        for key, value in node.items() if table[key]
    }


def _component(name, where: str) -> Component:
    try:
        return Component(str(name).lower())
    except ValueError:
        raise ConfigError(f"{where}: unknown component {name!r}") from None


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
    fields = _fields(node, _TRACE, "trace")
    kind = node.get("kind")
    if kind == "file":
        if "path" not in node:
            raise ConfigError("trace: kind=file needs a path")
        path = Path(config_dir) / node["path"]  # an absolute path stays as given
        fields = {k: v for k, v in fields.items() if k in ("name", "load_resistance")}
        return load_trace(path, **{"name": path.stem, **fields})
    if kind not in ("constant", "sinusoid", "step"):
        raise ConfigError(f"trace: unknown kind {kind!r}")
    for req in ("amplitude_v", "length_s"):
        if req not in node:
            raise ConfigError(f"trace: kind={kind} needs {req}")
    return synthesize_trace(kind, **{"period": 60.0, "interval": 1.0, **fields})


def _build_attacks(node) -> list[AttackScenario]:
    if node is None:
        return []
    if not isinstance(node, list):
        raise ConfigError("attacks: expected a list")
    out = []
    for k, item in enumerate(node):
        item = _require_mapping(item, f"attacks[{k}]")
        fields = _fields(item, _ATTACK, f"attacks[{k}]")
        for req in ("start_s", "duration_s"):
            if req not in item:
                raise ConfigError(f"attacks[{k}]: missing {req}")
        out.append(AttackScenario(**{"id": f"attack{k}", **fields}))
    return out


def _build_task(node, k: int) -> TaskSpec:
    where = f"app.tasks[{k}]"
    node = _require_mapping(node, where)
    fields = _fields(node, _TASK, where)
    for req in ("id", "energy_cost_uj", "duration_ms", "buffer", "component", "rates_per_hour"):
        if req not in node:
            raise ConfigError(f"{where}: missing {req}")
    rates_node = _require_mapping(node["rates_per_hour"], f"{where}.rates_per_hour")
    _check_keys(rates_node, _PROFILES, f"{where}.rates_per_hour")
    rates = {
        profile: _convert(float, rates_node.get(key, 0.0), f"{where}.rates_per_hour.{key}")
        for key, profile in _PROFILES.items()
    }
    return TaskSpec(rates=rates, component=_component(node["component"], where), **fields)


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
    fields = _fields(node, _CAPACITOR, f"bank.capacitors[{k}]")
    if "capacitance_uf" not in node:
        raise ConfigError(f"bank.capacitors[{k}]: missing capacitance_uf")
    if "initial_soc" in node and "initial_v" in node:
        raise ConfigError(f"bank.capacitors[{k}]: give initial_soc or initial_v, not both")
    cap = Capacitor(**fields)
    if "initial_v" in node:
        cap.voltage = _convert(float, node["initial_v"], f"bank.capacitors[{k}].initial_v")
        if not 0 <= cap.voltage <= cap.v_max:
            raise ConfigError(f"bank.capacitors[{k}]: initial_v outside [0, v_max]")
    else:
        soc = _convert(float, node.get("initial_soc", 0.5), f"bank.capacitors[{k}].initial_soc")
        if not 0 <= soc <= 1:
            raise ConfigError(f"bank.capacitors[{k}]: initial_soc outside [0, 1]")
        set_soc(cap, soc)
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
        component = _component(comp_name, "bank.components")
        if not isinstance(buf, int) or not 0 <= buf < len(caps):
            raise ConfigError(f"bank.components.{comp_name}: bad buffer index {buf!r}")
        by_buffer.setdefault(buf, []).append(component)
    component_map = {b: tuple(comps) for b, comps in sorted(by_buffer.items())}
    return CapacitorBank(caps, component_map)


def _build_params(node, bank: CapacitorBank) -> PolicyParams:
    node = _require_mapping(node or {}, "params")
    fields = _fields(node, _PARAMS, "params")
    capacity = total_capacity(bank)
    return PolicyParams(
        omega0=_convert(float, node.get("omega0_frac", 0.2), "params.omega0_frac") * capacity,
        omega1=_convert(float, node.get("omega1_frac", 0.6), "params.omega1_frac") * capacity,
        **fields,
    )


def _build_detector(node) -> DetectorConfig:
    node = _require_mapping(node or {}, "detector")
    return DetectorConfig(**_fields(node, _DETECTOR, "detector"))


def build_sim_config(doc: dict) -> SimConfig:
    """Turn a parsed configuration document into a runnable SimConfig."""
    doc = dict(doc)
    config_dir = doc.pop("_config_dir", ".")
    _check_keys(doc, _TOP_KEYS, "config")
    for req in ("trace", "bank", "sim"):
        if req not in doc:
            raise ConfigError(f"config: missing section {req!r}")
    sim_node = _require_mapping(doc["sim"], "sim")
    fields = _fields(sim_node, _SIM, "sim")
    if "policy" in doc:
        if not isinstance(doc["policy"], str):
            raise ConfigError("policy: expected a plain string")
        fields["policy"] = doc["policy"]
    if "horizon_s" not in sim_node:
        raise ConfigError("sim: missing horizon_s")
    bank = _build_bank(doc["bank"])
    return SimConfig(
        trace=_build_trace(doc["trace"], config_dir),
        app=_build_app(doc.get("app", "hvac")),
        bank=bank,
        params=_build_params(doc.get("params"), bank),
        detector=_build_detector(doc.get("detector")),
        attacks=_build_attacks(doc.get("attacks")),
        **fields,
    )
