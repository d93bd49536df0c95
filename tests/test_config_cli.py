"""Configuration loading, --set overrides, and the command-line front-end."""

import contextlib
import dataclasses
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

import eamsim.config as config_tables
from eamsim import cli
from eamsim.apps import Profile
from eamsim.config import (
    ConfigError,
    apply_overrides,
    build_sim_config,
    load_config,
    parse_override,
)
from eamsim.energy import Component
from eamsim.engine import validate_config
from eamsim.traces import load_trace
from conftest import CONFIGS

CONFIG_FILES = sorted(CONFIGS.glob("*.yaml"))


def minimal_doc(**over):
    doc = {
        "trace": {"kind": "constant", "amplitude_v": 2.0, "length_s": 10.0},
        "bank": {
            "capacitors": [{"capacitance_uf": 100.0}, {"capacitance_uf": 100.0}],
            "components": {"mcu": 0, "sensing": 0, "actuation": 1},
        },
        "sim": {"horizon_s": 1.0, "dt_ms": 100.0},
    }
    doc.update(over)
    return doc


# ------------------------------------------------------------------ loading


def test_every_shipped_config_builds_clean():
    assert len(CONFIG_FILES) == 6
    for path in CONFIG_FILES:
        config = build_sim_config(load_config(path))
        assert validate_config(config) == [], path.name


def test_every_readme_yaml_block_builds_clean():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        config = build_sim_config(yaml.safe_load(block))
        assert validate_config(config) == []


def test_load_config_records_the_config_directory(tmp_path):
    p = tmp_path / "a.yaml"
    p.write_text("sim:\n  horizon_s: 1\n")
    doc = load_config(p)
    assert doc["_config_dir"] == str(tmp_path)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("sim: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError, match="expected a mapping"):
        load_config(scalar)
    typo = tmp_path / "typo.yaml"
    typo.write_text("simm:\n  horizon_s: 1\n")
    with pytest.raises(ConfigError, match="unknown key.*simm"):
        load_config(typo)


# ---------------------------------------------------------------- overrides


@pytest.mark.parametrize(
    "text,path,value",
    [
        ("policy=fh", ("policy",), "fh"),
        ("sim.dt_ms=2.5", ("sim", "dt_ms"), 2.5),
        ("sim.equal_budget=true", ("sim", "equal_budget"), True),
        ("bank.capacitors.0.initial_soc=1.0", ("bank", "capacitors", 0, "initial_soc"), 1.0),
        ("sim.label=", ("sim", "label"), None),
        ("attacks=[{start_s: 1.0, duration_s: 2.0}]", ("attacks",),
         [{"start_s": 1.0, "duration_s": 2.0}]),
    ],
)
def test_parse_override_forms(text, path, value):
    assert parse_override(text) == (path, value)


@pytest.mark.parametrize("text", ["novalue", "=5", "a..b=1"])
def test_parse_override_rejects_malformed(text):
    with pytest.raises(ConfigError):
        parse_override(text)


def test_apply_overrides_mutates_nested_nodes():
    doc = minimal_doc()
    out = apply_overrides(
        doc,
        [
            "sim.dt_ms=50",
            "bank.capacitors.1.initial_soc=0.25",
            "detector.rng_seed=3",  # section created on demand
            "policy=central",
        ],
    )
    assert out is doc
    assert doc["sim"]["dt_ms"] == 50
    assert doc["bank"]["capacitors"][1]["initial_soc"] == 0.25
    assert doc["detector"] == {"rng_seed": 3}
    assert doc["policy"] == "central"


def test_apply_overrides_rejects_bad_paths():
    with pytest.raises(ConfigError, match="bad list index"):
        apply_overrides(minimal_doc(), ["bank.capacitors.7.v_on=2.0"])
    with pytest.raises(ConfigError, match="bad list index"):
        apply_overrides(minimal_doc(), ["bank.capacitors.first=1"])
    with pytest.raises(ConfigError, match="cannot assign"):
        apply_overrides(minimal_doc(policy="eam"), ["policy.sub=1"])
    with pytest.raises(ConfigError, match="not a container"):
        apply_overrides(minimal_doc(policy="eam"), ["policy.sub.deeper=1"])


# ----------------------------------------------------------------- building


def test_build_sim_config_converts_units():
    cfg = build_sim_config(load_config(CONFIGS / "twotask_short_attack.yaml"))
    assert cfg.dt == pytest.approx(2e-3, rel=1e-12)
    assert cfg.horizon == 400.0
    assert cfg.policy == "eam"
    assert cfg.label == "twotask-short-attack"
    assert cfg.timeline_stride == 100 and cfg.queue_capacity == 4

    t1, t2 = cfg.app.tasks
    assert (t1.id, t2.id) == ("T1", "T2")
    assert t1.energy_cost == pytest.approx(10e-6, rel=1e-12)
    assert t2.energy_cost == pytest.approx(90e-6, rel=1e-12)
    assert t1.duration == pytest.approx(10e-3, rel=1e-12)
    assert t2.duration == pytest.approx(50e-3, rel=1e-12)
    assert t2.predecessors == ("T1",)
    assert t1.component is Component.SENSING
    assert t1.rates[Profile.SA] == 360.0 and t2.rates[Profile.SA] == 2.0
    assert cfg.app.sink_task == "T2"

    c0, c1 = cfg.bank.capacitors
    assert c0.capacitance == pytest.approx(33e-6, rel=1e-12)
    assert c1.capacitance == pytest.approx(220e-6, rel=1e-12)
    assert c0.voltage == pytest.approx(3.0 * math.sqrt(0.9), rel=1e-12)
    assert cfg.bank.component_map[1] == (Component.ACTUATION,)

    capacity = 0.5 * (33e-6 + 220e-6) * 9.0
    assert cfg.params.alpha == 60.0
    assert cfg.params.omega0 == pytest.approx(0.05 * capacity, rel=1e-12)
    assert cfg.params.omega1 == pytest.approx(0.15 * capacity, rel=1e-12)
    assert cfg.params.decision_cost == 1.781e-9  # default, nJ scale
    assert cfg.params.decision_time == pytest.approx(1.237e-6, rel=1e-12)

    (attack,) = cfg.attacks
    assert (attack.start, attack.duration, attack.kind, attack.id) == (
        180.0, 40.0, "short", "blip")
    assert cfg.detector.rng_seed == 7


def test_capacitor_defaults():
    doc = minimal_doc()
    cap = build_sim_config(doc).bank.capacitors[0]
    assert cap.parallel_resistance == 30e3
    assert cap.efficiency == 0.9
    assert cap.drain_fraction == 0.001
    assert (cap.v_on, cap.v_off, cap.v_max) == (2.4, 1.8, 3.0)
    assert cap.voltage == pytest.approx(3.0 * math.sqrt(0.5), rel=1e-12)  # soc 0.5


def test_loader_defaults_are_the_dataclass_defaults():
    """A key left out of the document takes the dataclass default: the
    minimal config differs from the defaults only in what it sets."""
    config = build_sim_config(minimal_doc())
    given = {"capacitance", "voltage", "omega0", "omega1", "dt", "horizon"}
    for obj in (config.bank.capacitors[0], config.params, config.detector, config):
        for f in dataclasses.fields(obj):
            if f.name in given:
                continue
            if f.default is not dataclasses.MISSING:
                default = f.default
            elif f.default_factory is not dataclasses.MISSING:
                default = f.default_factory()
            else:
                continue  # required field, set by the loader
            assert getattr(obj, f.name) == default, (type(obj).__name__, f.name)


def test_initial_voltage_and_soc_are_exclusive():
    doc = minimal_doc()
    doc["bank"]["capacitors"][0].update(initial_soc=0.5, initial_v=2.0)
    with pytest.raises(ConfigError, match="not both"):
        build_sim_config(doc)


@pytest.mark.parametrize(
    "mangle,match",
    [
        (lambda d: d.pop("trace"), "missing section"),
        (lambda d: d.pop("bank"), "missing section"),
        (lambda d: d.pop("sim"), "missing section"),
        (lambda d: d["sim"].pop("horizon_s"), "horizon_s"),
        (lambda d: d["sim"].update(dt=1), "unknown key"),
        (lambda d: d.update(params={"omega0_fraction": 0.1}), "unknown key"),
        (lambda d: d.update(policy=3), "plain string"),
        (lambda d: d.update(attacks={"start_s": 1}), "expected a list"),
        (lambda d: d.update(attacks=[{"start_s": 1}]), "missing duration_s"),
        (lambda d: d["trace"].update(kind="square"), "unknown kind"),
        (lambda d: d["trace"].update(kind="file") or d["trace"].pop("amplitude_v"),
         "needs a path"),
        (lambda d: d["trace"].pop("length_s"), "needs length_s"),
        (lambda d: d.update(app={"tasks": []}), "non-empty list"),
        (lambda d: d.update(app={"sink": "T"}), "need a builtin name or a tasks list"),
        (lambda d: d.update(app={"tasks": [{"id": "T", "energy_cost_uj": 1.0, "duration_ms": 1.0,
                                            "buffer": 0, "rates_per_hour": {"nml": 30}}]}),
         r"app.tasks\[0\]: missing component"),
        (lambda d: d["bank"].update(capacitors=[]), "non-empty list"),
        (lambda d: d["bank"]["capacitors"][0].pop("capacitance_uf"), "capacitance_uf"),
        (lambda d: d["bank"]["components"].update(mcu=5), "bad buffer index"),
        (lambda d: d["bank"]["components"].update(radio=0), "unknown component"),
        (lambda d: d["bank"]["capacitors"][0].update(initial_soc=1.5), "initial_soc"),
        (lambda d: d["bank"]["capacitors"][0].update(initial_v=9.0), "initial_v"),
    ],
)
def test_build_sim_config_rejects_bad_documents(mangle, match):
    doc = minimal_doc()
    mangle(doc)
    with pytest.raises(ConfigError, match=match):
        build_sim_config(doc)


def test_custom_app_rejects_unknown_component():
    doc = minimal_doc(
        app={
            "tasks": [
                {
                    "id": "T",
                    "energy_cost_uj": 1.0,
                    "duration_ms": 1.0,
                    "buffer": 0,
                    "component": "radio",
                    "rates_per_hour": {"nml": 30},
                }
            ]
        }
    )
    with pytest.raises(ConfigError, match="unknown component"):
        build_sim_config(doc)


def test_custom_app_sink_defaults_to_last_task():
    task = {
        "id": "T",
        "energy_cost_uj": 1.0,
        "duration_ms": 1.0,
        "buffer": 0,
        "component": "mcu",
        "rates_per_hour": {"nml": 30},  # unlisted profiles default to 0
    }
    doc = minimal_doc(app={"name": "solo", "tasks": [task]})
    app = build_sim_config(doc).app
    assert app.sink_task == "T"
    assert app.tasks[0].rates[Profile.NML] == 30.0
    assert app.tasks[0].rates[Profile.LA] == 0.0


def test_app_accepts_builtin_names():
    assert build_sim_config(minimal_doc(app="greenhouse")).app.name == "greenhouse"
    assert build_sim_config(minimal_doc(app={"name": "ventilation"})).app.name == (
        "ventilation")
    assert build_sim_config(minimal_doc()).app.name == "hvac"  # default


def test_file_trace_resolves_relative_to_the_config(tmp_path, monkeypatch):
    (tmp_path / "readings.csv").write_text(
        "# time_s,voltage_v\n0.0,2.0\n1.0,2.0\n2.0,2.0\n"
    )
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "trace:\n  kind: file\n  path: readings.csv\n"
        "bank:\n  capacitors:\n    - capacitance_uf: 100.0\n"
        "  components: {mcu: 0, sensing: 0, actuation: 0}\n"
        "app:\n  tasks:\n    - {id: T, energy_cost_uj: 1.0, duration_ms: 1.0,"
        " buffer: 0, component: mcu, rates_per_hour: {nml: 30}}\n"
        "sim:\n  horizon_s: 2.0\n  dt_ms: 500.0\n"
    )
    monkeypatch.chdir(tmp_path.parent)  # anywhere but the config directory
    config = build_sim_config(load_config(cfg))
    assert config.trace.name == "readings"
    assert config.trace.span == (0.0, 2.0)
    assert validate_config(config) == []


# ---------------------------------------------------------------------- CLI


def read_metrics(path: Path) -> dict:
    lines = path.read_text().splitlines()
    assert lines[0] == "key,value"
    return dict(line.split(",", 1) for line in lines[1:])


def test_run_writes_the_three_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(
        ["run", "--config", str(CONFIGS / "twotask_short_attack.yaml"), "--out", str(out)]
    )
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["policy"] == "eam"
    assert metrics["app"] == "twotask"
    assert int(metrics["completions"]) > 0
    assert (out / "events.log").read_text().splitlines()
    timeline = (out / "timeline.csv").read_text().splitlines()
    assert timeline[0] == "time_s,v0_volts,v1_volts,profile,running"
    assert len(timeline) == 1 + 2000  # 200000 slots sampled every 100
    assert "policy = eam" in capsys.readouterr().out


def test_run_set_override_changes_the_policy(tmp_path):
    out = tmp_path / "fh"
    rc = cli.main(
        [
            "run",
            "--config", str(CONFIGS / "compare_sine_30s.yaml"),
            "--out", str(out),
            "--set", "policy=fh",
        ]
    )
    assert rc == 0
    assert read_metrics(out / "metrics.csv")["policy"] == "fh"


def test_run_is_byte_identical_across_invocations(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(
            ["run", "--config", str(CONFIGS / "compare_sine_30s.yaml"), "--out", str(out)]
        ) == 0
    for name in ("metrics.csv", "events.log"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_out_dir_falls_back_to_environment(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("EAMSIM_OUT", str(target))
    rc = cli.main(["run", "--config", str(CONFIGS / "compare_sine_30s.yaml")])
    assert rc == 0
    assert (target / "metrics.csv").is_file()


def test_missing_config_fails_cleanly(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "override, match",
    [
        ("sim.horizon_s=.nan", "horizon must be finite"),
        ("sim.horizon_s=.inf", "horizon must be finite"),
        ("sim.dt_ms=.nan", "dt must be positive and finite"),
        ("sim.dt_ms=.inf", "dt must be positive and finite"),
        ("attacks.0.start_s=.nan", "attack start must be finite"),
        ("attacks.0.duration_s=.inf", "attack duration must be positive and finite"),
        ("params.decision_cost_nj=.nan", "decision overhead must be finite"),
        ("params.alpha_s=.nan", "alpha must be finite"),
        ("params.lambda_hi=.inf", "lambda_lo >= 0, all finite"),
        ("bank.capacitors.0.v_max=.inf", "v_max, all finite"),
        ("bank.capacitors.0.capacitance_uf=.inf", "capacitance must be positive and finite"),
        ("detector.remaining_time_error=.inf", "remaining-time error must be finite"),
        ("detector.detection_delay_s=.nan", "detection delay must be finite"),
        ("detector.detection_delay_s=-1", "detection delay must be finite and >= 0"),
        ("params.accuracy_threshold=.inf", "accuracy threshold must be finite"),
        ("attacks=[{start_s: 100, duration_s: 60}, {start_s: 130, duration_s: 60}]",
         "attack windows 'attack0' and 'attack1' overlap"),
    ],
)
def test_run_rejects_non_finite_values_cleanly(tmp_path, capsys, override, match):
    rc = cli.main(["run", "--config", str(CONFIGS / "hvac_attack.yaml"),
                   "--out", str(tmp_path), "--set", override])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "overrides, match",
    [
        (["trace.amplitude_v=1e300"], "harvested power V^2 / R must be finite"),
        (["trace.load_resistance_ohm=1e-320"], "harvested power V^2 / R must be finite"),
        (["sim.dt_ms=1e-9"], "3.6e+15 slots (1.8e+13 timeline rows) exceed the caps"),
        (["sim.dt_ms=0.1", "sim.timeline_stride=1"], "3.6e+07 slots (3.6e+07 timeline rows)"),
        (["trace.kind=file", "trace.path=../tests/data/trace_bad_line.csv"],
         "trace_bad_line.csv:3: cannot parse '1.0,two'"),
    ],
)
def test_run_rejects_runs_it_cannot_hold(tmp_path, capsys, overrides, match):
    """Harvested power whose V^2 / R overflows (it ran to exit 0 with an
    infinite ledger), runs past the caps on slots or timeline rows (the
    timeline arrays ran numpy out of memory) and a trace file with a bad
    line after its header stop with an error line."""
    argv = ["run", "--config", str(CONFIGS / "hvac_attack.yaml"), "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--set", override]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "override",
    [
        "params.alpha_s=abc",
        "sim.rng_seed=.inf",
        "detector.rng_seed=.inf",
        "sim.queue_capacity=1.5e400",
    ],
)
def test_run_rejects_values_a_field_cannot_take(tmp_path, capsys, override):
    """A value its field's conversion refuses (a word for a number, an
    infinite or overflowing integer) stops with an error line naming it."""
    rc = cli.main(["run", "--config", str(CONFIGS / "compare_sine_30s.yaml"),
                   "--out", str(tmp_path), "--set", override])
    assert rc == 1
    err = capsys.readouterr().err
    key = override.partition("=")[0]
    assert err.startswith("error:") and key in err and "bad value" in err
    assert not any(tmp_path.iterdir())


# Every key of every section table, addressed in twotask_short_attack.yaml
# (the first attack, task and capacitor stand for the others).
SET_KEYS = [
    *sorted(config_tables._TOP_KEYS),
    *(f"trace.{key}" for key in config_tables._TRACE),
    *(f"attacks.0.{key}" for key in config_tables._ATTACK),
    *(f"app.{key}" for key in sorted(config_tables._APP_KEYS)),
    *(f"app.tasks.0.{key}" for key in config_tables._TASK),
    *(f"params.{key}" for key in config_tables._PARAMS),
    *(f"bank.{key}" for key in sorted(config_tables._BANK_KEYS)),
    *(f"bank.capacitors.0.{key}" for key in config_tables._CAPACITOR),
    *(f"detector.{key}" for key in config_tables._DETECTOR),
    *(f"sim.{key}" for key in config_tables._SIM),
]
# Values no field should take quietly, as --set text.  Garbage has no digits,
# so it never parses as a moderate number: a trace length of 1e8 s would
# really be synthesised, where 1e30 samples cannot be held at all.  Small
# positive values are at most 1e-9: a slot that short exceeds the slot cap.
SET_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12),
    st.sampled_from([".nan", ".inf", "-.inf", "0", "0.0", "-0.0", "[]", "[1, .nan]", "{}"]),
    st.floats(min_value=1e30, allow_infinity=False).map(repr),
    st.integers(min_value=2**63).map(str),
    st.floats(max_value=-1e-9, allow_infinity=False).map(repr),
    st.floats(min_value=0.0, max_value=1e-9, exclude_min=True).map(repr),
    st.integers(max_value=-1).map(str),
    st.lists(st.integers(-3, 3) | st.sampled_from([".nan", "abc"]), max_size=3).map(
        lambda items: "[" + ", ".join(map(str, items)) + "]"),
)


@given(key=st.sampled_from(SET_KEYS), value=SET_VALUES, err=st.sampled_from([0.0, 0.3]))
@example(key="trace.length_s", value="1e300", err=0.3)  # was a numpy ValueError
@example(key="attacks.0.duration_s", value="1e300", err=0.0)  # the LA hold's search hung
@example(key="sim.dt_ms", value="1e-09", err=0.3)  # numpy ran out of memory
@example(key="trace.sample_interval_s", value="5e-324", err=0.3)  # an OverflowError
@example(key="trace.amplitude_v", value="1e300", err=0.0)  # ran with an infinite ledger
@example(key="attacks.0.start_s", value="1e306", err=0.0)  # numpy warned of an overflow
def test_run_with_any_set_value_ends_in_a_run_or_an_error_line(key, value, err):
    """One --set of a bad value on a 2 s attacked run, with an exact or a
    noisy detector: eamsim runs, or stops with exit 1 and an error line; it
    never raises and never hangs."""
    with tempfile.TemporaryDirectory() as out:
        argv = ["run", "--config", str(CONFIGS / "twotask_short_attack.yaml"), "--out", out]
        for override in ("sim.horizon_s=2", "attacks.0.start_s=0.5", "attacks.0.duration_s=1",
                         f"detector.remaining_time_error={err}", f"{key}={value}"):
            argv += ["--set", override]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    assert rc == 0 or (rc == 1 and stderr.getvalue().startswith("error:")), (rc, stderr.getvalue())


def test_run_rejects_a_task_period_shorter_than_a_slot(tmp_path, capsys):
    """A huge finite rate would stall the release loop; a period under one
    slot is rejected before the run starts."""
    rc = cli.main(["run", "--config", str(CONFIGS / "twotask_short_attack.yaml"),
                   "--out", str(tmp_path), "--set", "app.tasks.0.rates_per_hour.nml=1.0e+300"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "task T1: NML period" in err
    assert "shorter than one slot" in err
    assert not any(tmp_path.iterdir())


def test_seed_and_equal_budget_flags_become_overrides():
    args = cli._parser().parse_args(
        [
            "run",
            "--config", str(CONFIGS / "compare_sine_30s.yaml"),
            "--seed", "5",
            "--equal-budget",
        ]
    )
    doc = cli._load(args)
    assert doc["sim"]["rng_seed"] == 5
    assert doc["sim"]["equal_budget"] is True


# ------------------------------------------------------------------ compare


def test_draw_start_is_deterministic_and_bounded():
    usable = 600.0
    a = cli._draw_start(11, 45.0, usable)
    assert a == cli._draw_start(11, 45.0, usable)
    assert 0.1 * usable <= a <= 0.9 * usable - 45.0
    assert a != cli._draw_start(12, 45.0, usable)
    with pytest.raises(ConfigError, match="too short"):
        cli._draw_start(11, 1000.0, usable)


def test_compare_sweeps_policies_and_durations(tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(
        [
            "compare",
            "--config", str(CONFIGS / "compare_constant_30s.yaml"),
            "--policies", "eam,fh",
            "--attack-durations", "30,45",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["policy", "attack_duration_s", "attack_start_s"]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["policy"] for r in rows] == ["eam", "fh", "eam", "fh"]
    assert rows[0]["attack_duration_s"] == "30.0"
    assert rows[2]["attack_duration_s"] == "45.0"
    # Both policies face the identical attack window within a duration.
    assert rows[0]["attack_start_s"] == rows[1]["attack_start_s"]
    assert rows[0]["attack_start_s"] != rows[2]["attack_start_s"]


def test_compare_cell_equals_a_plain_run(tmp_path):
    """One sweep cell must reproduce `run` on the same drawn attack."""
    cfg = str(CONFIGS / "compare_sine_30s.yaml")
    out_cmp = tmp_path / "cmp"
    assert cli.main(
        [
            "compare",
            "--config", cfg,
            "--policies", "eam",
            "--attack-durations", "45",
            "--out", str(out_cmp),
        ]
    ) == 0
    lines = (out_cmp / "compare.csv").read_text().splitlines()
    header = lines[0].split(",")
    (row,) = [dict(zip(header, line.split(","))) for line in lines[1:]]

    config = build_sim_config(load_config(cfg))
    usable = min(config.trace.span[1], config.horizon)
    start = cli._draw_start(config.rng_seed, 45.0, usable)
    assert row["attack_start_s"] == repr(start)

    out_run = tmp_path / "run"
    attack = f"[{{start_s: {start!r}, duration_s: 45.0, kind: short, id: sweep}}]"
    assert cli.main(
        ["run", "--config", cfg, "--out", str(out_run), "--set", f"attacks={attack}"]
    ) == 0
    metrics = read_metrics(out_run / "metrics.csv")
    for key, value in metrics.items():
        assert row[key] == value, key


def test_compare_rejects_empty_sweeps(capsys):
    rc = cli.main(
        [
            "compare",
            "--config", str(CONFIGS / "compare_sine_30s.yaml"),
            "--policies", " ",
            "--attack-durations", "30",
        ]
    )
    assert rc == 1
    assert "at least one policy" in capsys.readouterr().err


# ------------------------------------------------------------------- inject


def write_trace(path: Path, n=30):
    lines = ["# time_s,voltage_v"] + [f"{float(t)!r},2.0" for t in range(n)]
    path.write_text("\n".join(lines) + "\n")


def test_inject_zeroes_the_window(tmp_path, capsys):
    src = tmp_path / "clean.csv"
    write_trace(src)
    out = tmp_path / "attacked" / "hit.csv"
    rc = cli.main(
        [
            "inject",
            "--trace", str(src),
            "--start", "10",
            "--duration", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "30 samples" in capsys.readouterr().out
    attacked = load_trace(out, load_resistance=30e3)
    for t, v in zip(attacked.times, attacked.voltages):
        assert v == (0.0 if 10.0 <= t < 15.0 else 2.0), t


def test_inject_rejects_windows_outside_the_trace(tmp_path, capsys):
    src = tmp_path / "clean.csv"
    write_trace(src)
    rc = cli.main(
        [
            "inject",
            "--trace", str(src),
            "--start", "200",
            "--duration", "5",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_inject_rejects_nonpositive_duration(tmp_path, capsys):
    src = tmp_path / "clean.csv"
    write_trace(src)
    rc = cli.main(
        [
            "inject",
            "--trace", str(src),
            "--start", "5",
            "--duration", "0",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 1
    assert "duration" in capsys.readouterr().err
