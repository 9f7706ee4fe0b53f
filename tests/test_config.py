"""Configuration loading: defaults, strict keys, coercions, YAML round trip."""

import copy
import glob
import json
import os
import typing

import pytest
import yaml

from terradapt import cli, config
from terradapt.config import (
    RK4_REAL_LIMIT,
    Config,
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# the YAML parsers config may load with: PyYAML's Python one always, libyaml's
# where PyYAML was built with it
LOADERS = [pytest.param("SafeLoader"),
           pytest.param("CSafeLoader", marks=pytest.mark.skipif(
               not yaml.__with_libyaml__, reason="PyYAML was built without libyaml"))]


def test_empty_config_gives_defaults():
    cfg = config_from_dict({})
    assert cfg.seed == 0
    assert cfg.output_dir == "out"
    assert cfg.vehicle.type == "tracked"
    assert [c.name for c in cfg.world.classes] == ["nominal", "grass", "ice"]
    assert cfg.controller.variant == "dnn"
    assert cfg.scenario.fault.kind == "none"
    cfg_none = config_from_dict(None)
    assert cfg_none.sim.control_period == 0.05


def test_root_must_be_mapping():
    with pytest.raises(ConfigError, match="mapping"):
        config_from_dict([1, 2, 3])


def test_unknown_keys_rejected_everywhere():
    cases = [
        {"outputdir": "x"},
        {"vehicle": {"typ": "tracked"}},
        {"vehicle": {"tracked": {"k_3": 1.0}}},
        {"world": {"rowz": 10}},
        {"world": {"classes": [{"name": "a", "eta": [1.0, 1.0], "color": "red"}]}},
        {"provider": {"noise": 0.1}},
        {"provider": {"seed": 0}},
        {"sim": {"dt": 0.01}},
        {"dataset": {"step": 10}},
        {"training": {"lr": 0.001}},
        {"controller": {"gain": {}}},
        {"controller": {"gains": {"kp": 1.0}}},
        {"controller": {"adaptation": {"lambda": 0.1}}},
        {"scenario": {"length_s": 10}},
        {"scenario": {"fault": {"when": 1.0}}},
    ]
    for raw in cases:
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(raw)


def test_error_messages_name_the_section():
    with pytest.raises(ConfigError, match="sim"):
        config_from_dict({"sim": {"dt_plant": 0.02, "control_period": 0.05}})
    with pytest.raises(ConfigError, match="vehicle"):
        config_from_dict({"vehicle": {"type": "hovercraft"}})
    with pytest.raises(ConfigError, match="controller"):
        config_from_dict({"controller": {"variant": "mpc"}})
    with pytest.raises(ConfigError, match="scenario"):
        config_from_dict({"scenario": {"kind": "slalom"}})
    with pytest.raises(ConfigError, match="fault"):
        config_from_dict({"scenario": {"fault": {"kind": "engine"}}})
    with pytest.raises(ConfigError, match="provider"):
        config_from_dict({"provider": {"mode": "live"}})
    with pytest.raises(ConfigError, match="world"):
        config_from_dict({"world": {"classes": [{"name": "a", "eta": [3.0, 3.0]}]}})
    with pytest.raises(ConfigError, match="classes"):
        config_from_dict({"world": {"classes": []}})
    with pytest.raises(ConfigError, match=r"^world: .*tile"):   # was a ZeroDivisionError
        config_from_dict({"world": {"tile_rows": 0}})
    # the controller's own classes check their sections at load
    for adaptation in ({"gamma0": 5.0, "gamma_max": 1.0}, {"r_diag": [0.0, 0.1]},
                       {"law": "kalman"}):
        with pytest.raises(ConfigError, match=r"^controller\.adaptation: "):
            config_from_dict({"controller": {"adaptation": adaptation}})
    for gains in ({"k_px": -1.0}, {"k_px": 0.0}, {"b_min": -1.0}):
        # b_min steers only the Ackermann loop, but is refused on a tracked config too
        with pytest.raises(ConfigError, match=r"^controller\.gains: "):
            config_from_dict({"vehicle": {"type": "tracked"}, "controller": {"gains": gains}})
    for provider in ({"noise_std": -0.1}, {"brightness": 0.0}, {"brightness": -1.0}):
        with pytest.raises(ConfigError, match=r"^provider: "):
            config_from_dict({"provider": provider})
    for key in ("u_v_max", "u_omega_max", "u_delta_max"):
        for value in (-1.0, 0.0, float("nan")):
            with pytest.raises(ConfigError, match=rf"^vehicle: {key} must be positive"):
                config_from_dict({"vehicle": {key: value}})
    for key, value in (("residual_cutoff_hz", 0.0), ("residual_cutoff_hz", float("nan")),
                       ("vdot_noise_std", -0.1), ("vdot_noise_std", float("nan"))):
        with pytest.raises(ConfigError, match=rf"^sim: {key} "):
            config_from_dict({"sim": {key: value}})
    for warmup in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match=r"^dataset: warmup_s "):
            config_from_dict({"dataset": {"warmup_s": warmup}})
    with pytest.raises(ConfigError, match=r"^training: activation must be one of"):
        config_from_dict({"training": {"activation": "relu6"}})


def test_variant_suffix_accepted():
    for v in ("pd", "constant", "dnn", "constant-frozen", "dnn-frozen"):
        cfg = config_from_dict({"controller": {"variant": v}})
        assert cfg.controller.variant == v
    with pytest.raises(ConfigError):
        config_from_dict({"controller": {"variant": "pd-melted"}})


def test_yaml_lists_become_tuples():
    cfg = config_from_dict({
        "dataset": {"hold_range_s": [0.4, 1.0], "u_v_range": [-1.0, 1.0]},
        "training": {"hidden": [16, 16], "theta_r": [0.5, 0.5, 0.5, 0.5]},
        "controller": {"adaptation": {"q_diag": [0.1, 0.1, 0.1, 0.1]},
                       "theta0": [0.0, 0.0, 0.0, 0.0]},
        "scenario": {"v_range": [0.5, 1.0]},
        "world": {"classes": [{"name": "a", "eta": [0.9, 1.0]}]},
    })
    assert cfg.dataset.hold_range_s == (0.4, 1.0)
    assert cfg.training.hidden == (16, 16)
    assert cfg.controller.adaptation.q_diag == (0.1, 0.1, 0.1, 0.1)
    assert cfg.controller.theta0 == (0.0, 0.0, 0.0, 0.0)
    assert cfg.scenario.v_range == (0.5, 1.0)
    assert cfg.world.classes[0].eta == (0.9, 1.0)


def test_nested_overrides_apply():
    cfg = config_from_dict({
        "seed": 7,
        # figure8 and the fault need the tracked vehicle; both plants' sections apply
        "vehicle": {"type": "tracked", "tracked": {"k1": 1.2},
                    "ackermann": {"wheelbase": 0.6}},
        "controller": {"variant": "constant",
                       "gains": {"k_psi": 3.0},
                       "adaptation": {"law": "matrix", "gamma0": 0.5}},
        "scenario": {"kind": "figure8", "fault": {"kind": "track-square", "scale": 0.4}},
    })
    assert cfg.seed == 7
    assert cfg.vehicle.tracked.k1 == 1.2
    assert cfg.vehicle.ackermann.wheelbase == 0.6
    assert cfg.controller.gains.k_psi == 3.0
    assert cfg.controller.gains.k_px == 0.8  # untouched default
    assert cfg.controller.adaptation.law == "matrix"
    assert cfg.scenario.fault.scale == 0.4


def test_load_config_yaml_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "seed: 3\n"
        "output_dir: results\n"
        "sim:\n"
        "  dt_plant: 0.01\n"
        "  control_period: 0.05\n"
        "training:\n"
        "  hidden: [8, 8]\n"
        "  batch_windows: 16\n"
        "world:\n"
        "  classes:\n"
        "    - {name: nominal, eta: [1.0, 1.0]}\n"
        "    - {name: mud, eta: [0.6, 0.7]}\n"
    )
    cfg = load_config(path)
    assert cfg.seed == 3
    assert cfg.output_dir == "results"
    assert cfg.training.hidden == (8, 8)
    assert cfg.world.classes[1].name == "mud"


def test_load_config_errors(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [unclosed\n")
    loaders = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
    for loader in loaders:
        monkeypatch.setattr(config, "_YAML_BASE", loader)
        with pytest.raises(ConfigError, match="YAML"):
            load_config(bad)


@pytest.mark.parametrize("loader", LOADERS)
def test_repeated_key_refused_with_its_line(tmp_path, monkeypatch, loader):
    """A key given twice in one mapping, at any depth, is refused, naming the
    key and the line of its second occurrence. It used to keep the last
    value silently. The same key in two mappings is fine, and so is a
    mapping overriding a key it merges in."""
    monkeypatch.setattr(config, "_YAML_BASE", getattr(yaml, loader))
    cases = {
        "seed: 1\noutput_dir: a\nseed: 2\n": ("seed", 3),
        "training:\n  seed: 1\n  hidden: [8]\ntraining:\n  seed: 2\n": ("training", 4),
        "world:\n  classes:\n    - {name: a, eta: [1, 1]}\n"
        "    - name: b\n      eta: [1, 1]\n      name: c\n": ("name", 6),
        "sim: {dt_plant: 0.01, \"dt_plant\": 0.02}\n": ("dt_plant", 1),
    }
    path = tmp_path / "repeated.yaml"
    for text, (key, line) in cases.items():
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{path}.*'{key}' repeated at line {line}$"):
            load_config(path)
    path.write_text("seed: 1\ntraining:\n  seed: 2\n")
    assert load_config(path).training.seed == 2
    merged = "a: &a {p: 1, q: 2}\nb:\n  <<: *a\n  p: 3\n"
    assert yaml.load(merged, Loader=config._refusing_repeats(config._YAML_BASE)) == \
        {"a": {"p": 1, "q": 2}, "b": {"p": 3, "q": 2}}


def test_unreadable_config_path_exits_2(tmp_path, capsys):
    """A directory and a file that is not UTF-8 are configuration errors
    naming the path; they used to exit 1 as IsADirectoryError and as a
    UnicodeDecodeError without the file's name."""
    latin = tmp_path / "latin.yaml"
    latin.write_bytes("seed: 1  # caf\u00e9\n".encode("latin-1"))
    for path in (tmp_path, latin):
        assert cli.main(["gen-data", "-c", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert str(path) in err["message"] and "cannot be read" in err["message"]


@pytest.mark.parametrize("loader", LOADERS)
def test_each_parser_loads_the_shipped_configs_alike(monkeypatch, loader):
    """libyaml replaces only the scanner and the parser: each shipped config
    gives the raw objects and the Config of PyYAML's Python parser."""
    base = getattr(yaml, loader)
    monkeypatch.setattr(config, "_YAML_BASE", base)
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))
    assert len(paths) >= 3
    for path in paths:
        with open(path) as f:
            text = f.read()
        want = yaml.load(text, Loader=yaml.SafeLoader)
        got = yaml.load(text, Loader=base)
        assert got == want and repr(got) == repr(want)    # repr tells 1 from 1.0
        cfg = load_config(path)
        assert cfg == config_from_dict(want) and repr(cfg) == repr(config_from_dict(want))


def test_second_load_resolves_no_type_hints(monkeypatch):
    """Each schema class's annotations are resolved once per process."""
    path = os.path.join(CONFIGS, "quickstart.yaml")
    calls = []
    resolve = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda cls: calls.append(cls) or resolve(cls))
    config._schema.cache_clear()
    first = load_config(path)
    assert Config in calls and len(calls) == len(set(calls))
    calls.clear()
    assert load_config(path) == first
    assert calls == []


def test_output_dir_env_override(monkeypatch):
    cfg = Config(output_dir="from_file")
    monkeypatch.delenv("TERRADAPT_OUT", raising=False)
    assert cfg.resolved_output_dir() == "from_file"
    monkeypatch.setenv("TERRADAPT_OUT", "/tmp/elsewhere")
    assert cfg.resolved_output_dir() == "/tmp/elsewhere"


def test_config_to_dict_echo():
    cfg = config_from_dict({"seed": 5, "controller": {"variant": "pd"}})
    d = config_to_dict(cfg)
    assert d["seed"] == 5
    assert d["controller"]["variant"] == "pd"
    assert d["world"]["classes"][0]["name"] == "nominal"
    assert isinstance(d["training"]["learning_rate"], float)


def test_cruise_range_order_checked_at_load():
    with pytest.raises(ConfigError, match="dataset.*cruise_range"):
        config_from_dict({"dataset": {"cruise_range": [2.0, 1.0]}})
    assert config_from_dict({"dataset": {"cruise_range": [1.0, 1.0]}})


def test_shipped_configs_load():
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))
    assert len(paths) >= 3
    for path in paths:
        load_config(path)


def test_rk4_unstable_time_constants_refused_at_load():
    # dt_plant / tau just inside the real-axis limit loads; just outside does not
    dt = 0.01
    ok = dt / (RK4_REAL_LIMIT * (1 - 1e-9))
    bad = dt / (RK4_REAL_LIMIT * (1 + 1e-9))
    for section, key in (("tracked", "tau_v"), ("tracked", "tau_omega"), ("ackermann", "tau_v")):
        config_from_dict({"sim": {"dt_plant": dt}, "vehicle": {section: {key: ok}}})
        with pytest.raises(ConfigError, match=rf"vehicle\.{section}\.{key}="):
            config_from_dict({"sim": {"dt_plant": dt}, "vehicle": {section: {key: bad}}})
    # a smaller plant step makes the same time constant integrable
    config_from_dict({"sim": {"dt_plant": 0.002}, "vehicle": {"tracked": {"tau_v": 1e-3}}})


def test_quickstart_with_millisecond_time_constants_exits_2(tmp_path, capsys):
    """At tau 1e-3 gen-data used to integrate to overflow and stop with exit 1
    ("math domain error"); the loader now refuses the config."""
    with open(os.path.join(CONFIGS, "quickstart.yaml")) as f:
        raw = yaml.safe_load(f)
    raw["output_dir"] = str(tmp_path / "out")
    raw["vehicle"]["tracked"] = {"tau_v": 1e-3, "tau_omega": 1e-3}
    path = tmp_path / "fast_plant.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["gen-data", "-c", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "vehicle.tracked.tau_v" in err["message"] and "sim.dt_plant" in err["message"]
    assert not (tmp_path / "out" / "dataset.tdc").exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "simulate", "evaluate"])
def test_bad_controller_or_provider_value_exits_2_before_any_output(tmp_path, capsys,
                                                                    command):
    """gen-data and train never built a controller, so they ran on bad
    controller values; evaluate stopped halfway with exit 1."""
    with open(os.path.join(CONFIGS, "quickstart.yaml")) as f:
        quickstart = yaml.safe_load(f)
    extra = ["--variants", "pd", "dnn"] if command == "evaluate" else []
    bad = (("controller.adaptation", "controller", "adaptation",
            {"gamma0": 5.0, "gamma_max": 1.0}),
           ("controller.gains", "controller", "gains", {"k_px": -1.0}),
           ("provider", None, "provider", {"noise_std": -0.5}))
    for i, (section, parent, key, values) in enumerate(bad):
        raw = yaml.safe_load(yaml.safe_dump(quickstart))
        out = tmp_path / f"out{i}"
        raw["output_dir"] = str(out)
        (raw[parent] if parent else raw)[key].update(values)
        path = tmp_path / f"bad{i}.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main([command, "-c", str(path), *extra]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{section}: ")
        assert not out.exists()


def test_world_section_without_classes_keeps_the_default_classes():
    """Such a section used to be refused ("world.classes must not be empty"):
    the default classes were set by Config, not declared by WorldSpec."""
    cfg = config_from_dict({"world": {"rows": 30, "cols": 40, "tile_rows": 30,
                                      "tile_cols": 40}})
    assert cfg.world.rows == 30
    assert cfg.world.classes == config_from_dict({}).world.classes
    assert [c.eta for c in cfg.world.classes] == [(1.0, 1.0), (0.78, 0.84), (0.55, 0.62)]
    with pytest.raises(ConfigError, match="classes"):
        config_from_dict({"world": {"classes": []}})


def test_eta_width_checked_against_the_vehicle_at_load():
    """The tracked plant takes one eta entry per channel; the car reads the
    first entry of a row of any width."""
    for eta in ([1.0], [1.0, 1.0, 1.0]):
        classes = [{"name": "a", "eta": eta}]
        with pytest.raises(ConfigError, match=r"^world\.classes"):
            config_from_dict({"world": {"classes": classes}})
        cfg = config_from_dict({"vehicle": {"type": "ackermann"},
                                "scenario": {"kind": "ackermann-circle"},
                                "world": {"classes": classes}})
        assert cfg.world.classes[0].eta == tuple(eta)


@pytest.mark.parametrize("command", ["gen-data", "train", "simulate", "evaluate"])
def test_tracked_world_with_one_eta_entry_exits_2_before_any_output(tmp_path, capsys,
                                                                   command):
    """Such a config used to load; gen-data and evaluate then stopped with
    exit 1 in the plant ("tracked eta must have two diagonal entries")."""
    with open(os.path.join(CONFIGS, "quickstart.yaml")) as f:
        raw = yaml.safe_load(f)
    out = tmp_path / "out"
    raw["output_dir"] = str(out)
    raw["world"]["classes"] = [{"name": "nominal", "eta": [1.0]},
                               {"name": "ice", "eta": [0.55]}]
    path = tmp_path / "narrow_eta.yaml"
    path.write_text(yaml.safe_dump(raw))
    extra = ["--variants", "pd", "constant"] if command == "evaluate" else []
    assert cli.main([command, "-c", str(path), *extra]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["message"].startswith("world.classes")
    assert not out.exists()


def test_default_controller_and_fault_sections_are_pinned():
    """The classes these sections are built as keep the config schema: the
    same keys and defaults, echoed into every sidecar."""
    d = config_to_dict(config_from_dict({}))
    assert d["controller"]["gains"] == {
        "k_px": 0.8, "k_py": 0.8, "k_psi": 2.3, "k_dx": 0.05, "k_domega": 0.1,
        "v_eps": 1e-3, "k_p": 1.0, "k_v": 1.0, "k_fwd": 0.5, "b_min": 1e-3}
    assert d["controller"]["adaptation"] == {
        "law": "scalar", "lam": 0.01, "r_diag": (0.1, 0.1), "q_diag": (1.0, 1.0, 1.0, 1.0),
        "gamma0": 0.01, "gamma_min": 1e-4, "gamma_max": 1e3}
    assert d["scenario"]["fault"] == {
        "kind": "none", "period_s": 3.0, "scale": 0.3, "track": "right", "start_s": 0.0}
    assert list(d["controller"]["adaptation"]) == [
        "law", "lam", "r_diag", "q_diag", "gamma0", "gamma_min", "gamma_max"]
    assert list(d["scenario"]["fault"]) == ["kind", "period_s", "scale", "track", "start_s"]


def test_malformed_shapes_refused_with_the_key_path():
    """The field annotations are the schema: a value of the wrong shape or
    type is refused at load, naming its key path. A scalar eta used to stop
    the loader with a TypeError traceback, a one-entry range the run with an
    IndexError."""
    cases = [
        ({"world": {"classes": [{"name": "a", "eta": 1.0}]}}, r"world\.classes\[0\]\.eta"),
        ({"world": {"classes": [{"name": "a", "eta": [1.0, None]}]}},
         r"world\.classes\[0\]\.eta\[1\]"),
        ({"world": {"classes": [{"name": "a", "eta": [1.0, 1.0]}, {"name": 2, "eta": [1.0]}]}},
         r"world\.classes\[1\]\.name"),
        ({"world": {"classes": {"name": "a"}}}, "world.classes"),
        ({"scenario": {"v_range": [0.5]}}, "scenario.v_range"),
        ({"dataset": {"u_v_range": [-1.0, 0.0, 1.0]}}, "dataset.u_v_range"),
        ({"scenario": {"omega_range": 1.0}}, "scenario.omega_range"),
        ({"dataset": {"cruise_range": "1.0, 2.0"}}, "dataset.cruise_range"),
        ({"training": {"hidden": 8}}, "training.hidden"),
        ({"training": {"hidden": [8.0, 8]}}, r"training\.hidden\[0\]"),
        ({"controller": {"adaptation": {"q_diag": 0.1}}}, "controller.adaptation.q_diag"),
        ({"controller": {"theta0": [0.0, "x"]}}, r"controller\.theta0\[1\]"),
        ({"vehicle": [1, 2]}, "vehicle"),
        ({"vehicle": {"tracked": None}}, "vehicle.tracked"),
        ({"seed": 3.0}, "seed"),
        ({"scenario": {"runs": 2.5}}, "scenario.runs"),
        ({"scenario": {"runs": True}}, "scenario.runs"),
        ({"scenario": {"telemetry": "yes"}}, "scenario.telemetry"),
        ({"sim": {"dt_plant": "0.01"}}, "sim.dt_plant"),
        ({"output_dir": 5}, "output_dir"),
    ]
    for raw, where in cases:
        with pytest.raises(ConfigError, match=rf"^{where}: expected"):
            config_from_dict(raw)
    # None passes through an optional key; an int stands for a float
    cfg = config_from_dict({"controller": {"theta0": None}, "sim": {"vdot_noise_std": 0},
                            "provider": {"world_file": None}})
    assert cfg.controller.theta0 is None and cfg.sim.vdot_noise_std == 0


@pytest.mark.parametrize("patch, message", [
    ({"scenario.hold_range_s": [0.0, 0.0]}, "scenario: hold_range_s"),
    ({"scenario.hold_range_s": [-1.0, 2.0]}, "scenario: hold_range_s"),
    ({"scenario.fig8_period_s": 0.0}, "scenario: fig8_period_s"),
    ({"scenario.kind": "figure8", "scenario.fig8_period_s": -30.0},
     "scenario: fig8_period_s"),
    ({"scenario.circle_radius": -2.5}, "scenario: circle_radius"),
    ({"scenario.circle_speed": 0.0}, "scenario: circle_radius and circle_speed"),
    ({"scenario.v_range": [0.5]}, "scenario.v_range: "),
    ({"scenario.omega_range": 0.7}, "scenario.omega_range: "),
    ({"world.classes": [{"name": "nominal", "eta": 1.0}]}, "world.classes[0].eta: "),
    ({"scenario.kind": "ackermann-circle"}, "scenario.kind ackermann-circle requires"),
    ({"vehicle.type": "ackermann", "scenario.kind": "ackermann-circle",
      "scenario.fault": {"kind": "track-square"}}, "scenario: kind ackermann-circle"),
    ({"provider.mode": "recorded"}, "provider: mode 'recorded'"),
    ({"vehicle.u_v_max": -1.0}, "vehicle: u_v_max must be positive"),
    ({"vehicle.u_omega_max": 0.0}, "vehicle: u_omega_max must be positive"),
    ({"vehicle.u_delta_max": -0.45}, "vehicle: u_delta_max must be positive"),
    ({"sim.residual_cutoff_hz": 0.0}, "sim: residual_cutoff_hz must be positive"),
    ({"sim.vdot_noise_std": -0.1}, "sim: vdot_noise_std must be nonnegative"),
    ({"dataset.warmup_s": -1.0}, "dataset: warmup_s must be nonnegative"),
    ({"dataset.hold_range_s": [-0.5, 1.0]}, "dataset: hold_range_s must hold positive"),
    ({"dataset.hold_range_s": [0.0, 0.0]}, "dataset: hold_range_s must hold positive"),
    ({"dataset.u_v_range": [1.5, -1.5]}, "dataset: u_v_range low end above its high end"),
    ({"dataset.u_omega_range": [2.0, -2.0]},
     "dataset: u_omega_range low end above its high end"),
    ({"dataset.u_delta_range": [0.35, -0.35]},
     "dataset: u_delta_range low end above its high end"),
    ({"training.activation": "relu6"}, "training: activation must be one of"),
    ({"scenario.fault": {"kind": "track-square", "scale": 1.5}},
     "scenario.fault: fault scale must lie in [0, 1]"),
    ({"vehicle.half_spacing": 0.0}, "vehicle: half_spacing must be positive"),
    ({"training.conv_window": 0}, "training: conv_window must be at least 1"),
    ({"training.conv_window": -5}, "training: conv_window must be at least 1"),
    ({"training.conv_tol": -1e-5}, "training: conv_tol must be nonnegative"),
    ({"training.conv_tol": float("nan")}, "training: conv_tol must be nonnegative"),
    ({"training.hidden": [0]}, "training: hidden widths must be at least 1"),
    ({"training.hidden": [16, -2]}, "training: hidden widths must be at least 1"),
], ids=["hold-zero", "hold-negative", "fig8-zero", "fig8-negative", "circle-radius",
        "circle-speed", "short-range", "scalar-range", "scalar-eta",
        "kind-vehicle", "circle-fault", "recorded", "u-v-max", "u-omega-max", "u-delta-max",
        "residual-cutoff", "vdot-noise", "warmup", "dataset-hold-negative",
        "dataset-hold-zero", "u-v-range", "u-omega-range", "u-delta-range", "activation",
        "fault-scale", "half-spacing", "conv-window-zero", "conv-window-negative",
        "conv-tol-negative", "conv-tol-nan", "hidden-zero", "hidden-negative"])
def test_new_refusals_exit_2_before_any_output(tmp_path, capsys, patch, message):
    """A hold at or below zero made the velocity reference loop forever, a
    zero figure-8 period divided by zero, a nonpositive circle stopped
    evaluate with exit 1 after its telemetry directory was made, a short or
    scalar range or eta stopped with a traceback, and the pairings exited 1
    at run time (gen-data and train ran to the end on them). A nonpositive
    actuator limit clamped every tick of a run that reported a normal
    summary; a zero residual cutoff, a negative noise std or warmup stopped
    gen-data with exit 1 after its output directory was made, and an unknown
    activation let gen-data finish and stopped train. A dataset hold at or
    below zero redrew the input every tick, and a reversed input range drew
    from it unrefused (np.clip pinned the car's turn-back at the high end
    of a reversed u_delta_range). The fault scale and
    the patch half spacing are checked at load: the fault takes the scale,
    and the feature lookups take the half spacing, unchecked on every
    tick. A convergence window below 1 was accepted and ignored (train never
    converged, with "Mean of empty slice" warnings), a negative tolerance
    could never be met, and a zero hidden width let gen-data finish and
    stopped train with an OverflowError."""
    with open(os.path.join(CONFIGS, "quickstart.yaml")) as f:
        raw = yaml.safe_load(f)
    out = tmp_path / "out"
    raw["output_dir"] = str(out)
    for key, value in patch.items():
        section, _, name = key.partition(".")
        raw[section][name] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["evaluate", "-c", str(path), "--variants", "pd", "constant"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["message"].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("command", [["gen-data"], ["train"], ["simulate"],
                                     ["evaluate", "--variants", "pd"]],
                         ids=["gen-data", "train", "simulate", "evaluate"])
def test_value_refusals_stop_every_command(tmp_path, capsys, command):
    """The actuator, sim, dataset and training values refused at load stop
    every command with exit 2 before its output directory is made."""
    with open(os.path.join(CONFIGS, "quickstart.yaml")) as f:
        base = yaml.safe_load(f)
    for section, name, value in (("vehicle", "u_v_max", -1.0), ("sim", "residual_cutoff_hz", 0),
                                 ("sim", "vdot_noise_std", -0.1), ("dataset", "warmup_s", -1.0),
                                 ("training", "activation", "relu6"),
                                 ("training", "conv_window", 0), ("training", "conv_tol", -1.0),
                                 ("training", "hidden", [0])):
        raw = copy.deepcopy(base)
        out = tmp_path / name
        raw["output_dir"] = str(out)
        raw[section][name] = value
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(command + ["-c", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and name in err["message"]
        assert not out.exists()


def test_config_dict_round_trip():
    """config_from_dict inverts config_to_dict, for every kind of field the
    builder converts: sections, nested sections, a list of classes, fixed and
    open tuples, optional keys set and unset."""
    cfgs = [config_from_dict({}),
            config_from_dict({"controller": {"theta0": [0.5, 0.0, 0.0, 0.5]},
                              "world": {"classes": [{"name": "a", "eta": [1.0, 1.0]},
                                                    {"name": "b", "eta": [0.5, 0.6],
                                                     "features_like": "a"}]}})]
    cfgs += [load_config(p) for p in sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))]
    for cfg in cfgs:
        assert config_from_dict(config_to_dict(cfg)) == cfg
        # and from the JSON sidecar echo, which has lists where the dict has tuples
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
