"""Configuration loading: defaults, strict keys, coercions, YAML round trip."""

import pytest

from terradapt.config import (
    Config,
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
)


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
        "vehicle": {"type": "ackermann", "tracked": {"k1": 1.2},
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


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(bad)


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
