from dataclasses import asdict, fields

import pytest

from gaitpipe.config import (
    ConfigError,
    PipelineConfig,
    apply_overrides,
    load_config,
)


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg == PipelineConfig()
    assert cfg.segmenter.rdp_epsilon == 0.5
    assert cfg.segmenter.min_length == 2.0
    assert cfg.segmenter.max_angle_deg == 15.0
    assert cfg.gait.z_torso == 0.25
    assert cfg.gait.min_peak_gap == 0.3
    assert cfg.gait.nms_window == 0.4


def test_load_partial_file(tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text("[segmenter]\nrdp_epsilon = 0.4\n\n[tracker]\ngate = 1.5\n")
    cfg = load_config(path)
    assert cfg.segmenter.rdp_epsilon == 0.4
    assert cfg.tracker.gate == 1.5
    assert cfg.gait.z_torso == 0.25  # untouched sections keep defaults


def test_quoted_strings_and_comments(tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text("[gait]\nz_torso = \"0.3\"  # note\nmax_step_len = '0.9'\n")
    cfg = load_config(path)
    assert cfg.gait.z_torso == 0.3
    assert cfg.gait.max_step_len == 0.9


def test_unknown_section_and_key_rejected(tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text("[rocket]\nthrust = 9\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[tracker]\nwarp = 9\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_validation_rules(tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text("[gait]\nmin_peak_gap = 0.15\nnms_window = 0.4\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[gait]\nnms_window = 0.1\n")  # under two frame intervals at 10 fps
    with pytest.raises(ConfigError):
        load_config(path).check_frame_rate(10.0)
    path.write_text("[dbscan]\neps = -0.4\n")
    with pytest.raises(ConfigError):
        load_config(path)
    for line in ("[tracker]\nsigma_a = inf\n", "[tracker]\nsigma_m = inf\n",
                 "[dbscan]\neps = nan\n"):
        path.write_text(line)
        with pytest.raises(ConfigError, match="finite and positive"):
            load_config(path)
    with pytest.raises(ConfigError, match="finite and positive"):
        apply_overrides(PipelineConfig(), {"gait.z_torso": float("inf")})


def test_nonnumeric_value_rejected(tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text("[tracker]\ngate = wide\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.toml")


def test_apply_overrides():
    cfg = apply_overrides(
        PipelineConfig(),
        {"segmenter.rdp_epsilon": 0.6, "gait.z_torso": 0.2, "gait.min_peak_gap": None},
    )
    assert cfg.segmenter.rdp_epsilon == 0.6
    assert cfg.gait.z_torso == 0.2
    assert cfg.gait.min_peak_gap == 0.3  # None means "leave alone"
    with pytest.raises(ConfigError):
        apply_overrides(PipelineConfig(), {"gait.min_peak_gap": 0.1})


def test_config_asdict_holds_every_section_field():
    cfg = PipelineConfig()
    d = asdict(cfg)
    assert list(d) == ["dbscan", "tracker", "segmenter", "gait", "reporting"]
    for name, section in d.items():
        assert section == {f.name: getattr(getattr(cfg, name), f.name)
                           for f in fields(getattr(cfg, name))}
    assert d["segmenter"]["max_angle_deg"] == 15.0
    assert d["gait"]["max_step_len"] == 1.0
    assert d["reporting"]["heatmap_cell"] == 0.25
