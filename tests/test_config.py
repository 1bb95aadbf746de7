import sys
from dataclasses import asdict, fields

import pytest

from gaitpipe.config import (
    MAX_SIGMA,
    MIN_SIGMA_M,
    ConfigError,
    GaitConfig,
    PipelineConfig,
    load_config,
)
from gaitpipe.pointcloud import MAX_COORD_M


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
                 "[dbscan]\neps = nan\n", "[gait]\nz_torso = inf\n"):
        path.write_text(line)
        with pytest.raises(ConfigError, match="finite and positive"):
            load_config(path)


def test_config_built_in_code_is_checked_like_a_file(tmp_path):
    # A PipelineConfig is valid once built: in code or from a file, the same
    # values raise the same error.
    path = tmp_path / "cfg.toml"
    path.write_text("[gait]\nmin_peak_gap = 0.1\n")
    with pytest.raises(ConfigError) as from_file:
        load_config(path)
    with pytest.raises(ConfigError) as in_code:
        PipelineConfig(gait=GaitConfig(min_peak_gap=0.1))
    assert str(in_code.value) == str(from_file.value)
    assert str(in_code.value).startswith("gait.min_peak_gap (0.1) must exceed half")


def test_eps_and_noise_levels_bounded(tmp_path):
    # eps is a length in the room, bounded as a session's coordinates are;
    # the noise levels so that their squares keep the Kalman filter finite.
    path = tmp_path / "cfg.toml"
    for section, key, bound in (("dbscan", "eps", MAX_COORD_M),
                                ("tracker", "sigma_a", MAX_SIGMA),
                                ("tracker", "sigma_m", MAX_SIGMA)):
        path.write_text(f"[{section}]\n{key} = {bound!r}\n")
        assert getattr(getattr(load_config(path), section), key) == bound
        for value in (bound * (1 + 2**-52), 1e153, 1e300):
            path.write_text(f"[{section}]\n{key} = {value!r}\n")
            with pytest.raises(ConfigError, match=f"^{section}.{key} must be at most"):
                load_config(path)


def test_measurement_noise_bounded_below(tmp_path):
    # sigma_m's square must stay a normal float: the Kalman update divides
    # by the innovation variance, which is at least that square.
    path = tmp_path / "cfg.toml"
    path.write_text(f"[tracker]\nsigma_m = {MIN_SIGMA_M!r}\n")
    assert load_config(path).tracker.sigma_m == MIN_SIGMA_M
    assert MIN_SIGMA_M**2 >= sys.float_info.min
    for value in (MIN_SIGMA_M * (1 - 2**-52), 1e-200, 1e-300):
        path.write_text(f"[tracker]\nsigma_m = {value!r}\n")
        with pytest.raises(ConfigError, match="^tracker.sigma_m must be at least 1e-150"):
            load_config(path)


def test_nonnumeric_value_rejected(tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text("[tracker]\ngate = wide\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.toml")


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
