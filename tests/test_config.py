import json

import pytest

from lhts.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)


def test_defaults_validate():
    RunConfig().validate()


def test_sections_and_top_level_fields_load():
    cfg = config_from_dict({"task": "train-lhts", "seed": 3,
                            "model": {"parameterization": "linear", "window": 2},
                            "train": {"temperatures": [0.5, 0.8]}})
    cfg.validate()
    assert (cfg.task, cfg.seed, cfg.model.window) == ("train-lhts", 3, 2)
    assert cfg.train.temperatures == [0.5, 0.8]


@pytest.mark.parametrize("doc, name", [
    ({"nope": 1}, "nope"),
    ({"model": {"nope": 1}}, "model.nope"),
    # method names are not fields
    ({"validate": 1}, "validate"),
    ({"to_dict": 1}, "to_dict"),
    ({"model": {"validate": 3}}, "model.validate"),
    ({"train": {"settings": 3}}, "train.settings"),
    ({"model.vocab_size": 3}, "model.vocab_size"),
])
def test_unknown_fields_are_named(doc, name):
    with pytest.raises(ConfigError, match=f"'{name}': unknown field"):
        config_from_dict(doc)


def test_section_must_be_an_object():
    with pytest.raises(ConfigError, match="'model': must be an object"):
        config_from_dict({"model": 5})
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict([1, 2])


@pytest.mark.parametrize("override, name", [
    ("model.vocab_size=1", "model.vocab_size"),
    ("model.parameterization=cnn", "model.parameterization"),
    ("task=fly", "task"),
    ("sample.n=0", "sample.n"),
    ("diffusion.mixture_weights=[0.5, 0.6]", "diffusion.mixture_weights"),
    ("out_dir=\"\"", "out_dir"),
])
def test_bad_values_name_the_field(override, name):
    cfg = apply_overrides(RunConfig(), [override])
    with pytest.raises(ConfigError, match=f"'{name}'"):
        cfg.validate()


@pytest.mark.parametrize("override, name", [
    ("model.vocab_size=\"x\"", "model.vocab_size"),
    ("model.vocab_size=2.5", "model.vocab_size"),
    ("model.temp_embedding=1", "model.temp_embedding"),
    ("seed=true", "seed"),
    ("train.temperatures=0.5", "train.temperatures"),
    ("data.path=3", "data.path"),
    # a wrongly typed list entry names its section
    ("sweep.myopic_ts=[\"a\"]", "sweep"),
    ("train.temperatures=[\"a\"]", "train"),
])
def test_bad_types_name_the_field_or_section(override, name):
    cfg = apply_overrides(RunConfig(), [override])
    with pytest.raises(ConfigError, match=f"'{name}"):
        cfg.validate()


def test_wrong_section_object_is_refused():
    cfg = RunConfig()
    cfg.model = 5
    with pytest.raises(ConfigError, match="'model'"):
        cfg.validate()


def test_overrides_parse_json_with_bare_string_fallback():
    cfg = apply_overrides(RunConfig(), [
        "model.vocab_size=5",
        "train.grad_clip=null",
        "train.temperatures=[0.25, 0.5]",
        "model.parameterization=linear",
        "out_dir=runs/a=b",
        "model={\"length\": 6}",
    ])
    cfg.validate()
    assert cfg.model.vocab_size == 5
    assert cfg.train.grad_clip is None
    assert cfg.train.temperatures == [0.25, 0.5]
    assert cfg.model.parameterization == "linear"
    assert cfg.out_dir == "runs/a=b"
    assert cfg.model.length == 6


@pytest.mark.parametrize("override, match", [
    ("model.vocab_size", "key=value"),
    ("model=5", "'model': must be an object"),
    ("model.validate=1", "'model.validate': unknown field"),
    ("model.window.x=1", "'model.window.x': unknown field"),
    ("seed.x=1", "'seed' is not a section"),
    ("nope.x=1", "'nope.x': unknown field"),
])
def test_bad_overrides_raise_config_error(override, match):
    with pytest.raises(ConfigError, match=match):
        apply_overrides(RunConfig(), [override])


def test_load_config_roundtrip_and_errors(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7, "sample": {"n": 10}}))
    cfg = load_config(path)
    assert (cfg.seed, cfg.sample.n) == (7, 10)
    assert config_from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
