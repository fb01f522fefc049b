"""Experiment configuration: a validated, JSON-backed description of a run.

Flags override config fields; the original config file is echoed verbatim
into the output directory and the resolved form is written alongside it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .trainer import TrainSettings

TASKS = (
    "train-base",
    "train-lhts",
    "train-diffusion",
    "sample",
    "eval-oracle",
    "sweep",
    "demo-figure1",
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _require(cond: bool, fieldname: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"config field '{fieldname}': {message}")


# the scalar field annotations used below; float fields also take ints
_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool, "list": list,
          "None": type(None)}


def _check_types(obj, prefix: str) -> None:
    """Every scalar field holds a value of its annotated type (bool is not
    an int here)."""
    for f in fields(obj):
        names = [t.strip() for t in f.type.split("|")]
        if not all(n in _TYPES for n in names):
            continue
        value = getattr(obj, f.name)
        ok = any(isinstance(value, _TYPES[n]) for n in names)
        if isinstance(value, bool) and "bool" not in names:
            ok = False
        _require(ok, prefix + f.name,
                 f"expected {f.type}, got {type(value).__name__} {value!r}")


@dataclass
class ModelConfig:
    parameterization: str = "tabular"        # tabular | linear
    vocab_size: int = 4
    length: int = 4
    window: int = 3
    temp_embedding: bool = False
    embedding_width: int = 4

    def validate(self) -> None:
        _require(self.parameterization in ("tabular", "linear"), "model.parameterization",
                 f"must be 'tabular' or 'linear', got {self.parameterization!r}")
        _require(self.vocab_size >= 2, "model.vocab_size", "must be >= 2")
        _require(self.length >= 1, "model.length", "must be >= 1")
        _require(self.window >= 0, "model.window", "must be >= 0")
        _require(self.embedding_width >= 1, "model.embedding_width", "must be >= 1")
        if self.temp_embedding:
            _require(self.parameterization == "linear", "model.temp_embedding",
                     "temperature conditioning needs the linear parameterization")


@dataclass
class DataConfig:
    kind: str = "skewed"                     # skewed | file | exact
    path: str | None = None
    n_sequences: int = 4096
    logit_scale: float = 1.5

    def validate(self) -> None:
        _require(self.kind in ("skewed", "file", "exact"), "data.kind",
                 f"must be one of skewed|file|exact, got {self.kind!r}")
        if self.kind == "file":
            _require(bool(self.path), "data.path", "required when data.kind is 'file'")
        _require(self.n_sequences >= 1, "data.n_sequences", "must be >= 1")
        _require(self.logit_scale > 0, "data.logit_scale", "must be positive")


@dataclass
class TrainConfig:
    steps: int = 2000
    base_steps: int = 1500
    learning_rate: float = 1.0
    grad_clip: float | None = None
    temperatures: list = field(default_factory=lambda: [0.5])
    horizon: int | None = None
    clip: float | None = None
    kl_beta: float = 0.0
    batch_size: int | None = None
    eval_every: int | None = 100

    def validate(self) -> None:
        try:
            self.settings()
        except Exception as err:
            raise ConfigError(f"config field 'train': {err}") from err
        _require(self.base_steps >= 0, "train.base_steps", "must be >= 0")

    def settings(self, steps: int | None = None) -> TrainSettings:
        return TrainSettings(
            steps=self.steps if steps is None else steps,
            learning_rate=self.learning_rate,
            grad_clip=self.grad_clip,
            temperatures=tuple(self.temperatures),
            horizon=self.horizon,
            clip=self.clip,
            kl_beta=self.kl_beta,
            batch_size=self.batch_size,
            eval_every=self.eval_every,
        )


@dataclass
class SampleConfig:
    n: int = 4096
    myopic_t: float = 1.0
    t_cond: float | None = None

    def validate(self) -> None:
        _require(self.n >= 1, "sample.n", "must be >= 1")
        _require(self.myopic_t >= 0, "sample.myopic_t", "must be >= 0")


@dataclass
class SweepConfig:
    long_horizon_ts: list = field(default_factory=lambda: [0.8, 1.0])
    myopic_ts: list = field(default_factory=lambda: [0.5, 1.0])
    n_samples: int = 2048

    def validate(self) -> None:
        _require(len(self.long_horizon_ts) >= 1, "sweep.long_horizon_ts", "must be non-empty")
        _require(len(self.myopic_ts) >= 1, "sweep.myopic_ts", "must be non-empty")
        _require(all(t > 0 for t in self.long_horizon_ts), "sweep.long_horizon_ts",
                 "temperatures must be positive")
        _require(all(t >= 0 for t in self.myopic_ts), "sweep.myopic_ts",
                 "temperatures must be >= 0")
        _require(self.n_samples >= 1, "sweep.n_samples", "must be >= 1")


@dataclass
class DiffusionConfig:
    dim: int = 2
    hidden: int = 64
    noise_steps: int = 50
    beta_start: float = 1e-3
    beta_end: float = 0.25
    mixture_means: list = field(default_factory=lambda: [[-1.0, 0.0], [1.0, 0.0]])
    mixture_stds: list = field(default_factory=lambda: [0.25, 0.25])
    mixture_weights: list = field(default_factory=lambda: [0.7, 0.3])
    n_points: int = 16384
    temperature: float = 0.5
    clip: float | None = None
    n_mc: int = 32
    base_steps: int = 20000
    finetune_steps: int = 10000
    batch_size: int = 256
    learning_rate: float = 2e-3
    n_samples: int = 10000
    pseudo_temperature: float = 1.0

    def validate(self) -> None:
        _require(self.dim >= 1, "diffusion.dim", "must be >= 1")
        _require(self.hidden >= 1, "diffusion.hidden", "must be >= 1")
        _require(self.noise_steps >= 1, "diffusion.noise_steps", "must be >= 1")
        _require(0 < self.beta_start < 1, "diffusion.beta_start", "must lie in (0, 1)")
        _require(0 < self.beta_end < 1, "diffusion.beta_end", "must lie in (0, 1)")
        _require(len(self.mixture_means) == len(self.mixture_stds) == len(self.mixture_weights),
                 "diffusion.mixture_means", "means/stds/weights must have equal length")
        _require(abs(sum(self.mixture_weights) - 1.0) < 1e-9, "diffusion.mixture_weights",
                 "must sum to 1")
        _require(self.temperature > 0, "diffusion.temperature", "must be positive")
        _require(0 < self.pseudo_temperature <= 1.0, "diffusion.pseudo_temperature",
                 "must lie in (0, 1]")
        _require(self.n_mc >= 1, "diffusion.n_mc", "must be >= 1")
        for name in ("n_points", "base_steps", "finetune_steps", "batch_size", "n_samples"):
            _require(getattr(self, name) >= 1, f"diffusion.{name}", "must be >= 1")
        _require(self.learning_rate > 0, "diffusion.learning_rate", "must be positive")


@dataclass
class RunConfig:
    task: str | None = None
    seed: int = 0
    out_dir: str = "out"
    checkpoint: str | None = None            # base model to finetune from
    model_checkpoint: str | None = None      # trained model to sample/evaluate
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sample: SampleConfig = field(default_factory=SampleConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)

    def validate(self) -> None:
        _check_types(self, "")
        if self.task is not None:
            _require(self.task in TASKS, "task", f"must be one of {', '.join(TASKS)}")
        _require(bool(self.out_dir), "out_dir", "must be a non-empty path")
        for name, kind in _SECTIONS.items():
            section = getattr(self, name)
            _require(isinstance(section, kind), name, f"must be a {kind.__name__}")
            _check_types(section, name + ".")
            try:
                section.validate()
            except ConfigError:
                raise
            except (TypeError, ValueError) as err:
                # e.g. a list entry of the wrong type
                raise ConfigError(f"config field '{name}': {err}") from err

    def to_dict(self) -> dict:
        return asdict(self)


_SECTIONS = {
    "model": ModelConfig,
    "data": DataConfig,
    "train": TrainConfig,
    "sample": SampleConfig,
    "sweep": SweepConfig,
    "diffusion": DiffusionConfig,
}


def _field_names(obj) -> set[str]:
    return {f.name for f in fields(obj)}


def _set_field(cfg: RunConfig, key: str, value) -> None:
    """Set one field by its dotted path; a whole section takes an object of
    its fields."""
    head, _, rest = key.partition(".")
    if head not in _field_names(cfg):
        raise ConfigError(f"config field '{key}': unknown field")
    if head not in _SECTIONS:
        if rest:
            raise ConfigError(f"config field '{key}': '{head}' is not a section")
        setattr(cfg, head, value)
        return
    if rest:
        value = {rest: value}
    elif not isinstance(value, dict):
        raise ConfigError(f"config field '{head}': must be an object")
    section = getattr(cfg, head)
    for k, v in value.items():
        if k not in _field_names(section):
            raise ConfigError(f"config field '{head}.{k}': unknown field")
        setattr(section, k, v)


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    cfg = RunConfig()
    for key, value in doc.items():
        if "." in key:
            raise ConfigError(f"config field '{key}': unknown field")
        _set_field(cfg, key, value)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}")
    return config_from_dict(doc)


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply key=value pairs with dotted paths; values parse as JSON, with a
    bare-string fallback."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_field(cfg, key, value)
    return cfg
