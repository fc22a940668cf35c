"""Run configuration: a flat key=value file with CLI-flag overrides.

Values are coerced by the type of the field's default; unknown keys are
rejected so typos fail loudly. Flags win over file values, which win over
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass

from .errors import InvalidInputError
from .losses import LossWeights
from .model import ModelDims

PRETRAIN_EPOCHS_DEFAULT = 80
FINETUNE_EPOCHS_DEFAULT = 30
LOSS_PREFIX = "loss_"


@dataclass
class _RunSettings:
    """The fields of a run that belong to neither ModelDims nor LossWeights,
    and the checks and views of the whole RunConfig."""

    dataset: str = ""
    out_dir: str = "run"
    seed: int = 0
    epochs: int = PRETRAIN_EPOCHS_DEFAULT
    lr: float = 5e-4
    lr_integrator: float = 1e-4     # finetune: newly trained module
    lr_pretrained: float = 1e-5     # finetune: everything else
    batch_size: int = 64
    chunk_len: int = 81

    def __post_init__(self) -> None:
        if self.epochs < 0 or self.batch_size < 1 or self.chunk_len < 2:
            raise InvalidInputError("epochs must be >= 0, batch >= 1, chunk >= 2")
        if min(self.lr, self.lr_integrator, self.lr_pretrained) <= 0:
            raise InvalidInputError("learning rates must be positive")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed}")
        self.model_dims()   # ModelDims checks the sizes

    def model_dims(self) -> ModelDims:
        return ModelDims(**{f.name: getattr(self, f.name) for f in fields(ModelDims)})

    def loss_weights(self) -> LossWeights:
        return LossWeights(**{f.name: getattr(self, LOSS_PREFIX + f.name)
                              for f in fields(LossWeights)})


def _copied_fields(cls, prefix: str = "") -> list[tuple]:
    return [(prefix + f.name, f.type, field(default=f.default)) for f in fields(cls)]


# The run settings, the ModelDims fields under their own names, and the
# LossWeights fields prefixed "loss_", each with its dataclass's default.
RunConfig = make_dataclass(
    "RunConfig", _copied_fields(ModelDims) + _copied_fields(LossWeights, LOSS_PREFIX),
    bases=(_RunSettings,), namespace={"__module__": __name__})


def _coerce(name: str, default, raw: str):
    """raw parsed as the type of default; a tuple default takes a
    comma-separated list of the type of its first element."""
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(item.strip()) for item in raw.split(","))
        return type(default)(raw.strip())
    except ValueError as exc:
        raise InvalidInputError(f"config key {name}: cannot parse {raw!r}") from exc


def load_config(path: str | None = None, overrides: dict | None = None,
                cls=RunConfig, defaults: dict | None = None):
    """An instance of the dataclass cls built from, lowest precedence first:
    its field defaults, defaults, an optional key=value file, and overrides.
    String values are parsed by _coerce."""
    known = {f.name: f.default for f in fields(cls)}
    values = dict(defaults or {})

    def put(key: str, raw, where: str) -> None:
        if key not in known:
            raise InvalidInputError(f"{where}unknown config key {key!r}")
        values[key] = _coerce(key, known[key], raw) if isinstance(raw, str) else raw

    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise InvalidInputError(f"{path}: not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in line.split("=", 1))
            put(key, raw, f"{path}:{lineno}: ")
    for key, raw in (overrides or {}).items():
        put(key, raw, "")
    return cls(**values)
