"""Competing-risk models behind one CIF contract."""

from ..errors import DataError
from ..gradcore.checkpoint import read_sidecar
from .base import BaseConfig, CifModel, TrainHistory
from .deephit import DeepHitConfig, DeepHitModel
from .dsm import DsmConfig, DsmModel
from .nfg import NfgConfig, NfgModel

MODEL_KINDS = {
    "dsm": (DsmModel, DsmConfig),
    "nfg": (NfgModel, NfgConfig),
    "deephit": (DeepHitModel, DeepHitConfig),
}


def build_model(kind: str, **config_fields) -> CifModel:
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; choose from {sorted(MODEL_KINDS)}")
    model_cls, config_cls = MODEL_KINDS[kind]
    return model_cls(config_cls(**config_fields))


def load_model(path) -> CifModel:
    """Load any model checkpoint; the JSON sidecar names the kind."""
    kind = read_sidecar(path).get("kind")
    if kind not in MODEL_KINDS:
        raise DataError(f"{path}: unknown model kind {kind!r} in checkpoint sidecar")
    return MODEL_KINDS[kind][0].load(path)


__all__ = [
    "BaseConfig",
    "CifModel",
    "DeepHitConfig",
    "DeepHitModel",
    "DsmConfig",
    "DsmModel",
    "MODEL_KINDS",
    "NfgConfig",
    "NfgModel",
    "TrainHistory",
    "build_model",
    "load_model",
]
