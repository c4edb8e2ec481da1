"""Competing-risk models behind one CIF contract."""

from ..errors import DataError
from ..gradcore.checkpoint import load_model_files
from .base import BaseConfig, CifModel, TrainHistory
from .deephit import DeepHitConfig, DeepHitModel
from .dsm import DsmConfig, DsmModel
from .nfg import NfgConfig, NfgModel

MODEL_KINDS = {m.kind: (m, m.config_class) for m in (DsmModel, NfgModel, DeepHitModel)}


def build_model(kind: str, **config_fields) -> CifModel:
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; choose from {sorted(MODEL_KINDS)}")
    model_cls, config_cls = MODEL_KINDS[kind]
    return model_cls(config_cls(**config_fields))


def load_model(path) -> CifModel:
    """Load any model checkpoint; the JSON sidecar names the kind."""
    def build(sidecar: dict) -> CifModel:
        kind = sidecar.get("kind")
        if kind not in MODEL_KINDS:
            raise DataError(f"{path}: unknown model kind {kind!r} in checkpoint sidecar")
        return MODEL_KINDS[kind][0]._from_sidecar(sidecar)

    return load_model_files(path, build)


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
