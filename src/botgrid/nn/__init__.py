"""From-scratch CNN engine: layers, loss, optimizer, model container."""

from .layers import Conv2D, Dense, MaxPool2D, Softmax
from .loss import CLAMP_EPS, LossValue, bce_loss
from .model import (
    REFERENCE_LAYERS,
    CnnModel,
    LayerSpec,
    build_model,
    build_reference_model,
    load_model,
    save_model,
)
from .optim import Adam

__all__ = [
    "Adam",
    "CLAMP_EPS",
    "CnnModel",
    "Conv2D",
    "Dense",
    "LayerSpec",
    "LossValue",
    "MaxPool2D",
    "REFERENCE_LAYERS",
    "Softmax",
    "bce_loss",
    "build_model",
    "build_reference_model",
    "load_model",
    "save_model",
]
