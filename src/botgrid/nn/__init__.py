"""From-scratch CNN engine: layers, loss, optimizer, model container."""

from .loss import bce_loss
from .model import LayerSpec, build_model, build_reference_model
from .optim import Adam

__all__ = ["Adam", "LayerSpec", "bce_loss", "build_model", "build_reference_model"]
