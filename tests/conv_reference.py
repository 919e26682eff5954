"""The reference a conv that computes only its read extent is held to."""

from botgrid.nn.layers import Conv2D


def computing_every_output(model):
    """The model with every conv computing its whole output."""
    for layer in model.layers:
        if isinstance(layer, Conv2D):
            layer.extent = None
    return model
