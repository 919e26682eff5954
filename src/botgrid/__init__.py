"""botgrid: Android botnet detection from manifest permissions.

Applications are represented as permission co-occurrence images over a
frequency-ranked vocabulary and classified by a small convolutional
network trained from scratch.
"""

__version__ = "0.1.0"

# Nothing is re-exported.  This import keeps `import botgrid` loading the
# whole pipeline, which perfbench's import probe times; it goes once that
# probe (ROADMAP item 1) times `import botgrid.cli` instead.
from . import synth, training  # noqa: F401
