"""botgrid: Android botnet detection from manifest permissions.

Applications are represented as permission co-occurrence images over a
frequency-ranked vocabulary and classified by a small convolutional
network trained from scratch.
"""

import os as _os

__version__ = "0.1.0"

# One BLAS thread unless the environment sets another count.  The engine's
# GEMMs are small enough that BLAS's own threads cost more than they save,
# and with one thread a seed gives the same bytes on any CPU count.  BLAS
# reads these when numpy is first imported, so that must come after this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

# Nothing is re-exported.  This import keeps `import botgrid` loading the
# whole pipeline, which perfbench's import probe times; it goes once that
# probe times `import botgrid.cli` instead (ROADMAP item 9).
from . import synth, training  # noqa: E402, F401
