"""botgrid: Android botnet detection from manifest permissions.

Applications are represented as permission co-occurrence images over a
frequency-ranked vocabulary and classified by a small convolutional
network trained from scratch.
"""

__version__ = "0.1.0"

from .apk import ApkArchive, open_apk
from .axml import is_axml, parse_axml
from .dataset import (
    KINDS,
    LABELS,
    ManifestRecord,
    extract_corpus,
    load_dataset_manifest,
    save_dataset_manifest,
)
from .encoder import CoOccurrenceImage, dump_pgm, encode, normalize, out_of_vocabulary
from .folds import FoldPlan, make_folds
from .manifest import (
    PermissionSet,
    extract_permissions,
    parse_manifest_bytes,
    parse_plain_manifest,
    read_permissions,
    sniff_kind,
)
from .metrics import ConfusionCounts, EvalMetrics, compute_metrics
from .synth import SynthSpec, generate_synthetic_corpus, signature_permissions
from .training import (
    CvResult,
    EpochStats,
    FoldResult,
    TrainConfig,
    build_fold_vocabulary,
    cross_validate,
    derive_seed,
    evaluate,
    predict,
    render_report,
    render_trace_csv,
    train,
)
from .vocabulary import PermissionVocabulary, load_vocabulary, save_vocabulary
