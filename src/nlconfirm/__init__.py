"""Detection of non-lexical confirmations ("mhm"-style backchannels) in speech.

Frame-level acoustic features (MFCC, formant and pitch families, with
derivative and 15-frame stacked variants) feed a normalizer, an optional
retained-variance PCA and an RBF-SVM. Classification runs offline over
annotated segments or online over a frame stream with a 5-frame rolling
majority vote. See the CLI (`nlconfirm --help`) for the end-to-end tools.
"""

from .corpus import (
    FRAME_LEN,
    HOP_LEN,
    SAMPLE_RATE,
    AudioBuffer,
    AudioSegment,
    Frame,
    Label,
    SegmentDescriptor,
    VadConfig,
    frame_stream,
    load_segments,
    load_wav,
    parse_manifest,
    split_corpus,
    vad_segments,
    write_manifest,
    write_wav,
)
from .featset import (
    FeatureKind,
    FeatureSetConfig,
    FeatureVector,
    StreamingExtractor,
    extract,
    feature_matrix,
)
from .learn import (
    DEFAULT_GRID,
    DEFAULT_SVM_PARAMS,
    ModelBundle,
    NormalizerStats,
    PcaTransform,
    SvmHyperParams,
    SvmModel,
    fit_normalizer,
    fit_pca,
    grid_search,
    load_model,
    save_model,
    save_model_json,
)
from .pipeline import (
    OnlineClassifier,
    SegmentDecision,
    TriggerEvent,
    classify_offline,
    classify_segment,
)
from .evaluate import (
    ConfusionCounts,
    CvReport,
    EvalReport,
    RocCurve,
    roc_auc,
    segment_metrics,
)

__version__ = "0.1.0"
