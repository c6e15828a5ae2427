"""Neural automated essay scoring on ASAP-format data.

Multichannel 1D convolution over word embeddings, temporal max-pooling,
bidirectional gated recurrent units, and a sigmoid regression head, trained
with mean squared error and RMSProp, evaluated by quadratic weighted kappa.
"""

from .artifact import ModelArtifact, load_model, save_model
from .config import TrainConfig
from .corpus import (
    DEFAULT_RANGES,
    ENCODINGS,
    PAD_INDEX,
    PAD_TOKEN,
    UNK_INDEX,
    UNK_TOKEN,
    Essay,
    EssaySet,
    ScoreRange,
    Vocabulary,
    build_vocabulary,
    default_range,
    denormalize_score,
    load_dataset,
    load_unscored,
    normalize_score,
    tokenize,
)
from .embedding import (
    EmbeddingMatrix,
    EmbeddingTable,
    build_embedding_matrix,
    embed,
    load_embeddings,
)
from .errors import (
    DelaesError,
    DomainError,
    EncodingError,
    FormatError,
    NumericError,
    ScoreRangeError,
    UsageError,
)
from .harness import CvReport, FoldPlan, plan_folds, report_to_csv, report_to_json, run_cv
from .metrics import expected_matrix, observed_matrix, qwk, read_predictions, weight_matrix
from .network import (
    ModelParameters,
    bigru_forward,
    conv1d_forward,
    expected_shapes,
    forward,
    forward_batch,
    gru_step,
    init_parameters,
    make_drop_mask,
    maxpool,
)
from .training import (
    Batch,
    EpochRecord,
    backward,
    denormalize_predictions,
    evaluate_qwk,
    history_to_csv,
    make_batches,
    mse_loss,
    predict_normalized,
    rmsprop_step,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
