"""seqlabel: multi-label problem-transformation methods as sequence predictors.

Turns (emission, state) streams into fixed-width multi-label block datasets
and solves them with one model class over simple probabilistic base
classifiers: chains of per-step classifiers wired to earlier steps.  A step
predicts one label (ic, memm, cc and the classifier trellis ct, with exact
Viterbi decoding of first-order chains) or one labelset of a block of
positions (lp, RAkELd, chained labelsets of increasing size).
"""

__version__ = "0.1.0"

from .core import (BaseModel, Dataset, Feature, LabelSchema, MultiLabelModel,
                   validate_dataset)
from .base import dt_train, nb_train, train_base
from .metrics import (EvalReport, evaluate, evaluate_pairs, hamming_loss, levenshtein,
                      levenshtein_norm, per_horizon_error, zero_one_loss)
from .methods import (ChainModel, ViterbiTable, cc_train,
                      ct_train, ic_train, lp_train, memm_train,
                      mutual_information, pcc_predict, rakeld_train,
                      sicl_train, train_method, vcc_predict, viterbi_table)
from .transform import Sequence, window_transform
from .harness import (DatasetSpec, ExperimentSpec, MethodSpec, ResultsTable,
                      rank_row, run_experiment, two_fold_cv)
from .synth import SynthTravellerConfig, synth_traveller

__all__ = [
    "__version__",
    "BaseModel", "Dataset", "Feature", "LabelSchema", "MultiLabelModel",
    "validate_dataset",
    "nb_train", "dt_train", "train_base",
    "EvalReport", "evaluate", "evaluate_pairs", "hamming_loss", "zero_one_loss",
    "levenshtein", "levenshtein_norm", "per_horizon_error",
    "ChainModel", "ViterbiTable",
    "ic_train", "cc_train", "memm_train", "lp_train", "rakeld_train", "ct_train",
    "sicl_train", "vcc_predict", "pcc_predict", "viterbi_table",
    "mutual_information", "train_method",
    "Sequence", "window_transform",
    "DatasetSpec", "ExperimentSpec", "MethodSpec", "ResultsTable",
    "rank_row", "run_experiment", "two_fold_cv",
    "SynthTravellerConfig", "synth_traveller",
]
