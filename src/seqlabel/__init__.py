"""seqlabel: multi-label problem-transformation methods as sequence predictors.

Turns (emission, state) streams into fixed-width multi-label block datasets
and solves them with two model families over simple probabilistic base
classifiers: chains of per-step classifiers wired to earlier labels (ic,
memm, cc, classifier trellis - including exact Viterbi decoding of
first-order chains) and labelset models (lp, RAkELd, chained labelsets of
increasing size).
"""

__version__ = "0.1.0"

from .core import (BaseModel, Dataset, Feature, LabelSchema, MultiLabelModel,
                   validate_dataset)
from .base import dt_train, nb_train, train_base
from .metrics import (EvalReport, evaluate_pairs, hamming_loss, levenshtein,
                      levenshtein_norm, per_horizon_error, zero_one_loss)
from .methods import (ChainModel, SubsetsModel, ViterbiTable, cc_train,
                      ct_train, ic_train, lp_train, memm_train,
                      mutual_information, pcc_predict, rakeld_train,
                      sicl_train, train_method, vcc_predict, viterbi_table)
from .transform import NodeMap, Sequence, snap_sequence, window_transform
from .harness import (DatasetSpec, ExperimentSpec, MethodSpec, ResultsTable,
                      rank_row, run_experiment, two_fold_cv)
from .synth import SynthTravellerConfig, synth_traveller

__all__ = [
    "__version__",
    "BaseModel", "Dataset", "Feature", "LabelSchema", "MultiLabelModel",
    "validate_dataset",
    "nb_train", "dt_train", "train_base",
    "EvalReport", "evaluate_pairs", "hamming_loss", "zero_one_loss",
    "levenshtein", "levenshtein_norm", "per_horizon_error",
    "ChainModel", "SubsetsModel", "ViterbiTable",
    "ic_train", "cc_train", "memm_train", "lp_train", "rakeld_train", "ct_train",
    "sicl_train", "vcc_predict", "pcc_predict", "viterbi_table",
    "mutual_information", "train_method",
    "NodeMap", "Sequence", "snap_sequence", "window_transform",
    "DatasetSpec", "ExperimentSpec", "MethodSpec", "ResultsTable",
    "rank_row", "run_experiment", "two_fold_cv",
    "SynthTravellerConfig", "synth_traveller",
]
