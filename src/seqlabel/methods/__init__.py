"""Problem-transformation predictors and the method registry.

Two model classes cover every method key.  A ``ChainModel`` holds one base
classifier per label step, each conditioned on x and the labels at a chosen
tuple of earlier positions (its parents).  A ``SubsetsModel`` partitions the
positions into labelsets and solves each as one multi-class problem.

======  ============  ====================================  ========================
key     model         wiring                                inference
======  ============  ====================================  ========================
ic      ChainModel    no parents                            per-position argmax
cc      ChainModel    all earlier steps                     greedy
pcc     ChainModel    same chain as cc                      Monte-Carlo path search
memm    ChainModel    the previous step                     greedy
vcc     ChainModel    same chain as memm                    exact Viterbi decoding
ct      ChainModel    top-ell earlier steps by mutual info  greedy
lp      SubsetsModel  one subset of all positions           meta-class argmax
rakeld  SubsetsModel  disjoint k-labelsets (random/chunks)  per-subset argmax
sicl    SubsetsModel  increasingly-sized sets, chained      per-subset, chained
======  ============  ====================================  ========================

Inference is batch: ``predict_many`` maps (N, D) features to (N, T) labels
through ``model.predict_many`` (vcc and pcc decode one instance at a time).
For the greedy keys, ``predict_method`` on one instance is ``model.predict``,
a batch of one.
"""

from __future__ import annotations

import numpy as np

from ..core import Dataset, LabelVector
from .chains import (ChainModel, ViterbiTable, cc_train, chain_train, ic_train,
                     memm_train, pcc_predict, vcc_predict, viterbi_table)
from .powerset import (SubsetModel, SubsetsModel, lp_train, rakeld_train, sicl_sizes,
                       sicl_train)
from .trellis import ct_train, mutual_information
from ..rng import derive_rng

METHOD_NAMES = ("ic", "cc", "memm", "vcc", "rakeld", "pcc", "ct", "sicl", "lp")

DEFAULT_PARAMS = {"k": 3, "ell": 2, "samples": 100, "alpha": 3}

# rows per model.predict_many call: bounds the (rows x classes) temporaries,
# which lp with thousands of labelsets would otherwise make fold-sized
CHUNK_ROWS = 256


def model_family(method: str) -> type:
    """The model class a method key trains and decodes."""
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r} (expected one of {METHOD_NAMES})")
    return SubsetsModel if method in ("lp", "rakeld", "sicl") else ChainModel


def train_method(method: str, d: Dataset, base: str = "nb", seed: int = 0,
                 params: dict | None = None):
    """Train the model behind a method key.

    ``params`` may carry k, alpha, ell, samples, prune, order ("time" or
    "random"), sequential, and base-learner options; missing entries fall
    back to the defaults above.
    """
    model_family(method)  # rejects an unknown key
    p = dict(DEFAULT_PARAMS)
    p.update(params or {})
    base_params = p.get("base_params")
    T = d.schema.T

    def chain_order():
        if p.get("order", "time") == "random":
            return tuple(int(i) for i in derive_rng(seed, "chain-order").permutation(T))
        return None

    if method == "ic":
        return ic_train(d, base, base_params=base_params)
    if method in ("cc", "pcc"):
        return cc_train(d, base, order=chain_order(), base_params=base_params)
    if method in ("memm", "vcc"):
        return memm_train(d, base, base_params=base_params)
    if method == "lp":
        return lp_train(d, base, prune_n=p.get("prune"), base_params=base_params)
    if method == "rakeld":
        return rakeld_train(d, base, k=p["k"], seed=seed,
                            sequential=bool(p.get("sequential", False)),
                            base_params=base_params)
    if method == "ct":
        return ct_train(d, base, ell=p["ell"], order_strategy=p.get("order", "time"),
                        seed=seed, base_params=base_params)
    return sicl_train(d, base, alpha=p["alpha"], base_params=base_params)


def predict_method(method: str, model, x, seed: int = 0,
                   params: dict | None = None) -> LabelVector:
    """Run a method's inference rule on one instance."""
    if method == "vcc":
        return vcc_predict(model, x)[0]
    if method == "pcc":
        return pcc_predict(model, x, M={**DEFAULT_PARAMS, **(params or {})}["samples"],
                           seed=seed)
    return model.predict(x)


def predict_many(method: str, model, X, seed: int = 0,
                 params: dict | None = None) -> np.ndarray:
    """(N, T) predictions of a method's inference rule, row i for ``X[i]``."""
    model_family(method)
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((len(X), model.schema.T), dtype=np.int64)
    if method in ("vcc", "pcc"):
        for i, x in enumerate(X):
            out[i] = predict_method(method, model, x, seed, params)
    else:
        for i in range(0, len(X), CHUNK_ROWS):
            out[i:i + CHUNK_ROWS] = model.predict_many(X[i:i + CHUNK_ROWS])
    return out


_MODEL_KINDS = {"chain": ChainModel, "subsets": SubsetsModel}


def model_from_dict(d: dict):
    kind = d.get("kind")
    if kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _MODEL_KINDS[kind].from_dict(d)


__all__ = [
    "METHOD_NAMES", "DEFAULT_PARAMS", "CHUNK_ROWS",
    "ChainModel", "ViterbiTable", "SubsetModel", "SubsetsModel",
    "chain_train", "ic_train", "cc_train", "memm_train", "lp_train", "rakeld_train",
    "sicl_train", "sicl_sizes", "ct_train",
    "vcc_predict", "pcc_predict", "viterbi_table", "mutual_information",
    "train_method", "predict_method", "predict_many", "model_family", "model_from_dict",
]
