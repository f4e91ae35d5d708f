"""Problem-transformation predictors and the method registry.

One model class covers every method key.  A ``ChainModel`` holds one base
classifier per chain step, each conditioned on x and the meta-classes of
the steps that predict a chosen tuple of earlier positions (its parents).
A plain step predicts one position's label; a labelset step predicts one
meta-class of a block of positions, which its table maps to their values.

======  ==============  ====================================  ========================
key     steps           wiring                                inference
======  ==============  ====================================  ========================
ic      plain           no parents                            per-position argmax
cc      plain           all earlier steps                     greedy
pcc     plain           same chain as cc                      Monte-Carlo path search
memm    plain           the previous step                     greedy
vcc     plain           same chain as memm                    exact Viterbi decoding
ct      plain           top-ell earlier steps by mutual info  greedy
lp      one labelset    no parents                            meta-class argmax
rakeld  k-labelsets     no parents (random/time blocks)       per-step argmax
sicl    growing blocks  all earlier steps                     greedy
======  ==============  ====================================  ========================

Method parameters are declared once, in ``PARAM_TYPES`` (name -> type) and
``DEFAULT_PARAMS``; the CLI flags, the ``[method]`` keys of a spec file and
a model file's ``params`` are these names.  k (3) is rakeld's labelset size,
ell (2) ct's parents per step, samples (100) pcc's sample count and alpha (3)
sicl's size step; order ("time" or a seeded "random") orders cc, pcc and ct;
prune (unset) keeps lp's most frequent labelsets; sequential (False) cuts
rakeld's labelsets in time order.

Inference is batch: ``predict_many`` maps (N, D) features to (N, T) labels
and holds the only per-key decoding branch.  ``predict_method`` on one
instance is a batch of one.
"""

from __future__ import annotations

import numpy as np

from ..core import Dataset, LabelVector
from .chains import (CHAIN_ORDERS, ChainModel, LabelsetTable, ViterbiTable, cc_train,
                     chain_order, chain_train, ct_train, ic_train, memm_train,
                     mutual_information, pcc_predict, vcc_predict, viterbi_table)
from .powerset import lp_train, rakeld_train, sicl_sizes, sicl_train

METHOD_NAMES = ("ic", "cc", "memm", "vcc", "rakeld", "pcc", "ct", "sicl", "lp")
LABELSET_METHODS = ("lp", "rakeld", "sicl")  # the keys whose chains have labelset steps

PARAM_TYPES = {"k": int, "ell": int, "samples": int, "alpha": int, "order": str,
               "prune": int, "sequential": bool}
DEFAULT_PARAMS = {"k": 3, "ell": 2, "samples": 100, "alpha": 3, "order": "time"}


def check_method(method: str, model: ChainModel | None = None) -> None:
    """Reject a method key outside ``METHOD_NAMES`` and, given a model, a
    key that does not decode its steps: the keys of ``LABELSET_METHODS``
    decode chains with labelset steps, the others chains of plain steps."""
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r} (expected one of {METHOD_NAMES})")
    if model is not None:
        labelsets = any(t is not None for t in model.tables)
        if labelsets != (method in LABELSET_METHODS):
            raise ValueError(f"method {method!r} does not decode a chain of "
                             f"{'labelset' if labelsets else 'plain'} steps")


def resolve_params(params: dict | None) -> dict:
    """``DEFAULT_PARAMS`` updated by ``params``, whose keys must be names of
    ``PARAM_TYPES`` with values of exactly the declared type."""
    for key, value in (params or {}).items():
        kind = PARAM_TYPES.get(key)
        if kind is None:
            raise ValueError(f"unknown method parameter {key!r}, not one of {list(PARAM_TYPES)}")
        if type(value) is not kind:
            raise ValueError(f"method parameter {key!r} must be {kind.__name__}, not {value!r}")
    return {**DEFAULT_PARAMS, **(params or {})}


def train_method(method: str, d: Dataset, base: str = "nb", seed: int = 0,
                 params: dict | None = None):
    """Train the model behind a method key.

    ``params`` maps names of ``PARAM_TYPES`` to values of their type (see
    the module docstring); a missing entry takes its default, an unknown or
    mistyped one is a ValueError.  A random ``order`` is drawn from the
    ``chain-order`` stream for cc and pcc, and from ``ct-order`` for ct.
    """
    check_method(method)
    p = resolve_params(params)
    if method == "ic":
        return ic_train(d, base)
    if method in ("cc", "pcc"):
        return cc_train(d, base, order=chain_order(p["order"], d.schema.T, seed,
                                                   "chain-order"))
    if method in ("memm", "vcc"):
        return memm_train(d, base)
    if method == "lp":
        return lp_train(d, base, prune_n=p.get("prune"))
    if method == "rakeld":
        return rakeld_train(d, base, k=p["k"], seed=seed,
                            sequential=p.get("sequential", False))
    if method == "ct":
        return ct_train(d, base, ell=p["ell"], order_strategy=p["order"], seed=seed)
    return sicl_train(d, base, alpha=p["alpha"])


def predict_many(method: str, model, X, seed: int = 0,
                 params: dict | None = None) -> np.ndarray:
    """(N, T) predictions of a method's inference rule, row i for ``X[i]``."""
    check_method(method)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:  # the search decoders read one row as one instance
        raise ValueError(f"features of shape {X.shape} are not an (N, D) matrix")
    if method == "vcc":
        return vcc_predict(model, X)[0]
    if method == "pcc":
        return pcc_predict(model, X, resolve_params(params)["samples"], seed)
    return model.predict_many(X)


def predict_method(method: str, model, x, seed: int = 0,
                   params: dict | None = None) -> LabelVector:
    """A method's inference rule on one instance: ``predict_many`` of one row."""
    X = np.asarray(x, dtype=np.float64)[None]
    return tuple(predict_many(method, model, X, seed, params)[0].tolist())


__all__ = [
    "METHOD_NAMES", "LABELSET_METHODS", "PARAM_TYPES", "DEFAULT_PARAMS", "CHAIN_ORDERS",
    "ChainModel", "LabelsetTable", "ViterbiTable",
    "chain_train", "ic_train", "cc_train", "memm_train", "lp_train", "rakeld_train",
    "sicl_train", "sicl_sizes", "ct_train", "chain_order",
    "vcc_predict", "pcc_predict", "viterbi_table", "mutual_information",
    "train_method", "resolve_params", "predict_method", "predict_many", "check_method",
]
