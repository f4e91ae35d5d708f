"""Span tracer that wraps seqlabel's public functions from outside.

Nothing under ``src/`` is edited: ``install`` replaces module and class
attributes at run time and ``Tracer.uninstall`` puts the originals back.
A module-level function is replaced in every ``seqlabel`` module that holds
it, so by-name imports (``harness``'s ``train_method``, ``base``'s
``normalize_log_scores``) are caught as well as the defining module.

A span is ``(name, start, end, parent id, run id)``.  Spans live in flat
arrays in memory and are written out once, by ``Tracer.save``, when the run
ends.  The run id groups the spans of one benchmark operation (a cell, a
CLI command, an online call).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# layer (module under seqlabel) -> wrapped public functions ("Class.method"
# for methods).  The per-layer metric names are "<layer>.<function>.*".
TARGETS: dict[str, tuple[str, ...]] = {
    "synth": ("synth_traveller",),
    "transform": ("window_transform",),
    "harness": ("materialize_dataset", "two_fold_cv"),
    "methods": ("train_method", "predict_method"),
    "methods.chains": ("chain_train", "ChainModel.predict", "ChainModel.step_dist",
                       "viterbi_table", "pcc_predict"),
    "methods.powerset": ("lp_train", "sicl_train", "PowersetModel.predict",
                         "SubsetsModel.predict"),
    "methods.trellis": ("ct_train", "mutual_information", "TrellisModel.predict"),
    "base": ("nb_train", "dt_train", "NaiveBayesModel.log_scores",
             "NaiveBayesModel.predict_dist", "DecisionTreeModel.predict_dist"),
    "core": ("normalize_log_scores", "Dataset.subset"),
    "metrics": ("evaluate_pairs", "levenshtein"),
    "rng": ("derive_rng", "digest_array"),
    "dataio": ("load_dataset", "save_model", "load_model", "predictions_to_csv"),
    "cli": ("main",),
}

# cli.main is reported per subcommand, under these span names.
CLI_SUBCOMMANDS = ("train", "predict", "evaluate")

# Span names whose arguments and return values are kept: the fold-0 model
# of each grid cell, and the derived per-layer metrics (tree sizes,
# labelsets, model bytes).
KEEP_RESULTS = frozenset({"methods.train_method", "base.dt_train", "methods.powerset.lp_train",
                          "methods.powerset.sicl_train", "dataio.save_model"})


def span_names() -> list[str]:
    """Every span name a full install can record, in report order."""
    names = []
    for layer, funcs in TARGETS.items():
        for f in funcs:
            if layer == "cli" and f == "main":
                names += [f"cli.{c}" for c in CLI_SUBCOMMANDS]
            else:
                names.append(f"{layer}.{f}")
    return names


class Tracer:
    """Records spans for the functions it wraps; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self._stack: list[int] = []
        self.kept: list[tuple[str, int, tuple, dict, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_run(self) -> None:
        """Start a new benchmark operation; later spans carry its run id."""
        self.run_id += 1

    def wrap(self, name: str, fn, name_of=None):
        """Return ``fn`` wrapped in a span.  ``name_of(args)`` may pick the
        span name per call (used for CLI subcommands)."""
        nid = self.name_id(name)
        keep = name in KEEP_RESULTS
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid if name_of is None else self.name_id(name_of(args, kwargs)))
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if keep:
                self.kept.append((name, sid, args, kwargs, result))
            return result

        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64))


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def _seqlabel_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "seqlabel" or n.startswith("seqlabel."))]


def install(tracer: Tracer, targets: dict[str, tuple[str, ...]] = TARGETS) -> list[str]:
    """Wrap every target; return the names that no longer exist (absent).

    An absent module, class or function is reported, not raised, so a later
    refactor that deletes one does not stop the benchmark.
    """
    absent = []
    for layer, funcs in targets.items():
        try:
            module = importlib.import_module(f"seqlabel.{layer}")
        except ImportError:
            absent += [f"{layer}.{f}" for f in funcs]
            continue
        modules = _seqlabel_modules()
        for qual in funcs:
            name = f"{layer}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if not callable(original):
                    absent.append(name)
                    continue
                tracer._restore.append((cls, meth, original))
                setattr(cls, meth, tracer.wrap(name, original))
                continue
            original = getattr(module, qual, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapped = tracer.wrap(name, original,
                                  _cli_span_name if layer == "cli" and qual == "main" else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        tracer._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
    return absent


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that the union of its child spans covers."""
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def under(name_ids, parent, ancestor_ids: set[int]) -> list[bool]:
    """Whether each span has an ancestor whose name id is in ``ancestor_ids``.
    Relies on a parent's id being lower than its children's."""
    flags = [False] * len(parent)
    for i in range(len(parent)):
        p = parent[i]
        if p >= 0 and (name_ids[p] in ancestor_ids or flags[p]):
            flags[i] = True
    return flags
