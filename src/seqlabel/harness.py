"""Experiment protocol: randomized two-fold cross-validation over a
method x dataset grid, competition-ranked result tables, per-horizon error
curves, and an optional label-order scramble.

Every random choice is derived from the experiment seed plus the cell
identity (dataset name, method name, fold index), so cells can be run in
any order - or in isolation - and produce identical numbers.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .base import check_base_kind
from .core import Dataset, LabelSchema
from .dataio import arff_to_sequence, load_arff, load_dataset, load_sequences
from .metrics import LOWER_IS_BETTER, METRIC_NAMES, EvalReport, evaluate
from .methods import PARAM_TYPES, check_method, predict_many, resolve_params, train_method
from .rng import derive_rng, derive_seed
from .synth import TRAVELLER_FEATURES, SynthTravellerConfig, synth_traveller
from .transform import window_transform

DEFAULT_METRICS = ("hamming_loss", "zero_one_loss", "levenshtein_norm")


@dataclass(frozen=True)
class MethodSpec:
    """One grid column: a method key, base learner, and hyperparameters."""

    name: str
    method: str
    base: str = "nb"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_method(self.method)
        check_base_kind(self.base)
        resolve_params(self.params)


@dataclass(frozen=True)
class DatasetSpec:
    """One grid row: a data source plus the block-transformation horizon."""

    name: str
    kind: str  # "sequence-csv" | "arff" | "synth-traveller" | "dataset-csv"
    tau: int = 1
    pad: bool = False
    path: str = ""
    class_attr: str | int = -1
    generator: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSpec:
    datasets: tuple[DatasetSpec, ...]
    methods: tuple[MethodSpec, ...]
    metrics: tuple[str, ...] = DEFAULT_METRICS
    seed: int = 0
    label_order: str = "time"  # "time" | "random"

    def __post_init__(self):
        if self.label_order not in ("time", "random"):
            raise ValueError(f"label_order must be 'time' or 'random'")
        if not self.datasets or not self.methods:
            raise ValueError("experiment needs at least one dataset and one method")
        unknown = [m for m in self.metrics if m not in METRIC_NAMES]
        if unknown:
            raise ValueError(f"unknown metric {unknown[0]!r} (expected one of {METRIC_NAMES})")


def materialize_dataset(spec: DatasetSpec) -> Dataset:
    """Load or generate the data source and apply the block transformation."""
    if spec.kind == "dataset-csv":
        return replace(load_dataset(spec.path), name=spec.name)
    if spec.kind == "sequence-csv":
        seqs, features, n_states = load_sequences(spec.path)
    elif spec.kind == "arff":
        seq, features, n_states = arff_to_sequence(load_arff(spec.path), spec.class_attr)
        seqs = [seq]
    elif spec.kind == "synth-traveller":
        cfg = SynthTravellerConfig.from_settings(spec.generator)
        seqs = [synth_traveller(cfg)]
        features, n_states = TRAVELLER_FEATURES, cfg.n_nodes
    else:
        raise ValueError(f"unknown dataset kind {spec.kind!r}")
    return window_transform(seqs, spec.tau, pad=spec.pad, n_states=n_states,
                            features=features, name=spec.name)


def _permute_labels(d: Dataset, perm: np.ndarray) -> Dataset:
    """Label position j of the result is native position perm[j]."""
    schema = LabelSchema(tuple(d.schema.cardinalities[p] for p in perm))
    instances = [(x, tuple(y[p] for p in perm)) for x, y in d.instances]
    return Dataset(schema, d.features, instances, d.name, d.X, d.Y[:, perm])


def two_fold_cv(d: Dataset, mspec: MethodSpec, seed: int,
                label_perm: np.ndarray | None = None) -> EvalReport:
    """Shuffle once, split into halves, train on each half and test on the
    other; metrics are pooled over all test predictions by instance.

    ``label_perm`` optionally scrambles the label positions the model sees;
    predictions are mapped back, so reports stay in native position order.
    """
    N = d.n
    if N < 2:
        raise ValueError("two-fold evaluation needs at least 2 instances")
    order = derive_rng(seed, "folds", d.name).permutation(N)
    half = (N + 1) // 2
    folds = (order[:half], order[half:])
    train_view = _permute_labels(d, label_perm) if label_perm is not None else d

    yhats = []
    for fold_idx, test_fold in enumerate(folds):
        train_fold = folds[1 - fold_idx]
        train_d = train_view.subset(train_fold)
        cell_seed = derive_seed(seed, "cell", d.name, mspec.name, fold_idx)
        model = train_method(mspec.method, train_d, mspec.base, cell_seed, mspec.params)
        yhat = predict_many(mspec.method, model, d.X[test_fold], cell_seed, mspec.params)
        if label_perm is not None:
            yhat = yhat[:, np.argsort(label_perm)]  # native position label_perm[j] is column j
        yhats.append(yhat)
    return evaluate(d.Y[order], np.concatenate(yhats))  # order is the folds joined


def rank_row(values, lower_is_better: bool = True) -> list[int]:
    """Competition ranking: ties share the minimal rank and the next distinct
    value's rank skips by the tie-group size."""
    values = list(values)
    if not values:
        raise ValueError("empty row")
    sign = 1 if lower_is_better else -1
    return [1 + sum(sign * w < sign * v for w in values) for v in values]


@dataclass
class ResultsTable:
    """Mean metric values per (dataset, method), with per-dataset competition
    ranks and the average-rank row."""

    metric: str
    dataset_names: tuple[str, ...]
    method_names: tuple[str, ...]
    values: list[list[float]]
    ranks: list[list[int]]
    avg_ranks: list[float]

    @staticmethod
    def from_grid(metric: str, dataset_names, method_names,
                  values: list[list[float]]) -> "ResultsTable":
        lower = LOWER_IS_BETTER.get(metric, True)
        ranks = [rank_row(row, lower) for row in values]
        n_ds = len(values)
        avg = [sum(r[j] for r in ranks) / n_ds for j in range(len(method_names))]
        return ResultsTable(metric, tuple(dataset_names), tuple(method_names),
                            values, ranks, avg)

    def to_csv(self) -> str:
        cols = ["dataset"]
        for m in self.method_names:
            cols += [m, f"{m}_rank"]
        lines = [",".join(cols)]
        for i, ds in enumerate(self.dataset_names):
            cells = [ds]
            for j in range(len(self.method_names)):
                cells += [repr(self.values[i][j]), str(self.ranks[i][j])]
            lines.append(",".join(cells))
        cells = ["avg_rank"]
        for j in range(len(self.method_names)):
            cells += ["", repr(self.avg_ranks[j])]
        lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        width = max(8, max(len(m) for m in self.method_names) + 1)
        name_w = max(len("dataset"), max(len(d) for d in self.dataset_names), len("avg_rank"))
        head = f"{self.metric}\n" + "dataset".ljust(name_w)
        for m in self.method_names:
            head += m.rjust(width + 4)
        lines = [head]
        for i, ds in enumerate(self.dataset_names):
            row = ds.ljust(name_w)
            for j in range(len(self.method_names)):
                row += f"{self.values[i][j]:.4f} ({self.ranks[i][j]})".rjust(width + 4)
            lines.append(row)
        row = "avg_rank".ljust(name_w)
        for j in range(len(self.method_names)):
            row += f"{self.avg_ranks[j]:.2f}".rjust(width + 4)
        lines.append(row)
        return "\n".join(lines) + "\n"


def safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def run_experiment(spec: ExperimentSpec, outdir: str | None = None,
                   ) -> tuple[dict[str, ResultsTable], dict[tuple[str, str], EvalReport]]:
    """Fill the grid cell by cell; optionally write result CSVs (one per
    metric), per-horizon CSVs (one per cell), and a readable summary."""
    datasets = [materialize_dataset(ds) for ds in spec.datasets]
    reports: dict[tuple[str, str], EvalReport] = {}
    for ds_spec, d in zip(spec.datasets, datasets):
        label_perm = None
        if spec.label_order == "random":
            label_perm = derive_rng(spec.seed, "label-order", d.name).permutation(d.schema.T)
        for m in spec.methods:
            try:
                reports[(ds_spec.name, m.name)] = two_fold_cv(d, m, spec.seed, label_perm)
            except Exception as e:
                raise RuntimeError(
                    f"cell (dataset={ds_spec.name!r}, method={m.name!r}) failed: {e}") from e

    tables: dict[str, ResultsTable] = {}
    ds_names = [ds.name for ds in spec.datasets]
    m_names = [m.name for m in spec.methods]
    for metric in spec.metrics:
        values = [[reports[(dn, mn)].metric(metric) for mn in m_names] for dn in ds_names]
        tables[metric] = ResultsTable.from_grid(metric, ds_names, m_names, values)

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        for metric, table in tables.items():
            with open(os.path.join(outdir, f"results_{safe_name(metric)}.csv"), "w") as fh:
                fh.write(table.to_csv())
        for (dn, mn), rep in reports.items():
            path = os.path.join(outdir, f"horizon_{safe_name(dn)}_{safe_name(mn)}.csv")
            with open(path, "w") as fh:
                fh.write("horizon_offset,error\n")
                for j, err in enumerate(rep.per_horizon, start=1):
                    fh.write(f"{j},{err!r}\n")
        with open(os.path.join(outdir, "summary.txt"), "w") as fh:
            for metric in spec.metrics:
                fh.write(tables[metric].to_text())
                fh.write("\n")
    return tables, reports


# ---------------------------------------------------------------------------
# spec files (INI sections: [experiment], [dataset NAME], [method NAME])


def parse_experiment_spec(text: str, base_dir: str = ".") -> ExperimentSpec:
    """The experiment of an INI spec.  ``[method]`` keys are the names of
    ``methods.PARAM_TYPES`` plus ``method`` and ``base``, a synth-traveller
    ``[dataset]`` takes ``SynthTravellerConfig`` fields, and ``[experiment]``
    takes ``seed``, ``label_order`` and ``metrics``; an unknown or mistyped
    key is an error."""
    cp = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    cp.optionxform = str  # keep key case
    cp.read_string(text)
    read_as = {int: cp.getint, bool: cp.getboolean, str: cp.get}

    seed = 0
    label_order = "time"
    metrics = DEFAULT_METRICS
    datasets: list[DatasetSpec] = []
    methods: list[MethodSpec] = []

    for section in cp.sections():
        items = {k: v for k, v in cp.items(section)}
        try:
            if section == "experiment":
                unknown = set(items) - {"seed", "label_order", "metrics"}
                if unknown:
                    raise ValueError(f"unknown setting {min(unknown)!r}")
                seed = cp.getint(section, "seed", fallback=0)
                label_order = items.get("label_order", "time")
                if "metrics" in items:
                    metrics = tuple(m.strip() for m in items["metrics"].split(",") if m.strip())
            elif section.startswith("dataset"):
                name = section[len("dataset"):].strip() or items.get("name", "dataset")
                kind = items.get("kind", "sequence-csv")
                path = items.get("path", "")
                if path and not os.path.isabs(path):
                    path = os.path.join(base_dir, path)
                known = {"kind", "path", "tau", "pad", "class_attr", "name"}
                generator = {k: v for k, v in items.items() if k not in known}
                if kind == "synth-traveller":
                    cfg = SynthTravellerConfig.from_settings(generator)
                    generator = {k: getattr(cfg, k) for k in generator}
                elif generator:
                    raise ValueError(f"unknown {kind} setting {min(generator)!r}")
                # an attribute index (negative counts from the end) or a name
                class_attr = items.get("class_attr", "-1")
                datasets.append(DatasetSpec(
                    name=name, kind=kind, tau=cp.getint(section, "tau", fallback=1),
                    pad=cp.getboolean(section, "pad", fallback=False), path=path,
                    class_attr=int(class_attr) if class_attr.lstrip("-").isdigit() else class_attr,
                    generator=generator))
            elif section.startswith("method"):
                name = section[len("method"):].strip() or items.get("method", "method")
                params = {k: read_as[PARAM_TYPES.get(k, str)](section, k)
                          for k in items if k not in ("method", "base", "name")}
                methods.append(MethodSpec(name=name, method=items.get("method", name),
                                          base=items.get("base", "nb"), params=params))
            else:
                raise ValueError("unknown spec section")
        except ValueError as e:
            raise ValueError(f"[{section}] {e}") from e

    return ExperimentSpec(tuple(datasets), tuple(methods), metrics, seed, label_order)


def load_experiment_spec(path: str) -> ExperimentSpec:
    with open(path) as fh:
        return parse_experiment_spec(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))
