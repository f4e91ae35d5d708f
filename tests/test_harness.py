import itertools
import os
from unittest import mock

import numpy as np
import pytest

from helpers import random_dataset
from seqlabel.core import Dataset, Feature, LabelSchema
from seqlabel.harness import (DatasetSpec, ExperimentSpec, MethodSpec,
                              ResultsTable, materialize_dataset,
                              parse_experiment_spec, rank_row, run_experiment,
                              two_fold_cv)
from seqlabel.methods import METHOD_NAMES, chains, predict_many, predict_method, train_method
from seqlabel.rng import derive_rng


def test_rank_row_reproduces_printed_ranks():
    values = [0.278, 0.283, 0.271, 0.272, 0.270, 0.277, 0.272, 0.272]
    assert rank_row(values, lower_is_better=True) == [7, 8, 2, 3, 1, 6, 3, 3]


def test_rank_row_edges():
    assert rank_row([0.5, 0.5, 0.5]) == [1, 1, 1]
    assert rank_row([1.0, 2.0, 3.0]) == [1, 2, 3]
    assert rank_row([3.0, 2.0, 1.0]) == [3, 2, 1]
    assert rank_row([0.9, 0.1], lower_is_better=False) == [1, 2]
    with pytest.raises(ValueError):
        rank_row([])


def test_rank_row_competition_skips_after_ties():
    assert rank_row([1, 1, 1, 2, 3, 3, 4]) == [1, 1, 1, 4, 5, 5, 7]


# ---------------------------------------------------------------------------
# two-fold evaluation


def test_two_fold_every_instance_tested_once():
    rng = derive_rng(0, "tf-partition")
    d = random_dataset(rng, n=31, T=2, max_L=2, name="odd")
    rep = two_fold_cv(d, MethodSpec("ic", "ic"), seed=5)
    assert rep.n == 31


def test_two_fold_same_seed_identical_reports():
    rng = derive_rng(0, "tf-det")
    d = random_dataset(rng, n=24, T=3, max_L=2, name="det")
    m = MethodSpec("rakeld", "rakeld", params={"k": 2})
    a = two_fold_cv(d, m, seed=9)
    b = two_fold_cv(d, m, seed=9)
    assert a == b
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("base", ["nb", "dt"])
@pytest.mark.parametrize("method", METHOD_NAMES)
def test_predict_many_is_row_wise_predict_method(method, base):
    """Row i of the batch dispatcher is the single-instance rule on X[i], at
    no rows, one row, 256 rows and 257 rows, in one chunk and in chunks of
    a few rows."""
    rng = derive_rng(0, "dispatch", method, base)
    d = random_dataset(rng, n=40, T=3, max_L=3)
    params = {"samples": 15, "k": 2}
    model = train_method(method, d, base, seed=3, params=params)
    N = 257
    X = np.column_stack([rng.normal(size=(N, 2)), rng.integers(0, 3, N)])
    X[::7] = d.X[rng.integers(0, d.n, len(X[::7]))]
    one = [predict_method(method, model, x, 5, params) for x in X]
    for n, cells in itertools.product((0, 1, 256, 257), (chains.CHUNK_CELLS, 40)):
        with mock.patch.object(chains, "CHUNK_CELLS", cells):
            many = predict_many(method, model, X[:n], 5, params)
        assert many.shape == (n, 3) and many.dtype == np.int64
        assert [tuple(row) for row in many.tolist()] == one[:n]


def test_predict_many_rejects_unknown_method():
    d = random_dataset(derive_rng(0, "dispatch-bad"), n=20, T=2, max_L=2)
    model = train_method("memm", d)
    for key in ("bogus", "vcc ", "VCC"):
        with pytest.raises(ValueError, match=f"unknown method {key!r}"):
            predict_many(key, model, d.X)
        with pytest.raises(ValueError, match=f"unknown method {key!r}"):
            predict_method(key, model, d.X[0])


@pytest.mark.parametrize("method", ["cc", "pcc", "ct"])
def test_train_rejects_unknown_chain_order(method):
    d = random_dataset(derive_rng(0, "order-bad"), n=20, T=2, max_L=2)
    with pytest.raises(ValueError, match="unknown order strategy 'bogus'"):
        train_method(method, d, params={"order": "bogus"})


@pytest.mark.parametrize("params,needle", [
    ({"min_leaf": 5}, "unknown method parameter 'min_leaf'"),
    ({"base_params": {}}, "unknown method parameter 'base_params'"),
    ({"k": "3"}, "parameter 'k' must be int, not '3'"),
    ({"k": True}, "parameter 'k' must be int, not True"),
    ({"prune": None}, "parameter 'prune' must be int, not None"),
    ({"sequential": "yes"}, "parameter 'sequential' must be bool"),
])
def test_method_params_are_checked_against_the_table(params, needle):
    d = random_dataset(derive_rng(0, "params-bad"), n=20, T=2, max_L=2)
    with pytest.raises(ValueError, match=needle):
        MethodSpec("m", "rakeld", params=params)
    with pytest.raises(ValueError, match=needle):
        train_method("rakeld", d, params=params)


def test_two_fold_rejects_tiny_dataset():
    d = Dataset(LabelSchema((2,)), (Feature.numeric("v"),), [((0.0,), (0,))])
    with pytest.raises(ValueError):
        two_fold_cv(d, MethodSpec("ic", "ic"), seed=0)


def test_two_fold_hand_traced_memorizer():
    # constant feature + label-powerset + naive Bayes: each fold predicts its
    # training half's most frequent label vector (ties: seen earlier in fold
    # order, then lower meta index).  Trace the whole protocol by hand.
    name = "trace"
    labels = [(0, 0), (0, 0), (1, 1), (0, 1)]
    d = Dataset(LabelSchema((2, 2)), (Feature.categorical(1, "c"),),
                [((0,), y) for y in labels], name=name)
    seed = 3
    rep = two_fold_cv(d, MethodSpec("lp", "lp"), seed=seed)

    # independent manual trace of the documented protocol
    perm = derive_rng(seed, "folds", name).permutation(4)
    half = 2
    folds = (perm[:half], perm[half:])
    expected_pairs = []
    for fold_idx, test_fold in enumerate(folds):
        train_fold = folds[1 - fold_idx]
        seen: dict = {}
        for i in train_fold:
            t = labels[i]
            if t not in seen:
                seen[t] = [0, len(seen)]
            seen[t][0] += 1
        winner = min(seen, key=lambda t: (-seen[t][0], seen[t][1]))
        for i in test_fold:
            expected_pairs.append((labels[i], winner))
    expected_hl = sum(sum(a != b for a, b in zip(y, p)) / 2
                      for y, p in expected_pairs) / 4
    assert rep.hamming_loss == pytest.approx(expected_hl, abs=1e-12)


# ---------------------------------------------------------------------------
# results tables


def test_results_table_average_rank_arithmetic():
    values = [
        [0.30, 0.10, 0.20],
        [0.50, 0.50, 0.40],
    ]
    table = ResultsTable.from_grid("hamming_loss", ["d1", "d2"], ["a", "b", "c"], values)
    assert table.ranks == [[3, 1, 2], [2, 2, 1]]
    assert table.avg_ranks == [2.5, 1.5, 1.5]
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "dataset,a,a_rank,b,b_rank,c,c_rank"
    assert csv_text.splitlines()[-1].startswith("avg_rank")


def test_results_table_accuracy_ranks_higher_is_better():
    table = ResultsTable.from_grid("accuracy", ["d"], ["a", "b"], [[0.9, 0.7]])
    assert table.ranks == [[1, 2]]


# ---------------------------------------------------------------------------
# experiments


def tiny_spec(seed=1, label_order="time"):
    return ExperimentSpec(
        datasets=(DatasetSpec(name="walk", kind="synth-traveller", tau=2,
                              generator={"n_nodes": 6, "n_steps": 160, "seed": 0}),),
        methods=(MethodSpec("ic", "ic"), MethodSpec("memm", "memm")),
        metrics=("hamming_loss", "zero_one_loss"),
        seed=seed,
        label_order=label_order,
    )


def test_run_experiment_structure(tmp_path):
    outdir = tmp_path / "out"
    tables, reports = run_experiment(tiny_spec(), outdir=str(outdir))
    assert set(tables) == {"hamming_loss", "zero_one_loss"}
    t = tables["hamming_loss"]
    assert t.dataset_names == ("walk",)
    assert t.method_names == ("ic", "memm")
    assert sorted(t.ranks[0]) in ([1, 1], [1, 2])
    files = sorted(os.listdir(outdir))
    assert files == ["horizon_walk_ic.csv", "horizon_walk_memm.csv",
                     "results_hamming_loss.csv", "results_zero_one_loss.csv",
                     "summary.txt"]
    horizon = (outdir / "horizon_walk_ic.csv").read_text().splitlines()
    assert horizon[0] == "horizon_offset,error"
    assert len(horizon) == 1 + 2  # tau = 2 offsets


def test_run_experiment_deterministic_bytes(tmp_path):
    texts = []
    for run in range(2):
        outdir = tmp_path / f"run{run}"
        run_experiment(tiny_spec(), outdir=str(outdir))
        texts.append({f: (outdir / f).read_bytes() for f in os.listdir(outdir)})
    assert texts[0] == texts[1]


def test_single_cell_rerun_matches_grid():
    spec = tiny_spec()
    tables, reports = run_experiment(spec, outdir=None)
    d = materialize_dataset(spec.datasets[0])
    for m in spec.methods:
        alone = two_fold_cv(d, m, spec.seed)
        assert alone == reports[("walk", m.name)]


def test_label_order_random_leaves_ic_unchanged():
    time_tables, time_reports = run_experiment(tiny_spec(label_order="time"))
    rand_tables, rand_reports = run_experiment(tiny_spec(label_order="random"))
    assert time_reports[("walk", "ic")] == rand_reports[("walk", "ic")]
    # the chained method is allowed to (and here does) see a different order,
    # so its numbers may move; the grid itself must still be complete
    assert set(rand_reports) == set(time_reports)


def test_run_experiment_cell_failure_names_cell():
    spec = ExperimentSpec(
        datasets=(DatasetSpec(name="broken", kind="synth-traveller", tau=2,
                              generator={"n_nodes": 6, "n_steps": 160, "seed": 0}),),
        methods=(MethodSpec("rakeld", "rakeld", params={"k": 99}),),
        seed=1,
    )
    with pytest.raises(RuntimeError, match="broken.*rakeld"):
        run_experiment(spec)


def test_parse_experiment_spec_ini(tmp_path):
    ini = """
[experiment]
seed = 42
label_order = random
metrics = hamming_loss, levenshtein_norm

[dataset synth05]
kind = synth-traveller
tau = 5
n_nodes = 10
n_steps = 500
seed = 7

[dataset elec]
kind = arff
path = elec.arff
class_attr = 2

[dataset named]
kind = arff
path = elec.arff
class_attr = class

[method vcc]
base = nb

[method rakeld3]
method = rakeld
base = dt
k = 3
sequential = true
"""
    spec = parse_experiment_spec(ini, base_dir=str(tmp_path))
    assert spec.seed == 42
    assert spec.label_order == "random"
    assert spec.metrics == ("hamming_loss", "levenshtein_norm")
    ds = spec.datasets[0]
    assert ds.name == "synth05" and ds.tau == 5
    assert ds.generator == {"n_nodes": 10, "n_steps": 500, "seed": 7}
    assert ds.class_attr == -1
    # an integer-looking class_attr is an attribute index, anything else a name
    (tmp_path / "elec.arff").write_text(
        "@relation elec\n@attribute class {up,down}\n@attribute price numeric\n"
        "@attribute cls {lo,hi}\n@data\nup,1.5,hi\ndown,2.5,lo\nup,3.5,hi\n")
    elec, named = spec.datasets[1:]
    assert elec.class_attr == 2 and named.class_attr == "class"
    assert materialize_dataset(elec).Y[:, 0].tolist() == [0, 1]  # states lo, hi
    assert materialize_dataset(named).Y[:, 0].tolist() == [1, 0]  # states down, up
    assert spec.methods[0].method == "vcc"
    assert spec.methods[1].method == "rakeld"
    assert spec.methods[1].base == "dt"
    assert spec.methods[1].params["k"] == 3
    assert spec.methods[1].params["sequential"] is True


def test_parse_experiment_spec_rejects_unknown_section():
    with pytest.raises(ValueError):
        parse_experiment_spec("[mystery]\nx = 1\n")


def test_materialize_dataset_csv(tmp_path):
    rng = derive_rng(0, "mat-csv")
    d = random_dataset(rng, n=12, T=2, name="src")
    from seqlabel.dataio import save_dataset

    path = tmp_path / "d.csv"
    save_dataset(d, str(path))
    spec = DatasetSpec(name="renamed", kind="dataset-csv", path=str(path))
    got = materialize_dataset(spec)
    assert got.name == "renamed"
    assert got.instances == d.instances
    # the arrays the reader parsed are kept, not built again from the instances
    assert got._X is not None and got._Y is not None
    assert got.X.tobytes() == d.X.tobytes() and got.Y.tobytes() == d.Y.tobytes()
