import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from helpers import random_dataset, tree_root
import seqlabel
from seqlabel import __version__, harness, methods
from seqlabel.cli import build_parser, main
from seqlabel.core import Dataset, Feature, LabelSchema
from seqlabel.dataio import load_dataset, load_model, predictions_from_csv, save_dataset
from seqlabel.harness import parse_experiment_spec
from seqlabel.methods import DEFAULT_PARAMS, PARAM_TYPES
from seqlabel.rng import derive_rng

FIG_SEQ_CSV = """# seqlabel-sequences v1
# meta: {"n_states": 2, "features": [{"kind": "numeric", "name": "x"}]}
seq_id,x,state
s,11.0,0
s,12.0,1
s,13.0,0
s,14.0,1
s,15.0,1
s,16.0,0
"""


def test_transform_worked_example(tmp_path, capsys):
    src = tmp_path / "seq.csv"
    src.write_text(FIG_SEQ_CSV)
    out = tmp_path / "block.csv"
    assert main(["transform", str(src), "--tau", "2", "-o", str(out)]) == 0
    d = load_dataset(str(out))
    assert d.n == 3
    assert d.instances[0] == ((12.0, 13.0, 0, 1), (0, 1))
    assert d.instances[1] == ((13.0, 14.0, 1, 0), (1, 1))
    assert d.instances[2] == ((14.0, 15.0, 0, 1), (1, 0))


def test_transform_rejects_short_sequence(tmp_path, capsys):
    src = tmp_path / "seq.csv"
    src.write_text(FIG_SEQ_CSV)
    rc = main(["transform", str(src), "--tau", "4"])
    captured = capsys.readouterr()
    assert rc != 0
    assert "error:" in captured.err
    assert captured.out == ""  # diagnostics stay off stdout


def write_toy_dataset(tmp_path, name="toy"):
    rng = derive_rng(0, "cli-ds", name)
    d = random_dataset(rng, n=40, T=3, max_L=2, name=name)
    path = tmp_path / f"{name}.csv"
    save_dataset(d, str(path))
    return d, path


@pytest.mark.parametrize("method", ["ic", "cc", "memm", "vcc", "pcc", "lp",
                                    "rakeld", "ct", "sicl"])
def test_train_predict_deterministic(tmp_path, method):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    rc = main(["train", "--data", str(data_path), "--method", method,
               "--base", "nb", "--seed", "1", "--save", str(model_path)])
    assert rc == 0
    outs = []
    for run in range(2):
        out = tmp_path / f"pred{run}.csv"
        assert main(["predict", "--model", str(model_path), str(data_path),
                     "-o", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    preds = predictions_from_csv(outs[0])
    assert len(preds) == d.n
    assert all(d.schema.conforms(p) for p in preds)


def test_evaluate_kv_and_json(tmp_path, capsys):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    main(["train", "--data", str(data_path), "--method", "ic", "--base", "nb",
          "--seed", "1", "--save", str(model_path)])
    pred_path = tmp_path / "pred.csv"
    main(["predict", "--model", str(model_path), str(data_path), "-o", str(pred_path)])

    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path)]) == 0
    kv = capsys.readouterr().out
    assert kv.startswith("hamming_loss=")

    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path),
                 "--json"]) == 0
    import json

    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"hamming_loss", "zero_one_loss", "levenshtein_norm",
                        "per_horizon", "n"}
    assert rep["n"] == d.n
    assert len(rep["per_horizon"]) == d.schema.T


def test_evaluate_rejects_count_mismatch(tmp_path, capsys):
    d, data_path = write_toy_dataset(tmp_path)
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("y0,y1,y2\n0,0,0\n")
    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_rejects_predictions_of_another_width(tmp_path, capsys):
    d, data_path = write_toy_dataset(tmp_path)
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("y0,y1\n" + "0,0\n" * d.n)
    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path)]) == 1
    one_error_line(capsys, "length mismatch: 3 vs 2")


def test_evaluate_of_an_empty_data_file(tmp_path, capsys):
    d, data_path = write_toy_dataset(tmp_path)
    data_path.write_text("".join(data_path.read_text().splitlines(keepends=True)[:3]))
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("y0,y1,y2\n")
    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path)]) == 1
    one_error_line(capsys, "empty pair list")


def test_evaluate_of_a_prediction_beyond_int64_is_the_report_of_a_wrong_label(tmp_path, capsys):
    # 2**70 fits no int64 lane; it equals no true label, as -1 does
    d, data_path = write_toy_dataset(tmp_path)
    reports = []
    for wrong in (2**70, -1):
        preds = [list(y) for _, y in d.instances]
        preds[3][1] = preds[7][0] = wrong
        pred_path = tmp_path / "pred.csv"
        pred_path.write_text("y0,y1,y2\n" + "".join(",".join(map(str, p)) + "\n" for p in preds))
        assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path), "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        reports.append(captured.out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["zero_one_loss"] == 2 / d.n


def test_evaluate_of_a_true_label_beyond_int64_is_one_error_line(tmp_path, capsys):
    d, data_path = write_toy_dataset(tmp_path)
    lines = data_path.read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].rsplit(",", 1)[0] + f",{2**70}\n"
    data_path.write_text("".join(lines))
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("y0,y1,y2\n" + "0,0,0\n" * d.n)
    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path)]) == 1
    one_error_line(capsys, "does not fit int64")


def _set_cell(lines, line, column, text):
    """``lines`` (a file's lines, ends kept) with one cell of line ``line``
    (1-based) replaced, or the row cut short when ``text`` is None."""
    cells = lines[line - 1].rstrip("\n").split(",")
    if text is None:
        del cells[column]
    else:
        cells[column] = text
    return lines[:line - 1] + [",".join(cells) + "\n"] + lines[line:]


# the toy's columns: n0, n1 (numeric), c0 (categorical), y0, y1, y2; its rows start at line 4
@pytest.mark.parametrize("cmd,cells,message", [
    ("train", [(6, 0, "abc")], "line 6: bad cell 'abc'"),
    ("predict", [(6, 2, "1.5")], "line 6: bad cell '1.5'"),
    ("evaluate", [(6, 4, "abc")], "line 6: invalid literal for int() with base 10: 'abc'"),
    ("train", [(7, 1, "nan")], "line 7: non-finite cell 'nan' (missing values are not supported)"),
    ("predict", [(7, 0, "1e999")], "line 7: non-finite cell '1e999'"),
    ("train", [(8, 5, None)], "line 8: 5 cells, expected 6"),
    # the first bad row in row order, whatever its fault
    ("predict", [(6, 0, "zz"), (8, 5, None)], "line 6: bad cell 'zz'"),
    ("train", [(6, 5, None), (7, 0, "nan")], "line 6: 5 cells, expected 6"),
    ("evaluate", [(6, 0, "-inf"), (9, 3, "x")], "line 6: non-finite cell '-inf'"),
    ("evaluate", [(9, 5, str(2**63))],
     "error: a label value does not fit int64: Python int too large to convert to C long"),
    ("train", [(9, 5, str(2**63))],
     f"training data invalid: instance 5: label position 2 value {2**63} outside 0..1"),
])
def test_malformed_dataset_cell_is_reported_at_its_line(tmp_path, capsys, cmd, cells, message):
    d, data_path = write_toy_dataset(tmp_path)
    model_path, pred_path = tmp_path / "m.json", tmp_path / "pred.csv"
    assert main(["train", "--data", str(data_path), "--method", "memm",
                 "--save", str(model_path)]) == 0
    pred_path.write_text("y0,y1,y2\n" + "".join(",".join(map(str, y)) + "\n" for _, y in d.instances))
    lines = data_path.read_text().splitlines(keepends=True)
    assert lines[3].count(",") == 5 and d.schema.cardinalities[2] == 2
    for line, column, text in cells:
        lines = _set_cell(lines, line, column, text)
    data_path.write_text("".join(lines))
    argv = {"train": ["train", "--data", str(data_path), "--method", "memm",
                      "--save", str(tmp_path / "other.json")],
            "predict": ["predict", "--model", str(model_path), str(data_path)],
            "evaluate": ["evaluate", "--data", str(data_path), "--pred", str(pred_path)]}[cmd]
    assert main(argv) == 1
    one_error_line(capsys, message)


@pytest.mark.parametrize("line,column,text,message", [
    (4, 0, "x", "error: line 4: invalid literal for int() with base 10: 'x'"),
    (5, 2, "1.0", "error: line 5: invalid literal for int() with base 10: '1.0'"),
    (4, 1, None, "error: line 4: 2 cells, expected 3"),
])
def test_malformed_prediction_cell_is_reported_at_its_line(tmp_path, capsys, line, column, text,
                                                            message):
    d, data_path = write_toy_dataset(tmp_path)
    lines = ["y0,y1,y2\n"] + ["0,1,0\n"] * d.n
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("".join(_set_cell(lines, line, column, text)))
    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path)]) == 1
    one_error_line(capsys, message)


def test_experiment_rejects_unknown_metric_before_any_cell(tmp_path, capsys):
    spec = tmp_path / "spec.ini"
    spec.write_text("[experiment]\nmetrics = hamming_loss, bogus\n\n"
                    "[dataset s]\nkind = synth-traveller\ntau = 2\nn_nodes = 5\n"
                    "n_steps = 40\n\n[method ic]\n")
    outdir = tmp_path / "out"
    assert main(["experiment", "--spec", str(spec), "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not outdir.exists()


def one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert all(n in err for n in needles), err


@pytest.mark.parametrize("edit,needle", [
    ({"order": [0, 7]}, "order (0, 7) is not a permutation of 0..1"),
    ({"order": [1, 1]}, "order (1, 1) is not a permutation of 0..1"),
    ({"labelsets": [[0, 9]]}, "does not fit positions"),
    ({"labelsets": [[0]]}, "does not fit positions"),
    ({"labelsets": [[0, 1, 1]]}, "the chain steps predict 3 positions, not 2"),
    ({"support_counts": [30]}, "1 support counts for"),
])
def test_predict_rejects_subsets_model_outside_schema(tmp_path, capsys, edit, needle):
    rng = derive_rng(0, "cli-lp-edit")
    d = random_dataset(rng, n=30, T=2, max_L=2)
    data_path = tmp_path / "d.csv"
    save_dataset(d, str(data_path))
    model_path = tmp_path / "lp.json"
    assert main(["train", "--data", str(data_path), "--method", "lp",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    model = envelope["model"]
    if "order" in edit:
        model["order"] = edit["order"]
    if "labelsets" in edit:
        model["tables"][0]["labelsets"][0] = edit["labelsets"][0]
    if "support_counts" in edit:
        model["tables"][0]["support_counts"] = edit["support_counts"]
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "lp.json", needle)


@pytest.mark.parametrize("empty,needle", [
    (True, "chain step 0: 0 support counts for 0 labelsets, not one each of one or more"),
    (False, "chain step 0: support count -5 is not a positive integer"),
])
def test_predict_rejects_a_labelset_table_no_training_gives(tmp_path, capsys, empty, needle):
    """An empty labelset table, or a support count below 1, is one error
    line naming the step, found before the table is read."""
    rng = derive_rng(0, "cli-lp-edit")
    d = random_dataset(rng, n=30, T=2, max_L=2)
    data_path, model_path = tmp_path / "d.csv", tmp_path / "lp.json"
    save_dataset(d, str(data_path))
    assert main(["train", "--data", str(data_path), "--method", "lp",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    table = envelope["model"]["tables"][0]
    if empty:
        table.update(labelsets=[], support_counts=[])
    else:
        table["support_counts"][0] = -5
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "lp.json", needle)


def test_predict_rejects_non_finite_features(tmp_path, capsys):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "memm",
                 "--save", str(model_path)]) == 0
    lines = data_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[0] = "nan"
    lines[3] = ",".join(cells)
    data_path.write_text("\n".join(lines) + "\n")
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "nan")


def test_predict_rejects_a_code_the_tree_path_does_not_test(tmp_path, capsys):
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"))
    schema = LabelSchema((2,))
    train = Dataset(schema, feats, [((float(i), 0), (int(i >= 2),)) for i in range(4)])
    data_path, model_path = tmp_path / "d.csv", tmp_path / "ic-dt.json"
    save_dataset(train, str(data_path))
    assert main(["train", "--data", str(data_path), "--method", "ic", "--base", "dt",
                 "--save", str(model_path)]) == 0
    save_dataset(Dataset(schema, feats, [((0.5, 0), (0,)), ((0.5, 7), (0,))]), str(data_path))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "feature 1: code 7.0 outside declared cardinality 3" in err and "np.float64" not in err


def test_tree_thousands_of_levels_deep_is_saved_and_loaded(tmp_path):
    # a = i with alternating labels: the tree peels about one row per level
    d = Dataset(LabelSchema((2,)), (Feature.numeric("a"),),
                [((float(i),), (i % 2,)) for i in range(2500)])
    data_path, model_path, pred_path = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "p.csv"
    save_dataset(d, str(data_path))
    assert main(["train", "--data", str(data_path), "--method", "ic", "--base", "dt",
                 "--save", str(model_path)]) == 0
    assert main(["predict", "--model", str(model_path), str(data_path),
                 "-o", str(pred_path)]) == 0
    model = methods.train_method("ic", d, "dt")
    depth, node = 0, tree_root(model.models[0])
    while node.feature is not None:
        depth, node = depth + 1, max(node.left, node.right, key=lambda c: sum(c.counts))
    assert depth > 2000
    want = methods.predict_many("ic", model, d.X)
    assert predictions_from_csv(pred_path.read_text()) == [tuple(r) for r in want.tolist()]


def test_tree_on_a_huge_cardinality_is_trained_saved_and_loaded(tmp_path, capsys):
    # codes 0 and 10**12 - 1 of one feature: the tree holds two children,
    # and a code no split has seen stops at the root
    big = 10**12 - 1
    feats = (Feature.numeric("a"), Feature.categorical(10**12, "b"))
    schema = LabelSchema((2,))
    train = Dataset(schema, feats, [((float(i), (0, big)[i % 2]), (i % 2,)) for i in range(8)])
    data_path, model_path, pred_path = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "p.csv"
    save_dataset(train, str(data_path))
    assert main(["train", "--data", str(data_path), "--method", "ic", "--base", "dt",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    tree = envelope["model"]["models"][0]
    assert tree["feature"][0] == 1 and tree["code"] == [-1, 0, big]
    test = Dataset(schema, feats, [((0.0, (0, big, 5)[i % 3]), (0,)) for i in range(60)])
    for rows in (test.instances[:3], test.instances):  # each routing kernel
        save_dataset(Dataset(schema, feats, rows), str(data_path))
        assert main(["predict", "--model", str(model_path), str(data_path),
                     "-o", str(pred_path)]) == 0
        got = predictions_from_csv(pred_path.read_text())
        assert got == [(0,), (1,), (0,)] * (len(rows) // 3)
    envelope["model"]["features"][1]["cardinality"] = 2**53 + 1
    tree["code"][2] = 2**63
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "m.json", "needs an integer cardinality >= 1 and at most 2**53, "
                                     "not 9007199254740993")


def _tree_edit(column, value, at=0):
    def edit(tree):
        tree[column][at] = value
    return edit


def _tree_columns(**columns):
    """Replace the tree's columns by ``columns``."""
    def edit(tree):
        tree.update(columns)
    return edit


def _categorical_root(*codes):
    """Make the root a split on categorical feature 1 (cardinality 3) whose
    two leaves have the codes ``codes``."""
    return _tree_columns(feature=[1, -1, -1], threshold=[None, None, None], code=[-1, *codes])


# the tree of test_predict_rejects_a_malformed_tree: a root split at a = 1.5
# and its two leaves, each with one class
TREE = {"feature": [0, -1, -1], "threshold": [1.5, None, None], "n_child": [2, 0, 0],
        "code": [-1, -1, -1], "count_cells": [[1, 0, 2], [2, 1, 2]]}


@pytest.mark.parametrize("edit,needle", [
    (_tree_edit("threshold", float("nan")), "not a model file: NaN is not a JSON value"),
    (_tree_edit("threshold", float("inf")), "not a model file: Infinity is not a JSON value"),
    (_tree_edit("threshold", True), "a tree threshold is True, not a finite number"),
    (_tree_edit("threshold", "0.5"), "a tree threshold is '0.5', not a finite number"),
    (_tree_edit("n_child", 99), "tree node 0 has child 99, not an index in 1..2"),
    (_categorical_root(0, 10**12),
     "a tree node splits feature 1 on code 1000000000000, outside its declared cardinality 3"),
    (_categorical_root(3, 1), "a tree node splits feature 1 on code 3, outside its declared "
                              "cardinality 3"),
    (_tree_edit("count_cells", [1, 0, 2**53 - 1]), "a tree node's class counts total "
                                                   "9007199254740993, above 2**53"),
    # the child counts sum to the nodes after the root
    (_tree_columns(feature=[0, -1, -1, -1], threshold=[1.5, None, None, None],
                   n_child=[2, 0, 0, 0], code=[-1] * 4),
     "the tree's child counts sum to 2, not 3, one per node after the root"),
    # every node after the root is the child of an earlier node
    (_tree_columns(feature=[1, 0, -1], threshold=[None, 0.5, None], n_child=[0, 2, 0]),
     "tree node 1 has child 1, not an index in 2..2"),
    # a split at a threshold has two children
    (_tree_columns(feature=[0, 1, -1], n_child=[1, 1, 0], code=[-1, -1, 0]),
     "tree node 0 splits at a threshold into 1 children, not 2"),
    # a code appears once per split
    (_categorical_root(2, 2), "tree node 0 has two children of code 2"),
    # count cells sit on childless nodes
    (lambda tree: tree["count_cells"].insert(0, [0, 1, 1]),
     "tree count cell [0, 1, 1] is at node 0, which has children"),
    (lambda tree: tree["count_cells"].reverse(),
     "tree count cell [1, 0, 2] does not follow [2, 1, 2] in (node, class) order"),
    (_tree_edit("count_cells", [3, 0, 2]), "tree count cell [3, 0, 2] is not [node < 3, "
                                           "class < 2, count >= 1]"),
    (_tree_edit("threshold", 0.5, at=1), "tree node 1 is a leaf (feature -1) with a threshold"),
    (_tree_edit("code", 0, at=1), "tree node 1 has code 0, but no split by code reaches it"),
    (_tree_edit("n_child", -1), "tree node 0 has -1 children"),
    (lambda tree: tree["code"].pop(), "one feature, threshold, n_child and code entry per node"),
])
def test_predict_rejects_a_malformed_tree(tmp_path, capsys, edit, needle):
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"))
    train = Dataset(LabelSchema((2,)), feats, [((float(i), 0), (int(i >= 2),)) for i in range(4)])
    data_path, model_path = tmp_path / "d.csv", tmp_path / "m.json"
    save_dataset(train, str(data_path))
    assert main(["train", "--data", str(data_path), "--method", "ic", "--base", "dt",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    tree = envelope["model"]["models"][0]
    assert {k: tree[k] for k in TREE} == TREE
    edit(tree)
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "m.json", needle)


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1.0", "-1", "1_0", "\u0661", "", "1",
                                 pytest.param(1.0, id="float-1.0"), pytest.param(True, id="true")])
def test_predict_rejects_a_tree_child_key_that_is_not_a_decimal_code(tmp_path, capsys, key):
    # a child's code is a JSON int: a string, a float or a bool could name
    # the code of another child
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"))
    train = Dataset(LabelSchema((2,)), feats,
                    [((0.0, i % 3), (int(i % 3 == 1),)) for i in range(9)])
    data_path, model_path = tmp_path / "d.csv", tmp_path / "m.json"
    save_dataset(train, str(data_path))
    assert main(["train", "--data", str(data_path), "--method", "ic", "--base", "dt",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    tree = envelope["model"]["models"][0]
    assert tree["feature"][0] == 1 and tree["code"] == [-1, 0, 1, 2]
    tree["code"][2] = key
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "m.json", f"tree code {key!r} is not an integer")


@pytest.mark.parametrize("method,edit,needle", [
    ("memm", {"method": "bogus"}, "unknown method 'bogus'"),
    ("lp", {"method": "vcc"}, "method 'vcc' does not decode a chain of labelset steps"),
    ("memm", {"method": "lp"}, "method 'lp' does not decode a chain of plain steps"),
    ("memm", {"params": [1, 2]}, "params must be an object"),
    ("memm", {"seed": "1"}, "seed must be an integer"),
    ("memm", {"seed": 1.5}, "seed must be an integer"),
    ("pcc", {"params": {"samples": "x"}}, "parameter 'samples' must be int, not 'x'"),
    ("pcc", {"params": {"samples": 2.5}}, "parameter 'samples' must be int, not 2.5"),
    ("rakeld", {"params": {"sequential": 1}}, "parameter 'sequential' must be bool"),
    ("memm", {"params": {"smaples": 3}}, "unknown method parameter 'smaples'"),
    ("memm", {"version": 7}, "unsupported version 7"),
    ("memm", {"version": 8}, "unsupported version 8"),
])
def test_predict_rejects_model_file_envelope(tmp_path, capsys, method, edit, needle):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", method,
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    if isinstance(edit, dict):
        envelope.update(edit)
    else:
        edit(envelope)
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "m.json", needle)


def test_a_parent_slot_cardinality_is_checked_before_the_step_is_built(tmp_path, capsys):
    # position 0 declares 10**6 values, which size step 1's parent slot,
    # while step 0 holds its 2 trained class counts: built first, step 1
    # would take a naive-Bayes table row per code of that slot, a 24 MB
    # peak, before the chain compared step 0's class count
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "memm",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    envelope["model"]["cardinalities"][0] = 10**6
    model_path.write_text(json.dumps(envelope))
    needle = "the model of chain step 0 has 2 classes, not 1000000"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=needle):
            load_model(str(model_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "m.json", needle)


@pytest.mark.parametrize("edit,needle", [
    (lambda meta: meta.update(cardinalities=[2.0, 2, 2]), "cardinality 2.0 is not an integer"),
    (lambda meta: meta["features"][2].update(cardinality=3.0), "an integer cardinality >= 1"),
    (lambda meta: meta.update(cardinalities=[10**30, 2, 2]), f"cardinality {10**30} does not fit"),
])
def test_train_rejects_non_integer_cardinality(tmp_path, capsys, edit, needle):
    d, data_path = write_toy_dataset(tmp_path)
    lines = data_path.read_text().splitlines()
    meta = json.loads(lines[1][len("# meta:"):])
    edit(meta)
    lines[1] = "# meta: " + json.dumps(meta)
    data_path.write_text("\n".join(lines) + "\n")
    assert main(["train", "--data", str(data_path), "--method", "ic",
                 "--save", str(tmp_path / "m.json")]) == 1
    one_error_line(capsys, "toy.csv", needle)


def test_predict_rejects_sample_budget_out_of_range(tmp_path, capsys):
    # training rejects such a budget, so the model file is edited
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "pcc",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    envelope["params"]["samples"] = 10**9
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "sample budget 1000000000 is not in 0..100000")


@pytest.mark.parametrize("samples", [-1, 100_001])
def test_train_rejects_sample_budget_out_of_range(tmp_path, capsys, samples):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "pcc", "--samples", str(samples),
                 "--save", str(model_path)]) == 1
    one_error_line(capsys, f"sample budget {samples} is not in 0..100000")
    assert not model_path.exists()


def _drop_last_class(nb: dict) -> None:
    for key in ("class_counts", "num_mean", "num_var"):
        nb[key] = nb[key][:-1]
    nb["cat_cells"] = [cell for cell in nb["cat_cells"] if cell[0] < len(nb["class_counts"])]


@pytest.mark.parametrize("base,edit,needle", [
    ("dt", lambda ms: ms[0]["feature"].__setitem__(0, 99), "splits on feature 99 of 3"),
    ("dt", lambda ms: ms[0]["count_cells"][0].__setitem__(1, 2),
     "cell [4, 2, 4] is not [node < 24, class < 2, count >= 1]"),
    ("dt", lambda ms: ms[0]["count_cells"][0].__setitem__(2, -1), "cell [4, 0, -1] is not"),
    ("nb", lambda ms: ms[0].update(class_counts=[20]),
     "the model of chain step 0 has 1 classes, not 2"),
    ("nb", lambda ms: _drop_last_class(ms[0]), "chain step 0 has 1 classes, not 2"),
    # step 1's parent slot, which step 0's file does not count
    ("nb", lambda ms: ms.__setitem__(1, ms[0]),
     "counts of feature 3 in class 0 do not sum to its class count"),
    ("nb", lambda ms: ms[0]["class_counts"].__setitem__(0, -1), "class counts must be non-negative"),
    ("nb", lambda ms: ms[0]["cat_cells"][0].__setitem__(2, 1.0), "entry 1.0 is not an integer"),
    ("nb", lambda ms: ms[0]["cat_cells"].insert(0, ms[0]["cat_cells"][0]), "in (class, row) order"),
    ("nb", lambda ms: ms[0]["num_var"][0].__setitem__(0, 0.0), "variances in [1e-06"),
])
def test_predict_rejects_base_model_that_does_not_fit(tmp_path, capsys, base, edit, needle):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "memm", "--base", base,
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    edit(envelope["model"]["models"])
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "m.json", needle)


@pytest.mark.parametrize("unseen,edit,needle", [
    # the unseen row missing: the two seen classes' rows only
    (True, lambda nb: nb["num_mean"].pop(), "tables do not fit 5 classes and the features: "
     "num_mean and num_var must be 3 rows of 2 values, one per distinct class"),
    # every class seen, and an extra row
    (False, lambda nb: nb["num_var"].append(nb["num_var"][0]), "tables do not fit 2 classes "
     "and the features: num_mean and num_var must be 2 rows of 2 values, one per distinct class"),
])
def test_predict_rejects_naive_bayes_rows_that_do_not_fit_the_seen_classes(
        tmp_path, capsys, unseen, edit, needle):
    d, data_path = write_toy_dataset(tmp_path)
    if unseen:  # labels stay 0 and 1, so classes 2 to 4 are never seen
        lines = data_path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"cardinalities": [2, 2, 2]', '"cardinalities": [5, 5, 5]')
        data_path.write_text("".join(lines))
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "memm",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    nb = envelope["model"]["models"][0]
    assert nb["class_counts"].count(0) == (3 if unseen else 0)
    assert len(nb["num_mean"]) == len(nb["num_var"]) == (3 if unseen else 2)
    edit(nb)
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "m.json", needle)


def test_predict_rejects_huge_cardinality_before_building_tables(tmp_path, capsys):
    # a naive-Bayes step's class counts must be as many as its position's
    # values: the check names the step before any model is built
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "ic",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    envelope["model"]["cardinalities"][0] = 10**12
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "m.json", "step 0 has", "not 1000000000000")


# Each file below asks for a table of at least 10**15 cells, 4 * 10**15 bytes
# or more: beyond the 2**48 bytes of address space Linux gives a process
# that asks for no more, so the allocation fails at once, under any
# overcommit setting, and the command ends in one error line, not a traceback.


def test_train_of_a_feature_too_wide_for_memory_is_one_error_line(tmp_path, capsys):
    # naive Bayes holds a table row per code of a categorical feature
    d, data_path = write_toy_dataset(tmp_path)
    lines = data_path.read_text().splitlines()
    meta = json.loads(lines[1][len("# meta:"):])
    assert meta["features"][2]["kind"] == "categorical"
    meta["features"][2]["cardinality"] = 10**15
    lines[1] = "# meta: " + json.dumps(meta)
    data_path.write_text("\n".join(lines) + "\n")
    assert main(["train", "--data", str(data_path), "--method", "ic", "--base", "nb",
                 "--save", str(tmp_path / "m.json")]) == 1
    one_error_line(capsys, "Unable to allocate")


def test_predict_of_a_tree_chain_too_wide_for_memory_is_one_error_line(tmp_path, capsys):
    # Viterbi holds a delta of a row per instance and a column per value of
    # a position, whatever the trees hold
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "vcc", "--base", "dt",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    envelope["model"]["cardinalities"][0] = 10**15
    model_path.write_text(json.dumps(envelope))
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "Unable to allocate")


@pytest.mark.parametrize("method", ["ic", "memm", "cc"])
def test_greedy_tree_chains_declaring_huge_cardinalities_predict_in_under_a_megabyte(
        tmp_path, method):
    """A tree holds its seen classes only, and a plain chain step, whose
    meta-class is its value, holds no table: a chain file whose every
    position declares 10**15 values predicts what the trained file does,
    loading and predicting below 1 MB in this process."""
    d, data_path = write_toy_dataset(tmp_path)
    model_path, wide_path = tmp_path / "m.json", tmp_path / "wide.json"
    assert main(["train", "--data", str(data_path), "--method", method, "--base", "dt",
                 "--save", str(model_path)]) == 0
    envelope = json.loads(model_path.read_text())
    envelope["model"]["cardinalities"] = [10**15] * d.schema.T
    wide_path.write_text(json.dumps(envelope))
    outs = []
    for path in (model_path, wide_path):
        out = tmp_path / f"{path.stem}.csv"
        assert main(["predict", "--model", str(path), str(data_path), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    X = load_dataset(str(data_path)).X
    load_model(str(wide_path))  # once untraced, so that lazy imports are done
    tracemalloc.start()
    try:
        model, _, params, seed = load_model(str(wide_path))
        pred = methods.predict_many(method, model, X, seed, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert predictions_from_csv(outs[0].decode()) == [tuple(r) for r in pred.tolist()]


def test_train_saves_the_parameters_that_have_a_value(tmp_path):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "rakeld",
                 "--save", str(model_path)]) == 0
    assert json.loads(model_path.read_text())["params"] == DEFAULT_PARAMS == {
        "alpha": 3, "ell": 2, "k": 3, "order": "time", "samples": 100}
    assert main(["train", "--data", str(data_path), "--method", "lp", "--prune", "2",
                 "--sequential", "--order", "random", "--save", str(model_path)]) == 0
    assert json.loads(model_path.read_text())["params"] == {
        "alpha": 3, "ell": 2, "k": 3, "order": "random", "samples": 100, "prune": 2,
        "sequential": True}


def test_train_flags_and_spec_keys_are_the_parameter_table():
    train = next(a for a in build_parser()._actions if a.dest == "command").choices["train"]
    flags = {a.dest for a in train._actions} - {"help", "data", "method", "base", "seed", "save"}
    assert flags == set(PARAM_TYPES)
    values = {int: "2", str: "random", bool: "yes"}
    for name, kind in PARAM_TYPES.items():
        spec = parse_experiment_spec("[dataset s]\nkind = synth-traveller\n\n"
                                     f"[method m]\nmethod = cc\n{name} = {values[kind]}\n")
        assert spec.methods[0].params == {name: kind(values[kind])}


@pytest.mark.parametrize("line,needle", [
    ("min_leaf = 5", "unknown method parameter 'min_leaf'"),
    ("max_depth = 1", "unknown method parameter 'max_depth'"),
    ("smaples = 5", "unknown method parameter 'smaples'"),
    ("samples = 5.5", "[method pcc] invalid literal for int() with base 10: '5.5'"),
    ("sequential = maybe", "[method pcc] Not a boolean: maybe"),
])
def test_experiment_rejects_method_key_before_any_cell(tmp_path, capsys, line, needle):
    spec = tmp_path / "spec.ini"
    spec.write_text("[dataset s]\nkind = synth-traveller\ntau = 2\nn_nodes = 5\n"
                    f"n_steps = 40\n\n[method pcc]\n{line}\n")
    outdir = tmp_path / "out"
    assert main(["experiment", "--spec", str(spec), "--outdir", str(outdir)]) == 1
    one_error_line(capsys, needle)
    assert not outdir.exists()


def test_predict_of_an_empty_data_file(tmp_path, capsys):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--method", "ic",
                 "--save", str(model_path)]) == 0
    lines = data_path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    data_path.write_text("\n".join(lines[:header + 1]) + "\n")
    assert main(["predict", "--model", str(model_path), str(data_path)]) == 1
    one_error_line(capsys, "no predictions to write")


def test_experiment_rejects_unknown_generator_setting(tmp_path, capsys):
    spec = tmp_path / "spec.ini"
    spec.write_text("[dataset s]\nkind = synth-traveller\ntau = 2\nn_nodes = 5\n"
                    "n_steps = 40\nbogus = 3\n\n[method ic]\n")
    assert main(["experiment", "--spec", str(spec), "--outdir", str(tmp_path / "o")]) == 1
    one_error_line(capsys, "unknown traveller setting 'bogus'")
    spec.write_text("garbage\n[experiment]\n")
    assert main(["experiment", "--spec", str(spec), "--outdir", str(tmp_path / "o")]) == 1
    one_error_line(capsys, "no section headers")


def test_synth_traveller_rejects_bad_config_file(tmp_path, capsys):
    out = tmp_path / "seq.csv"
    assert main(["synth-traveller", "--config", str(tmp_path / "missing.ini"),
                 "-o", str(out)]) == 1
    one_error_line(capsys, "missing.ini")
    cfg = tmp_path / "t.ini"
    cfg.write_text("[traveller]\nn_nodes = 6\nbogus = 1\n")
    assert main(["synth-traveller", "--config", str(cfg), "-o", str(out)]) == 1
    one_error_line(capsys, "unknown traveller setting 'bogus'")
    cfg.write_text("[traveller]\nn_nodes = six\n")
    assert main(["synth-traveller", "--config", str(cfg), "-o", str(out)]) == 1
    one_error_line(capsys, "six")
    cfg.write_text("n_nodes = 6\n")
    assert main(["synth-traveller", "--config", str(cfg), "-o", str(out)]) == 1
    one_error_line(capsys, "no section headers")
    assert not out.exists()


@pytest.mark.parametrize("line,needle", [
    ("gps_noise = nan", "gps_noise must be finite and >= 0"),
    ("gps_noise = -0.5", "gps_noise must be finite and >= 0"),
    ("commute_strength = inf", "commute_strength must be finite"),
    ("start_hour = inf", "start_hour must be finite"),
])
def test_synth_traveller_rejects_a_setting_that_breaks_the_generator(
        tmp_path, capsys, line, needle):
    cfg, out = tmp_path / "t.ini", tmp_path / "seq.csv"
    cfg.write_text(f"[traveller]\nn_nodes = 6\nn_steps = 30\n{line}\n")
    assert main(["synth-traveller", "--config", str(cfg), "-o", str(out)]) == 1
    one_error_line(capsys, needle)
    assert not out.exists()


def test_synth_traveller_cli_deterministic(tmp_path):
    outs = []
    for run in range(2):
        out = tmp_path / f"seq{run}.csv"
        assert main(["synth-traveller", "--n-nodes", "8", "--n-steps", "50",
                     "--seed", "3", "-o", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert main(["transform", str(tmp_path / "seq0.csv"), "--tau", "2",
                 "-o", str(tmp_path / "b.csv")]) == 0


def test_synth_traveller_config_file(tmp_path):
    cfg = tmp_path / "t.ini"
    cfg.write_text("[traveller]\nn_nodes = 6\nn_steps = 30\nseed = 2\nstay_prob = 1.0\n")
    out = tmp_path / "seq.csv"
    assert main(["synth-traveller", "--config", str(cfg), "-o", str(out)]) == 0
    text = out.read_text()
    states = {line.rsplit(",", 1)[-1] for line in text.splitlines()[3:]}
    assert len(states) == 1  # stay_prob 1.0 froze the walker


def test_version_command(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_commands_in_one_process_save_what_fresh_processes_save(tmp_path):
    # the parser is built once per process: a flag given to one command
    # must not stay set for the next
    d, data_path = write_toy_dataset(tmp_path)
    src = os.path.dirname(os.path.dirname(seqlabel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs = (["--order", "random"], [])
    for k, flags in enumerate(runs):
        argv = ["train", "--data", str(data_path), "--method", "cc", "--seed", "2",
                "--save", str(tmp_path / f"fresh{k}.json")] + flags
        proc = subprocess.run([sys.executable, "-m", "seqlabel.cli"] + argv, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        argv[-1 - len(flags)] = str(tmp_path / f"same{k}.json")
        assert main(argv) == 0
    for k in range(len(runs)):
        fresh = json.loads((tmp_path / f"fresh{k}.json").read_text())
        assert json.loads((tmp_path / f"same{k}.json").read_text()) == fresh
        assert fresh["params"]["order"] == ("random" if k == 0 else "time")


def test_console_script_entry_point():
    # the child process imports the same seqlabel package as this test
    src = os.path.dirname(os.path.dirname(seqlabel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "seqlabel.cli", "version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


@pytest.mark.parametrize("section,line,needle", [
    ("[experiment]", "seeed = 5", "error: [experiment] unknown setting 'seeed'"),
    ("[method ic]", "base = db", "error: [method ic] unknown base learner 'db'"),
])
def test_experiment_rejects_a_bad_setting_before_any_data_is_made(
        tmp_path, capsys, monkeypatch, section, line, needle):
    def no_data(spec):
        raise AssertionError("a dataset was materialized")

    monkeypatch.setattr(harness, "materialize_dataset", no_data)
    text = ("[experiment]\nseed = 1\n\n[dataset s]\nkind = synth-traveller\n"
            "n_steps = 40\n\n[method ic]\n")
    spec = tmp_path / "spec.ini"
    spec.write_text(text.replace(f"{section}\n", f"{section}\n{line}\n"))
    outdir = tmp_path / "out"
    assert main(["experiment", "--spec", str(spec), "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(needle) and len(err.splitlines()) == 1, err
    assert not outdir.exists()
