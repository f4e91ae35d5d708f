import json

import numpy as np
import pytest

from helpers import random_dataset
from seqlabel.core import DataFormatError, Dataset, Feature, LabelSchema, validate_dataset
from seqlabel.dataio import (arff_to_sequence, dataset_from_csv,
                             dataset_to_csv, load_dataset, load_model,
                             model_to_json,
                             parse_arff, predictions_from_csv,
                             predictions_to_csv, save_model,
                             sequences_from_csv, sequences_to_csv)
from seqlabel.methods import train_method
from seqlabel.rng import derive_rng
from seqlabel.synth import (TRAVELLER_FEATURES, SynthTravellerConfig,
                            synth_traveller)
from seqlabel.transform import window_transform


def test_dataset_csv_roundtrip_identity():
    rng = derive_rng(0, "io-ds")
    d = random_dataset(rng, n=25, T=3, max_L=3, name="round trip")
    text = dataset_to_csv(d)
    d2 = dataset_from_csv(text)
    assert d2.name == d.name
    assert d2.schema == d.schema
    assert d2.features == d.features
    assert d2.instances == d.instances
    assert dataset_to_csv(d2) == text


def test_dataset_csv_rejects_malformed(tmp_path):
    with pytest.raises(DataFormatError):
        dataset_from_csv("f0,y0\n1.0,0\n")  # no meta line
    rng = derive_rng(0, "io-bad")
    d = random_dataset(rng, n=5, T=2)
    text = dataset_to_csv(d)
    lines = text.splitlines()
    lines.append("not,enough")
    with pytest.raises(DataFormatError, match="line"):
        dataset_from_csv("\n".join(lines))
    for key in ("features", "cardinalities"):
        meta = json.loads(text.splitlines()[1][len("# meta:"):])
        del meta[key]
        path = tmp_path / f"no-{key}.csv"
        path.write_text("\n".join([lines[0], "# meta: " + json.dumps(meta)] + lines[2:]))
        with pytest.raises(DataFormatError, match=f"no-{key}.csv.*{key}"):
            load_dataset(str(path))


def test_sequence_csv_roundtrip():
    from seqlabel.transform import Sequence
    feats = (Feature.numeric("v"), Feature.categorical(3, "c"))
    seqs = [
        Sequence(((0.5, 0), (1.5, 2), (2.5, 1)), (0, 1, 1), id="a"),
        Sequence(((0.25, 1), (0.125, 0)), (2, 0), id="b"),
    ]
    text = sequences_to_csv(seqs, feats, n_states=3)
    got, got_feats, got_states = sequences_from_csv(text)
    assert got == seqs
    assert got_feats == feats
    assert got_states == 3


def test_csv_writers_reject_what_would_not_read_back():
    from seqlabel.transform import Sequence
    a, b, cr = (Sequence(((0.5,), (1.5,)), (0, 1), id=i) for i in ("a", "b", "b\rc"))
    with pytest.raises(DataFormatError, match="carriage return"):
        sequences_to_csv([a, cr], (Feature.numeric("v"),), 2)
    with pytest.raises(DataFormatError, match="sequence ids repeat"):
        sequences_to_csv([a, b, a], (Feature.numeric("v"),), 2)
    d = random_dataset(derive_rng(0, "io-cr"), n=3, T=2)
    d.features = (Feature.numeric("n\r0"),) + d.features[1:]
    with pytest.raises(DataFormatError, match="carriage return"):
        dataset_to_csv(d)


def test_sequence_csv_without_meta_defaults():
    text = "seq_id,v,state\na,0.5,0\na,1.5,1\na,2.5,2\n"
    seqs, feats, n_states = sequences_from_csv(text)
    assert len(seqs) == 1 and len(seqs[0]) == 3
    assert all(f.kind == "numeric" for f in feats)
    assert n_states == 3  # inferred from the data


@pytest.mark.parametrize("key", ["n_states", "features"])
def test_transform_cli_rejects_sequence_meta_without_key(tmp_path, capsys, key):
    from seqlabel.cli import main
    from seqlabel.transform import Sequence
    text = sequences_to_csv([Sequence(((0.5,), (1.5,), (2.5,), (3.5,)), (0, 1, 1, 0), id="a")],
                            (Feature.numeric("v"),), n_states=2)
    meta = json.loads(text.splitlines()[1][len("# meta:"):])
    del meta[key]
    lines = text.splitlines()
    lines[1] = "# meta: " + json.dumps(meta)
    path = tmp_path / "seq.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["transform", str(path), "--tau", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and f"missing key '{key}'" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_sequence_csv_rejects_split_groups():
    text = "seq_id,v,state\na,1.0,0\nb,2.0,1\na,3.0,0\n"
    with pytest.raises(DataFormatError, match="contiguous"):
        sequences_from_csv(text)


def test_predictions_roundtrip():
    preds = [(0, 1, 2), (2, 1, 0), (1, 1, 1)]
    text = predictions_to_csv(preds)
    assert predictions_from_csv(text) == preds


# ---------------------------------------------------------------------------
# ARFF subset


TOY_ARFF = """% toy file
@relation toy
@attribute temp numeric
@attribute wind {a, b}
@data
1.5,a
2.5,b
3.5,a
"""


def test_arff_toy_declaration_order_coding():
    table = parse_arff(TOY_ARFF)
    assert table.relation == "toy"
    assert [a.kind for a in table.attributes] == ["numeric", "nominal"]
    assert table.rows == [(1.5, 0), (2.5, 1), (3.5, 0)]


def test_arff_rejects_undeclared_nominal_with_line():
    bad = TOY_ARFF + "4.5,zzz\n"
    with pytest.raises(DataFormatError, match="line 9"):
        parse_arff(bad)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_arff_rejects_non_finite_numeric_cell(cell):
    with pytest.raises(DataFormatError, match=f"line 9: non-finite cell '{cell}'"):
        parse_arff(TOY_ARFF + f"{cell},b\n")


def test_arff_rejects_unknown_type_and_arity():
    with pytest.raises(DataFormatError, match="unsupported attribute type"):
        parse_arff("@relation r\n@attribute d date\n@data\n")
    with pytest.raises(DataFormatError, match="line 6"):
        parse_arff("@relation r\n@attribute a numeric\n@attribute b {x,y}\n"
                   "@data\n1.0,x\n2.0\n")


def test_arff_to_sequence_stream():
    table = parse_arff(TOY_ARFF)
    seq, feats, n_states = arff_to_sequence(table, class_attr=-1)
    assert n_states == 2
    assert seq.states == (0, 1, 0)
    assert seq.emissions == ((1.5,), (2.5,), (3.5,))
    assert feats == (Feature.numeric("temp"),)
    d = window_transform([seq], tau=1, n_states=n_states, features=feats)
    assert validate_dataset(d) == []


def test_arff_numeric_class_rejected_for_states():
    table = parse_arff("@relation r\n@attribute a numeric\n@attribute b numeric\n"
                       "@data\n1.0,2.0\n")
    with pytest.raises(DataFormatError, match="nominal"):
        arff_to_sequence(table, class_attr=-1)


# ---------------------------------------------------------------------------
# model container


def test_model_container_roundtrip_bit_exact(tmp_path):
    rng = derive_rng(0, "io-model")
    d = random_dataset(rng, n=30, T=3, max_L=2)
    cases = [(m, "nb", {}) for m in ("ic", "cc", "memm", "lp", "rakeld", "ct", "sicl")]
    cases += [("cc", "nb", {"order": "random"}), ("ct", "nb", {"order": "random"}),
              ("cc", "dt", {"order": "random"}), ("ct", "dt", {}), ("lp", "dt", {})]
    for method, base, train_params in cases:
        model = train_method(method, d, base, seed=4, params=train_params)
        text = model_to_json(model, method, {"k": 2}, seed=4)
        path = tmp_path / f"{method}.json"
        save_model(model, str(path), method, {"k": 2}, seed=4)
        loaded, got_method, params, seed = load_model(str(path))
        assert got_method == method and params == {"k": 2} and seed == 4
        assert model_to_json(loaded, method, {"k": 2}, seed=4) == text
        if train_params.get("order") == "random":
            # a chain whose order is not the identity keeps its wiring
            assert model.order != (0, 1, 2)
            assert (loaded.order, loaded.parents) == (model.order, model.parents)
        for _ in range(10):
            x = np.array([rng.normal(), rng.normal(), rng.integers(0, 3)], dtype=float)
            assert loaded.predict(x) == model.predict(x)


@pytest.mark.parametrize("method", ["ic", "cc", "lp", "sicl"])
def test_tree_file_loads_the_fit_arrays_bit_for_bit(tmp_path, method):
    """A tree file holds the fit's columns and its childless nodes' counts;
    the loaded tree's arrays, the split nodes' summed counts included, are
    the fit's, dtypes too."""
    seq = synth_traveller(SynthTravellerConfig(n_nodes=30, n_steps=600, seed=4))
    d = window_transform([seq], 4, n_states=30, features=TRAVELLER_FEATURES)
    model = train_method(method, d, "dt")
    path = tmp_path / "m.json"
    save_model(model, str(path), method)
    loaded = load_model(str(path))[0]
    assert len(loaded.models) == len(model.models)
    for a, b in zip(model.models, loaded.models):
        assert a.tree.feature[0] >= 0 and a.tree._fields == b.tree._fields
        for want, got in zip(a.tree, b.tree):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_naive_bayes_file_with_unseen_classes_loads_bit_for_bit(tmp_path):
    d = random_dataset(derive_rng(0, "io-unseen"), n=30, T=3, max_L=2)
    # labels stay below 2, so each step sees 2 of its 4, 5 or 6 classes
    d = Dataset(LabelSchema((4, 5, 6)), d.features, d.instances)
    model = train_method("memm", d, "nb")
    path = tmp_path / "m.json"
    save_model(model, str(path), "memm")
    loaded = load_model(str(path))[0]
    steps = json.loads(path.read_text())["model"]["models"]
    for a, b, step in zip(model.models, loaded.models, steps):
        assert (a.class_counts == 0).sum() == a.n_classes - 2
        assert len(step["num_mean"]) == len(step["num_var"]) == 2
        assert step["unseen_mean"] == a.num_mean[-1].tolist()
        for key in ("num_mean", "num_var", "num_inv2var", "num_logconst"):
            want, got = getattr(a, key), getattr(b, key)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    X = np.vstack([d.X, derive_rng(1, "io-unseen").normal(size=(20, 3)).round(0) % 3])
    assert (loaded.predict_many(X) == model.predict_many(X)).all()


def test_model_container_rejects_other_files(tmp_path):
    p = tmp_path / "nope.json"
    p.write_text(json.dumps({"format": "other"}))
    with pytest.raises(DataFormatError):
        load_model(str(p))
    d = random_dataset(derive_rng(0, "io-model-bad"), n=10, T=2, max_L=2)
    envelope = json.loads(model_to_json(train_method("memm", d, "nb"), "memm"))
    v1 = dict(envelope, version=1)
    v2 = dict(envelope, version=2)
    v3 = dict(envelope, version=3)
    v4 = dict(envelope, version=4)
    v5 = dict(envelope, version=5)
    v6 = dict(envelope, version=6)
    no_parents = json.loads(json.dumps(envelope))
    del no_parents["model"]["parents"]
    for name, bad, why in (("v1", v1, "unsupported version 1"),
                           ("v2", v2, "unsupported version 2"),
                           ("v3", v3, "unsupported version 3"),
                           ("v4", v4, "unsupported version 4"),
                           ("v5", v5, "unsupported version 5"),
                           ("v6", v6, "unsupported version 6"),
                           ("no-parents", no_parents, "missing key 'parents'")):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(DataFormatError, match=f"{name}.json: .*{why}"):
            load_model(str(p))


# ---------------------------------------------------------------------------
# synthetic traveller


def test_synth_deterministic_bit_for_bit():
    cfg = SynthTravellerConfig(n_nodes=12, n_steps=300, seed=5)
    a = synth_traveller(cfg)
    b = synth_traveller(cfg)
    assert a == b
    c = synth_traveller(SynthTravellerConfig(n_nodes=12, n_steps=300, seed=6))
    assert a.states != c.states


def test_synth_stay_probability_one_is_constant():
    cfg = SynthTravellerConfig(n_nodes=8, n_steps=100, seed=2, stay_prob=1.0)
    seq = synth_traveller(cfg)
    assert len(set(seq.states)) == 1


def test_synth_emission_layout():
    cfg = SynthTravellerConfig(n_nodes=6, n_steps=50, seed=1, start_hour=23.9)
    seq = synth_traveller(cfg)
    days = {e[2] for e in seq.emissions}
    assert days <= set(range(7))
    hours = [e[3] for e in seq.emissions]
    assert min(hours) >= 0.0 and max(hours) <= 23.99
    # hour stamps advance by the minute and wrap into the next day code
    assert seq.emissions[0][3] == 23.9
    assert seq.emissions[7][2] == (seq.emissions[0][2] + 1) % 7


def test_synth_transform_validates_for_any_reasonable_tau():
    cfg = SynthTravellerConfig(n_nodes=10, n_steps=120, seed=3)
    seq = synth_traveller(cfg)
    for tau in (1, 3, 10, 60):
        d = window_transform([seq], tau=tau, n_states=cfg.n_nodes,
                             features=TRAVELLER_FEATURES)
        assert validate_dataset(d) == []


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthTravellerConfig(n_nodes=1)
    with pytest.raises(ValueError):
        SynthTravellerConfig(n_steps=0)
    with pytest.raises(ValueError):
        SynthTravellerConfig(stay_prob=1.5)
