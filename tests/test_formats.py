"""Property tests of the four on-disk formats: dataset CSV, sequence CSV,
ARFF and model JSON.

Each format round-trips exactly.  A random edit or truncation of a valid
file either loads or raises ``DataFormatError``, and the CLI command that
reads the file exits 0, or 1 with one ``error:`` line.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_dataset
from seqlabel.cli import main
from seqlabel.core import DataFormatError, Dataset, Feature, LabelSchema
from seqlabel.dataio import (dataset_from_csv, dataset_to_csv, load_model, model_to_json,
                             parse_arff, sequences_from_csv, sequences_to_csv)
from seqlabel.methods import METHOD_NAMES, train_method
from seqlabel.transform import Sequence

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

names = st.text(max_size=5)
features = st.lists(st.one_of(st.builds(Feature.numeric, names),
                              st.builds(Feature.categorical, st.integers(1, 4), names)),
                    max_size=4).map(tuple)


def feature_values(draw, feats):
    return tuple(draw(st.integers(0, f.cardinality - 1)) if f.kind == "categorical"
                 else draw(st.floats(allow_nan=False, allow_infinity=False)) for f in feats)


@st.composite
def datasets(draw):
    feats = draw(features)
    schema = LabelSchema(tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))))
    labels = st.tuples(*(st.integers(0, c - 1) for c in schema.cardinalities))
    rows = [(feature_values(draw, feats), draw(labels)) for _ in range(draw(st.integers(0, 5)))]
    return Dataset(schema, feats, rows, name=draw(names))


@st.composite
def sequence_streams(draw):
    feats = draw(features.filter(len))
    n_states = draw(st.integers(1, 4))
    seqs = []
    for sid in draw(st.lists(names, min_size=1, max_size=3)):
        n = draw(st.integers(1, 4))
        seqs.append(Sequence(tuple(feature_values(draw, feats) for _ in range(n)),
                             tuple(draw(st.integers(0, n_states - 1)) for _ in range(n)), sid))
    return seqs, feats, n_states


tokens = st.text("abcxyz_-0123456789", min_size=1, max_size=4)


@st.composite
def arff_tables(draw):
    """(ARFF text, attributes as (name, nominal values or None), rows)."""
    attrs = draw(st.lists(st.tuples(tokens, st.none() | st.lists(tokens, min_size=1, max_size=3,
                                                                  unique=True)),
                          min_size=1, max_size=4, unique_by=lambda a: a[0]))
    rows = [tuple(draw(st.floats(allow_nan=False, allow_infinity=False)) if vals is None
                  else draw(st.integers(0, len(vals) - 1)) for _, vals in attrs)
            for _ in range(draw(st.integers(0, 4)))]
    lines = ["% generated", f"@relation {draw(tokens)}"]
    lines += [f"@attribute '{name}' " + ("numeric" if vals is None else "{" + ",".join(vals) + "}")
              for name, vals in attrs]
    lines.append("@data")
    lines += [",".join(repr(v) if vals is None else vals[v] for v, (_, vals) in zip(row, attrs))
              for row in rows]
    return "\n".join(lines) + "\n", attrs, rows


@st.composite
def edits(draw, text: str) -> str:
    """``text`` truncated, or with one character deleted, replaced or inserted."""
    i = draw(st.integers(0, len(text)))
    c = draw(st.characters(codec="utf-8") | st.sampled_from(',#"\n{}[]:-.0123456789e'))
    return draw(st.sampled_from([text[:i], text[:i] + text[i + 1:], text[:i] + c + text[i + 1:],
                                 text[:i] + c + text[i:]]))


def loads_or_rejects(parse, text):
    try:
        parse(text)
    except DataFormatError:
        pass


def run_cli(capsys, argv) -> None:
    """The command exits 0, or 1 with one ``error:`` line."""
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 0 or (rc == 1 and err.startswith("error:") and len(err.splitlines()) == 1), err


def write(dirname, name, text) -> str:
    path = os.path.join(dirname, name)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# round trips


@settings(max_examples=150, deadline=None)
@given(datasets())
def test_dataset_csv_round_trips(d):
    if any("\r" in f.name for f in d.features):
        with pytest.raises(DataFormatError, match="carriage return"):
            dataset_to_csv(d)
        return
    text = dataset_to_csv(d)
    back = dataset_from_csv(text)
    assert (back.name, back.schema, back.features, back.instances) == (
        d.name, d.schema, d.features, d.instances)
    assert dataset_to_csv(back) == text


# floats whose text is easy to get wrong: signed zeros, subnormals, extremes
edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                               1.7976931348623157e308, -2.0 ** 53 - 2])


@st.composite
def wide_datasets(draw):
    """Datasets with codes up to 2**53 - 1 and labels up to 2**63 - 2."""
    feats = draw(st.lists(st.one_of(
        st.builds(Feature.numeric), st.builds(Feature.categorical, st.integers(1, 2 ** 53))),
        max_size=4).map(tuple))
    cards = draw(st.lists(st.integers(2, 2 ** 63 - 1), min_size=1, max_size=3))
    values = [st.integers(0, f.cardinality - 1) | st.just(f.cardinality - 1)
              if f.kind == "categorical" else
              st.floats(allow_nan=False, allow_infinity=False) | edge_floats for f in feats]
    labels = [st.integers(0, c - 1) | st.just(c - 1) for c in cards]
    rows = draw(st.lists(st.tuples(st.tuples(*values), st.tuples(*labels)), max_size=6))
    return Dataset(LabelSchema(tuple(cards)), feats, rows)


@settings(max_examples=150, deadline=None)
@given(wide_datasets())
def test_dataset_csv_columns_parse_to_the_instances_and_their_arrays(d):
    back = dataset_from_csv(dataset_to_csv(d))
    assert back.instances == d.instances
    assert [tuple(map(type, x + y)) for x, y in back.instances] == [
        tuple(int if f.kind == "categorical" else float for f in d.features)
        + (int,) * d.schema.T] * d.n
    # the reader's arrays, bit for bit the ones built from the instances
    assert back._X is not None and back._Y is not None
    for got, want in ((back._X, d.X), (back._Y, d.Y)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert got.flags.c_contiguous and not got.flags.writeable


@settings(max_examples=150, deadline=None)
@given(sequence_streams())
def test_sequence_csv_round_trips(stream):
    seqs, feats, n_states = stream
    if any("\r" in t for t in [f.name for f in feats] + [s.id for s in seqs]):
        with pytest.raises(DataFormatError, match="carriage return"):
            sequences_to_csv(seqs, feats, n_states)
        return
    if len({s.id for s in seqs}) < len(seqs):
        with pytest.raises(DataFormatError, match="sequence ids repeat"):
            sequences_to_csv(seqs, feats, n_states)
        return
    text = sequences_to_csv(seqs, feats, n_states)
    assert sequences_from_csv(text) == (seqs, feats, n_states)


@settings(max_examples=150, deadline=None)
@given(arff_tables())
def test_arff_round_trips(case):
    text, attrs, rows = case
    table = parse_arff(text)
    assert [(a.name, a.values if a.kind == "nominal" else None) for a in table.attributes] == [
        (name, tuple(vals) if vals is not None else None) for name, vals in attrs]
    assert table.rows == rows


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(METHOD_NAMES), st.sampled_from(["nb", "dt"]),
       st.integers(0, 2**32 - 1))
def test_model_json_round_trips(method, base, seed):
    d = random_dataset(np.random.default_rng(seed), n=20, T=2, max_L=3)
    params = {"k": 2, "samples": 3}
    text = model_to_json(train_method(method, d, base, seed, params), method, params, seed)
    with tempfile.TemporaryDirectory() as tmp:
        model, *envelope = load_model(write(tmp, "m.json", text))
    assert model_to_json(model, *envelope) == text


# ---------------------------------------------------------------------------
# garbage in: a DataFormatError, and one error line from the CLI

TOY = random_dataset(np.random.default_rng(7), n=12, T=2, max_L=3)
TOY_CSV = dataset_to_csv(TOY)
TOY_SEQ = sequences_to_csv([Sequence(((0.5, 1), (1.5, 0), (2.5, 2)), (0, 1, 1), "s"),
                            Sequence(((3.0, 2), (4.0, 1)), (1, 0), "t")],
                           (Feature.numeric("x"), Feature.categorical(3, "c")), 2)
TOY_ARFF = ("@relation toy\n@attribute price numeric\n@attribute 'day' {mon,tue}\n"
            "@attribute class {up,down}\n@data\n1.5,mon,up\n2.5,tue,down\n3.5,mon,up\n"
            "4.5,tue,down\n")


@FUZZ
@given(st.data())
def test_edited_dataset_csv(tmp_path, capsys, data):
    text = data.draw(edits(TOY_CSV))
    loads_or_rejects(dataset_from_csv, text)
    path = write(tmp_path, "d.csv", text)
    run_cli(capsys, ["train", "--data", path, "--method", "cc", "--save",
                     str(tmp_path / "m.json")])


@FUZZ
@given(st.data())
def test_edited_sequence_csv(tmp_path, capsys, data):
    text = data.draw(edits(TOY_SEQ))
    loads_or_rejects(sequences_from_csv, text)
    run_cli(capsys, ["transform", write(tmp_path, "s.csv", text), "--tau", "1",
                     "-o", str(tmp_path / "d.csv")])


@FUZZ
@given(st.data())
def test_edited_arff(tmp_path, capsys, data):
    text = data.draw(edits(TOY_ARFF))
    loads_or_rejects(parse_arff, text)
    write(tmp_path, "a.arff", text)
    spec = write(tmp_path, "spec.ini", "[dataset a]\nkind = arff\npath = a.arff\ntau = 1\n\n"
                                       "[method ic]\n")
    run_cli(capsys, ["experiment", "--spec", spec, "--outdir", str(tmp_path / "out")])


def json_values():
    return st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=3)
                        | st.floats(allow_nan=False), lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=5)


@st.composite
def json_edits(draw, doc):
    """``doc`` with at most one value replaced, or one key or item deleted."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        if not isinstance(node[key], (dict, list)) or not node[key] or draw(st.booleans()):
            if draw(st.booleans()):
                node[key] = draw(json_values())
            else:
                del node[key]
            break
        node = node[key]
    return doc


MODELS = {(method, base): json.loads(model_to_json(train_method(method, TOY, base, 3), method,
                                                   {"samples": 3}, 3))
          for method in ("memm", "pcc", "ct", "lp", "sicl") for base in ("nb", "dt")}


@FUZZ
@given(st.sampled_from(sorted(MODELS)), st.data())
def test_edited_model_json(tmp_path, capsys, key, data):
    doc = MODELS[key]
    text = data.draw(json_edits(doc).map(json.dumps) | edits(json.dumps(doc)))
    path = write(tmp_path, "m.json", text)
    loads_or_rejects(load_model, path)
    run_cli(capsys, ["predict", "--model", path, write(tmp_path, "d.csv", TOY_CSV),
                     "-o", str(tmp_path / "p.csv")])
