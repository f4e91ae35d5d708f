"""On-disk formats: ARFF subset, sequence CSV, block-dataset CSV,
prediction CSV, and the versioned JSON model container.

CSV files carry their metadata (feature kinds, cardinalities, names) in
``#``-prefixed header lines so every load/save pair round-trips exactly.
Floats are written with ``repr``, which Python parses back bit-exactly.

Block-dataset and prediction CSVs are parsed a column at a time, with one
``int`` or ``float`` map per column; a dataset's parsed columns are its
instances and its ``X`` (float64) and ``Y`` (int64) arrays.  Only a file
that fails is parsed again row by row, to report its first bad cell with
the cell's line.  A model file stores a naive-Bayes step's Gaussian rows for
the classes seen in training only, with one row for every unseen class, and
a decision tree's breadth-first arrays with its childless nodes' counts only.
It states each fact once: a step holds neither its features nor a tree its
class count, which the chain's features, cardinalities and wiring fix
(``ChainModel.from_dict``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import DataFormatError, Dataset, Feature, LabelSchema
from .methods import ChainModel, check_method, resolve_params
from .transform import Sequence

FORMAT_DATASET = "seqlabel-dataset"
FORMAT_SEQUENCES = "seqlabel-sequences"
FORMAT_MODEL = "seqlabel-model"
FORMAT_VERSION = 1  # dataset and sequence CSV headers
# model container; v3 naive Bayes stores class counts, not log tables; v4 a
# decision tree stores its nodes as one flat list in preorder; v5 every
# model is a chain, whose labelset steps hold their tables; v6 naive Bayes
# stores the Gaussian rows of its seen classes and one row for all unseen
# ones; v7 a decision tree stores its arrays and its leaves' nonzero counts;
# v8 a step stores no fact its chain fixes: no features, no naive-Bayes
# layout, no tree class count
MODEL_VERSION = 8


def _fmt_value(v, feature: Feature | None) -> str:
    if feature is not None and feature.kind == "categorical":
        return str(int(v))
    return repr(float(v))


def _parse_value(s: str, feature: Feature | None):
    """A cell as a feature value: an ``int`` code of a categorical feature,
    else a ``float``; either must be finite as a float64."""
    try:
        v = int(s) if feature is not None and feature.kind == "categorical" else float(s)
    except ValueError as e:
        raise DataFormatError(f"bad cell {s!r}") from e
    try:
        finite = math.isfinite(v)
    except OverflowError:  # a code beyond the float64 range
        finite = False
    if not finite:
        raise DataFormatError(f"non-finite cell {s!r} (missing values are not supported)")
    return v


def _check_writable(texts) -> None:
    # the csv module leaves a carriage return in a cell unquoted, so no reader gets it back
    for t in texts:
        if "\r" in t:
            raise DataFormatError(f"cannot write {t!r} to CSV: it holds a carriage return")


def _malformed(what: str, e: Exception) -> DataFormatError:
    detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
    return DataFormatError(f"malformed {what}: {detail}")


def _read_csv(text: str, expected_format: str) -> tuple[dict, list[str], list, int]:
    """Parse the leading '# ...' lines, which end with the meta line; returns
    the meta dict, the header row, the cells of each later row and the line
    number of the first.  A row the csv module cannot read ends the rows as
    its ``csv.Error``, which ``_numbered`` raises in that row's turn."""
    stream = io.StringIO(text, newline="")
    meta = None
    n = 0
    saw_format = False
    while meta is None:
        start, line = stream.tell(), stream.readline()
        if not line.startswith("#"):
            stream.seek(start)
            break
        n += 1
        body = line[1:].strip()
        if body.startswith(expected_format):
            saw_format = True
        elif body.startswith("meta:"):
            try:
                meta = json.loads(body[len("meta:"):])
            except json.JSONDecodeError as e:
                raise DataFormatError(f"line {n}: bad meta JSON: {e}") from e
    if meta and not saw_format:
        raise DataFormatError(f"missing '# {expected_format}' format line")
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise DataFormatError("file has no data header")
    rows: list = []
    try:
        rows.extend(reader)
    except csv.Error as e:
        rows.append(e)
    return meta or {}, header, rows, n + 2


def _numbered(rows: list, width: int, first: int) -> Iterator:
    """The (line number, cells) of each row; a row that is not ``width``
    cells wide is an error."""
    for ln, row in enumerate(rows, start=first):
        if isinstance(row, csv.Error):
            raise row
        if len(row) != width:
            raise DataFormatError(f"line {ln}: {len(row)} cells, expected {width}")
        yield ln, row


def _columns(rows: list, parsers: list) -> list[list]:
    """Column j of ``rows`` parsed by ``parsers[j]`` (``int`` or ``float``),
    one ``map`` per column.  A row of another width is a ValueError, and a
    ``csv.Error`` row, which has no len, a TypeError."""
    if set(map(len, rows)) - {len(parsers)}:
        raise ValueError("a row of another width")
    return [list(map(p, c)) for p, c in zip(parsers, zip(*rows))] or [[]] * len(parsers)


def _first_bad_row(rows: list, width: int, first: int, parse_row) -> None:
    """Raise the error of the first row, in row order, that is not ``width``
    cells wide or that ``parse_row`` (one row's parse, cell by cell) rejects."""
    for ln, row in _numbered(rows, width, first):
        try:
            parse_row(row)
        except (DataFormatError, ValueError) as e:
            raise DataFormatError(f"line {ln}: {e}") from e


def _rows(columns: list[list], n: int) -> list[tuple]:
    """The n rows of ``columns`` as tuples."""
    return list(zip(*columns)) if columns else [()] * n


# ---------------------------------------------------------------------------
# block datasets


def dataset_to_csv(d: Dataset) -> str:
    meta = {
        "name": d.name,
        "cardinalities": list(d.schema.cardinalities),
        "features": [f.to_dict() for f in d.features],
    }
    _check_writable(f.name for f in d.features)
    out = io.StringIO()
    out.write(f"# {FORMAT_DATASET} v{FORMAT_VERSION}\n")
    out.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow([f.name or f"f{j}" for j, f in enumerate(d.features)]
               + [f"y{t}" for t in range(d.schema.T)])
    D, T = d.D, d.schema.T
    for x, y in d.instances:
        if len(x) != D or len(y) != T:
            raise DataFormatError("cannot serialize a malformed instance; "
                                  "run validate_dataset first")
        w.writerow([_fmt_value(v, f) for v, f in zip(x, d.features)]
                   + [str(int(v)) for v in y])
    return out.getvalue()


def dataset_from_csv(text: str) -> Dataset:
    """Parse a dataset CSV column by column into its instances and its
    ``X`` (float64) and ``Y`` (int64) arrays; ``Y`` is left to be built, and
    to fail, on first use when a label does not fit int64."""
    meta, header, rows, first = _read_csv(text, FORMAT_DATASET)
    if not meta:
        raise DataFormatError("dataset CSV is missing its '# meta:' line")
    try:
        features = tuple(Feature.from_dict(f) for f in meta["features"])
        schema = LabelSchema(tuple(meta["cardinalities"]))
    except (KeyError, TypeError, ValueError) as e:
        raise _malformed("dataset meta", e) from e
    D, T, n = len(features), schema.T, len(rows)
    if len(header) != D + T:
        raise DataFormatError(f"header has {len(header)} columns, expected {D + T}")

    def parse_row(row):
        return ([_parse_value(s, f) for s, f in zip(row, features)], [int(s) for s in row[D:]])

    parsers = [int if f.kind == "categorical" else float for f in features] + [int] * T
    try:
        columns = _columns(rows, parsers)
        X = np.array(columns[:D], dtype=np.float64).reshape(D, n).T.copy()
        if not np.isfinite(X).all():
            raise ValueError("a value that is not finite")
    except (ValueError, TypeError, OverflowError):  # an overflow: a code beyond float64
        _first_bad_row(rows, D + T, first, parse_row)
        raise
    try:
        Y = np.array(columns[D:], dtype=np.int64).T.copy()
    except OverflowError:
        Y = None
    instances = list(zip(_rows(columns[:D], n), _rows(columns[D:], n)))
    return Dataset(schema, features, instances, name=meta.get("name", ""), _X=X, _Y=Y)


def save_dataset(d: Dataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(dataset_to_csv(d))


def load_dataset(path: str) -> Dataset:
    with open(path) as fh:
        text = fh.read()
    try:
        return dataset_from_csv(text)
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# sequence streams


def sequences_to_csv(seqs: list[Sequence], features: tuple[Feature, ...],
                     n_states: int) -> str:
    _check_writable([f.name for f in features] + [s.id for s in seqs])
    if len({s.id for s in seqs}) < len(seqs):
        raise DataFormatError("sequence ids repeat, so their rows would merge")
    meta = {"n_states": n_states, "features": [f.to_dict() for f in features]}
    out = io.StringIO()
    out.write(f"# {FORMAT_SEQUENCES} v{FORMAT_VERSION}\n")
    out.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["seq_id"] + [f.name or f"f{j}" for j, f in enumerate(features)] + ["state"])
    for s in seqs:
        for e, st in zip(s.emissions, s.states):
            w.writerow([s.id] + [_fmt_value(v, f) for v, f in zip(e, features)] + [str(st)])
    return out.getvalue()


def sequences_from_csv(text: str) -> tuple[list[Sequence], tuple[Feature, ...], int]:
    """Parse a sequence CSV; rows are grouped by contiguous seq_id runs.

    Files without a meta line default to numeric features and an inferred
    state count.
    """
    meta, header, rows, first = _read_csv(text, FORMAT_SEQUENCES)
    if len(header) < 3 or header[0] != "seq_id" or header[-1] != "state":
        raise DataFormatError("expected header 'seq_id,<features...>,state'")
    D = len(header) - 2
    if meta:
        try:
            features = tuple(Feature.from_dict(f) for f in meta["features"])
            n_states: int | None = int(meta["n_states"])
        except (KeyError, TypeError, ValueError) as e:
            raise _malformed("sequence meta", e) from e
        if len(features) != D:
            raise DataFormatError("meta feature count does not match header")
    else:
        features = tuple(Feature.numeric(name) for name in header[1:-1])
        n_states = None

    seqs: list[Sequence] = []
    seen: set[str] = set()
    cur_id: str | None = None
    emissions: list[tuple] = []
    states: list[int] = []

    def flush():
        if cur_id is not None:
            seqs.append(Sequence(tuple(emissions), tuple(states), id=cur_id))

    for ln, row in _numbered(rows, len(header), first):
        sid = row[0]
        if sid != cur_id:
            if sid in seen:
                raise DataFormatError(f"line {ln}: rows of sequence {sid!r} are not contiguous")
            flush()
            cur_id = sid
            seen.add(sid)
            emissions, states = [], []
        try:
            emissions.append(tuple(_parse_value(s, f) for s, f in zip(row[1:-1], features)))
            states.append(int(row[-1]))
        except (DataFormatError, ValueError) as e:
            raise DataFormatError(f"line {ln}: {e}") from e
    flush()
    if not seqs:
        raise DataFormatError("no sequence rows")
    if n_states is None:
        n_states = max(max(s.states) for s in seqs) + 1
    return seqs, features, n_states


def load_sequences(path: str) -> tuple[list[Sequence], tuple[Feature, ...], int]:
    with open(path) as fh:
        return sequences_from_csv(fh.read())


# ---------------------------------------------------------------------------
# predictions


def predictions_to_csv(preds: list[tuple[int, ...]]) -> str:
    if not preds:
        raise DataFormatError("no predictions to write")
    T = len(preds[0])
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow([f"y{t}" for t in range(T)])
    for p in preds:
        w.writerow([str(int(v)) for v in p])
    return out.getvalue()


def predictions_from_csv(text: str) -> list[tuple[int, ...]]:
    _, header, rows, first = _read_csv(text, "")
    try:
        return _rows(_columns(rows, [int] * len(header)), len(rows))
    except (ValueError, TypeError):
        _first_bad_row(rows, len(header), first, lambda row: [int(s) for s in row])
        raise


# ---------------------------------------------------------------------------
# ARFF subset (numeric + nominal attributes)


@dataclass(frozen=True)
class ArffAttribute:
    name: str
    kind: str  # "numeric" | "nominal"
    values: tuple[str, ...] = ()


@dataclass
class ArffTable:
    relation: str
    attributes: tuple[ArffAttribute, ...]
    rows: list[tuple]  # numeric -> float, nominal -> int code (declaration order)


def load_arff(path: str) -> ArffTable:
    """Parse an ARFF file restricted to numeric and nominal attributes."""
    with open(path) as fh:
        return parse_arff(fh.read())


def parse_arff(text: str) -> ArffTable:
    relation = ""
    attributes: list[ArffAttribute] = []
    rows: list[tuple] = []
    in_data = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        low = line.lower()
        if not in_data:
            if low.startswith("@relation"):
                relation = line[len("@relation"):].strip().strip("'\"")
            elif low.startswith("@attribute"):
                body = line[len("@attribute"):].strip()
                if body[:1] in ("'", '"'):
                    end = body.find(body[0], 1)
                    if end < 0:
                        raise DataFormatError(f"line {ln}: unterminated attribute name")
                    name, rest = body[1:end], body[end + 1:].strip()
                else:
                    parts = body.split(None, 1)
                    if len(parts) != 2:
                        raise DataFormatError(f"line {ln}: malformed @attribute")
                    name, rest = parts
                if rest.startswith("{"):
                    if not rest.endswith("}"):
                        raise DataFormatError(f"line {ln}: unterminated nominal list")
                    values = tuple(v.strip().strip("'\"") for v in rest[1:-1].split(","))
                    attributes.append(ArffAttribute(name, "nominal", values))
                elif rest.lower() in ("numeric", "real", "integer"):
                    attributes.append(ArffAttribute(name, "numeric"))
                else:
                    raise DataFormatError(f"line {ln}: unsupported attribute type {rest!r}")
            elif low.startswith("@data"):
                if not attributes:
                    raise DataFormatError(f"line {ln}: @data before any @attribute")
                in_data = True
            else:
                raise DataFormatError(f"line {ln}: unexpected declaration {line.split()[0]!r}")
            continue
        cells = next(csv.reader([line]))
        if len(cells) != len(attributes):
            raise DataFormatError(
                f"line {ln}: {len(cells)} values for {len(attributes)} attributes")
        row = []
        for attr, cell in zip(attributes, cells):
            cell = cell.strip().strip("'\"")
            if attr.kind == "numeric":
                try:
                    row.append(_parse_value(cell, None))
                except DataFormatError as e:
                    raise DataFormatError(f"line {ln}: {e}") from e
            else:
                try:
                    row.append(attr.values.index(cell))
                except ValueError:
                    raise DataFormatError(
                        f"line {ln}: value {cell!r} not declared for attribute "
                        f"{attr.name!r}") from None
        rows.append(tuple(row))
    if not in_data:
        raise DataFormatError("no @data section")
    return ArffTable(relation, tuple(attributes), rows)


def arff_to_sequence(table: ArffTable, class_attr: str | int = -1,
                     id: str = "") -> tuple[Sequence, tuple[Feature, ...], int]:
    """Read an ARFF table as one (emission, state) stream: the class attribute
    becomes the state, every other attribute an emission feature."""
    attrs = table.attributes
    if isinstance(class_attr, str):
        names = [a.name for a in attrs]
        if class_attr not in names:
            raise DataFormatError(f"no attribute named {class_attr!r}")
        ci = names.index(class_attr)
    else:
        ci = class_attr % len(attrs)
    cattr = attrs[ci]
    if cattr.kind != "nominal":
        raise DataFormatError("class attribute must be nominal to define states")
    keep = [j for j in range(len(attrs)) if j != ci]
    features = tuple(
        Feature.categorical(len(attrs[j].values), attrs[j].name)
        if attrs[j].kind == "nominal" else Feature.numeric(attrs[j].name)
        for j in keep)
    emissions = tuple(tuple(row[j] for j in keep) for row in table.rows)
    states = tuple(int(row[ci]) for row in table.rows)
    return Sequence(emissions, states, id=id or table.relation), features, len(cattr.values)


# ---------------------------------------------------------------------------
# model container


def model_to_json(model, method: str, params: dict | None = None,
                  seed: int = 0) -> str:
    envelope = {
        "format": FORMAT_MODEL,
        "version": MODEL_VERSION,
        "method": method,
        "params": params or {},
        "seed": seed,
        "model": model.to_dict(),
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"))


def save_model(model, path: str, method: str, params: dict | None = None,
               seed: int = 0) -> None:
    with open(path, "w") as fh:
        fh.write(model_to_json(model, method, params, seed))


def _no_constant(name: str):
    """Reject the constants NaN, Infinity and -Infinity, which JSON does not have."""
    raise ValueError(f"{name} is not a JSON value")


def load_model(path: str) -> tuple[object, str, dict, int]:
    """Load a model container; returns (model, method, params, seed)."""
    with open(path) as fh:
        try:
            envelope = json.load(fh, parse_constant=_no_constant)
        except ValueError as e:  # a JSONDecodeError, or NaN or +-Infinity
            raise DataFormatError(f"{path}: not a model file: {e}") from e
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT_MODEL:
        raise DataFormatError(f"{path}: not a {FORMAT_MODEL} file")
    if envelope.get("version") != MODEL_VERSION:
        raise DataFormatError(f"{path}: unsupported version {envelope.get('version')!r}")
    try:
        model = ChainModel.from_dict(envelope["model"])
        method = envelope["method"]
        params, seed = envelope.get("params", {}), envelope.get("seed", 0)
        check_method(method, model)
        if not isinstance(params, dict):
            raise ValueError(f"params must be an object, not {params!r}")
        resolve_params(params)
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, not {seed!r}")
        return model, method, params, seed
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise DataFormatError(f"{path}: {_malformed('model', e)}") from e
