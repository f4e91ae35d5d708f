"""Command-line interface.

Subcommands: transform, train, predict, evaluate, experiment,
synth-traveller, version.  Data goes to files or stdout; diagnostics go to
stderr; any rejection exits nonzero with a one-line message.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys

from . import __version__
from .core import DataFormatError, validate_dataset
from .dataio import (dataset_to_csv, load_dataset, load_model, load_sequences,
                     predictions_from_csv, predictions_to_csv, save_model,
                     sequences_to_csv)
from .harness import load_experiment_spec, run_experiment
from .metrics import evaluate
from .methods import (CHAIN_ORDERS, DEFAULT_PARAMS, METHOD_NAMES, PARAM_TYPES, predict_many,
                      train_method)
from .synth import TRAVELLER_FEATURES, SynthTravellerConfig, synth_traveller
from .transform import window_transform


_SYNTH_FLAGS = ("n_nodes", "n_steps", "seed", "degree", "stay_prob")


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _cmd_transform(args) -> int:
    seqs, features, n_states = load_sequences(args.input)
    d = window_transform(seqs, args.tau, pad=args.pad, n_states=n_states,
                         features=features, name=args.name)
    problems = validate_dataset(d)
    if problems:
        raise DataFormatError(f"transformed dataset invalid: {problems[0]}")
    _write_out(dataset_to_csv(d), args.output)
    return 0


def _cmd_train(args) -> int:
    d = load_dataset(args.data)
    problems = validate_dataset(d)
    if problems:
        raise DataFormatError(f"training data invalid: {problems[0]}")
    # the parameters that have a value: prune and sequential only when set
    params = {k: v for k in PARAM_TYPES if (v := getattr(args, k)) is not None and v is not False}
    model = train_method(args.method, d, args.base, args.seed, params)
    save_model(model, args.save, args.method, params, args.seed)
    return 0


def _cmd_predict(args) -> int:
    model, method, params, seed = load_model(args.model)
    d = load_dataset(args.data)
    preds = predict_many(method, model, d.X, seed, params)
    _write_out(predictions_to_csv(preds.tolist()), args.output)
    return 0


def _cmd_evaluate(args) -> int:
    d = load_dataset(args.data)
    with open(args.pred) as fh:
        preds = predictions_from_csv(fh.read())
    if len(preds) != d.n:
        raise DataFormatError(f"{len(preds)} predictions for {d.n} instances")
    report = evaluate(d.Y, preds)
    if args.json:
        _write_out(report.to_json() + "\n", args.output)
    else:
        _write_out(report.to_kv_text(), args.output)
    return 0


def _cmd_experiment(args) -> int:
    spec = load_experiment_spec(args.spec)
    run_experiment(spec, outdir=args.outdir)
    print(f"wrote results for {len(spec.datasets)}x{len(spec.methods)} grid to {args.outdir}",
          file=sys.stderr)
    return 0


def _cmd_synth_traveller(args) -> int:
    kwargs = {}
    if args.config:
        cp = configparser.ConfigParser(delimiters=("=",), interpolation=None)
        with open(args.config) as fh:
            cp.read_file(fh)
        sect = cp["traveller"] if cp.has_section("traveller") else cp["DEFAULT"]
        kwargs = dict(sect.items())
    kwargs.update({k: getattr(args, k) for k in _SYNTH_FLAGS if getattr(args, k) is not None})
    cfg = SynthTravellerConfig.from_settings(kwargs)
    seq = synth_traveller(cfg)
    _write_out(sequences_to_csv([seq], TRAVELLER_FEATURES, cfg.n_nodes), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="seqlabel",
                                description="Multi-label methods for sequence prediction")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="sequence CSV -> block dataset CSV")
    t.add_argument("input")
    t.add_argument("--tau", type=int, required=True)
    t.add_argument("--pad", action="store_true")
    t.add_argument("--name", default="")
    t.add_argument("-o", "--output", default=None)
    t.set_defaults(func=_cmd_transform)

    tr = sub.add_parser("train", help="train a model on a block dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--method", required=True, choices=METHOD_NAMES)
    tr.add_argument("--base", default="nb", choices=("nb", "dt"))
    for name, kind in PARAM_TYPES.items():  # see the seqlabel.methods table
        if kind is bool:
            tr.add_argument(f"--{name}", action="store_true")
        else:
            tr.add_argument(f"--{name}", type=kind, default=DEFAULT_PARAMS.get(name),
                            choices=CHAIN_ORDERS if name == "order" else None)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--save", required=True)
    tr.set_defaults(func=_cmd_train)

    pr = sub.add_parser("predict", help="predict label vectors for a dataset")
    pr.add_argument("--model", required=True)
    pr.add_argument("data")
    pr.add_argument("-o", "--output", default=None)
    pr.set_defaults(func=_cmd_predict)

    ev = sub.add_parser("evaluate", help="score predictions against a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--pred", required=True)
    ev.add_argument("--json", action="store_true")
    ev.add_argument("-o", "--output", default=None)
    ev.set_defaults(func=_cmd_evaluate)

    ex = sub.add_parser("experiment", help="run a spec file over a method grid")
    ex.add_argument("--spec", required=True)
    ex.add_argument("--outdir", required=True)
    ex.set_defaults(func=_cmd_experiment)

    sy = sub.add_parser("synth-traveller", help="generate a synthetic traveller stream")
    sy.add_argument("--config", default=None)
    for name in _SYNTH_FLAGS:  # typed by SynthTravellerConfig.from_settings
        sy.add_argument("--" + name.replace("_", "-"), dest=name)
    sy.add_argument("-o", "--output", default=None)
    sy.set_defaults(func=_cmd_synth_traveller)

    ve = sub.add_parser("version", help="print the package version")
    ve.set_defaults(func=lambda args: print(__version__) or 0)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, configparser.Error, csv.Error) as e:
        print("error: " + str(e).replace("\n", " "), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
