"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's test run (the file name does not match
``test_*.py``) because the quick workload runs take about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_program()
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

S = "synth.synth_traveller transform.window_transform harness.materialize_dataset".split()
GRID = S + ["harness.two_fold_cv", "core.Dataset.subset", "methods.train_method",
            "methods.predict_method", "metrics.evaluate_pairs", "metrics.levenshtein",
            "rng.derive_rng", "methods.chains.chain_train", "methods.chains.ChainModel.predict",
            "methods.chains.ChainModel.step_dist"]
NB = ["base.nb_train", "base.NaiveBayesModel.log_scores", "base.NaiveBayesModel.predict_dist",
      "core.normalize_log_scores"]
POWERSET = ["methods.powerset.lp_train", "methods.powerset.sicl_train",
            "methods.powerset.PowersetModel.predict", "methods.powerset.SubsetsModel.predict"]

# Functions each workload must reach; a miss means the patcher lost a binding.
EXPECTED = {
    "search-nb": GRID + NB + ["methods.chains.viterbi_table", "methods.chains.pcc_predict",
                              "rng.digest_array"],
    "fit-dt": GRID + POWERSET + ["base.dt_train", "base.DecisionTreeModel.predict_dist"],
    "cli-nb": S + NB + POWERSET + [
        "core.Dataset.subset", "methods.train_method", "methods.predict_method",
        "metrics.evaluate_pairs", "metrics.levenshtein", "rng.derive_rng",
        "methods.chains.chain_train", "methods.chains.ChainModel.predict",
        "methods.chains.ChainModel.step_dist", "methods.trellis.ct_train",
        "methods.trellis.mutual_information", "methods.trellis.TrellisModel.predict",
        "dataio.load_dataset", "dataio.save_model", "dataio.load_model",
        "dataio.predictions_to_csv", "cli.train", "cli.predict", "cli.evaluate"],
}

QUICK_STEPS = {"search-nb": 60, "fit-dt": 120, "cli-nb": 200}


def quick(name: str) -> wl.Workload:
    return dataclasses.replace(wl.WORKLOADS[name], n_steps=QUICK_STEPS[name],
                               online_rows=50, min_online_samples=10)


def test_every_wrapped_function_is_expected_somewhere():
    expected = set().union(*map(set, EXPECTED.values()))
    assert expected == set(tr.span_names())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_quick_run_has_no_failures(name, tmp_path):
    ops, metrics, detail = run.measure(quick(name), 0, 0.0, str(tmp_path))
    assert ops.failed == 0 and not ops.checks, ops.errors + ops.checks
    assert [m for m in metrics] == [n for n, _ in wl.END_TO_END]
    assert all(v["value"] > 0 for v in metrics.values())
    assert detail["passes"] >= 1


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_quick_trace_reaches_every_expected_function(name, tmp_path):
    ops, metrics, detail = run.trace(quick(name), 0, str(tmp_path), str(tmp_path))
    assert ops.failed == 0 and not ops.checks, ops.errors + ops.checks
    assert detail["absent"] == []
    missed = [f for f in EXPECTED[name] if metrics[f"{f}.calls"]["value"] < 1]
    assert missed == []
    assert [m for m in metrics] == [n for n, _, _ in wl.per_layer_spec()]
    assert os.path.isfile(os.path.join(run.ROOT, detail["spans_file"]))
    if name == "search-nb":
        assert metrics["methods.chains.viterbi_table.scorings_per_instance"]["value"] == 401


def test_self_time_on_hand_built_tree():
    # 0: [0, 10]  root
    # 1: [1, 4]   child of 0, with grandchild 2: [2, 3]
    # 3: [3.5, 6] child of 0, overlapping 1 (union of 1 and 3 is [1, 6])
    # 4: [9, 12]  child of 0 running past its end (only [9, 10] counts)
    # 5: [20, 21] a second root
    start = [0.0, 1.0, 2.0, 3.5, 9.0, 20.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0, 21.0]
    parent = [-1, 0, 1, 0, 0, -1]
    assert tr.self_times(start, end, parent) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 1.0])
    assert tr.under([0, 1, 2, 1, 1, 0], parent, {1}) == [False, False, True, False, False, False]


def test_absent_names_are_reported_not_raised():
    import seqlabel.metrics as m

    original = m.levenshtein
    t = tr.Tracer()
    absent = tr.install(t, {"metrics": ("levenshtein", "no_such_function", "NoClass.method"),
                            "no_such_module": ("f",)})
    try:
        assert absent == ["metrics.no_such_function", "metrics.NoClass.method",
                          "no_such_module.f"]
        assert m.levenshtein((1, 2), (1, 3)) == 1
        assert len(t) == 1
    finally:
        t.uninstall()
    assert m.levenshtein is original


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in wl.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(wl.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        wl.per_layer_spec()


def test_stream_seeds_start_at_the_baseline_and_never_overlap():
    for w in wl.WORKLOADS.values():
        assert wl.stream_seeds(w, 0)[0] == 0
        seen = [set(wl.stream_seeds(w, s)) for s in range(6)]
        assert all(len(s) == w.streams for s in seen)
        assert all(not (a & b) for i, a in enumerate(seen) for b in seen[i + 1:])


def test_host_speed_between_takes_sampling_time_out():
    from hostspeed import HostSpeed

    hs = HostSpeed()
    hs.at, hs.took, hs.cum = [1.0, 2.0, 3.0], [1.0, 1.4, 1.2], [0.01, 0.03, 0.04]
    secs, slowness = hs.between(1.5, 3.5)  # holds the samples at 2.0 and 3.0
    assert secs == pytest.approx(2.0 - 0.03)
    assert slowness == pytest.approx(1.3)  # median of 1.4 and 1.2
    # no sample within WINDOW (0.25 s) of [1.3, 1.7]: typical speed
    assert hs.between(1.3, 1.7) == pytest.approx((0.4, 1.0))
