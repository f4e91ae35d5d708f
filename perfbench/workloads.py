"""The benchmark's three workloads, driven through seqlabel's public API.

* ``search-nb`` and ``fit-dt`` run ``harness.two_fold_cv`` cells on a
  generated traveller stream (the grid workloads);
* ``cli-nb`` runs ``seqlabel train`` / ``predict`` / ``evaluate`` in
  process through ``cli.main``, then an online closed loop (one caller,
  ``dataio.load_model`` once, ``methods.predict_method`` per row).

All three use the traveller generator with 100 nodes and tau=5 (T=5,
L=100).  A workload runs on ``streams`` generated streams at once, so a
run's figures are averaged over several inputs and depend less on one
seed's data.  A run sets up ``SETUP_REPS`` times (and for at least
``SETUP_MIN_S``), then repeats whole passes for the measuring time, setting
up ``SETUP_REPS_PER_PASS`` more times (and for at least
``SETUP_MIN_S_PER_PASS``) after each, and reports medians over passes.
Every pass is checked, and its output digests must equal those of the
first pass.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

from seqlabel import cli, dataio, harness, methods
from seqlabel.dataio import predictions_from_csv
from seqlabel.metrics import evaluate_pairs

import tracer as tr
from hostspeed import HostSpeed

N_NODES = 100
TAU = 5
CLI_BLOCKS = 10          # cli-nb: train on even time blocks, hold out odd ones
SETUP_REPS = 5            # set-ups before the first pass,
SETUP_MIN_S = 1.0         # and at least this long;
SETUP_REPS_PER_PASS = 2   # after every pass,
SETUP_MIN_S_PER_PASS = 0.2  # and at least this long



@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                      # "grid" | "cli"
    n_steps: int
    base: str
    methods: tuple[str, ...]
    online_methods: tuple[str, ...]
    reference: str = "scoring"     # hostspeed.LOOPS entry that resembles the hot path
    # Log-log slope of the workload's times on the loop's.  Naive-Bayes
    # scoring and the CLI follow their loops one for one; tree fitting and
    # tree prediction move less than the scoring loop (slopes 0.60-0.86 over
    # 200 s of interleaved timings; over ten fit-dt runs 0.75 left the least
    # spread).
    exponent: float = 1.0
    streams: int = 1               # generated streams per run
    online_rows: int = 1000        # grid: rows per online method per stream and pass
    min_online_samples: int = 1000  # per method per run, so ten lie beyond p99

    @property
    def cells(self) -> tuple[str, ...]:
        return tuple(f"{m}-{self.base}" for m in self.methods)


WORKLOADS = {w.name: w for w in (
    Workload("search-nb",
             "search decoders (Viterbi, Monte-Carlo chain search) over naive Bayes; "
             "base predict_dist calls dominate",
             "grid", 150, "nb", ("memm", "vcc", "cc", "pcc"), ("memm", "cc"),
             streams=2, online_rows=500),
    Workload("fit-dt",
             "decision-tree training with 100 and with hundreds of classes; "
             "dt_train dominates, prediction is cheap",
             "grid", 1500, "dt", ("ic", "lp", "sicl"), ("ic", "lp", "sicl"), exponent=0.75),
    Workload("cli-nb",
             "the seqlabel CLI: model JSON writes and reads, CSV parsing, and "
             "single-row online prediction",
             "cli", 500, "nb", ("memm", "ct", "lp", "sicl"), ("memm", "ct", "lp", "sicl"),
             streams=4, reference="scoring+files"),
)}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("hamming_loss", "fraction"),
    ("peak_rss_mb", "MB"), ("train_s", "s"), ("predict_rows_per_s", "rows/s"),
    ("online_p50_us", "us"),
)

# Spans whose inclusive time is reported too (the blocking steps each
# workload is built around).
TOTAL_SPANS = ("methods.chains.viterbi_table", "methods.chains.pcc_predict",
               "base.dt_train", "cli.train", "cli.predict", "cli.evaluate")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in tr.span_names():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(f"{name}.total_s", "s", "lower") for name in TOTAL_SPANS]
    out += [(f"harness.two_fold_cv.{c}.s", "s", "lower")
            for w in WORKLOADS.values() if w.kind == "grid" for c in w.cells]
    out += [
        ("methods.chains.viterbi_table.scorings_per_instance", "count", "lower"),
        ("methods.chains.pcc_predict.step_dist_per_instance", "count", "lower"),
        ("methods.chains.pcc_predict.cache_hit_ratio", "fraction", "higher"),
        ("base.dt_train.nodes", "count", "lower"),
        ("base.dt_train.us_per_node", "us", "lower"),
        ("base.dt_train.node_class_fill", "fraction", "higher"),
        ("methods.powerset.labelsets", "count", "lower"),
        ("dataio.save_model.bytes", "bytes", "lower"),
        ("base.NaiveBayesModel.log_scores.us_per_call", "us", "lower"),
        ("metrics.levenshtein.us_per_call", "us", "lower"),
        ("online_p99_us", "us", "lower"),
        ("traced_wall_s", "s", "lower"),
        ("tracing_overhead_s", "s", "lower"),
    ]
    return out


@dataclass
class Ops:
    """Operation counter: an exception or a nonzero exit is one failure,
    and the run goes on."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def call(self, what: str, fn, *args):
        """``fn(*args)``, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except (Exception, SystemExit) as e:
            self.fail(f"{what}: {type(e).__name__}: {e}")
            return None

    def check(self, ok: bool, what: str) -> bool:
        if not ok and len(self.checks) < 20:
            self.checks.append(what)
        return ok


@dataclass
class OnlineClient:
    """One caller predicting rows one at a time with one model.  Rows are
    taken in a cycle; each prediction must equal ``expected[row]`` (cli-nb:
    the ``seqlabel predict`` output) or, without one, the first prediction
    made for that row."""

    method: str
    model: object
    seed: int
    rows: list
    expected: list | None = None
    seen: dict = field(default_factory=dict)
    cursor: int = 0


@dataclass
class State:
    cv_seed: int
    data: object                   # the whole block dataset
    train_csv: str = ""
    test_csv: str = ""
    test: object = None            # cli-nb held-out rows
    workdir: str = ""
    online: dict[str, OnlineClient] = field(default_factory=dict)


@dataclass
class PassLog:
    """One pass, as measured.  ``train`` and ``predict`` are parts of the
    operations in ``times``, under the same keys as ``ref``."""

    times: dict[str, float] = field(default_factory=dict)     # ops that make up wall_s
    train: dict[str, float] = field(default_factory=dict)
    predict: dict[str, float] = field(default_factory=dict)
    rows: int = 0                                              # rows behind predict
    hamming: dict[str, float] = field(default_factory=dict)
    online: dict[str, list[int]] = field(default_factory=dict)  # ns per call
    digests: dict[str, str] = field(default_factory=dict)
    ref: dict[str, float] = field(default_factory=dict)        # host slowness per op
    train_ref: dict[str, float] = field(default_factory=dict)  # host slowness during training
    predict_ref: dict[str, float] = field(default_factory=dict)  # and during the rest
    online_ref: dict[str, list[float]] = field(default_factory=dict)  # per sample


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def dataset_spec(w: Workload, gen_seed: int) -> harness.DatasetSpec:
    return harness.DatasetSpec(name="traveller", kind="synth-traveller", tau=TAU,
                               generator={"n_nodes": N_NODES, "n_steps": w.n_steps,
                                          "seed": gen_seed})


def stream_seeds(w: Workload, seed: int) -> list[int]:
    """Generator seeds of a run's streams: ``streams * seed + k``, so runs
    with different seeds share no stream, and seed 0 starts with generator
    seed 0, the ROADMAP baseline setting."""
    return [w.streams * seed + k for k in range(w.streams)]


def setup(w: Workload, seed: int, workdir: str) -> list[State]:
    """Every stream of the run: see ``setup_stream``."""
    states = []
    for k, gen_seed in enumerate(stream_seeds(w, seed)):
        sub = os.path.join(workdir, f"s{k}")
        os.makedirs(sub, exist_ok=True)
        states.append(setup_stream(w, gen_seed, sub))
    return states


def setup_stream(w: Workload, gen_seed: int, workdir: str) -> State:
    """Generate one stream, window it and build X/Y; cli-nb also splits it
    and writes the two CSVs.  The CV seed is the generator seed + 1."""
    d = harness.materialize_dataset(dataset_spec(w, gen_seed))
    d.X, d.Y
    st = State(gen_seed + 1, d, workdir=workdir)
    if w.kind == "cli":
        # Alternate contiguous time blocks: the walker drifts, so a plain
        # first-half/second-half split leaves up to 77% of held-out labels
        # unseen in training for some seeds, and Hamming loss swings from
        # 0.6 to 0.96 between seeds.
        block = [i * CLI_BLOCKS // d.n % 2 for i in range(d.n)]
        train = d.subset([i for i in range(d.n) if block[i] == 0])
        test = d.subset([i for i in range(d.n) if block[i] == 1])
        st.train_csv = os.path.join(workdir, "train.csv")
        st.test_csv = os.path.join(workdir, "test.csv")
        dataio.save_dataset(train, st.train_csv)
        dataio.save_dataset(test, st.test_csv)
        test.X, test.Y
        st.test = test
    return st


def _register(st: State, method: str, model, seed: int, rows, expected=None) -> None:
    client = st.online.get(method)
    if client is None:
        st.online[method] = OnlineClient(method, model, seed, rows, expected)
    else:
        client.model, client.expected = model, expected


def _online_chunk(ops: Ops, log: PassLog, st: State, n: int, schema, hs: HostSpeed) -> None:
    """``n`` timed single-row calls for every registered client.  Chunks run
    between the measured operations, so latency samples span the run."""
    clock = time.perf_counter_ns
    for c in st.online.values():
        lat = log.online.setdefault(c.method, [])
        k0 = len(lat)
        m0 = hs.mark()
        bad = 0
        for _ in range(n):
            i = c.cursor % len(c.rows)
            c.cursor += 1
            ops.attempted += 1
            own = hs.own
            t0 = clock()
            try:
                yhat = methods.predict_method(c.method, c.model, c.rows[i], c.seed)
            except Exception as e:
                ops.fail(f"online {c.method} row {i}: {type(e).__name__}: {e}")
                continue
            lat.append(clock() - t0 - round((hs.own - own) * 1e9))
            yhat = tuple(yhat)
            ref = c.expected[i] if c.expected is not None else c.seen.setdefault(i, yhat)
            if yhat != ref or not schema.conforms(yhat):
                bad += 1
        ops.check(bad == 0, f"online {c.method}: {bad} predictions wrong or off-schema")
        ref = hs.span(m0, hs.mark())[1]
        log.online_ref.setdefault(c.method, []).extend([ref] * (len(lat) - k0))


def _check_report(ops: Ops, rep, n: int, T: int, what: str) -> None:
    ok = (rep.n == n and len(rep.per_horizon) == T
          and all(0.0 <= v <= 1.0 for v in (rep.hamming_loss, rep.zero_one_loss,
                                            *rep.per_horizon))
          and rep.levenshtein_norm >= 0.0)
    ops.check(ok, f"{what}: report malformed or wrong instance count")


def _merge(parts: list[tuple[float, float]]) -> tuple[float, float]:
    """(seconds, slowness) of intervals taken together: the total, and the
    slowness that scales it as each part scaled by its own."""
    secs = sum(s for s, _ in parts)
    scaled = sum(s / r for s, r in parts)
    return secs, (secs / scaled if scaled > 0 else 1.0)


def grid_pass(w: Workload, st: State, ops: Ops, probe: tr.Tracer, hs: HostSpeed,
              log: PassLog, tag: str) -> None:
    """All cells in fixed order; after each, an online chunk on the fold-0
    models of the online methods.  Results go into ``log`` under keys
    prefixed with ``tag``.

    ``probe`` must wrap ``methods.train_method``: its spans split each cell
    into training and prediction and hand over the fold-0 model.
    """
    d = st.data
    rows = list(d.X)
    chunk = math.ceil(w.online_rows / len(w.methods))
    train_id = probe.name_id("methods.train_method")
    for method, cell in zip(w.methods, w.cells):
        probe.new_run()
        k0 = len(probe.kept)
        m0 = hs.mark()
        rep = ops.call(cell, harness.two_fold_cv, d,
                       harness.MethodSpec(cell, method, w.base), st.cv_seed)
        m1 = hs.mark()
        secs, ref = hs.span(m0, m1)
        fits = [(sid, res) for name, sid, _, _, res in probe.kept[k0:]
                if probe.name[sid] == train_id]
        if rep is not None and ops.check(len(fits) >= 1, f"{cell}: no train_method call"):
            _check_report(ops, rep, d.n, d.schema.T, cell)
            # The fits and the gaps between them (prediction and scoring),
            # each at the host speed seen during it, less sampling time.
            # Scaling the gaps by the whole cell's speed would leave the
            # error of scaling the fits in them: on fit-dt the fits are 95%
            # of the cell.
            edges = [m0[0]] + [t for sid, _ in fits for t in (probe.start[sid], probe.end[sid])]
            edges.append(m1[0])
            key = tag + cell
            log.times[key] = secs
            log.ref[key] = ref
            log.train[key], log.train_ref[key] = _merge(
                [hs.between(probe.start[sid], probe.end[sid]) for sid, _ in fits])
            log.predict[key], log.predict_ref[key] = _merge(
                [hs.between(a, b) for a, b in zip(edges[::2], edges[1::2])])
            log.rows += rep.n
            log.hamming[key] = rep.hamming_loss
            log.digests[key] = _sha(rep.to_json())
            if method in w.online_methods:
                _register(st, method, fits[0][1], st.cv_seed, rows)
        probe.new_run()
        _online_chunk(ops, log, st, chunk, d.schema, hs)


def cli_pass(w: Workload, st: State, ops: Ops, probe: tr.Tracer | None,
             hs: HostSpeed, log: PassLog, tag: str) -> None:
    """train -> predict -> evaluate per method, each model then loaded once;
    after the last method, an online chunk over every held-out row with
    every loaded model.  Results go into ``log`` under keys prefixed with
    ``tag``."""
    test = st.test
    rows = list(test.X)
    for method in w.methods:
        model_path = os.path.join(st.workdir, f"{method}.json")
        pred_path = os.path.join(st.workdir, f"{method}.pred.csv")
        eval_path = os.path.join(st.workdir, f"{method}.eval.json")
        commands = (
            ("train", ["train", "--data", st.train_csv, "--method", method, "--base", w.base,
                       "--seed", str(st.cv_seed), "--save", model_path]),
            ("predict", ["predict", "--model", model_path, st.test_csv, "-o", pred_path]),
            ("evaluate", ["evaluate", "--data", st.test_csv, "--pred", pred_path,
                          "--json", "-o", eval_path]),
        )
        ok = True
        for cmd, argv in commands:
            if probe is not None:
                probe.new_run()
            m0 = hs.mark()
            rc = ops.call(f"seqlabel {cmd} {method}", cli.main, argv)
            secs, ref = hs.span(m0, hs.mark())
            if rc is None:
                ok = False
            elif rc != 0:
                ops.fail(f"seqlabel {cmd} {method}: exit {rc}")
                ok = False
            key = f"{tag}{cmd}-{method}"
            log.times[key] = secs
            log.ref[key] = ref
            if cmd == "train":
                log.train[key] = secs
                log.train_ref[key] = ref
            elif cmd == "predict":
                log.predict[key] = secs
                log.predict_ref[key] = ref
        if ok:
            with open(pred_path) as fh:
                pred_text = fh.read()
            with open(eval_path) as fh:
                eval_text = fh.read()
            preds = predictions_from_csv(pred_text)
            log.rows += test.n
            log.digests[f"{tag}predictions-{method}"] = _sha(pred_text)
            log.digests[f"{tag}evaluate-{method}"] = _sha(eval_text)
            if ops.check(len(preds) == test.n and all(test.schema.conforms(p) for p in preds),
                         f"predict {method}: {len(preds)} rows for {test.n}, or off-schema"):
                mine = evaluate_pairs([(y, p) for (_, y), p in zip(test.instances, preds)])
                ops.check(json.loads(eval_text) == json.loads(mine.to_json()),
                          f"evaluate {method}: output differs from evaluate_pairs")
                log.hamming[tag + method] = mine.hamming_loss
                if method in w.online_methods:
                    if probe is not None:
                        probe.new_run()
                    loaded = ops.call(f"load_model {method}", dataio.load_model, model_path)
                    if loaded is not None:
                        model, meth, _, seed = loaded
                        _register(st, meth, model, seed, rows, preds)
    if probe is not None:
        probe.new_run()
    _online_chunk(ops, log, st, test.n, test.schema, hs)


def run_pass(w: Workload, states: list[State], ops: Ops, probe: tr.Tracer | None,
             hs: HostSpeed) -> PassLog:
    """One pass over every stream; keys carry an ``s<k>.`` prefix when
    there is more than one."""
    gc.collect()
    log = PassLog()
    one = grid_pass if w.kind == "grid" else cli_pass
    for k, st in enumerate(states):
        one(w, st, ops, probe, hs, log, f"s{k}." if len(states) > 1 else "")
    return log


def train_probe() -> tr.Tracer:
    """A tracer on the one boundary the untraced grid runs need."""
    probe = tr.Tracer()
    absent = tr.install(probe, {"methods": ("train_method",)})
    if absent:
        raise RuntimeError(f"cannot split cell time: {', '.join(absent)} absent")
    return probe


# ---------------------------------------------------------------------------
# summaries


def percentile(sorted_vals, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _median_sum(logs: list[PassLog], attr: str, scale: bool) -> float:
    """Sum over operations of the median over passes, optionally at the
    reference speed."""
    ref = {"train": "train_ref", "predict": "predict_ref"}.get(attr, "ref")
    total = 0.0
    for k in getattr(logs[0], attr):
        vals = [getattr(lg, attr)[k] / (getattr(lg, ref)[k] if scale else 1.0)
                for lg in logs if k in getattr(lg, attr)]
        total += statistics.median(vals)
    return total


def check_passes(ops: Ops, logs: list[PassLog]) -> None:
    for i, lg in enumerate(logs[1:], start=2):
        ops.check(lg.digests == logs[0].digests and lg.hamming == logs[0].hamming,
                  f"pass {i}: outputs differ from pass 1")


def online_percentiles(w: Workload, logs: list[PassLog], scale: bool = False) -> dict:
    """Per online method: sample count, p50 and p99 (us) over all passes."""
    online = {}
    for method in w.online_methods:
        lat = sorted(x / (r if scale else 1.0) for lg in logs
                     for x, r in zip(lg.online.get(method, ()), lg.online_ref.get(method, ())))
        if lat:
            online[method] = {"n": len(lat), "p50_us": percentile(lat, 0.50) / 1e3,
                              "p99_us": percentile(lat, 0.99) / 1e3}
    return online


def end_to_end(w: Workload, logs: list[PassLog], setup: list[tuple[float, float]],
               ops: Ops) -> tuple[dict, dict]:
    """The end-to-end metrics at the reference speed, and a detail record
    (the values as measured, sample counts, per-method percentiles,
    digests).  ``setup`` holds (seconds, reference) per set-up."""
    check_passes(ops, logs)
    first = logs[0]
    values = {}
    for scale in (True, False):
        online = online_percentiles(w, logs, scale)
        predict_s = _median_sum(logs, "predict", scale) if first.predict else 0.0
        values[scale] = {
            "setup_s": statistics.median(
                t / (r if scale else 1.0) for t, r in setup),
            "wall_s": _median_sum(logs, "times", scale) if first.times else 0.0,
            "hamming_loss": statistics.fmean(first.hamming.values()) if first.hamming else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_s": _median_sum(logs, "train", scale) if first.train else 0.0,
            "predict_rows_per_s": first.rows / predict_s if predict_s > 0 else 0.0,
            "online_p50_us": (statistics.fmean(v["p50_us"] for v in online.values())
                              if online else 0.0),
        }
    ops.check(len(online) == len(w.online_methods)
              and all(v["n"] >= w.min_online_samples for v in online.values()),
              f"online: fewer than {w.min_online_samples} samples for some method")
    refs = [r for _, r in setup] + [r for lg in logs for r in lg.ref.values()]
    metrics = {name: {"value": values[True][name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "passes": len(logs), "setup_reps": len(setup),
        "measured": values[False],
        "slowness": {"median": statistics.median(refs), "min": min(refs), "max": max(refs)},
        "op_s": {k: [lg.times[k] for lg in logs if k in lg.times] for k in first.times},
        "op_slowness": {k: [lg.ref[k] for lg in logs if k in lg.ref] for k in first.times},
        "train_s": {k: [[lg.train[k], lg.train_ref[k]] for lg in logs if k in lg.train]
                    for k in first.train},
        "predict_s": {k: [[lg.predict[k], lg.predict_ref[k]] for lg in logs if k in lg.predict]
                      for k in first.predict},
        "setup": setup,
        "online": online,
        "hamming": first.hamming,
        "digests": first.digests,
        "outputs_digest": _sha(json.dumps(first.digests, sort_keys=True)),
    }
    return metrics, detail


def _dt_stats(model_dict: dict) -> tuple[int, list[float]]:
    """Node count and, per internal node, nonzero counts / n_classes."""
    n_classes = model_dict["n_classes"]
    nodes, fills = 0, []
    stack = [model_dict["root"]]
    while stack:
        node = stack.pop()
        nodes += 1
        if "feature" in node:
            fills.append(sum(1 for c in node["counts"] if c) / n_classes)
            stack += list(node.get("children", {}).values())
            stack += [node[k] for k in ("left", "right") if k in node]
    return nodes, fills


def _labelsets(model_dict: dict) -> int:
    return len(model_dict.get("labelsets", ())) + sum(
        len(s.get("labelsets", ())) for s in model_dict.get("sets", ()))


def per_layer(w: Workload, t: tr.Tracer, untraced: PassLog, traced: PassLog,
              samples: int) -> dict:
    """Per-layer metrics from the traced pass (plus per-cell times and the
    tracing overhead, which compare it with the untraced pass)."""
    names = t.names
    nid = {n: i for i, n in enumerate(names)}
    selfs = tr.self_times(t.start, t.end, t.parent)
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    total_s = [0.0] * len(names)
    for i in range(len(t)):
        k = t.name[i]
        calls[k] += 1
        self_s[k] += selfs[i]
        total_s[k] += t.end[i] - t.start[i]

    def get(arr, name, default=0):
        return arr[nid[name]] if name in nid else default

    v: dict[str, float] = {}
    for name in tr.span_names():
        v[f"{name}.calls"] = get(calls, name)
        v[f"{name}.self_s"] = get(self_s, name, 0.0)
    for name in TOTAL_SPANS:
        v[f"{name}.total_s"] = get(total_s, name, 0.0)
    for ww in WORKLOADS.values():
        if ww.kind == "grid":
            for c in ww.cells:
                v[f"harness.two_fold_cv.{c}.s"] = sum(
                    t for k, t in untraced.times.items() if k.rsplit(".", 1)[-1] == c)

    def count_under(child_names, ancestor):
        if ancestor not in nid:
            return 0
        flags = tr.under(t.name, t.parent, {nid[ancestor]})
        kids = {nid[n] for n in child_names if n in nid}
        return sum(1 for i in range(len(t)) if flags[i] and t.name[i] in kids)

    vit = get(calls, "methods.chains.viterbi_table")
    scorings = count_under(("base.NaiveBayesModel.predict_dist",
                            "base.DecisionTreeModel.predict_dist"),
                           "methods.chains.viterbi_table")
    v["methods.chains.viterbi_table.scorings_per_instance"] = scorings / vit if vit else 0.0
    pcc = get(calls, "methods.chains.pcc_predict")
    steps = count_under(("methods.chains.ChainModel.step_dist",), "methods.chains.pcc_predict")
    v["methods.chains.pcc_predict.step_dist_per_instance"] = steps / pcc if pcc else 0.0
    v["methods.chains.pcc_predict.cache_hit_ratio"] = (
        1.0 - steps / (pcc * (samples + 1) * TAU) if pcc else 0.0)

    nodes, fills, dt_time, labelsets, model_bytes = 0, [], 0.0, 0, 0
    for name, sid, args, kwargs, result in t.kept:
        if name == "base.dt_train":
            n, f = _dt_stats(result.to_dict())
            nodes += n
            fills += f
            dt_time += t.end[sid] - t.start[sid]
        elif name in ("methods.powerset.lp_train", "methods.powerset.sicl_train"):
            labelsets += _labelsets(result.to_dict())
        elif name == "dataio.save_model":
            model_bytes += os.path.getsize(kwargs.get("path") or args[1])
    v["base.dt_train.nodes"] = nodes
    v["base.dt_train.us_per_node"] = dt_time / nodes * 1e6 if nodes else 0.0
    v["base.dt_train.node_class_fill"] = statistics.fmean(fills) if fills else 0.0
    v["methods.powerset.labelsets"] = labelsets
    v["dataio.save_model.bytes"] = model_bytes
    for name in ("base.NaiveBayesModel.log_scores", "metrics.levenshtein"):
        n = v[f"{name}.calls"]
        v[f"{name}.us_per_call"] = v[f"{name}.self_s"] / n * 1e6 if n else 0.0
    online = online_percentiles(w, [untraced])
    v["online_p99_us"] = statistics.fmean(o["p99_us"] for o in online.values()) if online else 0.0
    traced_wall = sum(traced.times.values())
    v["traced_wall_s"] = traced_wall
    v["tracing_overhead_s"] = traced_wall - sum(untraced.times.values())
    return {name: {"value": v[name], "unit": unit} for name, unit, _ in per_layer_spec()}
