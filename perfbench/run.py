"""Benchmark entry point.

    python3 perfbench/run.py --workload search-nb --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; seqlabel is imported from ``src/``.
With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it is the per-layer result of one untraced and one traced
pass.  The line before it is a detail record (sample counts, per-method
percentiles, output digests).  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="seqlabel benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed; the CV seed is seed + 1 (0 = ROADMAP baseline)")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time; whole passes are repeated within it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import seqlabel from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "seqlabel", "__init__.py")):
        sys.exit(f"error: no seqlabel package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import seqlabel

    if os.path.dirname(os.path.abspath(seqlabel.__file__)) != os.path.join(SRC, "seqlabel"):
        sys.exit(f"error: imported seqlabel from {seqlabel.__file__}, not {SRC}")


def measure(w, seed: int, seconds: float, workdir: str):
    import workloads as wl
    from hostspeed import HostSpeed

    ops = wl.Ops()
    setup = []
    with HostSpeed(w.reference, w.exponent) as hs:

        def set_up(reps, min_s):
            """At least ``reps`` set-ups, and more until ``min_s`` seconds are
            spent, so a set-up of a few milliseconds gets many samples."""
            t0 = time.perf_counter()
            n = 0
            while n < reps or time.perf_counter() - t0 < min_s:
                m0 = hs.mark()
                st = wl.setup(w, seed, workdir)
                setup.append(hs.span(m0, hs.mark()))
                n += 1
            return st

        st = set_up(wl.SETUP_REPS, wl.SETUP_MIN_S)
        probe = wl.train_probe() if w.kind == "grid" else None
        logs = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            logs.append(wl.run_pass(w, st, ops, probe, hs))
            if probe is not None:
                probe.kept.clear()
            # more set-up samples between passes, so setup_s spans the run too
            set_up(wl.SETUP_REPS_PER_PASS, wl.SETUP_MIN_S_PER_PASS)
            now = time.perf_counter()
            # stop at the pass boundary nearest to ``seconds``
            if now - start + (now - t0) / 2 > seconds:
                break
        if probe is not None:
            probe.uninstall()
    metrics, detail = wl.end_to_end(w, logs, setup, ops)
    return ops, metrics, detail


def trace(w, seed: int, workdir: str, out_dir: str):
    """One untraced and one traced pass; times as measured (no sampling)."""
    import tracer as tr
    import workloads as wl
    from hostspeed import HostSpeed
    from seqlabel import methods

    hs = HostSpeed()
    ops = wl.Ops()
    st = wl.setup(w, seed, workdir)
    probe = wl.train_probe() if w.kind == "grid" else None
    untraced = wl.run_pass(w, st, ops, probe, hs)
    if probe is not None:
        probe.uninstall()
    t = tr.Tracer()
    absent = tr.install(t)
    try:
        t.new_run()
        st = wl.setup(w, seed, workdir)
        traced = wl.run_pass(w, st, ops, t, hs)
    finally:
        t.uninstall()
    ops.check(traced.digests == untraced.digests and traced.hamming == untraced.hamming,
              "traced pass outputs differ from the untraced pass")
    metrics = wl.per_layer(w, t, untraced, traced, methods.DEFAULT_PARAMS.get("samples", 100))
    spans_path = os.path.join(out_dir, f"trace-{w.name}-seed{seed}.npz")
    t.save(spans_path)
    detail = {"absent": absent, "spans": len(t), "spans_file": os.path.relpath(spans_path, ROOT),
              "online": wl.online_percentiles(w, [untraced]), "digests": untraced.digests}
    return ops, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads as wl

    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        sys.exit(f"error: unknown workload {args.workload!r} "
                 f"(expected one of {', '.join(wl.WORKLOADS)})")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{w.name}-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        if args.trace:
            ops, metrics, detail = trace(w, args.seed, workdir, os.path.join(ROOT, ".perfbench"))
        else:
            ops, metrics, detail = measure(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in ops.errors + ops.checks:
        print(f"perfbench: {line}", file=sys.stderr)
    detail.update({"workload": w.name, "seed": args.seed, "errors": ops.errors,
                   "checks_failed": ops.checks})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not ops.checks and ops.failed == 0,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
