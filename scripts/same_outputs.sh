#!/usr/bin/env bash
# Check that a change keeps the results of an experiment grid, and the model
# files, predictions and evaluation reports of the CLI, byte for byte.
#
#     scripts/same_outputs.sh BASE_REV
#
# Exports BASE_REV and the working tree (its tracked changes and untracked
# files included) with `git archive`, and at each of the two runs:
#   * one `seqlabel experiment` grid: three synth-traveller datasets by all
#     nine methods, over naive Bayes and decision trees, plus pcc with 1000
#     samples (`pcc1000-*`); the tree pcc cells of the two larger datasets
#     score a chain step's distinct prefixes in several groups (8 to 19),
#     while every naive-Bayes pcc cell, whose prefixes are keyed by the
#     code rows later steps read, fits a step in one group (the tests'
#     small chunkings force groups there); the third dataset, of 100
#     nodes (T = 5, L = 100), leaves most classes of a step unseen in a
#     fold (about 20 of 100 are seen), as the benchmark's streams do;
#   * on the smallest dataset, written by `seqlabel synth-traveller` and
#     `seqlabel transform`, on two copies of it cut down to one numeric
#     feature (`small-dn1`) and to none (`small-dn0`), which keep every
#     categorical feature, and on the 100-node dataset (`nodes100`):
#     `seqlabel train --save`, `seqlabel predict` and `seqlabel evaluate
#     --json` of the predictions, for each method and base learner.
# Then compares the two output trees (grid results, dataset CSVs, model JSON
# files, prediction CSVs, evaluation reports) with `diff -r`.  A change of
# the model file format shows as differing `*.json` model files only.
# Exits 0 when they are identical, 1 when they differ (diff prints how), 2 on
# a usage error.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REV" >&2
    exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
repo=$(git rev-parse --show-toplevel)
cd "$repo"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base" "$tmp/work"
git archive "$base_rev" | tar -x -C "$tmp/base"
snapshot=$(git stash create)  # the tracked changes as a commit; empty when there are none
git archive "${snapshot:-HEAD}" | tar -x -C "$tmp/work"
git ls-files -z --others --exclude-standard | xargs -0 -r cp --parents -t "$tmp/work"

methods="ic cc memm vcc rakeld pcc ct sicl lp"
{
    printf '[experiment]\nseed = 3\n\n'
    printf '[dataset small]\nkind = synth-traveller\ntau = 3\nn_nodes = 12\nn_steps = 300\nseed = 1\n\n'
    printf '[dataset wider]\nkind = synth-traveller\ntau = 4\nn_nodes = 30\nn_steps = 800\nseed = 2\n\n'
    printf '[dataset nodes100]\nkind = synth-traveller\ntau = 5\nn_nodes = 100\nn_steps = 300\nseed = 3\n\n'
    for base in nb dt; do
        for method in $methods; do
            printf '[method %s-%s]\nmethod = %s\nbase = %s\n\n' "$method" "$base" "$method" "$base"
        done
        printf '[method pcc1000-%s]\nmethod = pcc\nbase = %s\nsamples = 1000\n\n' "$base" "$base"
    done
} > "$tmp/grid.ini"

seqlabel() { (cd "$tmp/$tree" && PYTHONPATH=src python3 -m seqlabel.cli "$@"); }

# keep_numeric SRC DST [NAME...]: the dataset CSV SRC, with its numeric
# features cut down to the named ones, written to DST
keep_numeric() {
    python3 - "$@" <<'PY'
import csv, json, sys
src, dst, keep = sys.argv[1], sys.argv[2], set(sys.argv[3:])
with open(src, newline="") as fh:
    head, meta_line = fh.readline(), fh.readline()
    rows = list(csv.reader(fh))
meta = json.loads(meta_line[len("# meta:"):])
features = meta["features"]
cols = [j for j, f in enumerate(features) if f["kind"] == "categorical" or f["name"] in keep]
meta["features"] = [features[j] for j in cols]
cols += range(len(features), len(rows[0]))
with open(dst, "w", newline="") as fh:
    fh.write(head + "# meta: " + json.dumps(meta, sort_keys=True) + "\n")
    csv.writer(fh, lineterminator="\n").writerows([row[j] for j in cols] for row in rows)
PY
}

for tree in base work; do
    out="$tmp/out-$tree"
    cli="$out/cli"
    mkdir -p "$cli"
    echo "== $tree: seqlabel experiment" >&2
    seqlabel experiment --spec "$tmp/grid.ini" --outdir "$out/grid"
    echo "== $tree: seqlabel train, predict and evaluate" >&2
    seqlabel synth-traveller --n-nodes 12 --n-steps 300 --seed 1 -o "$cli/stream.csv"
    seqlabel transform "$cli/stream.csv" --tau 3 -o "$cli/small.csv"
    keep_numeric "$cli/small.csv" "$cli/small-dn1.csv" "lat[t-0]"
    keep_numeric "$cli/small.csv" "$cli/small-dn0.csv"
    seqlabel synth-traveller --n-nodes 100 --n-steps 300 --seed 3 -o "$cli/stream100.csv"
    seqlabel transform "$cli/stream100.csv" --tau 5 -o "$cli/nodes100.csv"
    for data in small small-dn1 small-dn0 nodes100; do
        for base in nb dt; do
            for method in $methods; do
                run="$cli/$data.$method-$base"
                seqlabel train --data "$cli/$data.csv" --method "$method" --base "$base" \
                    --save "$run.json"
                seqlabel predict --model "$run.json" "$cli/$data.csv" -o "$run.pred.csv"
                seqlabel evaluate --data "$cli/$data.csv" --pred "$run.pred.csv" \
                    --json -o "$run.eval.json"
            done
        done
    done
done

if diff -r "$tmp/out-base" "$tmp/out-work"; then
    echo "identical: $(find "$tmp/out-base" -type f | wc -l) files" >&2
else
    echo "the outputs differ" >&2
    exit 1
fi
