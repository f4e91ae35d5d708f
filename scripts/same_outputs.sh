#!/usr/bin/env bash
# Check that a change keeps the results of an experiment grid byte for byte.
#
#     scripts/same_outputs.sh BASE_REV
#
# Runs one `seqlabel experiment` grid at BASE_REV and one at the working
# tree (its tracked changes and untracked files included), each from its own
# `git worktree`, and compares the two outdirs with `diff -r`.  The grid is
# two small synth-traveller datasets by all nine methods, over naive Bayes
# and decision trees.  Exits 0 when the outdirs are identical, 1 when they
# differ (diff prints how), 2 on a usage error.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REV" >&2
    exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
repo=$(git rev-parse --show-toplevel)
cd "$repo"

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/base" 2>/dev/null || true
    git worktree remove --force "$tmp/work" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --quiet --detach "$tmp/base" "$base_rev"
snapshot=$(git stash create)  # the tracked changes as a commit; empty when there are none
git worktree add --quiet --detach "$tmp/work" "${snapshot:-HEAD}"
git ls-files -z --others --exclude-standard | xargs -0 -r cp --parents -t "$tmp/work"

{
    printf '[experiment]\nseed = 3\n\n'
    printf '[dataset small]\nkind = synth-traveller\ntau = 3\nn_nodes = 12\nn_steps = 300\nseed = 1\n\n'
    printf '[dataset wider]\nkind = synth-traveller\ntau = 4\nn_nodes = 30\nn_steps = 800\nseed = 2\n\n'
    for base in nb dt; do
        for method in ic cc memm vcc rakeld pcc ct sicl lp; do
            printf '[method %s-%s]\nmethod = %s\nbase = %s\n\n' "$method" "$base" "$method" "$base"
        done
    done
} > "$tmp/grid.ini"

for tree in base work; do
    echo "== $tree: seqlabel experiment" >&2
    (cd "$tmp/$tree" && PYTHONPATH=src python3 -m seqlabel.cli experiment \
        --spec "$tmp/grid.ini" --outdir "$tmp/out-$tree")
done

if diff -r "$tmp/out-base" "$tmp/out-work"; then
    echo "identical: $(find "$tmp/out-base" -type f | wc -l) files" >&2
else
    echo "the outdirs differ" >&2
    exit 1
fi
