#!/usr/bin/env bash
# Builds the benchmark from source, then runs it from the checkout root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# WALs and checkpoints live in .perfbench_state/ inside the checkout; the
# file system under it is reported with every run. Build output goes to
# stderr so the result stays the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/perfbench.exe 1>&2
state=.perfbench_state
mkdir -p "$state"
fs=$(stat -f -c %T "$state" 2>/dev/null || echo unknown)
exec ./_build/default/perfbench/perfbench.exe --state-dir "$state" --storage "$fs" "$@"
