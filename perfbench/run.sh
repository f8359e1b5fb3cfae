#!/usr/bin/env bash
# Builds the workload benchmark from the sources of this checkout, then
# runs it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's own lines to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --display quiet perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
