#!/usr/bin/env bash
# Build the SINTRA benchmark from source and run it; arguments are passed
# through (--workload NAME --seed N --seconds S --trace 0|1).  Run from the
# repository root.  Build output goes to stderr, so the last line on stdout
# is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi
"${dune[@]}" build --root . --display quiet ./benchmark/sintra_benchmark.exe >&2
exec ./_build/default/benchmark/sintra_benchmark.exe "$@"
