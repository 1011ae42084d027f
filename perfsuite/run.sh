#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root:
#   bash perfsuite/run.sh --workload serve-peak --seed 1 --seconds 15 --trace 0
# The build stays inside the checkout: _build, no shared dune cache.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./perfsuite/suite.exe 1>&2
exec ./_build/default/perfsuite/suite.exe "$@"
