#!/usr/bin/env bash
# Build the chlsc daemon and the benchmark from source, then run one
# benchmark invocation from the repository root:
#
#   bash perfbench/run.sh --workload warm-repeat --seed 1 --seconds 8 --trace 0
#
# Build output goes to stderr; standard output ends with the result JSON.
# The shared dune cache is off so the build reads and writes only this
# checkout's _build.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./bin/chlsc.exe ./perfbench/perfbench.exe 1>&2
commit=$( { [ -e .git ] && git rev-parse --short=12 HEAD; } 2>/dev/null || echo none)
exec ./_build/default/perfbench/perfbench.exe \
  --daemon ./_build/default/bin/chlsc.exe --commit "$commit" "$@"
