#!/usr/bin/env bash
# Build the benchmark and the korch_serve daemon from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload compile-zoo --seed 1 --seconds 10 --trace 0
#
# Build output goes to .bench_build; run state to .bench_run. The last line
# of stdout is the result JSON; everything else goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from a full checkout of the repository" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside it.
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build ./perfbench/korchbench.exe ./bin/korch_serve.exe 1>&2
exec .bench_build/default/perfbench/korchbench.exe "$@"
