#!/usr/bin/env bash
# Build and run the benchmark from the repository root:
#   bash perfbench/run.sh --workload sweep-web --seed 1 --seconds 20 --trace 0
# dune builds the library and the benchmark from source on the first run.
set -euo pipefail
exec dune exec --root . --display quiet -- ./perfbench/main.exe "$@"
