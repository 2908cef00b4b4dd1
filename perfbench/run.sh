#!/usr/bin/env bash
# Builds the benchmark and the dft_tool daemon from source, then runs
#   perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# from the root of a checkout.  Build output goes to standard error, so the
# last line of standard output stays the result object.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a source checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi
# No shared build cache: the build reads and writes inside the checkout.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/dft_tool.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
