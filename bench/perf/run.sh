#!/bin/sh
# Build the benchmark and the asc binary it serves jobs with, then run it
# with the given arguments (see README.md).  Run from anywhere inside a
# checkout of the repository.
set -e
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: $(pwd) holds no asc source tree to build" >&2
  exit 2
fi
# No shared build cache: everything the build writes stays in _build.
DUNE_CACHE=disabled dune build --root . bench/perf/perf.exe bin/asc.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
