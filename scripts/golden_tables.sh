#!/bin/sh
# Check that the paper's tables and the ablation tables match their
# checked-in references: `bench/main.exe --domains D` (Tables 1-5 and
# Table A, the [2,3] column included) against
# docs/bench_reference_output.txt, and `bench/main.exe --ablations`
# against docs/ablations_reference_output.txt.  The per-circuit progress
# lines ("[ i/19] name ... s") hold timings, so they are dropped on both
# sides; every other line must match byte for byte.
#
# Usage: sh scripts/golden_tables.sh [D] [BENCH]
#   D      domain count of the table battery (default 1); the ablations
#          always run on one domain
#   BENCH  the bench binary (default: _build/default/bench/main.exe; build
#          it first with `dune build bench/main.exe`)
# Run it from the repository root.  Exits 1, printing a unified diff, when
# either output differs from its reference.  A change that moves a table
# on purpose regenerates both references in the same change.
set -eu
d=${1:-1}
bench=${2:-_build/default/bench/main.exe}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

# compare LABEL REFERENCE OUTPUT
compare() {
  label=$1 ref=$2 out=$3
  sed '/^\[ *[0-9][0-9]*\/[0-9][0-9]*\] /d' "$ref" >"$dir/want"
  sed '/^\[ *[0-9][0-9]*\/[0-9][0-9]*\] /d' "$out" >"$dir/got"
  if diff -u "$dir/want" "$dir/got" >"$dir/diff"; then
    echo "ok   $label"
  else
    echo "FAIL $label differs from $ref:"
    cat "$dir/diff"
    status=1
  fi
}

"$bench" --domains "$d" >"$dir/tables.txt"
compare "tables-d$d" docs/bench_reference_output.txt "$dir/tables.txt"
"$bench" --ablations >"$dir/ablations.txt"
compare ablations docs/ablations_reference_output.txt "$dir/ablations.txt"
exit $status
