#!/bin/sh
# Check that the saved seed-1 test sets keep their golden CRC-32: s1423
# with directed and random T0 at 1 and 2 domains, and s5378 at 2 domains.
# An edit that changes a compaction decision changes at least one file.
# Also check the seed-1 PODEM counters of s1423 and s5378 (decisions /
# backtracks / aborts / tests / redundant): a faster implication must not
# change a single search decision.
#
# Usage: sh scripts/golden_tsets.sh [ASC]
#   ASC  the asc binary (default: _build/default/bin/asc.exe; build it
#        first with `dune build bin/asc.exe`)
# Exits 1 when any CRC or counter differs.  The s5378 runs take about
# 10-15 s each on 2 cores.
set -eu
asc=${1:-_build/default/bin/asc.exe}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

check() {
  want=$1 label=$2 circuit=$3
  shift 3
  file="$dir/$label.tset"
  "$asc" save-tests "$circuit" "$file" "$@" >/dev/null
  got=$(python3 -c 'import sys, zlib; print("%08x" % zlib.crc32(open(sys.argv[1], "rb").read()))' "$file")
  if [ "$got" = "$want" ]; then
    echo "ok   $label $got"
  else
    echo "FAIL $label: crc $got, want $want"
    status=1
  fi
}

podem() {
  want=$1 circuit=$2
  got=$("$asc" run "$circuit" --domains 2 --counters | awk '
    $1 ~ /^podem_/ { v[$1] = $2 }
    END { printf "%s/%s/%s/%s/%s", v["podem_decisions"], v["podem_backtracks"],
            v["podem_aborts"], v["podem_tests"], v["podem_redundant"] }')
  if [ "$got" = "$want" ]; then
    echo "ok   $circuit-podem $got"
  else
    echo "FAIL $circuit-podem: counters $got, want $want"
    status=1
  fi
}

for d in 1 2; do
  check 85addbe9 "s1423-directed-d$d" s1423 --domains "$d"
  check 6c7eb203 "s1423-random-d$d" s1423 --t0 random --domains "$d"
done
check 300e7ab3 s5378-d2 s5378 --domains 2
podem 11057/8915/43/11/5 s1423
podem 40434/25466/127/18/0 s5378
exit $status
