#!/bin/sh
# Check that the saved seed-1 test sets keep their golden CRC-32: s1423
# with directed and random T0 at 1 and 2 domains, and s5378 at 2 domains.
# An edit that changes a compaction decision changes at least one file.
# Also check the seed-1 PODEM counters of s1423 and s5378 (decisions /
# backtracks / aborts / tests / redundant): a faster implication must not
# change a single search decision.  And check s5378's one-domain work
# (cone gates / faults simulated / faulty cycles / good cycles /
# detections / trace-cache hits / misses): a change that keeps every
# decision keeps it, and one that removes work lowers it.  And check the
# two lines `asc partial s1423` prints (the full-scan tests reused under a
# half-fanout chain, and the procedure run for that chain) at 1 and 2
# domains.
#
# Usage: sh scripts/golden_tsets.sh [ASC]
#   ASC  the asc binary (default: _build/default/bin/asc.exe; build it
#        first with `dune build bin/asc.exe`)
# Exits 1 when any CRC, counter or partial-scan line differs.  The s5378
# runs take about 10-15 s each on 2 cores, the partial-scan runs about
# 15 s each.
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

# counters WANT LABEL KEYS ARGS...: the slash-joined values of the
# comma-separated counters KEYS printed by `asc run ARGS --counters`.
counters() {
  want=$1 label=$2 keys=$3
  shift 3
  got=$("$asc" run "$@" --counters | awk -v keys="$keys" '
    { v[$1] = $2 }
    END { n = split(keys, k, ",")
          for (i = 1; i <= n; i++) printf "%s%s", (i > 1 ? "/" : ""), v[k[i]] }')
  if [ "$got" = "$want" ]; then
    echo "ok   $label $got"
  else
    echo "FAIL $label: counters $got, want $want"
    status=1
  fi
}

for d in 1 2; do
  check 85addbe9 "s1423-directed-d$d" s1423 --domains "$d"
  check 6c7eb203 "s1423-random-d$d" s1423 --t0 random --domains "$d"
done
check 300e7ab3 s5378-d2 s5378 --domains 2
podem=podem_decisions,podem_backtracks,podem_aborts,podem_tests,podem_redundant
counters 11057/8915/43/11/5 s1423-podem $podem s1423 --domains 2
counters 40434/25466/127/18/0 s5378-podem $podem s5378 --domains 2
counters 164707832/306942/1617190/14673/1386231/581/336 s5378-work-d1 \
  cone_gates_evaluated,faults_simulated,faulty_cycles,good_cycles,fault_detections,trace_cache_hits,trace_cache_misses \
  s5378 --domains 1
partial_want='s1423 with 37/74 flip-flops scanned (full-scan tests reused): 1403 cycles (full scan: 2032), coverage 2700/2782
adapted partial-scan procedure: 879 cycles, coverage 2705/2782 (2 tests)'
for d in 1 2; do
  got=$(ASC_DOMAINS=$d "$asc" partial s1423)
  if [ "$got" = "$partial_want" ]; then
    echo "ok   s1423-partial-d$d"
  else
    echo "FAIL s1423-partial-d$d: got"
    echo "$got"
    status=1
  fi
done
exit $status
