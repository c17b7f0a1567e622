#!/bin/sh
# Tier-1 verification, in this order:
#   1. dyndist-lint, the determinism/phase-safety pass (docs/LINT.md), over
#      src/, tools/, bench/ and tests/. It needs only the dependency-free
#      analysis library, so it runs first and fails in milliseconds.
#   2. build-verify/: build + ctest, then two checks at scales ctest
#      cannot afford: the n = 10^5 sharded-kernel K-invariance smoke, and
#      every query kind over a >= 10^7-event columnar archive at 1 and 4
#      query threads (outputs compared byte for byte).
#   3. The bench gate: dyndist-bench-report --check runs every section of
#      bench/gates.json that carries gates, using the build-verify binaries.
#      Then one 1 s perfbench pass (perfbench/run.py, seed 0) per workload
#      e1_matrix, short_sweep and trace_archive must print its pinned
#      fingerprint digest, which guards the src/ entry points perfbench
#      compiles against.
#   4. build-werror/: a strict-warnings Release build (-O3, where GCC's
#      flow-sensitive warnings see the most inlining; -DDYNDIST_WERROR=ON).
#   5. The suite under AddressSanitizer, UndefinedBehaviorSanitizer and
#      ThreadSanitizer (build-asan/, build-ubsan/, build-tsan/). The ASan
#      and UBSan builds are -DDYNDIST_WERROR=ON builds too (at -O2 their
#      inlining differs from build-werror's -O3). ASan also sees a stale
#      pointer into the BodyPool's recycled payload and actor blocks,
#      which the pool poisons while they wait on a free list. UBSan
#      polices the flat graph's raw-pointer views, the intrusive payload
#      refcounts and the InlineFunction buffer arithmetic; TSan the sweep
#      runner's seed sharding and the sharded kernel's fork-join lanes, and
#      the TSan pass also compares threaded-vs-inline shard digests and
#      runs E1's densest gossip cell at shards 1, 2 and 4 on worker threads
#      (cached gossip bodies are re-sent only on their owner's lane), and
#      the far-tier golden at shards 1, 2 and 4 (serial-phase spills and
#      outbox flushes past a lane's boundary, between threaded rounds).
#
# Usage: tools/verify.sh [PASS...]
# PASS is one of lint, plain, bench-check, werror, asan, ubsan, tsan
# (steps 1, 2, 3, 4 and the three sanitizers of step 5). The named passes
# run in the order above whatever order they are given in; no names runs
# every pass. bench-check without plain still builds build-verify first.
# Build dirs: build-verify/, build-werror/, build-asan/, build-ubsan/ and
# build-tsan/ (kept for incremental reruns).

set -e

cd "$(dirname "$0")/.."
JOBS="${DYNDIST_VERIFY_JOBS:-$(nproc 2>/dev/null || echo 2)}"

PASSES="lint plain bench-check werror asan ubsan tsan"
for arg in "$@"; do
  case " $PASSES " in
    *" $arg "*) ;;
    *) echo "usage: tools/verify.sh [PASS...], PASS one of: $PASSES" >&2
       exit 2 ;;
  esac
done
SELECTED="${*:-$PASSES}"
# wants PASS: true when PASS was asked for.
wants() {
  case " $SELECTED " in *" $1 "*) return 0 ;; esac
  return 1
}

run_suite() {
  dir="$1"; shift
  echo "== configuring $dir ($*)"
  cmake -B "$dir" -S . "$@"
  echo "== building $dir"
  cmake --build "$dir" -j "$JOBS"
  echo "== ctest in $dir"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
}

# Build-only pass: warnings are a compile-time property, the plain pass
# already ran the tests.
run_build() {
  dir="$1"; shift
  echo "== configuring $dir ($*)"
  cmake -B "$dir" -S . "$@"
  echo "== building $dir"
  cmake --build "$dir" -j "$JOBS"
}

if wants lint; then
  # Static determinism/phase-safety gate before anything else: the lint
  # binary depends only on src/analysis, so it builds and fails fast even
  # when the rest of the tree does not compile yet.
  echo "== configuring build-verify (lint)"
  cmake -B build-verify -S .
  echo "== building dyndist-lint"
  cmake --build build-verify -j "$JOBS" --target dyndist-lint
  echo "== dyndist-lint over src/ tools/ bench/ tests/"
  build-verify/tools/dyndist-lint --root .
fi
# query_threads_cmp SUBCOMMAND ARGS...: runs the query over
# build-verify/query-big.dytr at 1 and 4 threads; the outputs must match.
query_threads_cmp() {
  echo "   query $*"
  sub=$1
  shift
  for t in 1 4; do
    build-verify/tools/dyndist-query query "$sub" build-verify/query-big.dytr \
      "$@" --threads "$t" > "build-verify/query-big-t$t.txt"
  done
  cmp build-verify/query-big-t1.txt build-verify/query-big-t4.txt
}

if wants plain; then
  run_suite build-verify
  # Sharded-kernel K-invariance at benchmark scale (n = 10^5): every
  # sharded rung must print the same schedule digest; the tool exits 1
  # on the first mismatch. ctest covers the same contract at n <= 10^4.
  echo "== sharded-kernel smoke, n=10^5 (build-verify)"
  build-verify/tools/dyndist-kernel-smoke \
    --processes 100000 --horizon 60 --shards 0,1,2,4
  # Sharded-query determinism at production scale: over a >= 10^7-event
  # columnar archive, every query kind renders byte-identical output at 1
  # and 4 threads (per-worker partials merged order-free, filter output in
  # chunk order).
  echo "== sharded trace-query thread-invariance, >=10^7 events (build-verify)"
  build-verify/tools/dyndist-kernel-smoke \
    --processes 100000 --horizon 120 --shards 4 \
    --trace-out build-verify/query-big.dytr
  for by in subject kind peer key; do
    query_threads_cmp group-by --by "$by"
  done
  query_threads_cmp top-k --by subject --kind deliver
  query_threads_cmp stats
  query_threads_cmp filter --from 60 --to 60
  rm -f build-verify/query-big.dytr \
    build-verify/query-big-t1.txt build-verify/query-big-t4.txt
fi
# perfbench_digest WORKLOAD PIN: a 1 s seed-0 perfbench pass of WORKLOAD
# must print fingerprint digest PIN.
perfbench_digest() {
  got=$(python3 perfbench/run.py --workload "$1" --seconds 1 |
        sed -n 's/^fingerprint .*"digest":"\([0-9a-f]*\)".*/\1/p')
  if [ "$got" != "$2" ]; then
    echo "perfbench $1: fingerprint digest '$got', pinned $2" >&2
    exit 1
  fi
  echo "   perfbench $1 digest $got"
}

if wants bench-check; then
  # The gate needs the build-verify bench binaries; build them if this run
  # skipped the plain pass. The throwaway report stays in build-verify/.
  wants plain || run_build build-verify
  echo "== bench regression gate (build-verify)"
  tools/dyndist-bench-report --check --build-dir build-verify \
    --out build-verify/bench-check.json
  echo "== perfbench fingerprint digests (seed 0)"
  perfbench_digest e1_matrix df026b8790cdd45c
  perfbench_digest short_sweep 86dd0c229b586e25
  perfbench_digest trace_archive 57141baf3ac640ab
fi
wants werror && run_build build-werror -DCMAKE_BUILD_TYPE=Release \
  -DDYNDIST_WERROR=ON
wants asan && run_suite build-asan -DDYNDIST_SANITIZE=address -DDYNDIST_WERROR=ON
wants ubsan && UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  run_suite build-ubsan -DDYNDIST_SANITIZE=undefined -DDYNDIST_WERROR=ON
if wants tsan; then
  run_suite build-tsan -DDYNDIST_SANITIZE=thread
  # Shard-invariance digest under TSan: the threaded barrier/merge paths
  # race-checked at K = 4 must produce byte-identical digests to the fully
  # inline (DYNDIST_SHARD_THREADS=1) execution of the same workload.
  echo "== shard-invariance digest under TSan (build-tsan)"
  build-tsan/tools/dyndist-kernel-smoke \
    --processes 10000 --horizon 100 --shards 1,4 \
    > build-tsan/kernel-smoke-threaded.txt
  DYNDIST_SHARD_THREADS=1 build-tsan/tools/dyndist-kernel-smoke \
    --processes 10000 --horizon 100 --shards 1,4 \
    > build-tsan/kernel-smoke-inline.txt
  cmp build-tsan/kernel-smoke-threaded.txt build-tsan/kernel-smoke-inline.txt
  echo "== gossip E1 cell-7 shard invariance under TSan (build-tsan)"
  build-tsan/tests/AggregationTest \
    --gtest_filter=Gossip.E1CellSevenShardInvariant
  echo "== far-tier golden across shard counts under TSan (build-tsan)"
  build-tsan/tests/ShardedKernelTest \
    --gtest_filter=ShardedKernel.FarTierGoldenAcrossShardCounts
fi
echo "== verify OK"
