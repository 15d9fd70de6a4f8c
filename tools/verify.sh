#!/usr/bin/env bash
# CI entry point.
#
#   tools/verify.sh          # tier-1: configure, build, run the full suite
#
# Then:
#   - a clang-tidy lint leg over src/analysis, src/codegen and tools/
#     (profile in .clang-tidy, compile database exported by the tier-1
#     build), skipped with a notice when the binary is not installed;
#   - an ASan/UBSan leg over the solver-path and long-lived-state suites
#     (lp, mip, core — which includes the incremental engine and the
#     colgen/sharded solver-mode suites — plus negotiator and netsim, the
#     layers that now hold or drive persistent engine state, the pred/bdd
#     suites covering the shared predicate DAG and the flat BDD kernel
#     with its lossy apply cache, codegen/analysis, whose Incremental
#     and Update_checker hold one predicate space across generations, and
#     automata/parser/ir/util, which hold the NFA emptiness check and the
#     numeric literal and rate parsers);
#   - a ThreadSanitizer leg over the compiler/engine/sinktree/automata
#     suites plus sharded_test (MERLIN_THREADS forces a multi-threaded
#     front-end), race-checking the parallel compilation fan-out, the
#     engine's parallel cache fills, and the sharded provisioner's
#     thread-pool fan-out on every run;
#   - a Release build of every bench_* target with one tiny bench config as
#     a smoke check, refreshing the tracked perf datapoints
#     BENCH_solver.json (per solver mode — full/colgen/sharded — wall-clock,
#     simplex iterations, B&B nodes, colgen rounds/columns, shard counts),
#     BENCH_compile.json (front-end timing breakdown per class count),
#     BENCH_adaptation.json (incremental engine delta latency vs full
#     recompile, per delta kind) and BENCH_policy_scale.json (shared
#     predicate-DAG build/classify throughput and classify-rule dedup at
#     10^5 statements, with the sharing invariants asserted in-bench);
#     committing the refreshed files each PR makes git history the perf
#     trajectory;
#   - a delta-aware codegen leg: the smoke update script replayed through
#     `merlinc --updates --emit-diffs` under ASan, with the live
#     apply-equality check on every two-phase diff and the per-update
#     diff-size statistics archived at BENCH_diffs.json;
#   - a fixed-seed merlin-fuzz smoke leg (Release build): differential
#     scenarios across all four topology families, every cross-layer oracle
#     (the incremental-vs-batch diff oracle and the symbolic dataplane
#     oracle, which re-proves every published table and two-phase update
#     with the src/analysis checker) checked after every delta, plus a
#     long-trace leg of sustained add/tune/remove churn that stresses tag
#     recycling and a --rotate-solver sweep that runs the exact solver in
#     every mode (full/colgen/sharded) under the solver cross-oracle. On
#     failure the shrunk repro is archived at FUZZ_repro.txt
#     (replay with `merlin-fuzz --replay FUZZ_repro.txt`);
#   - a daemon leg: a scripted merlind session (accepted deltas, a proven-
#     infeasible refusal, an injected crash at a publication point) must
#     exit cleanly at the expected final generation with delta->publish
#     latency percentiles archived at BENCH_daemon.json, followed by a
#     200-iteration fixed-seed fault-injection fuzz run (crashes, solver
#     timeouts, stream corruption/duplication/reordering) with the
#     snapshot-atomicity oracle alongside the full cross-layer set;
#   - a perfbench leg: the end-to-end benchmark's self-test, then a short
#     untraced run of every workload (retune, churn, compile), so the probe
#     oracle, the expected refusal codes, snapshot integrity and the
#     batch-equivalence check run on every verify; any failed output check
#     exits non-zero.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

# --- tier 1: the verify command from ROADMAP.md -----------------------------
# -Werror is on for the tier-1 build (the whole tree is warning-clean;
# src/analysis and src/codegen additionally carry -Wshadow -Wconversion),
# and the build exports compile_commands.json for the lint leg below.
cmake -B build -S . -DMERLIN_WERROR=ON
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# --- lint leg: clang-tidy over the analysis/codegen/tools sources -----------
# Gated on the binary being installed (the default container ships only the
# gcc toolchain); the curated profile lives in .clang-tidy.
if command -v clang-tidy > /dev/null 2>&1; then
    clang-tidy -p build --quiet \
        src/analysis/*.cpp src/codegen/*.cpp tools/*.cpp
else
    echo "verify.sh: clang-tidy not installed; lint leg skipped" >&2
fi

# --- sanitizer leg: solver paths + persistent engine state under ASan/UBSan -
cmake -B build-asan -S . -DMERLIN_SANITIZE=address,undefined
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS" \
    -L "lp|mip|core|negotiator|netsim|testgen|daemon|pred|bdd|codegen|analysis|automata|parser|ir|util")

# --- TSan leg: parallel front-end + daemon RCU readers under ThreadSanitizer
cmake -B build-tsan -S . -DMERLIN_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" \
      --target compiler_test engine_test sinktree_test automata_test \
               thread_pool_test daemon_concurrency_test sharded_test
(cd build-tsan && MERLIN_THREADS=4 \
    ctest --output-on-failure -j "$JOBS" \
          -R "compiler_test|engine_test|sinktree_test|automata_test|thread_pool_test|daemon_concurrency_test|sharded_test")

# --- bench smoke: Release build of every bench_* target + one tiny run ------
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
      -DMERLIN_BUILD_BENCHES=ON -DMERLIN_BUILD_TESTS=OFF
cmake --build build-release -j "$JOBS"
# The solver table runs un-tiny: the k=6/k=8 rows are the point (colgen
# and sharded keep them provisionable) and cost ~1s end to end.
MERLIN_BENCH_JSON="$PWD/BENCH_solver.json" \
    ./build-release/bench/bench_fattree_table
test -s BENCH_solver.json
MERLIN_BENCH_TINY=1 MERLIN_BENCH_JSON="$PWD/BENCH_compile.json" \
    ./build-release/bench/bench_scaling
test -s BENCH_compile.json
MERLIN_BENCH_TINY=1 MERLIN_BENCH_JSON="$PWD/BENCH_adaptation.json" \
    ./build-release/bench/bench_adaptation
test -s BENCH_adaptation.json
# Predicate sharing at scale: the bench itself asserts compiles <= distinct
# predicates and a >=2x classify-rule dedup, so a sharing regression fails
# the leg rather than just shifting a datapoint.
MERLIN_BENCH_TINY=1 MERLIN_BENCH_JSON="$PWD/BENCH_policy_scale.json" \
    ./build-release/bench/bench_policy_scale
test -s BENCH_policy_scale.json

# --- diff replay: two-phase update diffs, apply-checked live, under ASan ----
./build-asan/merlinc --generate fat-tree:4 tests/data/smoke_policy.mln \
    --quiet --updates tests/data/smoke_updates.upd --emit-diffs \
    --diff-json "$PWD/BENCH_diffs.json" > /dev/null
test -s BENCH_diffs.json

# --- fuzz smoke: fixed-seed differential scenarios, cross-layer oracles -----
FUZZ_REPRO="$PWD/FUZZ_repro.txt"
rm -f "$FUZZ_REPRO"
if ! ./build-release/merlin-fuzz --iters 200 --seed 1 --out "$FUZZ_REPRO"; then
    echo "merlin-fuzz FAILED; shrunk repro archived at $FUZZ_REPRO" >&2
    echo "replay with: ./build-release/merlin-fuzz --replay $FUZZ_REPRO" >&2
    exit 1
fi
# Long-trace churn: one scenario, no random deltas, 60 add/tune/remove
# cycles — tag recycling and diff minimality under sustained turnover.
if ! ./build-release/merlin-fuzz --iters 1 --seed 3 --max-deltas 0 \
        --long-traces 60 --out "$FUZZ_REPRO"; then
    echo "merlin-fuzz long-trace FAILED; repro at $FUZZ_REPRO" >&2
    exit 1
fi
# Solver-mode rotation: the exact solver runs in mode {full, colgen,
# sharded} on iteration i%3, and the solver cross-oracle holds colgen and
# sharded to the full encoding's verdict (same proven infeasibility, or a
# capacity-clean objective match) on every scenario.
if ! ./build-release/merlin-fuzz --iters 200 --seed 1 --rotate-solver \
        --out "$FUZZ_REPRO"; then
    echo "merlin-fuzz rotate-solver sweep FAILED; repro at $FUZZ_REPRO" >&2
    echo "replay with: ./build-release/merlin-fuzz --replay $FUZZ_REPRO" >&2
    exit 1
fi

# --- daemon leg: crash-safe control plane, end to end -----------------------
# The scripted session injects a crash at a publication point (step 3) and
# drives a proven-infeasible delta, whose refusal must name its statement;
# merlind must recover to the last-good snapshot both times, finish at
# generation 4 with 3 accepted deltas, and archive delta->publish latency
# percentiles.
SESSION_OUT=$(./build-release/merlind --generate fat-tree:4 \
    tests/data/smoke_policy.mln --fault crash-before-publish@3 \
    --script tests/data/daemon_session.ctl \
    --bench-json "$PWD/BENCH_daemon.json")
echo "$SESSION_OUT" | grep -q "refused code=infeasible gen=2 kind=bandwidth reason=statement 'g' needs"
echo "$SESSION_OUT" | grep -q "refused code=crash gen=2 kind=fail"
echo "$SESSION_OUT" | grep -q "merlind: exiting gen=4 accepted=3"
test -s BENCH_daemon.json

# Fault-injection fuzz: fixed-seed scenarios through a daemon::Controller
# under random crash/timeout/stream faults; every published snapshot must
# be old-complete or new-complete (the snapshot-atomicity oracle) on top of
# the full cross-layer oracle set. Shrinking extends to fault-plan events.
if ! ./build-release/merlin-fuzz --iters 200 --seed 1 --daemon-faults 4 \
        --out "$FUZZ_REPRO"; then
    echo "merlin-fuzz daemon-fault sweep FAILED; repro at $FUZZ_REPRO" >&2
    echo "replay with: ./build-release/merlin-fuzz --replay $FUZZ_REPRO" >&2
    exit 1
fi

# --- perfbench leg: the end-to-end benchmark's output checks ---------------
# run.py builds perfbench/ into .bench_build/ (Release) on first use and
# exits 1 when any output check of the run failed.
python3 perfbench/tests/test_perfbench.py
for workload in retune churn compile; do
    python3 perfbench/run.py --workload "$workload" --seconds 5 --trace 0 \
        > /dev/null
done

echo "verify.sh: OK"
