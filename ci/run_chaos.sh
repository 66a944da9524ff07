#!/usr/bin/env bash
# Chaos gate: builds the fault-tolerance and chaos-soak tests under
# ASan/UBSan and runs them. Everything in these suites is seeded and
# deterministic, so a failure here reproduces byte-identically with a plain
# local rerun of the same binaries. Usage:
#   ci/run_chaos.sh [build-dir]
# Environment:
#   LACHESIS_SANITIZE  sanitizer list (default address,undefined)
#   CMAKE_BUILD_TYPE   defaults to RelWithDebInfo (asserts stay on)
set -euo pipefail

SRC_DIR=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$SRC_DIR/build-chaos"}
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}" \
  -DLACHESIS_SANITIZE="${LACHESIS_SANITIZE:-address,undefined}"
# The container property suites (stable_pool_test, hash_index_test) run
# here too: linear-probing deletions, pool free-list reuse, and arena
# block recycling are exactly the code ASan/UBSan catches lying about.
# The heterogeneous-core suites run here too: the conformance fuzzer
# drives random capacity vectors and deadline triples through the sim, and
# ASan/UBSan is where queue index arithmetic and budget accounting get
# caught lying.
# fleet_chaos_test is the fleet-level failure domain: seeded machine
# crash/restart, partitions and slow shards against real per-shard control
# planes, with replay-determinism and reconvergence gates. ASan/UBSan is
# where the reboot path (retired runner graveyard, re-placed bindings,
# catch-up replay) would leak or index out of bounds.
# The metric path (tsdb_test, the three driver suites) runs here too: the
# store's per-series ring index arithmetic and the interner's arena-backed
# name views are exactly what ASan/UBSan catches reading out of bounds.
# The transition-log digest suites (transition_log_test, golden_trace_test,
# fleet_golden_test) run here too: Digest() formats every record into a
# fixed-size stack buffer, and the widest line is exactly what ASan catches
# writing past its end.
# The control-tick suites (metric_provider_test, policies_test,
# translators_test, transform_test, runner_test) run here too: schedules
# point into the metric provider's entity snapshot, and a schedule read
# after the snapshot was replaced is exactly the use-after-free ASan
# catches.
# The recorder suites (obs_ring_test, obs_trace_golden_test,
# obs_self_metrics_test) run here too: the delta layer records through
# the id-taking Recorder::Op with ids cached in its slots, and the ring's
# wraparound index arithmetic and the interner's arena views are exactly
# what ASan/UBSan catches reading out of bounds.
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target fault_tolerance_test failure_injection_test \
           schedule_delta_test runner_dynamic_test \
           stable_pool_test hash_index_test alloc_regression_test \
           hetero_machine_test conformance_test \
           tsdb_test sim_driver_test native_driver_test driver_contract_test \
           fleet_sim_test fleet_chaos_test \
           transition_log_test golden_trace_test fleet_golden_test \
           metric_provider_test policies_test translators_test \
           transform_test runner_test \
           obs_ring_test obs_trace_golden_test obs_self_metrics_test

status=0
for t in fault_tolerance_test failure_injection_test \
         schedule_delta_test runner_dynamic_test \
         stable_pool_test hash_index_test alloc_regression_test \
         hetero_machine_test conformance_test \
         tsdb_test sim_driver_test native_driver_test driver_contract_test \
         fleet_sim_test transition_log_test golden_trace_test \
         fleet_golden_test metric_provider_test policies_test \
         translators_test transform_test runner_test \
         obs_ring_test obs_trace_golden_test obs_self_metrics_test; do
  "$BUILD_DIR/tests/$t" --gtest_brief=1 || status=$?
done
# The soak's epoch count is trimmed under sanitizers: the schedule is a
# pure hash of (seed, machine, epoch), so the shorter run replays an exact
# prefix of the default-length chaos.
LACHESIS_FLEET_CHAOS_EPOCHS="${LACHESIS_FLEET_CHAOS_EPOCHS:-4000}" \
  "$BUILD_DIR/tests/fleet_chaos_test" --gtest_brief=1 || status=$?
if [ "$status" -ne 0 ]; then
  echo "run_chaos.sh: chaos suites exited with status $status" >&2
fi
exit "$status"
