#!/usr/bin/env bash
# Tier-1 verification: what CI runs and what every change must keep green.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo check --workspace --all-targets (every bench and test target compiles)"
cargo check --workspace --all-targets

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps with warnings denied (intra-doc links resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tcm_reduce smoke (the round close is bit-identical to the scalar reference)"
JESSY_SCALE=small cargo bench -p jessy-bench --bench tcm_reduce

echo "==> access_path smoke (arena vs seed layout, payload identity)"
JESSY_SCALE=small cargo bench -p jessy-bench --bench access_path

echo "==> recovery smoke (asserts TCM + recorded OAL log bit-identity under a master crash, every checkpoint cadence)"
JESSY_SCALE=small cargo bench -p jessy-bench --bench recovery

echo "==> overhead_frontier smoke (budget ladder, shed policies, slow-node demotion)"
JESSY_SCALE=small cargo bench -p jessy-bench --bench overhead_frontier

echo "==> placement smoke (mid-run migration recovers the scattered gap)"
JESSY_SCALE=small cargo bench -p jessy-bench --bench placement

echo "==> phase_adapt smoke (drift re-activation vs frozen baseline, no-flip identity)"
JESSY_SCALE=small cargo bench -p jessy-bench --bench phase_adapt

echo "==> sessions smoke (Zipf catalog run + journal waste mining via the CLI)"
SESS_DIR=$(mktemp -d)
./target/release/jessy-cli run -w sessions --scale small --nodes 4 --threads 8 --rate 1x \
  --adaptive 0.1 --drift-threshold 0.3 --journal "$SESS_DIR/sessions.jsonl" > /dev/null
test -s "$SESS_DIR/sessions.jsonl"
# The one CLI lane with the adaptive controller on: rate changes reach threads
# mid-run, and the journal must not depend on where their lookahead stood.
./target/release/jessy-cli run -w sessions --scale small --nodes 4 --threads 8 --rate 1x \
  --adaptive 0.1 --drift-threshold 0.3 --journal "$SESS_DIR/again.jsonl" > /dev/null
cmp "$SESS_DIR/sessions.jsonl" "$SESS_DIR/again.jsonl"
rm -rf "$SESS_DIR"

echo "==> config-rejection smoke (a config ProfilerConfig::validate rejects exits 1 naming the field, never panics)"
status=0
REJECTED=$(./target/release/jessy-cli run -w sessions --scale small --nodes 2 --threads 4 --rate 1x \
  --adaptive 0.3 --drift-threshold 0.1 2>&1 > /dev/null) || status=$?
test "$status" -eq 1
grep -qF 'ProfilerConfig.drift_threshold' <<< "$REJECTED"
status=0
REJECTED=$(./target/release/jessy-cli run -w sor --scale small --rate 0x 2>&1 > /dev/null) || status=$?
test "$status" -eq 1
grep -qF 'ProfilerConfig.initial_rate' <<< "$REJECTED"

echo "==> budget-ladder smoke (a 0.1% overhead budget walks merge_rounds:2/4/8, summary_only, exhausted; journal replays)"
LADDER_DIR=$(mktemp -d)
for run in a b; do
  LADDER=$(./target/release/jessy-cli run -w phase --scale small --nodes 4 --threads 8 --rate 1x \
    --adaptive 0.1 --drift-threshold 0.3 --overhead-budget 0.001 --journal "$LADDER_DIR/$run.jsonl")
  grep -Fx 'budget ladder       :            4 rungs (14 rounds over budget)' <<< "$LADDER"
  grep -Fx 're-convergence lag  :           12 rounds after the flip (round 4)' <<< "$LADDER"
done
cmp "$LADDER_DIR/a.jsonl" "$LADDER_DIR/b.jsonl"
rm -rf "$LADDER_DIR"

echo "==> observability smoke (multi-thread journal bit-identity + trace export)"
OBS_DIR=$(mktemp -d)
./target/release/jessy-cli run -w sor --scale small --nodes 2 --threads 4 --rate 4x \
  --journal "$OBS_DIR/a.jsonl" > /dev/null
./target/release/jessy-cli run -w sor --scale small --nodes 2 --threads 4 --rate 4x \
  --journal "$OBS_DIR/b.jsonl" > /dev/null
test -s "$OBS_DIR/a.jsonl"
cmp "$OBS_DIR/a.jsonl" "$OBS_DIR/b.jsonl"   # multi-thread journals must be bit-identical
./target/release/jessy-cli run -w sor --scale small --nodes 2 --threads 4 --rate 4x \
  --trace "$OBS_DIR/trace.json" > /dev/null
grep -q '"traceEvents"' "$OBS_DIR/trace.json"
rm -rf "$OBS_DIR"

echo "==> report-replay smoke (two same-seed runs print the same RunReport, host-time fields aside)"
REPLAY_DIR=$(mktemp -d)
for run in a b; do
  ./target/release/jessy-cli run -w sor --scale small --nodes 2 --threads 4 --rate 4x --json \
    | grep -v -e '"wall_ns"' -e '"tcm_build_real_ns"' > "$REPLAY_DIR/$run.json"
done
grep -q '"sim_exec_ns"' "$REPLAY_DIR/a.json"
cmp "$REPLAY_DIR/a.json" "$REPLAY_DIR/b.json"
rm -rf "$REPLAY_DIR"

echo "==> export-failure smoke (a requested journal that cannot be written exits 1 naming the path)"
status=0
FAILED=$(./target/release/jessy-cli run -w sor --scale small --nodes 2 --threads 2 \
  --journal /nonexistent/dir/x.jsonl 2>&1 > /dev/null) || status=$?
test "$status" -eq 1
grep -qF '/nonexistent/dir/x.jsonl' <<< "$FAILED"

echo "==> heatmap smoke (Fig. 1 from the CLI: inherent and induced maps of the same run)"
HEATMAP=$(./target/release/jessy-cli heatmap -w bh --scale small -n 2 -t 4)
grep -qF 'inherent (object-grain)' <<< "$HEATMAP"
grep -qF 'induced (page-grain)' <<< "$HEATMAP"

echo "==> one-shot rebalance smoke (--rebalance alone is one epoch of the placement engine; journal replays)"
ONE_DIR=$(mktemp -d)
for run in a b; do
  ./target/release/jessy-cli run -w bh --scale small --nodes 4 --threads 8 --rate 4x --rebalance 2 \
    --journal "$ONE_DIR/$run.jsonl" | grep -E '^placement engine +: +1 plans,'
done
cmp "$ONE_DIR/a.jsonl" "$ONE_DIR/b.jsonl"
rm -rf "$ONE_DIR"

echo "==> schedule-cost gate (paper-scale SOR: executor hand-offs per access, a count that replays exactly)"
# 3 189 hand-offs over 122 760 accesses; 0.338 per access while armed traps
# were visible. A pure function of the schedule, so gated as a count, not as
# wall-clock.
./target/release/jessy-cli run -w sor --scale paper --nodes 8 --threads 8 --rate 4x \
  | awk '/^executor hand-offs/ { seen = 1; gsub(/[()]/, ""); print; if ($5 + 0 > 0.03) exit 1 }
         END { if (!seen) exit 1 }'

echo "==> schedule-cost gate (paper-scale Water: executor hand-offs per access)"
# 7 366 hand-offs over 54 036 accesses; 4.941 per access while every compute
# call after the first of a compute-only stretch was a scheduling point.
./target/release/jessy-cli run -w water --scale paper --nodes 4 --threads 8 --rate 1x \
  | awk '/^executor hand-offs/ { seen = 1; gsub(/[()]/, ""); print; if ($5 + 0 > 0.15) exit 1 }
         END { if (!seen) exit 1 }'

echo "==> chaos seed matrix (fault determinism must not depend on one seed)"
# The suite includes the partition schedules (heal + permanent), the slow-node
# windows and the zero-plan invariant; every seed must satisfy every assertion.
# The GOS stress suite takes its executor seed from the same variable, so each
# seed is another interleaving of its lock and barrier storms; the executor's
# own unit tests take it too, for their hand-off, outside-wake and poison storms
# and for the transport differential (tasks on their own stacks and OS carriers
# registered through register_current log the same schedule). CI runs each seed
# here, once.
for seed in 1 7 42 1337 31337 99999; do
  echo "--- JESSY_CHAOS_SEED=$seed"
  JESSY_CHAOS_SEED=$seed cargo test -p jessy-runtime --test chaos -q
  JESSY_CHAOS_SEED=$seed cargo test -p jessy --test drift -q phase_flip_inside
  JESSY_CHAOS_SEED=$seed cargo test -p jessy-gos --test stress -q
  JESSY_CHAOS_SEED=$seed cargo test -p jessy-net --lib -q executor
done

echo "==> single-writer cells in release (clock cells, GOS and profiler counter totals, GOS protocol and stress suites)"
# Clocks and per-access counters are a load and a store by their one writer;
# the chaos matrix runs the stress suite in debug only, and a lost update or a
# mismatched space/clock pair must fail in the build the benchmark runs too.
cargo test --release -p jessy-net --lib -q clock::
cargo test --release -p jessy-core --test counter_cells -q
cargo test --release -p jessy-gos --test stress --test protocol -q

echo "==> master core in release (stage tests against a fake boundary, crash-point enumeration, record-and-replay of live runs)"
# The stage tests include the enumeration of master crash windows
# (every_crash_point_restores_the_crash_free_state, under 1 s here). The replay
# test reruns each recorded run's master through the same drive loop and
# requires bit-equal writes and output; release is the build the benchmark's
# master runs in.
cargo test --release -p jessy-runtime --lib -q master::
cargo test --release --test replay -q

echo "==> group access in release (update vs its read/write sequence, snapshot-before-yield, SOR, Barnes-Hut and Water sampling oracle, hit-path allocations)"
# A group access borrows payloads in place across its members' checks; the
# benchmark runs it in release, where an allocation or a stale borrow would
# show as a number, not as a failure.
cargo test --release --test group_access --test sampling_oracle --test hit_path_allocs -q

echo "==> benchmark smoke (benchmark/run.sh --quick: five workloads, small presets, results checked)"
benchmark/run.sh --quick > /dev/null
# run.sh builds without --locked: a dependency edge dropped from a path crate
# would silently rewrite the benchmark's lockfile. Make that loud.
git diff --exit-code -- benchmark/Cargo.lock

echo "==> profiler-pays-for-itself gate (water_migrate sim_vs_off_pct < 75 in the smoke's results: simulated, so it replays exactly)"
# 71.08 at the smoke's seed; 78.94 while the placement engine's node labels
# ignored where each group's data was homed; 92.87 while a migration relocated
# its sticky set's homes in one message per object; 103.94 while the stack
# sampler fired on a fixed timer.
awk '/"water_migrate": \{/ { lane = 1 }
     lane && /"sim_vs_off_pct"/ { metric = 1; next }
     metric && /"value"/ { seen = 1; sub(/,/, ""); print "water_migrate sim_vs_off_pct", $2; bad = ($2 + 0 >= 75); exit }
     END { if (!seen || bad) exit 1 }' benchmark/out/results.json

echo "OK"
