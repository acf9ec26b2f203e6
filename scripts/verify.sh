#!/usr/bin/env bash
# Full offline verification gate: tier-1 (release build + tests) plus
# formatting and lint checks. Run from the repository root.
#
# The workspace has zero external dependencies (randomness comes from the
# in-repo cbs-prng crate, benches from cbs-bench), so everything here runs
# with --offline against the committed Cargo.lock.
#
# Flags:
#   --bench-smoke   additionally execute every bench binary once under
#                   CBS_BENCH_SMOKE=1 (one iteration, no wall-clock
#                   assertions, no artifact writes) so the bench code
#                   paths stay green in CI without timing flakiness.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Each stage's wall seconds, printed in one closing line so the next
# slow stage names itself. `stage` announces a stage and closes the one
# before it.
STAGE_NAMES=()
STAGE_SECS=()
STAGE_NAME=""
STAGE_START=""
now() { date +%s.%N; }
close_stage() {
  if [[ -n "$STAGE_NAME" ]]; then
    STAGE_NAMES+=("$STAGE_NAME")
    STAGE_SECS+=("$(awk -v a="$STAGE_START" -v b="$(now)" 'BEGIN { printf "%.1f", b - a }')")
  fi
}
stage() {
  close_stage
  STAGE_NAME="$1"
  STAGE_START="$(now)"
  echo "==> $1"
}

stage "cargo fmt --check"
cargo fmt --check

stage "cargo clippy --workspace --all-targets -- -D warnings -W unreachable-pub"
cargo clippy --offline --locked --workspace --all-targets -- -D warnings -W unreachable-pub

stage "SIZE.json is current (regenerate: scripts/size.sh)"
# The ledger may grow; it may not go stale.
scripts/size.sh /dev/stdout | cmp SIZE.json - \
  || { echo "FAIL: SIZE.json is stale (run scripts/size.sh and commit it)" >&2; exit 1; }

stage "cargo build --release (tier-1)"
cargo build --offline --locked --release

stage "cargo build --release --workspace (bench/profiled binaries for the smokes)"
cargo build --offline --locked --release --workspace

stage "examples build and run"
# Nothing else executes examples/; assemble_and_profile drives the text
# form end to end. About 1.5 s in total on a 2-core host.
cargo build --offline --locked --release --examples
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  timeout 60 "target/release/examples/$name" > /dev/null \
    || { echo "FAIL: example $name exited non-zero" >&2; exit 1; }
done

stage "cargo test -q (tier-1)"
cargo test --offline --locked -q

stage "cargo test -q --workspace (member-crate unit tests)"
cargo test --offline --locked -q --workspace

stage "benchmark/ builds against this tree, and its smoke passes"
# benchmark/ is a workspace of its own that imports the crates' public
# names; without this stage a PR can delete one of them and stay green.
# The smoke checks schema + correctness on all five workloads, no
# timing; under 30 s on a 2-core host.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke > /dev/null

stage "BENCH_ingest.json schema check (committed ingest-bench artifact)"
BENCH_JSON=BENCH_ingest.json
[[ -f "$BENCH_JSON" ]] \
  || { echo "FAIL: $BENCH_JSON missing (regenerate: cargo bench -p cbs-bench --bench profile_ingest)" >&2; exit 1; }
grep -q '"bench": "profile_ingest"' "$BENCH_JSON" \
  || { echo "FAIL: $BENCH_JSON is not a profile_ingest artifact" >&2; exit 1; }
for key in records frames wire_bytes; do
  grep -Eq "\"$key\": [1-9][0-9]*" "$BENCH_JSON" \
    || { echo "FAIL: $BENCH_JSON missing positive \"$key\"" >&2; exit 1; }
done
for cfg in codec/encode codec/decode codec/decode_snapshot \
           codec/encode_snapshot codec/decode_plan \
           aggregate/serial aggregate/streaming aggregate/threads=4 \
           pull/rebuild pull/cached plan/build wal/append wal/append_concurrent \
           wal/append_single_lock recovery/replay; do
  grep -q "\"config\": \"$cfg\"" "$BENCH_JSON" \
    || { echo "FAIL: $BENCH_JSON missing config \"$cfg\"" >&2; exit 1; }
done
awk '/"median_ns"/ && $0 !~ /"median_ns": [1-9][0-9]*/ { bad = 1 } END { exit bad }' "$BENCH_JSON" \
  || { echo "FAIL: non-positive median_ns in $BENCH_JSON" >&2; exit 1; }
# Read-path acceptance bound: a cold pull of the 50k-edge aggregate is
# one seal plus the encode. A rebuild that throws the order away
# (re-hash, re-sort, re-merge) lands above it.
# Sees: a multiple of today's cost (about 1-2 ms, so 3x or more).
# Cannot see: smaller regressions; and, being an absolute time, it is
# the one ingest gate that host speed moves (1.5-2x between sessions).
awk -F'"median_ns": ' '
  /"config": "pull\/rebuild"/ { split($2, a, ","); rebuild = a[1] }
  END { if (rebuild == 0 || rebuild >= 5000000) exit 1 }' "$BENCH_JSON" \
  || { echo "FAIL: pull/rebuild median is not below 5000000 ns in $BENCH_JSON" >&2; exit 1; }
# The four ratio gates read `median_ratios`. The bench times the two
# configs of each ratio interleaved and commits the median of their
# per-iteration ratios, so host drift between the configs does not land
# in the ratio. The bounds are the ones these gates had when each config
# was timed in a block of its own.
ingest_ratio() {
  awk -F'"median": ' -v num="$1" -v den="$2" '
    index($0, "\"numerator\": \"" num "\", \"denominator\": \"" den "\"") {
      split($2, a, " "); r = a[1] + 0; seen++ }
    END { if (seen != 1 || r <= 0) exit 1; print r }' "$BENCH_JSON"
}
# Client-decode acceptance bound: both configs decode the same 50k
# records. A pulled snapshot appends to a graph that builds no hash
# index, so it stays within 1.5x of decoding into a plain Vec.
# Sees: a snapshot decode that hashes every edge again (1.75x when it
# did). Cannot see: a slowdown both decoders share (the record reader),
# or one that adds less than the headroom (the ratio reads about 1.0).
R=$(ingest_ratio codec/decode_snapshot codec/decode) \
  && awk -v r="$R" 'BEGIN { exit !(r <= 1.5) }' \
  || { echo "FAIL: codec/decode_snapshot exceeds 1.5x codec/decode (median per-iteration ratio) in $BENCH_JSON" >&2; exit 1; }
# Plan-build acceptance bound: a cold plan of the 50k-edge aggregate
# costs at most 1.4x a cold pull of it. Both walk the same settled
# graph in two halves; the plan shows each polymorphic site's policy
# only the receivers at or above its guard floor and sorts just those.
# Sees: a per-site sort of every receiver (1.41-1.81 over 14 mutated
# regenerations; the change read 0.99-1.34 over 18). Cannot see: a
# slowdown the two reads share (lock, settle, the halves' thread), or
# one that costs the plan less than about a tenth of a pull.
R=$(ingest_ratio plan/build pull/rebuild) \
  && awk -v r="$R" 'BEGIN { exit !(r <= 1.4) }' \
  || { echo "FAIL: plan/build exceeds 1.4x pull/rebuild (median per-iteration ratio) in $BENCH_JSON" >&2; exit 1; }
# Durability acceptance bound: the WAL-on ingest path (async fsync) must
# stay within 2x of the equivalent in-memory streaming path.
# Sees: a sync or a comparable syscall added per append (an extra
# `sync_all` per append trips it). Cannot see: the decode and apply both
# paths share, anything under `--fsync always` (this config does not
# sync), or recovery.
R=$(ingest_ratio wal/append aggregate/streaming) \
  && awk -v r="$R" 'BEGIN { exit !(r <= 2) }' \
  || { echo "FAIL: wal/append exceeds 2x aggregate/streaming (median per-iteration ratio) in $BENCH_JSON" >&2; exit 1; }
# Staged write-path acceptance bound: four concurrent durable pushers
# must beat the same four serialized behind one external lock, where
# every op pays its own fsync. The concurrent side wins twice: one
# pusher's append and apply overlap another's fsync, and an ack that
# queues on the sync mutex behind an in-flight fsync is covered by the
# next one. The floor trips on a regression back toward the convoy
# (ratio -> 1), with margin for fsync-latency jitter.
# Sees: the WAL sync held under the append lock (convoy: ratio -> 1).
# Cannot see: per-op costs both sides pay. It assumes an fsync costs
# about as much as an op's append and apply; on a disk where fsync is
# nearly free the ratio falls toward 1 with no regression at all.
R=$(ingest_ratio wal/append_single_lock wal/append_concurrent) \
  && awk -v r="$R" 'BEGIN { exit !(r >= 1.4) }' \
  || { echo "FAIL: wal/append_single_lock is not >=1.4x wal/append_concurrent (median per-iteration ratio) in $BENCH_JSON" >&2; exit 1; }

stage "BENCH_interp.json gates (committed interpreter-bench artifact)"
# Two ways the interpreter's fast path has been lost before, per
# workload: an instantiation of `run_with` outside cbs-vm running slower
# than cbs-vm's own (a per-op helper that is not #[inline]), and the
# inlined + optimized program — fewer instructions — taking longer than
# the program it was made from (bytecode shapes the fusion scan misses).
# The bench times the three configs interleaved and commits each ratio
# as the median of its per-iteration ratios, so host drift between
# configs does not land in the ratio.
# The downstream gate (1.05x) sees every per-op hint lost at once:
# stripping all 20 `#[inline]`s in `crates/vm/src/{interp,value,frame}.rs`
# read 1.08-1.15x. It cannot see one lost `#[inline]` on a small
# helper: rustc inlines small leaf functions across crates on its own
# (0.94-0.99x with `pop_val`'s hint removed).
# The inlined-program gate (1.10x) sees bytecode shapes the fusion scan
# misses, which make the program with fewer instructions the slower
# one. It cannot see a slowdown both programs share, such as dispatch.
INTERP_JSON=BENCH_interp.json
[[ -f "$INTERP_JSON" ]] \
  || { echo "FAIL: $INTERP_JSON missing (regenerate: cargo bench -p cbs-bench --bench interp_throughput)" >&2; exit 1; }
awk -F'"median": ' '
  function ratio() { split($2, a, " "); return a[1] + 0 }
  /"workload":/                                                { workloads++ }
  /"ratio": "null_optimized_downstream\/null_optimized"/       { seen_down++
                                                                 if (!(ratio() > 0 && ratio() <= 1.05)) bad = 1 }
  /"ratio": "null_on_inlined_program\/null_optimized"/         { seen_inl++
                                                                 if (!(ratio() > 0 && ratio() <= 1.10)) bad = 1 }
  END { exit (bad || workloads == 0 || seen_down != workloads || seen_inl != workloads) }' "$INTERP_JSON" \
  || { echo "FAIL: in $INTERP_JSON, null_optimized_downstream exceeds 1.05x or" \
            "null_on_inlined_program exceeds 1.10x null_optimized (median per-iteration ratio)," \
            "or a ratio is missing" >&2; exit 1; }

if [[ "$BENCH_SMOKE" == "1" ]]; then
  stage "cargo bench (smoke: CBS_BENCH_SMOKE=1, one iteration per bench)"
  # Smoke mode must exercise every bench code path (profile_ingest
  # included) without rewriting committed artifacts.
  BENCH_SUM_BEFORE="$(cksum "$BENCH_JSON")"
  CBS_BENCH_SMOKE=1 cargo bench --offline --locked --workspace
  BENCH_SUM_AFTER="$(cksum "$BENCH_JSON")"
  [[ "$BENCH_SUM_BEFORE" == "$BENCH_SUM_AFTER" ]] \
    || { echo "FAIL: bench smoke rewrote $BENCH_JSON (smoke runs must not emit artifacts)" >&2; exit 1; }
fi

stage "profiled loopback smoke (server + dcgtool push/pull/convert)"
SMOKE_DIR="$(mktemp -d)"
PROFILED_PID=""
PROFILED2_PID=""
PROFILED3_PID=""
cleanup() {
  [[ -n "$PROFILED_PID" ]] && kill "$PROFILED_PID" 2>/dev/null || true
  [[ -n "$PROFILED2_PID" ]] && kill "$PROFILED2_PID" 2>/dev/null || true
  [[ -n "$PROFILED3_PID" ]] && kill "$PROFILED3_PID" 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
PROFILED=target/release/profiled
DCGTOOL=target/release/dcgtool
printf '# cbs-dcg v1\n3 0 1 100\n0 0 1 10\n0 1 2 5.25\n' > "$SMOKE_DIR/a.dcg"
timeout 60 "$DCGTOOL" convert "$SMOKE_DIR/a.dcg" "$SMOKE_DIR/a.dcgb"
timeout 60 "$DCGTOOL" convert "$SMOKE_DIR/a.dcgb" "$SMOKE_DIR/a2.dcg"
cmp "$SMOKE_DIR/a.dcg" "$SMOKE_DIR/a2.dcg" \
  || { echo "FAIL: text -> binary -> text round-trip not byte-identical" >&2; exit 1; }
"$PROFILED" --addr 127.0.0.1:0 > "$SMOKE_DIR/server.out" &
PROFILED_PID=$!
for _ in $(seq 1 50); do
  grep -q '^listening ' "$SMOKE_DIR/server.out" && break
  sleep 0.1
done
ADDR="$(awk '/^listening /{print $2; exit}' "$SMOKE_DIR/server.out")"
[[ -n "$ADDR" ]] || { echo "FAIL: profiled did not report its address" >&2; exit 1; }
timeout 60 "$DCGTOOL" push "$ADDR" "$SMOKE_DIR/a.dcgb"
timeout 60 "$DCGTOOL" pull "$ADDR" "$SMOKE_DIR/merged.dcg"
cmp "$SMOKE_DIR/a.dcg" "$SMOKE_DIR/merged.dcg" \
  || { echo "FAIL: pulled fleet profile differs from the single pushed snapshot" >&2; exit 1; }

stage "plan-serving smoke (OP_PLAN: deterministic, cached, byte-identical pulls)"
# The aggregate is unchanged between the two pulls, so the daemon must
# answer both from the generation-keyed plan cache with identical bytes.
timeout 60 "$DCGTOOL" plan "$ADDR" > "$SMOKE_DIR/plan1.txt"
timeout 60 "$DCGTOOL" plan "$ADDR" > "$SMOKE_DIR/plan2.txt"
cmp "$SMOKE_DIR/plan1.txt" "$SMOKE_DIR/plan2.txt" \
  || { echo "FAIL: two OP_PLAN pulls of an unchanged aggregate differ" >&2; exit 1; }
head -n 1 "$SMOKE_DIR/plan1.txt" | grep -q '^# cbs-inline-plan v1 generation=1 ' \
  || { echo "FAIL: plan render missing its versioned header" >&2;
       cat "$SMOKE_DIR/plan1.txt" >&2; exit 1; }
# The pushed profile's hottest edge (m3 s0 -> m1, weight 100) must be a
# direct-inline entry of the served plan.
grep -q '^m3 s0 weight=100 direct m1$' "$SMOKE_DIR/plan1.txt" \
  || { echo "FAIL: served plan lacks the known-hot direct entry" >&2;
       cat "$SMOKE_DIR/plan1.txt" >&2; exit 1; }

stage "profiled telemetry smoke (OP_METRICS scrape matches the traffic above)"
# Exactly one push, one pull, and two plan pulls (one cache miss + one
# hit) were issued against this server, so the scraped counters must
# agree — the plan pulls encode no snapshot, so the pull is the one
# snapshot-cache miss; the scrape itself is timeout-bounded.
timeout 60 "$DCGTOOL" metrics "$ADDR" > "$SMOKE_DIR/metrics.txt"
head -n 1 "$SMOKE_DIR/metrics.txt" | grep -q '^# cbs-telemetry v1$' \
  || { echo "FAIL: metrics exposition missing its version header" >&2; exit 1; }
grep -q '^counter profiled\.server\.op\.push 1$' "$SMOKE_DIR/metrics.txt" \
  || { echo "FAIL: push counter does not match the one push issued" >&2;
       cat "$SMOKE_DIR/metrics.txt" >&2; exit 1; }
grep -q '^counter profiled\.server\.op\.pull 1$' "$SMOKE_DIR/metrics.txt" \
  || { echo "FAIL: pull counter does not match the one pull issued" >&2;
       cat "$SMOKE_DIR/metrics.txt" >&2; exit 1; }
grep -q '^counter profiled\.server\.op\.plan 2$' "$SMOKE_DIR/metrics.txt" \
  || { echo "FAIL: plan counter does not match the two plan pulls issued" >&2;
       cat "$SMOKE_DIR/metrics.txt" >&2; exit 1; }
grep -q '^counter profiled\.plan\.builds 1$' "$SMOKE_DIR/metrics.txt" \
  || { echo "FAIL: two pulls of one generation must build the plan exactly once" >&2;
       cat "$SMOKE_DIR/metrics.txt" >&2; exit 1; }
grep -q '^counter profiled\.plan\.cache_hits 1$' "$SMOKE_DIR/metrics.txt" \
  || { echo "FAIL: the second plan pull must be answered from the cache" >&2;
       cat "$SMOKE_DIR/metrics.txt" >&2; exit 1; }
grep -q '^counter profiled\.agg\.cache_misses 1$' "$SMOKE_DIR/metrics.txt" \
  || { echo "FAIL: one pull and two plan pulls must encode one snapshot" >&2;
       cat "$SMOKE_DIR/metrics.txt" >&2; exit 1; }
grep -q '^counter profiled\.server\.err_replies 0$' "$SMOKE_DIR/metrics.txt" \
  || { echo "FAIL: clean smoke produced error replies" >&2;
       cat "$SMOKE_DIR/metrics.txt" >&2; exit 1; }

stage "profiled fault-injection smoke (resilient push/pull over a faulty link)"
# A fresh server, and a client whose every exchange runs through the
# deterministic fault injector (seeded schedule, ~30% fault rate): the
# pulled profile must still be byte-identical to the clean round-trip.
# Injected timeouts return immediately and --backoff-ms 1 keeps the
# retry sleeps negligible, so the whole smoke is timeout-bounded.
"$PROFILED" --addr 127.0.0.1:0 > "$SMOKE_DIR/server2.out" &
PROFILED2_PID=$!
for _ in $(seq 1 50); do
  grep -q '^listening ' "$SMOKE_DIR/server2.out" && break
  sleep 0.1
done
ADDR2="$(awk '/^listening /{print $2; exit}' "$SMOKE_DIR/server2.out")"
[[ -n "$ADDR2" ]] || { echo "FAIL: second profiled did not report its address" >&2; exit 1; }
timeout 60 "$DCGTOOL" push "$ADDR2" --faults 7 --fault-rate 0.3 --retries 32 --backoff-ms 1 \
  "$SMOKE_DIR/a.dcgb"
timeout 60 "$DCGTOOL" pull "$ADDR2" --retries 8 --backoff-ms 1 "$SMOKE_DIR/merged_faulty.dcg"
cmp "$SMOKE_DIR/a.dcg" "$SMOKE_DIR/merged_faulty.dcg" \
  || { echo "FAIL: profile pulled over the faulty transport differs from the clean one" >&2; exit 1; }

stage "durable-store crash-recovery smoke (SIGKILL, restart, bit-identical pull)"
# A store-backed server (--fsync always: every ack is durable) absorbs a
# plain push and a sequenced exactly-once push, then dies by SIGKILL. A
# restart on the same --data-dir must replay the WAL and serve a fleet
# profile byte-identical to the pre-kill pull (i.e. to a serial re-ingest
# of exactly the acked frames). Every client command is timeout-bounded.
STORE_DIR="$SMOKE_DIR/store"
wait_for_listening() {
  local out="$1"
  for _ in $(seq 1 50); do
    grep -q '^listening ' "$out" && break
    sleep 0.1
  done
  awk '/^listening /{print $2; exit}' "$out"
}
"$PROFILED" --addr 127.0.0.1:0 --data-dir "$STORE_DIR" --fsync always \
  > "$SMOKE_DIR/server3.out" &
PROFILED3_PID=$!
ADDR3="$(wait_for_listening "$SMOKE_DIR/server3.out")"
[[ -n "$ADDR3" ]] || { echo "FAIL: store-backed profiled did not report its address" >&2; exit 1; }
grep -q '^recovered frames=0 ' "$SMOKE_DIR/server3.out" \
  || { echo "FAIL: fresh data dir reported a non-empty recovery" >&2;
       cat "$SMOKE_DIR/server3.out" >&2; exit 1; }
timeout 60 "$DCGTOOL" push "$ADDR3" "$SMOKE_DIR/a.dcgb"
timeout 60 "$DCGTOOL" push "$ADDR3" --seed 11 --retries 8 --backoff-ms 1 "$SMOKE_DIR/a.dcgb"
timeout 60 "$DCGTOOL" pull "$ADDR3" "$SMOKE_DIR/pre_kill.dcg"
# The live server holds the advisory store lock: offline compaction must
# be refused with a clear diagnostic instead of corrupting the live WAL.
if timeout 60 "$DCGTOOL" store compact "$STORE_DIR" \
    2> "$SMOKE_DIR/compact_refused.txt"; then
  echo "FAIL: store compact succeeded against a live server's data dir" >&2; exit 1
fi
grep -q 'locked by running process' "$SMOKE_DIR/compact_refused.txt" \
  || { echo "FAIL: lockfile refusal does not name the holding process" >&2;
       cat "$SMOKE_DIR/compact_refused.txt" >&2; exit 1; }
kill -9 "$PROFILED3_PID"
wait "$PROFILED3_PID" 2>/dev/null || true
PROFILED3_PID=""
timeout 60 "$DCGTOOL" store inspect "$STORE_DIR" > "$SMOKE_DIR/inspect.txt"
grep -q '^segment ' "$SMOKE_DIR/inspect.txt" \
  || { echo "FAIL: store inspect shows no WAL segment after the kill" >&2;
       cat "$SMOKE_DIR/inspect.txt" >&2; exit 1; }
"$PROFILED" --addr 127.0.0.1:0 --data-dir "$STORE_DIR" --fsync always \
  > "$SMOKE_DIR/server4.out" &
PROFILED3_PID=$!
ADDR4="$(wait_for_listening "$SMOKE_DIR/server4.out")"
[[ -n "$ADDR4" ]] || { echo "FAIL: restarted profiled did not report its address" >&2;
                       cat "$SMOKE_DIR/server4.out" >&2; exit 1; }
grep -Eq '^recovered frames=[1-9]' "$SMOKE_DIR/server4.out" \
  || { echo "FAIL: restart after SIGKILL replayed no frames" >&2;
       cat "$SMOKE_DIR/server4.out" >&2; exit 1; }
# Every push completed before the kill, so the segment ends in its zero
# reserve, which is the log's clean end and not a torn tail. The line
# ends with the replayed WAL bytes and the time opening the store took.
grep -Eq '^recovered .* truncated_tail=false wal_bytes=[1-9][0-9]* replay_ms=[0-9]+\.[0-9]$' \
    "$SMOKE_DIR/server4.out" \
  || { echo "FAIL: restart after a clean kill reported a torn WAL tail" >&2;
       cat "$SMOKE_DIR/server4.out" >&2; exit 1; }
timeout 60 "$DCGTOOL" pull "$ADDR4" "$SMOKE_DIR/post_kill.dcg"
cmp "$SMOKE_DIR/pre_kill.dcg" "$SMOKE_DIR/post_kill.dcg" \
  || { echo "FAIL: recovered fleet profile differs from the pre-kill pull" >&2; exit 1; }
kill "$PROFILED3_PID" 2>/dev/null || true
wait "$PROFILED3_PID" 2>/dev/null || true
PROFILED3_PID=""
# Offline compaction folds the WAL into a checkpoint; a restart then
# replays nothing yet still serves the identical profile.
timeout 60 "$DCGTOOL" store compact "$STORE_DIR"
"$PROFILED" --addr 127.0.0.1:0 --data-dir "$STORE_DIR" --fsync always \
  > "$SMOKE_DIR/server5.out" &
PROFILED3_PID=$!
ADDR5="$(wait_for_listening "$SMOKE_DIR/server5.out")"
[[ -n "$ADDR5" ]] || { echo "FAIL: post-compaction profiled did not report its address" >&2;
                       cat "$SMOKE_DIR/server5.out" >&2; exit 1; }
grep -Eq '^recovered frames=0 .* checkpoint_epoch=[0-9]' "$SMOKE_DIR/server5.out" \
  || { echo "FAIL: compacted store should recover from the checkpoint alone" >&2;
       cat "$SMOKE_DIR/server5.out" >&2; exit 1; }
timeout 60 "$DCGTOOL" pull "$ADDR5" "$SMOKE_DIR/post_compact.dcg"
cmp "$SMOKE_DIR/pre_kill.dcg" "$SMOKE_DIR/post_compact.dcg" \
  || { echo "FAIL: compacted store serves a different fleet profile" >&2; exit 1; }
kill "$PROFILED3_PID" 2>/dev/null || true
wait "$PROFILED3_PID" 2>/dev/null || true
PROFILED3_PID=""

stage "durable-store mid-batch kill smoke (4 pushers, SIGKILL, deterministic recovery)"
# Four parallel pushers drive a --fsync always server and the server
# dies by SIGKILL with appends and syncs in flight. The WAL then defines
# the truth: two independent restarts must replay it to byte-identical
# fleet profiles (torn tails cut, acked pushes kept). Each pusher logs
# its acked pushes; a plain push is one frame, so the first restart must
# replay at least as many frames as were acked.
STORE_DIR2="$SMOKE_DIR/store2"
"$PROFILED" --addr 127.0.0.1:0 --data-dir "$STORE_DIR2" \
  --fsync always > "$SMOKE_DIR/server6.out" &
PROFILED3_PID=$!
ADDR6="$(wait_for_listening "$SMOKE_DIR/server6.out")"
[[ -n "$ADDR6" ]] || { echo "FAIL: mid-batch profiled did not report its address" >&2; exit 1; }
PUSHER_PIDS=()
for pusher in 1 2 3 4; do
  (
    for _ in $(seq 1 50); do
      timeout 10 "$DCGTOOL" push "$ADDR6" "$SMOKE_DIR/a.dcgb" >/dev/null 2>&1 || exit 0
      echo acked >> "$SMOKE_DIR/acks$pusher.log"
    done
  ) &
  PUSHER_PIDS+=($!)
done
sleep 0.5
kill -9 "$PROFILED3_PID"
wait "$PROFILED3_PID" 2>/dev/null || true
PROFILED3_PID=""
wait "${PUSHER_PIDS[@]}" 2>/dev/null || true
for restart in 1 2; do
  "$PROFILED" --addr 127.0.0.1:0 --data-dir "$STORE_DIR2" --fsync always \
    > "$SMOKE_DIR/server_restart$restart.out" &
  PROFILED3_PID=$!
  RADDR="$(wait_for_listening "$SMOKE_DIR/server_restart$restart.out")"
  [[ -n "$RADDR" ]] || { echo "FAIL: restart $restart did not report its address" >&2; exit 1; }
  grep -Eq '^recovered frames=[1-9]' "$SMOKE_DIR/server_restart$restart.out" \
    || { echo "FAIL: restart $restart replayed no frames after the mid-batch kill" >&2;
         cat "$SMOKE_DIR/server_restart$restart.out" >&2; exit 1; }
  if [[ $restart == 1 ]]; then
    ACKED="$(cat "$SMOKE_DIR"/acks*.log 2>/dev/null | wc -l)"
    RECOVERED="$(awk -F'[= ]' '/^recovered /{print $3; exit}' "$SMOKE_DIR/server_restart1.out")"
    (( RECOVERED >= ACKED )) \
      || { echo "FAIL: restart replayed $RECOVERED frames but the pushers logged $ACKED acks" >&2;
           exit 1; }
  fi
  timeout 60 "$DCGTOOL" pull "$RADDR" "$SMOKE_DIR/mid_batch_pull$restart.dcg"
  kill "$PROFILED3_PID" 2>/dev/null || true
  wait "$PROFILED3_PID" 2>/dev/null || true
  PROFILED3_PID=""
done
cmp "$SMOKE_DIR/mid_batch_pull1.dcg" "$SMOKE_DIR/mid_batch_pull2.dcg" \
  || { echo "FAIL: two recoveries of the same mid-batch WAL served different profiles" >&2; exit 1; }

stage "repro fleet render pin (deterministic output matches the committed artifact)"
# The fleet table and its telemetry counters are fully deterministic, so
# the committed render must never drift from what the binary produces.
timeout 300 target/release/repro fleet > "$SMOKE_DIR/fleet_render.txt"
cmp repro_fleet_output.txt "$SMOKE_DIR/fleet_render.txt" \
  || { echo "FAIL: repro fleet output drifted from repro_fleet_output.txt" \
            "(regenerate: target/release/repro fleet > repro_fleet_output.txt)" >&2; exit 1; }

stage "repro fleet-optimize render pin (served plans, deterministic output)"
# The exploitation loop — profiles streamed to a live daemon, OP_PLAN
# pulled and applied — is deterministic end to end, so this render is
# pinned too (and its footer asserts the fleet plan met or beat the
# best single-VM plan on total cycles).
timeout 300 target/release/repro fleet-optimize > "$SMOKE_DIR/fleet_optimize_render.txt"
cmp repro_fleet_optimize_output.txt "$SMOKE_DIR/fleet_optimize_render.txt" \
  || { echo "FAIL: repro fleet-optimize output drifted from repro_fleet_optimize_output.txt" \
            "(regenerate: target/release/repro fleet-optimize > repro_fleet_optimize_output.txt)" >&2; exit 1; }
grep -q '^pooled plan meets or beats the best single-VM plan: yes$' \
  "$SMOKE_DIR/fleet_optimize_render.txt" \
  || { echo "FAIL: the fleet plan lost to a single-VM plan on total cycles" >&2; exit 1; }

stage "repro fleet pins at --jobs 2 (parallel renders match the committed artifacts)"
# Each benchmark's fleet is one run observed by one MultiProfiler, whose
# replicas each replay a timer of their own; the full-scale renders must
# still not depend on the job count.
timeout 300 target/release/repro --jobs 2 fleet > "$SMOKE_DIR/fleet_render_j2.txt"
cmp repro_fleet_output.txt "$SMOKE_DIR/fleet_render_j2.txt" \
  || { echo "FAIL: repro --jobs 2 fleet output differs from repro_fleet_output.txt" >&2; exit 1; }
timeout 300 target/release/repro --jobs 2 fleet-optimize > "$SMOKE_DIR/fleet_optimize_render_j2.txt"
cmp repro_fleet_optimize_output.txt "$SMOKE_DIR/fleet_optimize_render_j2.txt" \
  || { echo "FAIL: repro --jobs 2 fleet-optimize output differs from repro_fleet_optimize_output.txt" >&2; exit 1; }

stage "repro paper render pin (every table and figure, scale 1.0)"
# EXPERIMENTS.md and the README result table quote this render, so it is
# pinned whole. --jobs 2 renders the same bytes as --jobs 1; ~40 s on a
# 2-core host.
timeout 600 target/release/repro --jobs 2 all > "$SMOKE_DIR/paper_render.txt"
cmp repro_output.txt "$SMOKE_DIR/paper_render.txt" \
  || { echo "FAIL: repro all output drifted from repro_output.txt" \
            "(regenerate: target/release/repro --jobs 2 all > repro_output.txt)" >&2; exit 1; }

close_stage
SUMMARY=""
for i in "${!STAGE_NAMES[@]}"; do
  SUMMARY+="${SUMMARY:+; }${STAGE_NAMES[$i]%% (*}: ${STAGE_SECS[$i]}s"
done
echo "stage wall seconds: $SUMMARY"
echo "OK: all gates passed"
