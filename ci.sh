#!/usr/bin/env bash
# Offline CI gate: formatting, lints, the tier-1 build + test suite, a
# serial-vs-parallel determinism smoke of the suite runner, and a bench
# harness regeneration pass. Everything here must pass without network
# access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== suite runner: serial vs parallel output equality (smoke scale, fixed seed)"
# Each job must replay byte-identically across suite worker counts:
# fig03 (float-heavy reductions), chaos (fault injection and the
# resilience state machine), fleet (churn, placement, SLO merge, trace
# laws; the filter also substring-matches the other two fleet jobs),
# fleet-replay (every policy x guest mode over one generated day per
# profile), fleet-chaos (a pinned SAP day x a pinned failure plan),
# adversary (attack plans, domain rotation, probe hardening) and vcache
# (the LLC occupancy model and cache-aware bvs steering).
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
for id in fig03 chaos fleet fleet-replay fleet-chaos adversary vcache; do
    for jobs in 1 4; do
        VSCHED_SCALE=smoke ./target/release/suite --filter "$id" --jobs "$jobs" --seed 42 \
            --no-ckpt > "$tmpdir/$id.jobs$jobs.txt" 2>/dev/null
    done
    diff "$tmpdir/$id.jobs1.txt" "$tmpdir/$id.jobs4.txt"
done
# The *cluster-stepping* pool (host shards inside each fleet cell,
# distinct from the suite's job pool above) must be equally invisible: a
# forced four-worker stepping pool vs the serial run, byte-identical.
for id in fleet fleet-chaos; do
    VSCHED_SCALE=smoke ./target/release/suite --filter "$id" --jobs 1 --seed 42 \
        --fleet-threads 4 --no-ckpt > "$tmpdir/$id.step4.txt" 2>/dev/null
    diff "$tmpdir/$id.jobs1.txt" "$tmpdir/$id.step4.txt"
done
# Every fleet cell reports its law verdict, and every fleet-chaos cell
# ends with nothing stranded on a dead host; the adversary matrix reports
# steal, and every vcache cell its cache picks and law verdict.
grep -q "violations" "$tmpdir/fleet.jobs1.txt"
grep -q "violations" "$tmpdir/fleet-replay.jobs1.txt"
grep -q "stranded" "$tmpdir/fleet-chaos.jobs1.txt"
grep -q "steal" "$tmpdir/adversary.jobs1.txt"
grep -q "cache picks" "$tmpdir/vcache.jobs1.txt"
grep -q "violations" "$tmpdir/vcache.jobs1.txt"

echo "== chaos-smoke: one randomized seed"
# Randomized seed: fault-class invariant sweeps on a fresh schedule each
# run. The seed is printed so a CI failure replays locally with
# CHAOS_SEED=<seed> cargo test --release --test chaos.
chaos_seed=$(date +%s)
echo "   chaos-smoke randomized seed: $chaos_seed"
if ! CHAOS_SEED="$chaos_seed" cargo test -q --release --test chaos invariants; then
    echo "chaos-smoke FAILED with CHAOS_SEED=$chaos_seed (replay locally with that env var)" >&2
    exit 1
fi

echo "== replay-smoke: fleettrace gen/validate + replayed-day byte-identity"
# 1) Generate a small trace with the CLI and validate it; a corrupted copy
#    must be rejected with a nonzero exit and a line-precise error.
./target/release/fleettrace gen --profile sap-diurnal --horizon-secs 2 \
    --out "$tmpdir/day.trace.jsonl" 2>/dev/null
./target/release/fleettrace validate "$tmpdir/day.trace.jsonl" > /dev/null
sed 's/"op":"depart"/"op":"explode"/' "$tmpdir/day.trace.jsonl" \
    > "$tmpdir/corrupt.trace.jsonl"
if ./target/release/fleettrace validate "$tmpdir/corrupt.trace.jsonl" \
    2> "$tmpdir/corrupt_err.txt"; then
    echo "fleettrace validate accepted a corrupted trace" >&2
    exit 1
fi
grep -q "line " "$tmpdir/corrupt_err.txt"
# A trace that *parses* but is not the codec's canonical byte encoding
# (here: one extra space) must fail the round-trip gate, and every
# committed example must pass it.
sed '2s/"op":"arrive"/"op": "arrive"/' "$tmpdir/day.trace.jsonl" \
    > "$tmpdir/noncanon.trace.jsonl"
if ./target/release/fleettrace validate "$tmpdir/noncanon.trace.jsonl" \
    2> "$tmpdir/noncanon_err.txt"; then
    echo "fleettrace validate accepted a non-canonical trace" >&2
    exit 1
fi
grep -q "canonical encoding" "$tmpdir/noncanon_err.txt"
for example in examples/*.trace.jsonl; do
    ./target/release/fleettrace validate "$example" | grep -q "round-trip clean"
done
# 2) The committed example trace must replay end-to-end, law-clean, and
#    the cluster-stepping pool must be invisible in the replay output:
#    one host-stepping worker vs four, byte-identical stdout. This pins
#    the stepping parallelism itself, not just the suite-level pool.
./target/release/fleettrace replay examples/sap_day.trace.jsonl \
    --policy probe-aware --mode vsched --fleet-threads 1 \
    > "$tmpdir/step_serial.txt"
./target/release/fleettrace replay examples/sap_day.trace.jsonl \
    --policy probe-aware --mode vsched --fleet-threads 4 \
    > "$tmpdir/step_parallel.txt"
diff "$tmpdir/step_serial.txt" "$tmpdir/step_parallel.txt"

echo "== fleet-chaos-smoke: seed sweep, shrink round-trip, chaos-day replays"
# 1) Randomized seed: migration laws on a fresh faulted day each run. The
#    seed is printed so a CI failure replays locally with
#    FLEET_CHAOS_SEED=<seed> cargo test --release -p vsched-fleet --test fleet_chaos.
fleet_chaos_seed=$(date +%s%N)
echo "   fleet-chaos-smoke randomized seed: $fleet_chaos_seed"
if ! FLEET_CHAOS_SEED="$fleet_chaos_seed" \
    cargo test -q --release -p vsched-fleet --test fleet_chaos; then
    echo "fleet-chaos-smoke FAILED with FLEET_CHAOS_SEED=$fleet_chaos_seed (replay locally with that env var)" >&2
    exit 1
fi
# 2) Shrink + replay the fault plan under the synthetic law (healthy code
#    passes the real checker, so CI exercises the fleet ddmin pipeline
#    with the canary law), mirroring the single-host shrink gate below.
VSCHED_SHRINK_LAW=synthetic ./target/release/suite --shrink-fleet 3735928559 \
    2> "$tmpdir/fshrink_err.txt"
grep -q "repro written" "$tmpdir/fshrink_err.txt"
VSCHED_SHRINK_LAW=synthetic ./target/release/suite \
    --replay-fleet target/fleet_chaos_repro_3735928559.json \
    2> "$tmpdir/freplay_err.txt"
grep -q "reproduced law 'fleet-synthetic-canary'" "$tmpdir/freplay_err.txt"
# 3) The committed maintenance-drain day replays law-clean under a chaos
#    overlay, byte-identically at 1 vs 4 stepping workers.
./target/release/fleettrace replay examples/sap_drain.trace.jsonl \
    --policy probe-aware --mode vsched --chaos-seed 99 --migration handoff \
    --fleet-threads 1 > "$tmpdir/drain_serial.txt"
./target/release/fleettrace replay examples/sap_drain.trace.jsonl \
    --policy probe-aware --mode vsched --chaos-seed 99 --migration handoff \
    --fleet-threads 4 > "$tmpdir/drain_step4.txt"
diff "$tmpdir/drain_serial.txt" "$tmpdir/drain_step4.txt"
grep -q "chaos seed" "$tmpdir/drain_serial.txt"
# 4) So does the committed resize-storm chaos day (the chaos-mode example
#    trace captured via the fleettrace codec).
./target/release/fleettrace replay examples/sap_storm_chaos.trace.jsonl \
    --policy probe-aware --mode vsched --chaos-seed 7 --migration handoff \
    --fleet-threads 1 > "$tmpdir/storm_serial.txt"
./target/release/fleettrace replay examples/sap_storm_chaos.trace.jsonl \
    --policy probe-aware --mode vsched --chaos-seed 7 --migration handoff \
    --fleet-threads 4 > "$tmpdir/storm_step4.txt"
diff "$tmpdir/storm_serial.txt" "$tmpdir/storm_step4.txt"
grep -q "chaos seed" "$tmpdir/storm_serial.txt"

echo "== adversary-smoke: seed sweep, shrink round-trip"
# 1) Randomized seed: attack-archetype invariant sweeps on a fresh plan
#    each run. The seed is printed so a CI failure replays locally with
#    ADVERSARY_SEED=<seed> cargo test --release --test adversary.
adversary_seed=$(date +%s%N)
echo "   adversary-smoke randomized seed: $adversary_seed"
if ! ADVERSARY_SEED="$adversary_seed" \
    cargo test -q --release --test adversary invariants; then
    echo "adversary-smoke FAILED with ADVERSARY_SEED=$adversary_seed (replay locally with that env var)" >&2
    exit 1
fi
# 2) Shrink + replay the attack plan under the synthetic law (healthy
#    code passes the real checker, so CI exercises the attack-plan ddmin
#    pipeline with the canary law), mirroring the chaos and fleet gates.
VSCHED_SHRINK_LAW=synthetic ./target/release/suite --shrink-adversary 3735928559 \
    2> "$tmpdir/ashrink_err.txt"
grep -q "repro written" "$tmpdir/ashrink_err.txt"
VSCHED_SHRINK_LAW=synthetic ./target/release/suite \
    --replay-adversary target/adversary_repro_3735928559.json \
    2> "$tmpdir/areplay_err.txt"
grep -q "reproduced law 'adversary-synthetic-canary'" "$tmpdir/areplay_err.txt"

echo "== vcache-smoke: randomized occupancy sweep"
# Randomized seed: LLC occupancy-model invariants (capacity, byte
#    conservation, decay monotonicity) on a fresh schedule each run. The
#    seed is printed so a CI failure replays locally with
#    VCACHE_SEED=<seed> cargo test --release -p vsched-hostsim --test llc_propcheck.
vcache_seed=$(date +%s%N)
echo "   vcache-smoke randomized seed: $vcache_seed"
if ! VCACHE_SEED="$vcache_seed" \
    cargo test -q --release -p vsched-hostsim --test llc_propcheck; then
    echo "vcache-smoke FAILED with VCACHE_SEED=$vcache_seed (replay locally with that env var)" >&2
    exit 1
fi

echo "== supervision-smoke: canary isolation, kill/resume, shrink/replay"
# 1) Canary: two cells fail on purpose (panic + blown deadline). The suite
#    must exit 0, name both cells in the stderr failure report and the JSON
#    report, and leave the healthy jobs' stdout byte-identical to a clean
#    run.
VSCHED_SCALE=smoke ./target/release/suite --filter fig03 --jobs 2 --seed 42 \
    --no-ckpt > "$tmpdir/clean.txt" 2>/dev/null
VSCHED_CANARY=1 VSCHED_SCALE=smoke ./target/release/suite --filter fig03 --jobs 2 \
    --seed 42 --retries 1 --ckpt-dir "$tmpdir/canary_ckpt" \
    > "$tmpdir/canary.txt" 2> "$tmpdir/canary_err.txt"
diff "$tmpdir/clean.txt" "$tmpdir/canary.txt"
grep -q "canary/panic" "$tmpdir/canary_err.txt"
grep -q "canary/deadline" "$tmpdir/canary_err.txt"
grep -q '"failed_cells":2' "$tmpdir/canary_ckpt/FAILURES.json"
# 2) Crash-safe resume: kill a checkpointing run mid-flight, resume it, and
#    require byte-identity with a clean serial run. (If the run finishes
#    before the kill lands, the resume degenerates to a full replay — the
#    byte-identity requirement is the same.)
VSCHED_SCALE=smoke ./target/release/suite --filter fig03,fig11 --jobs 2 --seed 42 \
    --ckpt-dir "$tmpdir/resume_ckpt" > /dev/null 2>&1 &
suite_pid=$!
sleep 0.3
kill -9 "$suite_pid" 2>/dev/null || true
wait "$suite_pid" 2>/dev/null || true
VSCHED_SCALE=smoke ./target/release/suite --filter fig03,fig11 --jobs 1 --seed 42 \
    --no-ckpt > "$tmpdir/clean2.txt" 2>/dev/null
VSCHED_SCALE=smoke ./target/release/suite --filter fig03,fig11 --jobs 2 --seed 42 \
    --ckpt-dir "$tmpdir/resume_ckpt" --resume > "$tmpdir/resumed.txt" 2>/dev/null
diff "$tmpdir/clean2.txt" "$tmpdir/resumed.txt"
# 3) Shrink + replay under the synthetic law (the real checker passes on
#    healthy code, so CI exercises the ddmin pipeline with the canary law).
VSCHED_SHRINK_LAW=synthetic ./target/release/suite --shrink 3735928559 \
    2> "$tmpdir/shrink_err.txt"
grep -q "repro written" "$tmpdir/shrink_err.txt"
VSCHED_SHRINK_LAW=synthetic ./target/release/suite \
    --replay target/chaos_repro_3735928559.json 2> "$tmpdir/replay_err.txt"
grep -q "reproduced law 'synthetic-canary'" "$tmpdir/replay_err.txt"

echo "== regenerate BENCH_vsched.json (quick scale)"
./target/release/vsched-bench

echo "CI OK"
