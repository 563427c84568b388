#!/usr/bin/env bash
# Offline CI gate: formatting, lints, the tier-1 build + test suite, the
# benchmark's build and self-checks, serial-vs-parallel determinism of the
# suite runner, and the chaos, fleet, adversary, vcache, supervision and
# decoder smokes. Everything here must pass without network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== cargo doc (workspace, -D warnings)"
# Broken or private intra-doc links fail here rather than rot unseen.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --keep-going

echo "== perfbench: build and self-checks (a workspace of its own)"
# The benchmark is outside the workspace above, so a library change that
# breaks its build or its self-checks would otherwise pass.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== suite golden: full smoke-scale stdout vs the committed golden file"
# All 24 jobs' published output, byte for byte, against a file the
# repository carries rather than against another run of the same build:
# a change that moves any number in any job fails here. A change meant
# to move output regenerates the file with this command and says why.
# The whole suite at four workers must match the same file, so every
# job replays identically across suite worker counts.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
for jobs in 1 4; do
    VSCHED_SCALE=smoke ./target/release/suite --jobs "$jobs" --seed 42 \
        > "$tmpdir/suite_smoke.jobs$jobs.txt" 2>/dev/null
    diff tests/golden/suite_smoke_seed42.txt "$tmpdir/suite_smoke.jobs$jobs.txt"
done
# Every fleet cell reports its law verdict, and every fleet-chaos cell
# ends with nothing stranded on a dead host; the adversary matrix reports
# steal, and every vcache cell its cache picks.
for want in violations stranded steal "cache picks"; do
    grep -q "$want" "$tmpdir/suite_smoke.jobs1.txt"
done

echo "== suite runner: fleet stepping pool vs serial stepping (smoke scale, fixed seed)"
# The *cluster-stepping* pool (host shards inside each fleet cell,
# distinct from the suite's job pool above) must be equally invisible: a
# forced four-worker stepping pool vs the serial run, byte-identical.
# The `fleet` filter also substring-matches fleet-replay and fleet-chaos.
for id in fleet fleet-chaos; do
    for threads in 1 4; do
        VSCHED_SCALE=smoke ./target/release/suite --filter "$id" --jobs 1 --seed 42 \
            --fleet-threads "$threads" > "$tmpdir/$id.step$threads.txt" 2>/dev/null
    done
    diff "$tmpdir/$id.step1.txt" "$tmpdir/$id.step4.txt"
done

echo "== histogram oracle (release, 8x property cases)"
# The sparse histogram against its dense oracle, over the widened sweep.
cargo test -q --release -p vsched-metrics --features property-tests

echo "== large-fleet stepping identity (release, ignored tests)"
# The 256-host and 1000-host churned fleets step identically at 1, 2 and
# 4 stepping workers; too long for the debug tier-1 run.
cargo test -q --release -p vsched-fleet --test parallel_step -- --ignored

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
# 3) Scale smoke: the same day spread over 10 000 hosts must replay and
#    exit 0, that is, with no law violation, and byte-identically at one
#    and four stepping workers, so the pool's replay of deferred per-host
#    barriers is checked at region scale.
for threads in 1 4; do
    ./target/release/fleettrace replay examples/sap_day.trace.jsonl \
        --hosts 10000 --fleet-threads "$threads" > "$tmpdir/scale.step$threads.txt"
done
diff "$tmpdir/scale.step1.txt" "$tmpdir/scale.step4.txt"

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

echo "== supervision-smoke: canary isolation, shrink/replay"
# 1) Canary: one cell panics on purpose. The suite must exit 0, name the
#    cell in the stderr failure report, and leave the healthy jobs' stdout
#    byte-identical to a clean run.
VSCHED_SCALE=smoke ./target/release/suite --filter fig03 --jobs 2 --seed 42 \
    > "$tmpdir/clean.txt" 2>/dev/null
VSCHED_CANARY=1 VSCHED_SCALE=smoke ./target/release/suite --filter fig03 --jobs 2 \
    --seed 42 > "$tmpdir/canary.txt" 2> "$tmpdir/canary_err.txt"
diff "$tmpdir/clean.txt" "$tmpdir/canary.txt"
grep -q "canary/panic" "$tmpdir/canary_err.txt"
# 2) Shrink + replay under the synthetic law (the real checker passes on
#    healthy code, so CI exercises the ddmin pipeline with the canary law).
VSCHED_SHRINK_LAW=synthetic ./target/release/suite --shrink 3735928559 \
    2> "$tmpdir/shrink_err.txt"
grep -q "repro written" "$tmpdir/shrink_err.txt"
VSCHED_SHRINK_LAW=synthetic ./target/release/suite \
    --replay target/chaos_repro_3735928559.json 2> "$tmpdir/replay_err.txt"
grep -q "reproduced law 'synthetic-canary'" "$tmpdir/replay_err.txt"

echo "== decoder-smoke: one randomized mutation seed"
# Randomized seed: truncated, bit-flipped, duplicated-member and
# out-of-range-number documents through every on-disk decoder, which must
# decode or fail with a message, never panic. The seed is printed so a CI
# failure replays locally with
# DECODER_SEED=<seed> cargo test --release -p experiments --test decoder_fields mutated.
decoder_seed=$(date +%s%N)
echo "   decoder-smoke randomized seed: $decoder_seed"
if ! DECODER_SEED="$decoder_seed" \
    cargo test -q --release -p experiments --test decoder_fields mutated; then
    echo "decoder-smoke FAILED with DECODER_SEED=$decoder_seed (replay locally with that env var)" >&2
    exit 1
fi

echo "== suite runner: serial vs parallel output equality (quick scale, whole suite)"
# Quick-scale cells run longer than the smoke golden's, so a divergence
# that needs more simulated time to surface shows here.
for jobs in 1 4; do
    VSCHED_SCALE=quick ./target/release/suite --jobs "$jobs" --seed 42 \
        > "$tmpdir/suite_quick.jobs$jobs.txt" 2>/dev/null
done
diff "$tmpdir/suite_quick.jobs1.txt" "$tmpdir/suite_quick.jobs4.txt"

echo "CI OK"
