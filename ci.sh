#!/usr/bin/env bash
# Offline CI gate: formatting, lints, the tier-1 build + test suite, the
# benchmark's build and self-checks, serial-vs-parallel determinism of the
# suite runner, the registry-wide trace gate, one seed for the randomized
# property sweeps, and the replay, shrink and supervision smokes.
# Everything here must pass without network access.
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
    ./target/release/suite --scale smoke --jobs "$jobs" --seed 42 \
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
        ./target/release/suite --scale smoke --filter "$id" --jobs 1 --seed 42 \
            --fleet-threads "$threads" > "$tmpdir/$id.step$threads.txt" 2>/dev/null
    done
    diff "$tmpdir/$id.step1.txt" "$tmpdir/$id.step4.txt"
done

echo "== histogram oracle (release, 8x property cases)"
# The sparse histogram against its dense oracle, over the widened sweep.
cargo test -q --release -p vsched-metrics --features property-tests

echo "== event queue vs its sorted-vec model (release, 8x property cases)"
# The packed-key event queue against its reference model, with times in
# every part of the key, FIFO ties and clock monotonicity, widened.
cargo test -q --release -p vsched-simcore --features property-tests

echo "== guest-kernel invariants (release, 8x property cases, full-scan shadow)"
# The guest kernel's structural invariants after every random step, with
# its kept per-vCPU state among them (the busy, normal-running and
# idle-like masks, every fresh load ratio and the misfit candidate masks
# against their definitions), the early-exit communication factor against
# a full scan, and each domain level's group index against the first
# matching group, over the widened sweep. The shadow feature also checks
# every read of a kept mask, ratio, group or busiest vCPU inside those
# random steps against a scan.
cargo test -q --release -p vsched-guestos --features property-tests,shadow

echo "== large-fleet stepping identity (release, ignored tests)"
# The 256-host and 1000-host churned fleets step identically at 1, 2 and
# 4 stepping workers; too long for the debug tier-1 run.
cargo test -q --release -p vsched-fleet --test parallel_step -- --ignored

echo "== registry trace gate: every cell traced vs untraced (release, ignored test)"
# Every cell of all 24 jobs runs untraced and then under a traced cell
# context: rows must be identical, every checked collector law-clean with
# events, and every machine a cell builds must come from its context.
cargo test -q --release --test trace_invariants -- --ignored

echo "== registry trace gate under the full-scan shadows (release, ignored test)"
# The same gate with every full-scan shadow compiled in, in one pass:
# every read of a kept load ratio, busy / normal-running / idle-like mask
# bit, per-level busiest vCPU, domain group, misfit candidate mask or
# communication factor in the guest kernel, every read of a trace table's
# live count, every fleet placement refresh and every latency-server
# arrival's idle-worker pick is recomputed by a scan and asserted equal,
# across all 506 cells.
cargo test -q --release --test trace_invariants \
    --features guestos/shadow,trace/shadow,fleet/shadow,workloads/shadow -- --ignored

echo "== randomized sweeps: one drawn seed for five property sweeps"
# Randomized seed: the chaos fault classes, the fleet migration laws, the
# attack archetypes, the LLC occupancy model and the decoder mutations
# each run on a fresh schedule. Every sweep reads the one SWEEP_SEED; it
# is printed once, and a failure names it with the command that failed,
# so the failure replays locally with SWEEP_SEED=<seed> <command>.
sweep_seed=$(date +%s%N)
echo "   randomized seed: $sweep_seed"
sweeps=(
    "cargo test -q --release --test chaos invariants"
    "cargo test -q --release -p vsched-fleet --test fleet_chaos"
    "cargo test -q --release --test adversary invariants"
    "cargo test -q --release -p vsched-hostsim --test llc_propcheck"
    "cargo test -q --release -p experiments --test decoder_fields mutated"
)
for sweep in "${sweeps[@]}"; do
    # Unquoted on purpose: each entry splits into one command line.
    if ! SWEEP_SEED="$sweep_seed" $sweep; then
        echo "sweep FAILED: SWEEP_SEED=$sweep_seed $sweep" >&2
        exit 1
    fi
done

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

echo "== fleet-chaos-smoke: chaos-day replays"
# 1) The committed maintenance-drain day replays law-clean under a chaos
#    overlay, byte-identically at 1 vs 4 stepping workers.
./target/release/fleettrace replay examples/sap_drain.trace.jsonl \
    --policy probe-aware --mode vsched --chaos-seed 99 --migration handoff \
    --fleet-threads 1 > "$tmpdir/drain_serial.txt"
./target/release/fleettrace replay examples/sap_drain.trace.jsonl \
    --policy probe-aware --mode vsched --chaos-seed 99 --migration handoff \
    --fleet-threads 4 > "$tmpdir/drain_step4.txt"
diff "$tmpdir/drain_serial.txt" "$tmpdir/drain_step4.txt"
grep -q "chaos seed" "$tmpdir/drain_serial.txt"
# 2) So does the committed resize-storm chaos day (the chaos-mode example
#    trace captured via the fleettrace codec).
./target/release/fleettrace replay examples/sap_storm_chaos.trace.jsonl \
    --policy probe-aware --mode vsched --chaos-seed 7 --migration handoff \
    --fleet-threads 1 > "$tmpdir/storm_serial.txt"
./target/release/fleettrace replay examples/sap_storm_chaos.trace.jsonl \
    --policy probe-aware --mode vsched --chaos-seed 7 --migration handoff \
    --fleet-threads 4 > "$tmpdir/storm_step4.txt"
diff "$tmpdir/storm_serial.txt" "$tmpdir/storm_step4.txt"
grep -q "chaos seed" "$tmpdir/storm_serial.txt"

echo "== shrink-smoke: every repro plan shrinks and replays"
# Healthy code passes the real checker, so each shrink runs under the
# synthetic canary law: the single-host fault plan, the fleet host-failure
# plan and the attack plan each go through ddmin to a repro file, which
# must replay the same law. Rows are (flag suffix, repro stem, law).
for row in ":chaos:synthetic-canary" \
    "-fleet:fleet_chaos:fleet-synthetic-canary" \
    "-adversary:adversary:adversary-synthetic-canary"; do
    IFS=: read -r suffix stem law <<< "$row"
    VSCHED_SHRINK_LAW=synthetic ./target/release/suite "--shrink$suffix" 3735928559 \
        2> "$tmpdir/shrink_err.txt"
    grep -q "repro written" "$tmpdir/shrink_err.txt"
    VSCHED_SHRINK_LAW=synthetic ./target/release/suite \
        "--replay$suffix" "target/${stem}_repro_3735928559.json" 2> "$tmpdir/replay_err.txt"
    grep -q "reproduced law '$law'" "$tmpdir/replay_err.txt"
done

echo "== supervision-smoke: canary isolation"
# Canary: one cell panics on purpose. The suite must exit 0, name the
# cell in the stderr failure report, and leave the healthy jobs' stdout
# byte-identical to a clean run.
./target/release/suite --scale smoke --filter fig03 --jobs 2 --seed 42 \
    > "$tmpdir/clean.txt" 2>/dev/null
VSCHED_CANARY=1 ./target/release/suite --scale smoke --filter fig03 --jobs 2 \
    --seed 42 > "$tmpdir/canary.txt" 2> "$tmpdir/canary_err.txt"
diff "$tmpdir/clean.txt" "$tmpdir/canary.txt"
grep -q "canary/panic" "$tmpdir/canary_err.txt"

echo "== suite runner: serial vs parallel output equality (quick scale, whole suite)"
# Quick-scale cells run longer than the smoke golden's, so a divergence
# that needs more simulated time to surface shows here.
for jobs in 1 4; do
    ./target/release/suite --scale quick --jobs "$jobs" --seed 42 \
        > "$tmpdir/suite_quick.jobs$jobs.txt" 2>/dev/null
done
diff "$tmpdir/suite_quick.jobs1.txt" "$tmpdir/suite_quick.jobs4.txt"

echo "CI OK"
