#!/usr/bin/env bash
# CI gates, runnable locally and from the GitHub Actions workflow.
# The workspace has no external dependencies, so everything here works
# fully offline.
#
#   ./ci.sh          tier-1 gate: fmt, clippy, rustdoc (warnings are
#                    errors, so a doc link to a deleted item fails),
#                    release build, tests
#   ./ci.sh chaos    differential chaos sweep: 8 fixed seeds x 3 fault
#                    plans through crates/simtest in release mode
#   ./ci.sh trace    trace smoke: seeded GUPS-small with lifecycle tracing
#                    on; the exported Chrome-trace JSON must parse and
#                    contain >=1 eager and >=1 deferred notification event
#   ./ci.sh bench    benchmark regression gate: regenerate the
#                    deterministic BENCH_*.json documents and compare them
#                    against ci/baseline/, where every row is pinned
#                    exactly (zero tolerance); also proves the gate trips
#                    on the broken fixture for its planted reason (a
#                    nonzero exit AND the v2021_3_6_eager.put_deferred_count
#                    failure line; its printed FAIL lines are labelled
#                    expected). Then runs the wall-clock `figures --quick
#                    latency offnode` sections (instrument cost on the
#                    eager and deferred put, off-node round trip, callback
#                    notify p50/p99), which must print their rows; those
#                    numbers are not gated. Set BENCH_OUT to keep the
#                    generated files (CI uploads them as artifacts).
#   ./ci.sh conduit  conduit-swap gate: the trait-extraction golden suite
#                    (SimNetwork behind the Conduit trait must reproduce
#                    pre-refactor digests, counters, and wire traces) plus
#                    the sim-vs-socket differential over real loopback UDP,
#                    in-process and as separate OS processes (udprun).
#   ./ci.sh signals  notifiable-RMA gate: badge-coalescing property tests,
#                    the signal-storm chaos differential (exactly-once
#                    delivery + eager/defer digest equality), the sim-vs-UDP
#                    signal differential, and the multi-process parked-waiter
#                    run (udprun --signals). All timeout-bounded: a waiter
#                    that never wakes must fail CI, not hang it.
#   ./ci.sh causal   causal-tracing gate: assemble the cross-rank
#                    happens-before timeline from Lamport-stamped traces
#                    and require zero causality violations on virtual-clock
#                    runs (simtest --causal-out on gups-small and the
#                    signal storm), ship real multi-process traces over the
#                    pipe protocol (udprun --trace-out), and run the
#                    byte-determinism + eager-vs-defer contrast suite
#                    (crates/simtest/tests/causal.rs).
#   ./ci.sh continuations
#                    continuation gate: the callback completion mode and
#                    the background progress thread. Unit layers first
#                    (callback queue, completion composition, reentrancy
#                    deferral, wait_signal-in-callback diagnosis), then the
#                    callback-storm chaos differential under all three
#                    fault plans with and without the progress thread (a
#                    strict no-op on the virtual clock), the callback
#                    drain on the progress thread for a local op and for
#                    an off-node one (the latter is
#                    offnode_callback_runs_on_the_progress_thread_without_rank_polls),
#                    and the sim-vs-UDP progress-thread smoke (simtest
#                    --progress-thread + udprun --progress-thread). Timeout-bounded: a lost
#                    continuation must fail CI, not hang it.
#   ./ci.sh perf     wall-clock benchmark lint + build + self-tests:
#                    perfbench/ is its own Cargo workspace, so the other
#                    jobs never format-check, lint or build it; this one
#                    runs fmt --check and clippy -D warnings on it, compiles
#                    it against the current runtime API and runs its
#                    self-tests (seed determinism, metric names vs
#                    BENCHMARK.json, smoke runs of every workload).
#   ./ci.sh watchdog introspection gate: deliberately provoke a partition
#                    stall (simtest --watchdog-demo) and require the stall
#                    watchdog's wait-graph diagnosis to name the blocked
#                    rank, the stuck carrier, and the flight-recorder
#                    event; then the snapshot-determinism + diagnosis-
#                    replay suite. Timeout-bounded by construction — the
#                    watchdog exists so stalls fail fast instead of
#                    hanging.
set -euo pipefail
cd "$(dirname "$0")"

job="${1:-tier1}"

case "$job" in
  tier1)
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

    echo "==> cargo build --release"
    cargo build --release

    echo "==> cargo test -q"
    cargo test -q

    echo "==> cargo test --workspace -q"
    cargo test --workspace -q

    echo "CI green."
    ;;
  chaos)
    # Network-layer chaos regressions first (dup-promotion races,
    # exactly-once dedup, pending/heap invariants), then the harness
    # sweep: the seed list lives in crates/simtest/tests/differential.rs;
    # every workload runs under every seed x fault plan for both
    # notification modes (with and without aggregation), and the whole
    # sweep must stay well under two minutes.
    echo "==> cargo test -p gasnex --release -q"
    cargo test -p gasnex --release -q

    echo "==> cargo test -p simtest --release -q"
    cargo test -p simtest --release -q

    echo "Chaos sweep green."
    ;;
  trace)
    # `--check-notify` makes the binary itself the gate: it re-parses the
    # exported JSON (hand-rolled parser, no deps) and fails unless both
    # completion paths are represented.
    out="$(mktemp -d)/trace.json"
    echo "==> simtest --workload gups-small --seed 42 --plan combined --trace-out $out --check-notify"
    cargo run -p simtest --bin simtest --release -q -- \
      --workload gups-small --seed 42 --plan combined \
      --trace-out "$out" --check-notify
    test -s "$out" || { echo "trace export missing or empty" >&2; exit 1; }

    echo "Trace smoke green."
    ;;
  bench)
    out="${BENCH_OUT:-$(mktemp -d)}"
    mkdir -p "$out"
    echo "==> figures --quick --json --out-dir $out"
    cargo run -p bench --bin figures --release -q -- --quick --json --out-dir "$out"

    echo "==> regress --baseline ci/baseline --current $out"
    cargo run -p bench --bin regress --release -q -- \
      --baseline ci/baseline --current "$out"

    # The broken fixture plants one drift: v2021_3_6_eager.put_deferred_count
    # at 948 instead of 48. The proof needs both a nonzero exit and that
    # metric's failure line, so a missing fixture directory or a parse
    # error cannot pass it.
    echo "==> regress must fail on the intentionally-broken fixture (FAIL lines below are expected)"
    if broken=$(cargo run -p bench --bin regress --release -q -- \
        --baseline crates/bench/tests/fixtures/broken --current "$out" 2>&1); then
      status=0
    else
      status=$?
    fi
    printf '%s\n' "$broken" | sed 's/^/    expected: /'
    if [ "$status" -eq 0 ]; then
      echo "regress failed to flag the broken fixture" >&2
      exit 1
    fi
    if ! printf '%s\n' "$broken" | grep -q '^  v2021_3_6_eager\.put_deferred_count: baseline 948 '; then
      echo "regress exited $status on the broken fixture, but not for its planted put_deferred_count drift" >&2
      exit 1
    fi

    echo "==> figures --quick latency offnode (wall clock, not gated)"
    wall=$(cargo run -p bench --bin figures --release -q -- --quick latency offnode)
    printf '%s\n' "$wall"
    for row in "instruments off" "tracing on" "deferred put" "metrics on" "progress thread off" "progress thread on"; do
      printf '%s\n' "$wall" | grep -q "$row" || { echo "figures printed no '$row' row" >&2; exit 1; }
    done

    echo "Bench regression gate green."
    ;;
  conduit)
    # In-process half: the conduit-swap regression suite — pre-refactor
    # goldens for SimNetwork-behind-the-trait, plus the sim-vs-UDP
    # differential (bounded seeds, loopback only). `timeout` bounds the
    # job: a wedged socket retransmit loop must fail CI, not hang it.
    echo "==> cargo test -p simtest --release --test conduit"
    timeout 300 cargo test -p simtest --release -q --test conduit

    echo "==> cargo test -p gasnex --release conduit::udp"
    timeout 120 cargo test -p gasnex --release -q conduit::udp

    # Multi-process half: each rank is a real OS process; the payload
    # words cross process boundaries inside loopback datagrams, and the
    # folded digest must match the in-process simulator runs.
    echo "==> udprun --ranks 4 --seed 0 / --ranks 8 --seed 1"
    cargo build -p simtest --release -q --bin udprun
    timeout 120 ./target/release/udprun --ranks 4 --seed 0
    timeout 120 ./target/release/udprun --ranks 8 --seed 1

    echo "Conduit gate green."
    ;;
  signals)
    # Substrate first: notification-object state machine, parking, and
    # SIGNAL-frame wire tests inside gasnex; then the unit layer
    # (put/amo_signal + wait_signal on the runtime), the property suite,
    # and the chaos/transport differentials.
    echo "==> cargo test -p gasnex --release notify event"
    timeout 120 cargo test -p gasnex --release -q notify
    timeout 120 cargo test -p gasnex --release -q event

    echo "==> cargo test -p upcr --release signal"
    timeout 180 cargo test -p upcr --release -q signal

    echo "==> cargo test --release --test property badge wait_mask waiter"
    timeout 120 cargo test --release -q --test property badge
    timeout 120 cargo test --release -q --test property wait_mask
    timeout 120 cargo test --release -q --test property waiter

    echo "==> cargo test -p simtest --release --test signals"
    timeout 300 cargo test -p simtest --release -q --test signals

    echo "==> cargo test -p simtest --release --test conduit signal"
    timeout 300 cargo test -p simtest --release -q --test conduit signal

    echo "==> udprun --ranks 4 --seed 0 --signals"
    cargo build -p simtest --release -q --bin udprun
    timeout 120 ./target/release/udprun --ranks 4 --seed 0 --signals

    echo "Signals gate green."
    ;;
  causal)
    # Virtual-clock runs make the zero-violations requirement absolute:
    # Lamport order and the simulated clock cannot disagree, so the
    # simtest binary itself fails on any violation. The udprun half ships
    # real per-process traces over the pipes; its violation count is
    # reported (cross-process kernel clocks may skew) but the run must
    # still produce a valid flow-event JSON.
    out="$(mktemp -d)"
    echo "==> simtest --workload gups-small --causal-out"
    cargo build -p simtest --release -q --bin simtest --bin udprun
    timeout 120 ./target/release/simtest --workload gups-small --seed 42 \
      --plan combined --causal-out "$out/causal-gups.json"
    test -s "$out/causal-gups.json" || { echo "causal export missing" >&2; exit 1; }

    echo "==> simtest --workload signal-storm --causal-out"
    timeout 120 ./target/release/simtest --workload signal-storm --seed 42 \
      --plan combined --causal-out "$out/causal-signals.json"

    echo "==> udprun --ranks 4 --seed 0 --trace-out"
    timeout 120 ./target/release/udprun --ranks 4 --seed 0 \
      --trace-out "$out/causal-udp.json"
    test -s "$out/causal-udp.json" || { echo "udprun trace export missing" >&2; exit 1; }

    echo "==> cargo test -p simtest --release --test causal"
    timeout 300 cargo test -p simtest --release -q --test causal

    echo "==> cargo test -p upcr --release causal"
    timeout 300 cargo test -p upcr --release -q causal

    echo "Causal gate green."
    ;;
  continuations)
    # Unit layers first: the callback queue (reentrancy deferral, drain
    # exclusivity), the completion-object composition, and the
    # wait_signal-in-callback diagnosis panic.
    echo "==> cargo test -p upcr --release callback continuation"
    timeout 180 cargo test -p upcr --release -q callback
    timeout 180 cargo test -p upcr --release -q continuation

    # The chaos differential (8 seeds x 3 fault plans, with and without
    # the progress thread — a strict no-op on the virtual clock), the
    # callback drain on the progress thread for a local op and for an
    # off-node one whose delivery action enqueues the callback
    # (offnode_callback_runs_on_the_progress_thread_without_rank_polls),
    # and the sim-vs-UDP agreement run.
    echo "==> cargo test -p simtest --release --test continuations"
    timeout 600 cargo test -p simtest --release -q --test continuations

    # Smoke the flag end to end on both runners: the simtest bin on the
    # virtual clock (where the thread must change nothing) under every
    # fault plan, and udprun's multi-process digest cross-checked against
    # a thread-on in-process run over real kernel sockets.
    echo "==> simtest --workload callback-storm --progress-thread (all plans)"
    cargo build -p simtest --release -q --bin simtest --bin udprun
    for plan in drop-heavy dup-reorder combined; do
      timeout 120 ./target/release/simtest --workload callback-storm \
        --seed 42 --plan "$plan" --progress-thread > /dev/null
    done

    echo "==> udprun --ranks 4 --seed 0 --progress-thread"
    timeout 120 ./target/release/udprun --ranks 4 --seed 0 --progress-thread

    echo "Continuations gate green."
    ;;
  watchdog)
    # The demo run injects a put-with-signal into an hour-long partition
    # window while the waiter parks behind a 700 ms watchdog; the binary
    # exits non-zero unless the diagnosis names the blocked rank, and the
    # greps pin the edge and flight-recorder lines the diagnosis must
    # carry. Panic backtraces from the deliberately-aborted ranks go to
    # stderr; stdout carries only the diagnosis.
    out="$(mktemp -d)/watchdog.txt"
    echo "==> simtest --watchdog-demo --watchdog-ms 700"
    cargo build -p simtest --release -q --bin simtest
    timeout 60 ./target/release/simtest --watchdog-demo --watchdog-ms 700 \
      > "$out" 2>/dev/null
    grep -q "wait-graph stall: rank 0 blocked 700ms in wait_signal on notify word 0 mask 0x2" "$out"
    grep -q "candidate carriers in flight toward rank 0" "$out"
    grep -q "flight recorder: last wire event touching this edge" "$out"

    echo "==> cargo test -p simtest --release --test introspect"
    timeout 300 cargo test -p simtest --release -q --test introspect

    echo "Watchdog gate green."
    ;;
  perf)
    echo "==> cargo fmt --manifest-path perfbench/Cargo.toml --all -- --check"
    cargo fmt --manifest-path perfbench/Cargo.toml --all -- --check

    echo "==> cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings"
    cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

    echo "==> cargo test --release --offline --manifest-path perfbench/Cargo.toml"
    timeout 600 cargo test --release --offline --manifest-path perfbench/Cargo.toml

    echo "Perfbench lint and self-tests green."
    ;;
  *)
    echo "unknown job: $job (expected tier1, chaos, trace, bench, conduit, signals, causal, continuations, watchdog, or perf)" >&2
    exit 2
    ;;
esac
