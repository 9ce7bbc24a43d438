#!/usr/bin/env bash
# Full CI gate: release build, tests, lints, and a smoke sweep of the
# experiment runner diffed against the checked-in golden report.
set -euo pipefail
cd "$(dirname "$0")"

# The MAIA_* knobs are parsed once, by the CLI, into the RunConfig a run
# executes under (maia_core::RunConfig::with_knobs); a library read of
# the environment would be a second, unchecked parser.
echo "== environment reads stay at the CLI entry point"
if grep -rnE 'env::var|env::vars' crates/*/src | grep -v '^crates/bench/src/cli.rs:'; then
    echo "FAIL: only crates/bench/src/cli.rs may read the environment" >&2
    exit 1
fi

# A ratchet: every .rs file under crates/ and tests/ is rustfmt-clean but
# those rustfmt-pending.txt lists, which predate the gate. A new file or
# a clean one rustfmt would change fails here, and so does a listed file
# that has become clean, so the list only shrinks. rustfmt names each
# file it would change, a module's child files included.
echo "== rustfmt ratchet: every file but rustfmt-pending.txt's"
fmt_out=$(mktemp)
trap 'rm -f "$fmt_out"' EXIT
rustfmt --edition 2021 --check --color never $(find crates tests -name '*.rs') \
    >"$fmt_out" 2>&1 || true
if grep -v '^Diff in \|^ \|^[-+]\|^$' "$fmt_out"; then
    echo "FAIL: rustfmt could not check the files above" >&2
    exit 1
fi
if ! diff -u <(grep -v '^#' rustfmt-pending.txt | sort -u) \
    <(sed -n "s|^Diff in $PWD/\(.*\.rs\):[0-9]*:\$|\1|p" "$fmt_out" | sort -u); then
    echo "FAIL: a file outside rustfmt-pending.txt is unformatted (+), or a listed one is clean (-)" >&2
    exit 1
fi
rm -f "$fmt_out"

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

# benchmark/ is its own workspace, so the builds above never compile it;
# this catches a renamed maia_sim item it calls before the benchmark run
# does, and covers its profile-parity and selftest checks.
echo "== benchmark package: cargo test --release"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A doc link to a deleted item, or from public docs to a private one,
# fails here instead of rendering as dead text.
echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

tmp=$(mktemp)
tmp_err=$(mktemp)
trap 'rm -f "$tmp" "$tmp_err"' EXIT

# golden_gate <label> <golden file> <command...>
# Runs the command, captures stdout, and diffs it against the golden —
# the single shape every byte-identity gate in this script takes. A diff
# means the model output drifted (or stopped being deterministic).
golden_gate() {
    local label=$1 golden=$2
    shift 2
    echo "== $label: vs $golden"
    "$@" >"$tmp" 2>/dev/null
    diff -u "$golden" "$tmp"
}

golden_gate "smoke sweep (run --all --jobs 2)" tests/golden/smoke_sweep.md \
    ./target/release/maia-bench run --all --jobs 2
# A conformance diff means a model change bent a paper-published shape,
# or the predicate set itself silently drifted.
golden_gate "conformance gate (check --all)" tests/golden/conformance.md \
    ./target/release/maia-bench check --all --jobs 2
# EXPERIMENTS.md is generated: the tables, the conformance index and the
# paper claims from the experiment table. A diff means one of them
# changed without the report being regenerated.
golden_gate "EXPERIMENTS.md (maia-bench report)" EXPERIMENTS.md \
    ./target/release/maia-bench report
# USAGE is the one description of every subcommand, flag, knob and exit
# code; a diff means the CLI's documented contract changed.
golden_gate "usage text (maia-bench help)" tests/golden/usage.txt ./target/release/maia-bench help
# Bit-identical resilience report at fixed plan/seed/--jobs: a diff here
# means fault injection stopped being deterministic, or a hook leaked
# into (or drifted from) the nominal models.
golden_gate "faults smoke (degraded-stack plan)" tests/golden/resilience.md \
    ./target/release/maia-bench faults --plan degraded-stack --only F07,F08,F09,F18 --jobs 2
# The same report as JSON: every count and relative delta of the
# nominal-vs-degraded table diff, and the JSON renderer with them.
golden_gate "faults smoke as JSON (degraded-stack plan)" tests/golden/resilience.json \
    ./target/release/maia-bench faults --plan degraded-stack --only F07,F08,F09,F18 --jobs 2 \
    --format json
# One fault plan reaches every wheel: the straggler report over the
# cluster experiments must not change when wheels 1-3 (and with them
# the straggling rank) run in worker processes.
golden_gate "faults across wheels (straggler plan, 1 wheel)" tests/golden/resilience_cluster.md \
    ./target/release/maia-bench faults --plan straggler --only C01,C02 --jobs 2
golden_gate "faults across wheels (straggler plan, 4 process wheels)" \
    tests/golden/resilience_cluster.md \
    ./target/release/maia-bench faults --plan straggler --only C01,C02 --jobs 2 \
    --partitions 4 --backend process
# A01 and A02 run their numerics on the first layout only and replay its
# op log on the others, so a straggler must be priced at replay time on
# every layout: the straggler report over the two apps pins it.
golden_gate "faults across layouts (straggler plan, replayed apps)" \
    tests/golden/resilience_apps.md \
    ./target/release/maia-bench faults --plan straggler --only A01,A02 --jobs 2
# A straggler never reaches a PCIe-crossing replay; the degraded stack
# does: A02's symmetric layout pays the DAPL fallback and the link
# retries on every replayed PCIe message, priced at replay time.
golden_gate "faults across layouts (degraded-stack plan, replayed PCIe messages)" \
    tests/golden/resilience_apps_pcie.md \
    ./target/release/maia-bench faults --plan degraded-stack --only A01,A02 --jobs 2

# trace_timeline counts every rank's scheduler transitions through a
# Probe; a diff means the engine's schedule of the allreduce changed, or
# the probe stopped seeing part of it.
golden_gate "trace timeline (8-rank Phi allreduce)" tests/golden/trace_timeline.txt \
    ./target/release/trace_timeline

echo "== profile smoke: maia-bench profile --only fig_04 --trace + trace_lint"
./target/release/maia-bench profile --only fig_04 --trace "$tmp" >/dev/null
./target/release/trace_lint "$tmp"

echo "== engine crosscheck: every F10-F14 and C01-C02 cell, closed forms vs DES"
# Exit 1 here names the first cell where the fast path and the
# discrete-event engine disagree — a model change landed in only one.
# The cluster cells run their DES side partitioned (2 event wheels).
./target/release/maia-bench crosscheck --jobs 2 --partitions 2 >"$tmp" || {
    cat "$tmp" >&2
    exit 1
}
# The matching report itself: the cells compared per experiment, which
# a diff that skipped a row or a column would change.
golden_gate "engine crosscheck report (2 wheels)" tests/golden/crosscheck.md \
    ./target/release/maia-bench crosscheck --jobs 2 --partitions 2

# The partitioned engine must be a pure function of the simulated world:
# single-wheel output pins the golden, and a 4-wheel run must be
# byte-identical. Identity does not depend on the core count, so both
# gates always run; only the speedup check needs real cores.
golden_gate "partitioned cluster DES (1 wheel)" tests/golden/cluster_sweep.md \
    ./target/release/maia-bench run --only C01,C02 --jobs 2 --engine des --partitions 1
golden_gate "partitioned cluster DES (4 wheels)" tests/golden/cluster_sweep.md \
    ./target/release/maia-bench run --only C01,C02 --jobs 2 --engine des --partitions 4
cores=$(nproc)
if [ "$cores" -ge 4 ]; then
    echo "== partition speedup: 4 wheels must beat 1 by >1.5x on $cores cores"
    p1_start=$(date +%s.%N)
    ./target/release/maia-bench run --only C01,C02 --jobs 1 --engine des --partitions 1 >/dev/null 2>&1
    p1_s=$(awk -v a="$p1_start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
    p4_start=$(date +%s.%N)
    ./target/release/maia-bench run --only C01,C02 --jobs 1 --engine des --partitions 4 >/dev/null 2>&1
    p4_s=$(awk -v a="$p4_start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
    echo "   1 wheel: ${p1_s} s; 4 wheels: ${p4_s} s"
    if ! awk -v a="$p1_s" -v b="$p4_s" 'BEGIN { exit !(a > 1.5 * b) }'; then
        echo "FAIL: 4-wheel cluster sweep (${p4_s} s) not >1.5x faster than 1 wheel (${p1_s} s)" >&2
        exit 1
    fi
else
    echo "   ($cores core(s): the 4-wheel speedup gate needs >= 4 cores; skipped)"
fi

# The multi-process backend must land on the same bytes as the channel
# backend: identical golden, but wheels 1-3 live in real maia-bench
# partition-worker processes routed by the in-parent hub. Correctness
# does not depend on core count, so this gate always runs.
golden_gate "process-backend cluster DES (4 wheels, real worker processes)" \
    tests/golden/cluster_sweep.md \
    ./target/release/maia-bench run --only C01,C02 --jobs 2 --engine des \
    --partitions 4 --backend process

# Each experiment keeps its worker processes for all of its cells, and a
# finishing worker wakes its heartbeat thread instead of sleeping out the
# interval, so the process backend costs its pipes, not its sleeps: the
# 24 cells take ~0.05-0.1 s where a spawn and a 100 ms heartbeat join
# per cell took 2.5 s. Asserted at any core count.
echo "== process-backend wall: C01+C02 at 2 process wheels under 0.5 s"
./target/release/maia-bench run --only C01,C02 --jobs 1 --engine des --partitions 2 \
    --backend process --bench-json "$tmp" >/dev/null 2>&1
process_wall_s=$(grep -o '"wall_s": [0-9.]*' "$tmp" | head -n 1 | awk '{print $2}')
echo "   run --only C01,C02 --backend process: ${process_wall_s} s (budget 0.5 s)"
if ! awk -v w="$process_wall_s" 'BEGIN { exit !(w < 0.5) }'; then
    echo "FAIL: process-backend wall ${process_wall_s} s exceeds the 0.5 s budget" >&2
    exit 1
fi

echo "== supervision drill: kill a worker, no retries, no degradation -> exit 1, partial report"
set +e
MAIA_WORKER_CHAOS=kill:1 MAIA_SUPERVISE_RETRIES=0 MAIA_SUPERVISE_DEGRADE=0 \
    ./target/release/maia-bench run --only C01,T01 --jobs 2 --engine des \
    --partitions 4 --backend process >"$tmp" 2>"$tmp_err"
drill_rc=$?
set -e
if [ "$drill_rc" -ne 1 ]; then
    echo "FAIL: expected exit 1 from a sweep with an unrecoverable worker loss, got $drill_rc" >&2
    cat "$tmp_err" >&2
    exit 1
fi
grep -q 'worker-lost' "$tmp_err" || {
    echo "FAIL: drill failure not classified as worker-lost" >&2
    cat "$tmp_err" >&2
    exit 1
}
grep -q 'worker for wheel 1 lost at window' "$tmp_err" || {
    echo "FAIL: drill failure detail does not name the wheel and window" >&2
    cat "$tmp_err" >&2
    exit 1
}
grep -q '^## T1 ' "$tmp" || {
    echo "FAIL: partial report missing the surviving experiment (T1)" >&2
    exit 1
}

echo "== fail-soft gate: injected panic isolates one experiment, exit 1, partial report"
set +e
MAIA_FAULT_PANIC=F17 ./target/release/maia-bench run --only F17,T01 --jobs 2 >"$tmp" 2>/dev/null
failsoft_rc=$?
set -e
if [ "$failsoft_rc" -ne 1 ]; then
    echo "FAIL: expected exit 1 from a sweep with an injected panic, got $failsoft_rc" >&2
    exit 1
fi
grep -q '^## T1 ' "$tmp" || {
    echo "FAIL: partial report missing the surviving experiment (T1)" >&2
    exit 1
}

# The PR 1 jobs=1-vs-jobs=4 speedup assertion retired with the closed-form
# collective fast paths: the sweep no longer contains enough parallelizable
# DES work for a 2x ratio. The wall budget below is the stronger gate — it
# fails if the fast paths stop engaging (a DES F13+F14 alone costs ~4 s)
# or if the inline-process engine regresses (A01+A02 alone would blow it).
echo "== sweep wall budget (informational; asserted only with >= 4 cores)"
./target/release/maia-bench run --all --jobs 2 --bench-json "$tmp" >/dev/null 2>&1
wall_s=$(grep -o '"wall_s": [0-9.]*' "$tmp" | head -n 1 | awk '{print $2}')
echo "   run --all --jobs 2: ${wall_s} s (budget 0.06 s; recorded: BENCH_sweep.json)"
if [ "$cores" -ge 4 ] && ! awk -v w="$wall_s" 'BEGIN { exit !(w < 0.06) }'; then
    echo "FAIL: sweep wall ${wall_s} s exceeds the 0.06 s budget on $cores cores" >&2
    exit 1
fi

echo "== perf regression gate: fresh per-experiment walls vs BENCH_sweep.json"
# Compares each experiment's *exclusive* wall (concurrency-corrected; see
# ExperimentRun::excl) against the committed baseline. >2x plus a 5 ms
# absolute slack counts as a regression — wide enough to ride out CI
# noise, tight enough to catch an accidental O(events) allocation or a
# fast path that stopped engaging. Asserted only with >= 4 cores (the
# recorded baseline assumes experiments do not time-share one core).
set +e
paste \
    <(grep -o '"code": "[A-Z0-9]*", "wall_s": [0-9.]*, "excl_s": [0-9.]*' "$tmp") \
    <(grep -o '"code": "[A-Z0-9]*", "wall_s": [0-9.]*, "excl_s": [0-9.]*' BENCH_sweep.json) |
    awk -F'[",:[:space:]]+' '
        # Fields per pasted line: $3/$9 codes, $7/$13 exclusive walls.
        $3 != $9 { printf "   experiment list drifted: fresh %s vs recorded %s\n", $3, $9; bad = 1; exit 1 }
        $7 > 2 * $13 + 0.005 { printf "   %s: fresh excl %.6f s > 2x recorded %.6f s + 5 ms\n", $3, $7, $13; bad = 1 }
        END { exit bad }
    '
perf_rc=$?
set -e
if [ "$perf_rc" -ne 0 ]; then
    if [ "$cores" -ge 4 ]; then
        echo "FAIL: per-experiment perf regression vs BENCH_sweep.json (see above)" >&2
        exit 1
    fi
    echo "   ($cores core(s): regressions above are informational below 4 cores)"
else
    echo "   all experiments within 2x of recorded exclusive walls"
fi

echo "CI green"
