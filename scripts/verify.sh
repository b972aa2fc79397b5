#!/usr/bin/env bash
# Full verification gate: formatting, release build, test suite (debug
# and release), a check that no test binary registers a test twice, the
# benchmark smoke run and self-tests, lint-clean clippy across every
# target, the API docs built with warnings denied, a compile check of
# the bench code (which `cargo test` does not build, so it could
# otherwise rot silently), a rerun of every binary behind results/
# diffed against the committed files, and a smoke run of the
# instrumentation stack (trace_study self-checks its artifacts against
# end-of-run stats).
# CI and pre-commit both run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test -q
# Each test binary lists every test name once: a test registered twice
# runs twice for the coverage of one run and inflates the pass count.
cargo test -- --list 2>/dev/null | awk '
    /: test$/ { if (seen[$0]++) { print "verify: listed twice in one binary: " $0; dup = 1 } }
    /^[0-9]+ tests?, [0-9]+ benchmarks?$/ { split("", seen) }
    END { exit dup }
' >&2 || { echo "verify: a test binary registers a test twice" >&2; exit 1; }
# The suite again with debug assertions compiled out: release-only
# arithmetic and the release failure messages must hold too.
cargo test --release -q
# Benchmark smoke: every workload end-to-end and traced at 1/50 scale
# (exact replay, digest repeatability, campaign output determinism).
bash benchmark/smoke.sh
# The benchmark's own tests: exact replay of the comm3, four-core and
# saturated runs, the copied saturated loop against
# `nuat_bench::saturated_run`, and the metric tables against
# BENCHMARK.json. Builds into target/benchmark, which the smoke run has
# just filled.
(cd benchmark && cargo test --release -q)
cargo clippy --workspace --all-targets -- -D warnings
# API docs with warnings denied: a broken or private intra-doc link
# (say, to a deleted item) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo bench --no-run
smoke_dir=$(mktemp -d)
results_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir" "$results_dir"' EXIT
# results/ freshness: each committed output must be what its binary
# prints today at its default (paper-scale, seed 42) settings, so
# results/ and the numbers EXPERIMENTS.md quotes from it cannot drift
# from the code.
for f in results/*.txt; do
    name=$(basename "$f" .txt)
    cargo run --release -q -p nuat-bench --bin "$name" >"$results_dir/$name.txt" 2>/dev/null
done
diff -r results "$results_dir" \
    || { echo "verify: results/ differs from what its binaries print" >&2; exit 1; }
cargo run --release -q -p nuat-bench --bin trace_study -- \
    --quick --out "$smoke_dir" --metrics "$smoke_dir/metrics.prom" >/dev/null
for f in trace.json events.jsonl timeseries.csv metrics.prom metrics.prom.jsonl; do
    test -s "$smoke_dir/$f" || { echo "verify: missing $f" >&2; exit 1; }
done
# Metrics smoke: the Prometheus exposition must be structurally sound
# (every sample line preceded by a TYPE for its series) and the key
# counters must have actually counted — a zero here means the
# instrumentation silently compiled out or lost its emission site.
awk '
    /^# TYPE nuat_/ { typed[$3] = 1 }
    /^nuat_/ {
        split($1, a, "{"); n = a[1]
        # Histogram samples are declared under the base metric name.
        sub(/_(bucket|sum|count)$/, "", n)
        if (!(a[1] in typed) && !(n in typed)) { print "untyped series " a[1]; bad = 1 }
    }
    END { exit bad }
' "$smoke_dir/metrics.prom" || { echo "verify: malformed metrics.prom" >&2; exit 1; }
for series in nuat_tick_cycles_total nuat_skip_busy_cycles_total \
    nuat_cmd_read_total nuat_wheel_rekeys_total nuat_phase_issue_nanos_total; do
    awk -v s="$series" '$0 ~ "^"s"\\{" && $NF + 0 > 0 { found = 1 } END { exit !found }' \
        "$smoke_dir/metrics.prom" \
        || { echo "verify: $series missing or zero in metrics.prom" >&2; exit 1; }
done
# The JSONL line must at least be one balanced object per channel.
awk 'NF { o = gsub(/{/, "{"); c = gsub(/}/, "}"); if (o != c || $0 !~ /^\{/) exit 1 }' \
    "$smoke_dir/metrics.prom.jsonl" \
    || { echo "verify: malformed metrics.prom.jsonl" >&2; exit 1; }
# Opt-in perf regression gate (wall-clock comparison against the
# committed BENCH_scheduler.json — only meaningful on a quiet machine).
if [ "${NUAT_PERF_GATE:-0}" = "1" ]; then
    scripts/perf_gate.sh
fi
echo "verify: OK"
