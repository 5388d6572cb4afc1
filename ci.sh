#!/usr/bin/env sh
# The full local CI gate — exactly what .github/workflows/ci.yml runs.
#
# Works offline: every step passes CARGO_NET_OFFLINE so a warmed-up
# vendor/registry cache (or a fully local path-dependency workspace) is
# enough; nothing here needs network access.
set -eu

export CARGO_NET_OFFLINE="${CARGO_NET_OFFLINE:-true}"
export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings

# Static analysis gate: crowd-lint (lexical rules + call-graph determinism
# and bounded-wait packs) must report zero unsuppressed findings — the
# versioned report lands in results/LINT_10.json — and the seeded fixture
# tree must still trip EVERY rule pack individually. A lint pass that
# stops failing on known-bad input is a broken gate, not a clean tree.
mkdir -p results
run cargo run -q -p crowd-lint -- --json results/LINT_10.json
for pack in lexical det wait meta; do
    echo "==> crowd-lint fixture must fail (--pack $pack)"
    if cargo run -q -p crowd-lint -- --root crates/lint/fixtures --pack "$pack" --quiet; then
        echo "crowd-lint fixture passed pack '$pack'; the lint gate is broken" >&2
        exit 1
    fi
done

run cargo build --release

# Tests and examples must not write into the worktree: snapshot its state
# here and compare after the seed loops and the example run below, so a
# test or example that writes a tracked (or unignored) file fails the gate
# instead of needing a follow-up commit.
tree_before=$(git status --porcelain)

run cargo test -q --workspace --no-fail-fast

# Plan snapshots: every statement form must lower to exactly the committed
# EXPLAIN rendering (crates/query/tests/fixtures/explain/). Drift means the
# plan contract changed — regenerate with UPDATE_EXPLAIN_FIXTURES=1 and
# review the diff.
run cargo test -q -p crowd-query --test explain_golden

# Invariant validator: run the core suite with the `validate` feature so the
# debug-build Validate hooks (E-step/M-step boundaries, feedback ingest) are
# exercised explicitly even if the profile ever stops defaulting to debug.
run cargo test -q -p crowd-core --features validate

# Fault matrix: the lifecycle recovery counters must reproduce exactly
# under every seed (see crates/platform/tests/fault_matrix.rs).
for seed in 17 42 99; do
    run env FAULT_SEED="$seed" cargo test -q -p crowd-platform --test fault_matrix
done

# Query-layer chaos matrix: seeded fault injection + a mixed
# deadline/cancel/budget/admission schedule must stay typed, accounted and
# bit-identical where nothing fired (see tests/chaos.rs; each seed's report
# lands in target/tmp/chaos_<seed>.json).
for seed in 17 42 99; do
    run env CHAOS_SEED="$seed" cargo test -q -p crowdselect --test chaos
done

# Pool lifecycle stress: concurrent queries over the persistent scoring
# pool with mid-flight cancellation/deadline/budget firing must stay
# typed, leak no OS threads, and reconcile every query/* counter exactly
# (see tests/pool_chaos.rs).
for seed in 17 42 99; do
    run env POOL_CHAOS_SEED="$seed" cargo test -q -p crowdselect --test pool_chaos
done

# The Figure-1 pipeline example writes its trace and metrics snapshot to
# the temp directory, never into the worktree.
run cargo run --release --example live_platform

echo "==> worktree unchanged by the test and example steps"
if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "the test or example steps changed the worktree:" >&2
    git status --porcelain >&2
    exit 1
fi

# End-to-end benchmark output checks. Writes only to the git-ignored
# perfbench/out/ (see perfbench/README.md).
# - select_wide (100k-worker roster) exits 1 if any SELECT differs bit for
#   bit from the `project_bow` + `select_top_k_serial` oracle. Its selects
#   hit the projection cache.
# - mixed_cold serves never-seen texts, so every select runs the Algorithm 3
#   projection. The traced run also checks the served fit's ELBO trace and
#   projections bit for bit against a replica fit of the WAL-recovered
#   store, and one select in 16 against the serial oracle.
run cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload select_wide --seed 1 --seconds 2 --trace 0
run cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload mixed_cold --seed 1 --seconds 2 --trace 1

# Bench smoke: the dense serving path must beat the serial baseline by the
# speedup gate, and thread scaling over the persistent scoring pool must
# hold (strict t8 < t1 on multi-core hosts; no-regression bounds on
# single-core ones). Report lands in results/BENCH_8.json (see
# crates/bench/src/bin/selection_smoke.rs).
run cargo run --release -p crowd-bench --bin selection_smoke

# Sharded-fit smoke: the 8-shard fit must be bit-identical to the 1-shard
# fit (ELBO traces compared bitwise), beat it ≥3x on multi-core hosts
# (no-regression bound on single-core ones), and the million-worker tier
# must train inside the peak-RSS ceiling. Report lands in
# results/BENCH_9.json (see crates/bench/src/bin/fit_smoke.rs).
run cargo run --release -p crowd-bench --bin fit_smoke

echo "==> ci.sh: all green"
