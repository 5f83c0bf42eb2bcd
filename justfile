# Development commands. The container has no network: every cargo
# invocation must stay --offline (deps are vendored in-tree under shims/).

# Build, test, and lint — the full pre-merge gate. Includes a smoke
# pass over the perf benches (tiny workload, no JSON rewrite) so the
# harness itself cannot rot, and the crash-recovery suite.
verify:
    just manifest-paths
    cargo build --release --offline
    cargo test --offline -q
    cargo clippy --offline --workspace --all-targets -- -D warnings
    just bench-e2e-smoke
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench ingest
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench query_cache
    just recovery-smoke
    just overload-smoke
    just obs-smoke
    just distribution-smoke
    just scale-smoke
    just maintenance-smoke
    just control-smoke
    just slo-smoke
    just loc

# Every path a workspace manifest names — each member the `crates/*`
# and `shims/*` globs pick up, each `path = "…"` dependency or target —
# must be a file git tracks. A path that exists here but is ignored or
# untracked builds on this machine and nowhere else (how the criterion
# shim went missing from every clean clone).
manifest-paths:
    #!/usr/bin/env bash
    set -euo pipefail
    for manifest in Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml benchmark/Cargo.toml; do
        git ls-files --error-unmatch "$manifest" > /dev/null
        dir=$(dirname "$manifest")
        for path in $(sed -n 's/.*path *= *"\([^"]*\)".*/\1/p' "$manifest"); do
            target="$dir/$path"
            if [ -d "$target" ]; then target="$target/Cargo.toml"; fi
            git ls-files --error-unmatch "$target" > /dev/null \
                || { echo "$manifest names $path, which git does not track" >&2; exit 1; }
        done
    done

# dlbench, the end-to-end benchmark with per-layer attribution
# (benchmark/README.md): every end-to-end metric of all four workloads.
bench-e2e:
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all

# The benchmark's quick pass (small library, every workload once,
# answers checked against the oracle and `benchmark/expected/*.digest`)
# plus the harness's own tests.
bench-e2e-smoke:
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all --smoke
    cargo test --offline --manifest-path benchmark/Cargo.toml

# Crash-point recovery: the durability harness (WAL + snapshot fault
# sweeps) plus a smoke pass of the E13 recovery bench.
recovery-smoke:
    cargo test --offline -q -p dlsearch --test durability
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench recovery

# Replication & elasticity: the distribution chaos harness (replica
# failover, rebalancing under injected kills, consistent checkpoints)
# plus smoke passes of the E16 distribution and E4 fragmentation
# benches.
distribution-smoke:
    cargo test --offline -q -p dlsearch --test distribution_chaos
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench distribution
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench fragmentation

# Overload resilience: the closed-loop storm suite (admission,
# deadlines, cancellation hygiene, brownout honesty) plus a smoke pass
# of the E14 overload bench.
overload-smoke:
    cargo test --offline -q -p dlsearch --test overload
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench overload

# Data-plane scale: the compression identity suite (v2/v3 snapshot
# equivalence, lazy opens, WAL replay, ranked-retrieval and EXPLAIN
# round-trips) plus a smoke pass of the E17 scale bench over tiny
# zipfian corpora.
scale-smoke:
    cargo test --offline -q -p dlsearch --test scale_compression
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench scale

# Observability: byte-identity, scrape coverage, EXPLAIN ANALYZE tree
# shape, slow-log bounds — plus a smoke pass of the E15 overhead bench.
obs-smoke:
    cargo test --offline -q -p dlsearch --test observability
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench obs

# Online maintenance: the upgrade-storm chaos suite (epoch-consistent
# cutover under concurrent serving, fault-killed abort sweep, cache
# retention) plus a smoke pass of the E18 bench — which itself asserts
# the Batch-class admission proof.
maintenance-smoke:
    cargo test --offline -q -p dlsearch --test online_maintenance
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench online_maintenance

# Self-healing control plane: the control-plane suite (policy-driven
# rebalances, loss declaration → background re-replication, the chaos
# abort sweep, WAL replay idempotence, round-robin read-scaling) plus
# a smoke pass of the E19 bench.
control-smoke:
    cargo test --offline -q -p dlsearch --test control_plane
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench control

# SLO burn rates & the flight recorder: the telemetry suite (ticking
# byte-identity, a fault-injected latency storm paging the fast window
# and dumping an incident, the windowed-p99 control loop) plus a smoke
# pass of the E20 bench.
slo-smoke:
    cargo test --offline -q -p dlsearch --test slo
    BENCH_SMOKE=1 cargo bench --offline -p bench --bench slo

# Size of the two crates the query path lives in: non-blank,
# non-comment lines of `crates/core/src/*.rs` and `crates/ir/src/*.rs`
# up to each file's first `#[cfg(test)]`, per file and in total. A PR
# that claims "less code" quotes the total at its parent and at its head.
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    awk 'FNR == 1 { counting = 1 }
         /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
         counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { lines[FILENAME]++; total++ }
         END { for (f in lines) printf "%6d %s\n", lines[f], f | "sort -k2"; close("sort -k2"); printf "%6d total\n", total }' \
        crates/core/src/*.rs crates/ir/src/*.rs

build:
    cargo build --offline

test:
    cargo test --offline -q

clippy:
    cargo clippy --offline --workspace --all-targets -- -D warnings

# Perf baselines: E11 (parallel ingestion), E12 (query cache), E13
# (recovery), E14 (overload), E15 (observability overhead), E16
# (distribution: scaling, failover, rebalance), E17 (scale +
# compression), E18 (online maintenance), E19 (control plane:
# read-scaling + re-replication), E20 (SLO burn rates + incident
# dumps). Full runs refresh the BENCH_*.json artifacts in-repo; all
# emit the shared schema_version=1 envelope.
bench:
    cargo bench --offline -p bench --bench ingest
    cargo bench --offline -p bench --bench query_cache
    cargo bench --offline -p bench --bench recovery
    cargo bench --offline -p bench --bench overload
    cargo bench --offline -p bench --bench obs
    cargo bench --offline -p bench --bench distribution
    cargo bench --offline -p bench --bench scale
    cargo bench --offline -p bench --bench online_maintenance
    cargo bench --offline -p bench --bench control
    cargo bench --offline -p bench --bench slo

# The flagship scenario, healthy and under injected faults.
demo:
    cargo run --offline --release --example australian_open

demo-faults:
    FAULTS=1 cargo run --offline --release --example australian_open
