# Development commands. The container has no network: every cargo
# invocation must stay --offline (deps are vendored in-tree under shims/).

# Build, test, and lint — the full pre-merge gate. Includes the
# end-to-end benchmark's quick pass and a smoke pass (tiny workload)
# over every remaining bench binary so the harness itself cannot rot.
verify:
    just manifest-paths
    cargo build --release --offline
    cargo test --offline -q
    cargo clippy --offline --workspace --all-targets -- -D warnings
    just doc
    just bench-e2e-smoke
    BENCH_SMOKE=1 cargo bench --offline -p bench
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

# Size of the Rust code under `crates/`: non-blank, non-comment lines of
# every `crates/*/src/*.rs` (up to each file's first `#[cfg(test)]`) and
# of the bench binaries, as a subtotal per crate and a total — plus the
# two crates the query path lives in, `core + ir`, on a line of their
# own. A PR that claims "less code" quotes the total and the `core + ir`
# line at its parent and at its head.
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    awk 'FNR == 1 { counting = 1; split(FILENAME, part, "/"); crate = part[2] }
         /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
         counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { lines[crate]++; total++ }
         END { for (c in lines) printf "%6d crates/%s\n", lines[c], c | "sort -k2"; close("sort -k2")
               printf "%6d total\n%6d core + ir\n", total, lines["core"] + lines["ir"] }' \
        crates/*/src/*.rs crates/bench/benches/*.rs

build:
    cargo build --offline

test:
    cargo test --offline -q

clippy:
    cargo clippy --offline --workspace --all-targets -- -D warnings

# The API docs with every rustdoc warning an error: a link to a deleted
# or private item, or a bracketed citation read as a link, fails the
# gate instead of rotting.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# The flagship scenario, healthy and under injected faults.
demo:
    cargo run --offline --release --example australian_open

demo-faults:
    FAULTS=1 cargo run --offline --release --example australian_open
