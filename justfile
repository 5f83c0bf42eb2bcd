# Development commands. The container has no network: every cargo
# invocation must stay --offline (deps are vendored in-tree under shims/).

# Build, test, and lint — the full pre-merge gate. Includes the
# end-to-end benchmark's quick pass, so `dlbench`, the one timing
# harness, cannot rot.
verify:
    just manifest-paths
    cargo build --release --offline
    cargo test --offline -q
    cargo clippy --offline --workspace --all-targets -- -D warnings
    just doc
    just examples-golden
    just bench-e2e-smoke
    just loc
    just unreached

# The examples print deterministic output: a fresh run of the flagship
# scenario (healthy and with `FAULTS=1`) and of the maintenance
# walkthrough must match `examples/expected/` byte for byte, stdout and
# stderr. A change meant to alter that output updates the files in the
# same commit.
examples-golden:
    #!/usr/bin/env bash
    set -euo pipefail
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    run() { cargo run --offline --release --quiet --example "$1" > "$out/$2.stdout" 2> "$out/$2.stderr"; }
    cargo build --offline --release --quiet --examples
    run australian_open australian_open
    FAULTS=1 run australian_open australian_open_faults
    run incremental_maintenance incremental_maintenance
    diff -r examples/expected "$out"

# Every path a workspace manifest names — each member the `crates/*`
# and `shims/*` globs pick up, each `path = "…"` dependency or target —
# must be a file git tracks. A path that exists here but is ignored or
# untracked builds on this machine and nowhere else (how a shim the
# root manifest named once went missing from every clean clone).
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
# plus the harness's own tests. Fails when building the benchmark
# rewrote its committed `benchmark/Cargo.lock` (say, after a workspace
# dependency was removed): the benchmark must build from the lock file
# as committed.
bench-e2e-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    lock=$(sha256sum benchmark/Cargo.lock)
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all --smoke
    cargo test --offline --manifest-path benchmark/Cargo.toml
    if [ "$lock" != "$(sha256sum benchmark/Cargo.lock)" ]; then
        echo "building the benchmark rewrote benchmark/Cargo.lock" >&2
        exit 1
    fi

# The protocol a perf claim rests on (benchmark/README.md "Steadiness"):
# `n` alternating pairs of 10 s dlbench runs of one workload, dlbench
# built at `rev` (in a worktree under .bench_build/pairs/) against the
# working tree. Pair i runs on seed 40 + i, `rev` first in odd pairs and
# the working tree first in even ones. Every run's output stays in
# .bench_build/pairs/<workload>-<time>/; the table gives, per end-to-end
# metric of BENCHMARK.json, each side's q1 / median / q3 (the quartiles
# of Python's `statistics.quantiles`, as the acceptance rule computes
# them) and in how many pairs the working tree was the better side. A
# metric is marked "unresolved" when `rev`'s own interquartile range,
# as a share of its median, exceeds the metric's bound: its runs spread
# wider than the change the bound allows, so neither a gain nor a loss
# on it can be told from noise (a bimodal `recover_s`, say).
# Nothing under benchmark/ changes but its ignored build and results.
bench-pairs workload rev n:
    #!/usr/bin/env bash
    set -euo pipefail
    unset CARGO_TARGET_DIR
    sha=$(git rev-parse --verify "{{rev}}^{commit}")
    base=.bench_build/pairs/rev-$sha
    [ -d "$base" ] || git worktree add --detach "$base" "$sha"
    cargo build --release --offline --quiet --manifest-path "$base/benchmark/Cargo.toml"
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    out=.bench_build/pairs/{{workload}}-$(date +%Y%m%d-%H%M%S)
    mkdir -p "$out"
    run() {
        "$1/benchmark/target/release/dlbench" --workload "{{workload}}" --seed "$3" \
            --seconds 10 --trace 0 > "$out/$2-$3.txt"
    }
    for i in $(seq 1 "{{n}}"); do
        seed=$((40 + i))
        if [ $((i % 2)) -eq 1 ]; then
            run "$base" rev "$seed"; run . change "$seed"
        else
            run . change "$seed"; run "$base" rev "$seed"
        fi
        echo "pair $i of {{n}} (seed $seed) done" >&2
    done
    python3 - "$out" "{{n}}" "{{rev}}" <<'EOF' | tee "$out/summary.txt"
    import json, statistics, sys
    out, n, rev = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    seeds = [40 + i for i in range(1, n + 1)]
    def result(side, seed):
        lines = open(f"{out}/{side}-{seed}.txt").read().splitlines()
        return json.loads(next(l for l in reversed(lines) if l.startswith("{")))
    runs = {side: [result(side, s) for s in seeds] for side in ("rev", "change")}
    def quartiles(v):
        return statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
    def spread(v):
        q = quartiles(v)
        return f"{q[0]:.4g} / {statistics.median(v):.4g} / {q[2]:.4g}"
    print(f"{out}: {n} pairs, {rev} vs the working tree")
    print(f"{'metric':<28} {'rev q1 / median / q3':>34} {'change q1 / median / q3':>34} {'ratio':>7}  won")
    for m in json.load(open("BENCHMARK.json"))["end_to_end"]:
        name = m["name"]
        old = [r["metrics"][name]["value"] for r in runs["rev"] if name in r["metrics"]]
        new = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
        if len(old) != n or len(new) != n:
            continue
        higher = m["better"] == "higher"
        won = sum((c > p) if higher else (c < p) for p, c in zip(old, new))
        tied = sum(c == p for p, c in zip(old, new))
        base = statistics.median(old)
        ratio = f"x{statistics.median(new) / base:.3f}" if base else "-"
        ties = f" ({tied} tied)" if tied else ""
        q = quartiles(old)
        iqr = (q[2] - q[0]) / abs(base) if base else 0.0
        unresolved = f"  unresolved (rev IQR {iqr:.0%} > bound {m['bound']:.0%})" if iqr > m["bound"] else ""
        print(f"{name:<28} {spread(old):>34} {spread(new):>34} {ratio:>7}  {won}/{n}{ties}{unresolved}")
    for side in ("rev", "change"):
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"{side}: failed {failed}, correct in every run: {correct}")
    EOF

# Size of the Rust code under `crates/`: non-blank, non-comment lines of
# the library part of every `crates/*/src/*.rs`, as a subtotal per crate
# and a total — plus the two crates the query path lives in, `core + ir`,
# on a line of their own. The library part of a file ends at its first
# `#[cfg(test)]` that opens a `mod … {` block or names a module file
# (`#[cfg(test)] mod testutil;`); a file that such a line names is
# test-only and not counted at all. A `#[cfg(test)]` on any other item
# cuts nothing. A PR that claims "less code" quotes the total and the
# `core + ir` line at its parent and at its head.
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    python3 - <<'EOF'
    import collections, glob, os, re
    CFG, MOD = re.compile(r"\s*#\[cfg\(test\)\]\s*(.*)"), re.compile(r"(?:pub(?:\(\w+\))?\s+)?mod\s+(\w+)\s*([{;])")
    def test_mods(lines):
        for i, line in enumerate(lines):
            m = CFG.match(line)
            after = m and (m.group(1) or (lines[i + 1].strip() if i + 1 < len(lines) else ""))
            if after and MOD.match(after):
                yield i, MOD.match(after)
    files = {f: open(f).read().splitlines() for f in sorted(glob.glob("crates/*/src/*.rs"))}
    test_only = {os.path.join(os.path.dirname(f), m.group(1) + ".rs")
                 for f, lines in files.items() for _, m in test_mods(lines) if m.group(2) == ";"}
    lines_of = collections.Counter()
    for f, lines in files.items():
        if f in test_only:
            continue
        cut = next((i for i, _ in test_mods(lines)), len(lines))
        lines_of[f.split("/")[1]] += sum(1 for l in lines[:cut] if l.strip() and not l.lstrip().startswith("//"))
    for crate in sorted(lines_of):
        print(f"{lines_of[crate]:6d} crates/{crate}")
    print(f"{sum(lines_of.values()):6d} total\n{lines_of['core'] + lines_of['ir']:6d} core + ir")
    EOF

# Every `pub fn` in the library part of `crates/*/src/*.rs` (cut as
# `loc` cuts; test-only files count as unit tests) whose name appears
# nowhere else outside a comment — not in other library lines,
# `tests/`, `crates/*/tests`, `examples/` or `benchmark/src` — with the
# number of files whose unit tests use it; then the same for every
# `pub struct`, `enum`, `trait`, `type` and `const`, where an `impl`
# header naming a struct, enum or type does not count as a use. One
# total per kind. Names are matched as words, so a name shared with a
# live item (`new`, `len`) never shows. Fails when an item found is not
# on `unreached.allow` (one `<file> <kind> <name> — <reason>` line per
# item kept on purpose), or when a listed item is no longer found.
unreached:
    #!/usr/bin/env bash
    set -euo pipefail
    python3 - <<'EOF'
    import glob, os, re, sys
    from collections import Counter
    CFG, MOD = re.compile(r"\s*#\[cfg\(test\)\]\s*(.*)"), re.compile(r"(?:pub(?:\(\w+\))?\s+)?mod\s+(\w+)\s*([{;])")
    def test_mods(lines):
        for i, line in enumerate(lines):
            m = CFG.match(line)
            after = m and (m.group(1) or (lines[i + 1].strip() if i + 1 < len(lines) else ""))
            if after and MOD.match(after):
                yield i, MOD.match(after)
    def words(lines):
        return Counter(re.findall(r"\w+", "\n".join(l for l in lines if not l.lstrip().startswith("//"))))
    files = {f: open(f).read().splitlines() for f in sorted(glob.glob("crates/*/src/*.rs"))}
    test_only = {os.path.join(os.path.dirname(f), m.group(1) + ".rs")
                 for f, lines in files.items() for _, m in test_mods(lines) if m.group(2) == ";"}
    lib, unit = {}, []
    for f, lines in files.items():
        cut = 0 if f in test_only else next((i for i, _ in test_mods(lines)), len(lines))
        lib[f] = lines[:cut]
        unit.append(words(lines[cut:]))
    used = sum((words(l) for l in lib.values()), Counter())
    impls = sum((words([l for l in ls if re.match(r"\s*impl\b", l)]) for ls in lib.values()), Counter())
    for p in ("tests/**/*.rs", "crates/*/tests/**/*.rs", "examples/*.rs", "benchmark/src/*.rs"):
        for f in glob.glob(p, recursive=True):
            used += words(open(f).read().splitlines())
    kinds = ["fn", "struct", "enum", "trait", "type", "const"]
    found, seen = Counter(), set()
    for kind in kinds:
        for f, lines in lib.items():
            for i, line in enumerate(lines):
                if kind == "fn":
                    m = re.match(r"\s*pub (?:const )?fn (\w+)", line)
                else:
                    m = re.match(rf"\s*pub {kind} (\w+)", line)
                if not m or m.group(1) == "fn":
                    continue
                name = m.group(1)
                uses = used[name] - (impls[name] if kind in ("struct", "enum", "type") else 0)
                if uses > words([line])[name]:
                    continue
                found[kind] += 1
                seen.add(f"{f} {kind} {name}")
                tests = sum(1 for u in unit if u[name])
                print(f"{f}:{i + 1} {kind} {name}  (unit tests in {tests} file(s))")
    for kind in kinds:
        print(f"{found[kind]} unreached pub {kind}(s)")
    allowed = {" ".join(l.split()[:3]) for l in open("unreached.allow") if l.strip() and not l.startswith("#")}
    bad = [f"not on unreached.allow: {item}" for item in sorted(seen - allowed)]
    bad += [f"on unreached.allow but reached (delete its line): {item}" for item in sorted(allowed - seen)]
    for line in bad:
        print(line, file=sys.stderr)
    sys.exit(1 if bad else 0)
    EOF

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
