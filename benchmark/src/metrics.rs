//! The metric tables: names, units, direction and regression bounds.
//! `BENCHMARK.json` is generated from these (`dlbench manifest`) and a
//! test keeps the committed file equal to them.

use crate::workload::Workload;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// What a user of the library sees. Every workload reports every one:
/// each run sets up, serves, maintains and recovers, in different
/// proportions.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_p95_ms", "ms", "lower", 0.25),
    e2e("throughput_qps", "1/s", "higher", 0.25),
    e2e("resident_bytes_per_page", "B", "lower", 0.10),
    e2e("disk_bytes_per_source_byte", "B/B", "lower", 0.10),
    e2e("maintain_objects_per_s", "1/s", "higher", 0.25),
    e2e("wal_bytes_per_object", "B", "lower", 0.02),
    e2e("recover_s", "s", "lower", 0.25),
];

/// Single layers, from the traced pass. 0 means the workload took no
/// sample of that metric.
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.engine.query_ms", "ms", "lower"),
    layer("core.engine.self_ms", "ms", "lower"),
    layer("core.service.overhead_us", "us", "lower"),
    layer("core.service.scaling_2c", "ratio", "higher"),
    layer("core.cache.hit_ratio", "ratio", "higher"),
    layer("core.cache.hit_us", "us", "lower"),
    layer("core.qlang.parse_us", "us", "lower"),
    layer("core.warmup_s", "s", "lower"),
    layer("core.populate.pages_per_s", "1/s", "higher"),
    layer("core.open.ms", "ms", "lower"),
    layer("core.persist.checkpoint_ms", "ms", "lower"),
    layer("webspace.execute_ms", "ms", "lower"),
    layer("webspace.execute_share", "ratio", "lower"),
    layer("webspace.rows_out", "count", "lower"),
    layer("webspace.extract_ms", "ms", "lower"),
    layer("ir.query_ms", "ms", "lower"),
    layer("ir.restricted_ms", "ms", "lower"),
    layer("ir.shard_critical_ms", "ms", "lower"),
    layer("ir.gather_ms", "ms", "lower"),
    layer("ir.tuples", "count", "lower"),
    layer("ir.tuples_per_hit", "ratio", "lower"),
    layer("ir.resident_bytes_per_doc", "B", "lower"),
    layer("ir.index_docs_per_s", "1/s", "higher"),
    layer("monet.bat.probe_ns", "ns", "lower"),
    layer("monet.snapshot.encode_ms", "ms", "lower"),
    layer("monet.snapshot.bytes", "B", "lower"),
    layer("monet.storage.write_bytes", "B", "lower"),
    layer("monet.storage.syncs", "count", "lower"),
    layer("monet.storage.sync_ms", "ms", "lower"),
    layer("monet.wal.append_bytes", "B", "lower"),
    layer("monetxml.reconstruct_ms", "ms", "lower"),
    layer("monetxml.insert_docs_per_s", "1/s", "higher"),
    layer("monetxml.resident_bytes_per_page", "B", "lower"),
    layer("acoi.tree_ms", "ms", "lower"),
    layer("acoi.refresh_ms", "ms", "lower"),
    layer("acoi.upgrade_s", "s", "lower"),
    layer("acoi.calls_saved_ratio", "ratio", "higher"),
    layer("acoi.analyse_ms_per_media", "ms", "lower"),
    layer("obs.enabled_overhead_ratio", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.unattributed_share", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric `{name}` is in neither table"))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&end_to_end.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&per_layer.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `dlbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| name_ok(n)));
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!(manifest().len() < 64 * 1024);
    }
}
