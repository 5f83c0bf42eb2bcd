//! `dlbench` — one end-to-end benchmark with per-layer attribution for
//! the dlsearch engine. See `README.md` for the modes and the metrics.

mod gen;
mod layers;
mod metrics;
mod oracle;
mod run;
mod stats;
mod sut;
mod workload;

use std::collections::HashMap;
use std::process::ExitCode;

use run::{Report, RunConfig, REFERENCE_SEED};
use workload::Workload;

const USAGE: &str = "usage:
  dlbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  dlbench all    [--trace 1] [--seed <n>] [--seconds <s>] [--smoke]
  dlbench repeat --sets <n> [--seed <n>] [--seconds <s>] [--smoke]
  dlbench bless            write expected/<workload>.digest at the reference seed
  dlbench manifest         print BENCHMARK.json
workloads: text_search concept_join library_mix maintain_serve";

struct Args {
    command: Option<String>,
    flags: HashMap<String, String>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        flags: HashMap::new(),
        smoke: false,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.strip_prefix("--") {
            Some("smoke") => args.smoke = true,
            Some(flag @ ("workload" | "seed" | "seconds" | "trace" | "sets")) => {
                let value = raw
                    .next()
                    .ok_or_else(|| format!("--{flag} needs a value"))?;
                args.flags.insert(flag.to_owned(), value);
            }
            Some(other) => return Err(format!("unknown flag --{other}")),
            None if args.command.is_none() => args.command = Some(arg),
            None => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{flag} {v}: not a number")),
        }
    }

    fn config(&self, workload: Workload) -> Result<RunConfig, String> {
        let seconds: f64 = self.number("seconds", f64::from(metrics::RUN_SECONDS))?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!("--seconds {seconds}: not a duration"));
        }
        Ok(RunConfig {
            workload,
            seed: self.number("seed", REFERENCE_SEED)?,
            seconds,
            trace: self.number::<u8>("trace", 0)? != 0,
            smoke: self.smoke,
            check_reference: true,
        })
    }
}

/// Commit, core count, compiler and inputs: what a result was taken on.
fn stamp(cfg: &RunConfig) -> String {
    let commit = std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "stamp: workload={} seed={} seconds={} trace={} smoke={} commit={commit} nproc={cores} rustc=\"{}\"",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        env!("DLBENCH_RUSTC_VERSION")
    )
}

fn print_report(cfg: &RunConfig, report: &Report) {
    println!("{}", stamp(cfg));
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value) in &report.metrics {
        println!(
            "{:<16} {name:<34} {value:>16.4} {}",
            cfg.workload.name(),
            metrics::unit_of(name)
        );
    }
    println!(
        "{:<16} failed_share {} of {} (answer digest {})",
        cfg.workload.name(),
        report.failed,
        report.attempted,
        report.answers.hex()
    );
}

/// The result line of the driver contract.
fn result_json(report: &Report) -> Result<String, String> {
    let mut fields = Vec::with_capacity(report.metrics.len());
    for (name, value) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metrics::unit_of(name)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    ))
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.flags.get("workload").ok_or(USAGE)?;
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let cfg = args.config(workload)?;
    let report = run::run(&cfg)?;
    print_report(&cfg, &report);
    println!("{}", result_json(&report)?);
    Ok(ExitCode::SUCCESS)
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut failed = 0;
    for workload in Workload::ALL {
        let cfg = args.config(workload)?;
        let report = run::run(&cfg)?;
        print_report(&cfg, &report);
        failed += report.failed;
    }
    println!("all workloads: {failed} failed");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the whole benchmark `--sets` times, each on another seed as the
/// acceptance check does, and holds every end-to-end metric's spread
/// (interquartile range over median) against its bound.
fn repeat(args: &Args) -> Result<ExitCode, String> {
    let sets: u64 = args.number("sets", 5)?;
    if sets < 2 {
        return Err("--sets needs at least 2".to_owned());
    }
    let mut values: HashMap<(Workload, &'static str), Vec<f64>> = HashMap::new();
    let mut failed = 0;
    for set in 0..sets {
        for workload in Workload::ALL {
            let mut cfg = args.config(workload)?;
            cfg.seed += set;
            let report = run::run(&cfg)?;
            println!("{}", stamp(&cfg));
            failed += report.failed;
            for (name, value) in report.metrics {
                values.entry((workload, name)).or_default().push(value);
            }
        }
    }
    let mut table = format!(
        "{:<16} {:<28} {:>14} {:>14} {:>14} {:>8} {:>6}\n",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut unsteady = 0;
    for workload in Workload::ALL {
        for m in metrics::END_TO_END {
            let Some(v) = values.get(&(workload, m.name)) else {
                continue;
            };
            let (q1, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            // The set-up time's spread is reported, not gated.
            let over = m.name != "setup_s" && spread > m.bound;
            unsteady += u32::from(over);
            table.push_str(&format!(
                "{:<16} {:<28} {q1:>14.4} {:>14.4} {q3:>14.4} {spread:>8.4} {:>6}{}\n",
                workload.name(),
                m.name,
                stats::median(v),
                m.bound,
                if over { "  UNSTEADY" } else { "" }
            ));
        }
    }
    print!("{table}");
    println!("{sets} sets: {failed} failed operations, {unsteady} metrics with a spread above their bound");
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(results.join("repeat.txt"), &table))
        .map_err(|e| format!("{}: {e}", results.display()))?;
    Ok(if failed == 0 && unsteady == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn bless() -> Result<ExitCode, String> {
    for workload in Workload::ALL {
        let cfg = RunConfig {
            workload,
            seed: REFERENCE_SEED,
            seconds: 0.0,
            trace: false,
            smoke: false,
            check_reference: false,
        };
        let report = run::run(&cfg)?;
        if report.failed > 0 {
            return Err(format!(
                "{}: {} failed, not blessing\n{}",
                workload.name(),
                report.failed,
                report.notes.join("\n")
            ));
        }
        let path = run::expected_path(workload);
        std::fs::create_dir_all(path.parent().unwrap_or(&path))
            .and_then(|()| std::fs::write(&path, format!("{}\n", report.answers.hex())))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} {}", report.answers.hex(), path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("dlbench measures optimized builds only: run it with `cargo run --release`");
        return ExitCode::from(2);
    }
    let outcome = parse_args().and_then(|args| match args.command.as_deref() {
        None => run_one(&args),
        Some("all") => run_all(&args),
        Some("repeat") => repeat(&args),
        Some("bless") => bless(),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("dlbench: {e}");
        ExitCode::from(2)
    })
}
