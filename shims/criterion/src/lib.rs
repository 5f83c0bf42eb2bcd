//! In-tree shim for `criterion` (no-network build environment).
//!
//! Reproduces the surface the `crates/bench` harnesses use — nothing
//! more: [`Criterion::benchmark_group`], [`BenchmarkGroup`] with
//! `sample_size` / `throughput` / `bench_function` / `bench_with_input`
//! / `finish`, [`Bencher::iter`] and [`Bencher::iter_batched`],
//! [`BenchmarkId`], [`Throughput`], [`BatchSize`] and the
//! [`criterion_group!`] / [`criterion_main!`] harness macros.
//!
//! Each benchmark runs one warm-up iteration and then a small fixed
//! number of timed iterations (fewer under `BENCH_SMOKE`), and prints
//! one line with the mean. It keeps `cargo bench` targets building and
//! running; it does not produce publication-grade statistics.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed iterations per benchmark; `sample_size` can only lower it.
const MAX_ITERS: usize = 10;
/// Timed iterations under `BENCH_SMOKE`.
const SMOKE_ITERS: usize = 2;

/// The benchmark manager handed to every group function.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            iters: MAX_ITERS,
            throughput: None,
        }
    }
}

/// Units of work per iteration, for a rate column in the report.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// How `iter_batched` sizes its batches; the benches only ever ask
/// for one fresh input per iteration.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// One input per iteration.
    PerIteration,
}

/// A benchmark name with a parameter: `function/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{parameter}", function.into()))
    }
}

impl From<BenchmarkId> for String {
    fn from(id: BenchmarkId) -> String {
        id.0
    }
}

/// A group of benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    iters: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Caps the timed iterations (the shim never runs more than its
    /// own small maximum).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.iters = n.clamp(1, MAX_ITERS);
        self
    }

    /// Declares the work done per iteration for the benchmarks that
    /// follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let iters = if std::env::var_os("BENCH_SMOKE").is_some() {
            self.iters.min(SMOKE_ITERS)
        } else {
            self.iters
        };
        let mut bencher = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        let mean = bencher.elapsed / iters as u32;
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) => per_second(n, mean, "B"),
            Some(Throughput::Elements(n)) => per_second(n, mean, "elem"),
            None => String::new(),
        };
        println!(
            "{}/{}: {mean:?} mean of {iters}{rate}",
            self.name,
            id.into()
        );
        self
    }

    /// Runs one benchmark over a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<String>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Closes the group.
    pub fn finish(self) {}
}

fn per_second(units: u64, mean: Duration, unit: &str) -> String {
    let secs = mean.as_secs_f64();
    if secs > 0.0 {
        format!(", {:.3e} {unit}/s", units as f64 / secs)
    } else {
        String::new()
    }
}

/// Times the routine a benchmark closure hands it.
pub struct Bencher {
    iters: usize,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`: one warm-up call, then the timed iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over a fresh `setup()` value per iteration; the
    /// set-up and the drop of the output stay outside the clock.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            elapsed += start.elapsed();
            drop(output);
        }
        self.elapsed = elapsed;
    }
}

/// Bundles benchmark functions into one group runner named `$name`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main`, running every named group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
