//! Offline, minimal subset of the [criterion](https://docs.rs/criterion)
//! benchmarking API.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this vendored stub provides the surface `benches/simulator.rs` uses:
//! [`Criterion::bench_function`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`BatchSize`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Instead of criterion's statistical engine, each benchmark runs a short
//! fixed warm-up plus a fixed measurement batch and prints the mean
//! nanoseconds per iteration — enough to eyeball regressions and to keep
//! the bench targets compiling and runnable.

#![forbid(unsafe_code)]

use std::time::Instant;

/// How batched inputs are grouped; accepted for API compatibility, the
/// stub always runs one input per routine invocation.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration setup cost.
    SmallInput,
    /// Large per-iteration setup cost.
    LargeInput,
    /// Setup re-runs for every single iteration.
    PerIteration,
    /// Fixed number of batches.
    NumBatches(u64),
    /// Fixed number of iterations per batch.
    NumIterations(u64),
}

/// Runs the measured closure; handed to the user's bench function.
pub struct Bencher {
    iters: u64,
    mean_ns: f64,
}

impl Bencher {
    fn new(iters: u64) -> Self {
        Bencher {
            iters,
            mean_ns: 0.0,
        }
    }

    /// Times `routine` over a fixed number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One warm-up call, then the measured batch.
        std::hint::black_box(routine());
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.mean_ns = start.elapsed().as_nanos() as f64 / self.iters as f64;
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        std::hint::black_box(routine(setup()));
        let mut total_ns = 0u128;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total_ns += start.elapsed().as_nanos();
        }
        self.mean_ns = total_ns as f64 / self.iters as f64;
    }
}

/// Measured iterations per benchmark.
const SAMPLE_SIZE: u64 = 20;

/// Entry point handed to each registered benchmark function.
#[derive(Debug, Default)]
pub struct Criterion;

impl Criterion {
    /// Registers and immediately runs a named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(SAMPLE_SIZE);
        f(&mut b);
        println!("bench {name:<40} {:>14.1} ns/iter", b.mean_ns);
        self
    }
}

/// Bundles benchmark functions under one runner function, mirroring
/// criterion's simple (non-`config`) form.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion;
            $($target(&mut c);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
    }

    #[test]
    fn api_surface_runs() {
        let mut c = Criterion;
        sample_bench(&mut c);
    }

    criterion_group!(bench_group, sample_bench);
    criterion_main!(main_entry);
    fn main_entry() {
        bench_group();
    }

    #[test]
    fn macros_compose() {
        main();
    }
}
