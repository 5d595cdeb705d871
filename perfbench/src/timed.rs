//! The timed, untraced end-to-end runs: each repeat synthesises the
//! workload, builds the array or federation, and replays the trace
//! through the stable front door (`run_verified`), with no recorder.

use std::time::{Duration, Instant};

use triplea_core::{Array, ManagementMode};

use crate::gates::{self, Outcome};
use crate::host::{peak_rss_mib, rss_mib, span, Span};
use crate::workloads::{fed_builder, generate, Scale, Target};

/// Repeats below this many timed samples keep running past the time
/// budget.
const MIN_TIMED: usize = 3;

/// The result of a timed measurement of one workload and seed.
pub struct Measured {
    /// The digest every passing repeat matched.
    pub outcome: Outcome,
    /// Requests per host second inside the run call, one per timed
    /// repeat.
    pub req_per_s: Vec<f64>,
    /// Set-up seconds (synthesis + construction), one per timed repeat.
    pub setup_s: Vec<f64>,
    /// Repeats run, the untimed warm-up included.
    pub attempted: u64,
    /// Repeats that failed a gate.
    pub failed: u64,
    /// Peak resident set of the warm-up repeat above what the process
    /// held before it, MiB.
    pub peak_rss_mb: f64,
}

/// One untraced repeat: set-up span, run span, and the outcome.
pub fn repeat(name: &str, seed: u64, scale: Scale) -> (Span, Span, Outcome) {
    let (w, gen) = span(|| generate(name, seed, scale).expect("workload name checked"));
    let submitted = w.trace.len() as u64;
    match w.target {
        Target::Array(cfg) => {
            let (array, build) = span(|| Array::new(*cfg, ManagementMode::Autonomic));
            let (run, ran) = span(|| array.run_verified(&w.trace));
            let mut setup = gen;
            setup.add(build);
            (setup, ran, Outcome::of_array(&run, submitted, ran.allocs))
        }
        Target::Federation => {
            let (fed, build) = span(|| {
                fed_builder()
                    .build()
                    .expect("fed_mirror configuration validates")
            });
            let (run, ran) = span(|| fed.run_verified(&w.trace));
            let mut setup = gen;
            setup.add(build);
            (
                setup,
                ran,
                Outcome::of_federation(&run, submitted, ran.allocs),
            )
        }
    }
}

/// Runs untimed warm-up then timed repeats of `name` until `budget`
/// has passed (and at least [`MIN_TIMED`] timed repeats passed their
/// gates, or as many failed).
pub fn measure(name: &str, seed: u64, scale: Scale, budget: Duration) -> Result<Measured, String> {
    let deadline = Instant::now() + budget;
    let baseline_rss = rss_mib();
    let mut peak_rss_mb = 0.0;
    let mut reference: Option<Outcome> = None;
    let (mut req_per_s, mut setup_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_failure = None;
    while req_per_s.len() < MIN_TIMED && failed < MIN_TIMED as u64
        || Instant::now() < deadline && failed == 0
    {
        let (setup, ran, outcome) = repeat(name, seed, scale);
        attempted += 1;
        let verdict = gates::check(&outcome).and_then(|()| match &reference {
            Some(want) => gates::same_digest(want, &outcome),
            None => Ok(()),
        });
        match verdict {
            Err(e) => {
                eprintln!("{name}: repeat {attempted} failed: {e}");
                failed += 1;
                first_failure.get_or_insert(e);
            }
            // The first passing repeat warms caches and the allocator
            // and becomes the digest reference; it is not timed.
            // Its peak is the workload's own: later repeats may add
            // allocator fragmentation left over from earlier ones.
            Ok(()) if reference.is_none() => {
                peak_rss_mb = (peak_rss_mib() - baseline_rss).max(0.0);
                reference = Some(outcome);
            }
            Ok(()) => {
                req_per_s.push(outcome.submitted as f64 / ran.secs);
                setup_s.push(setup.secs);
            }
        }
    }
    let outcome =
        reference.ok_or_else(|| first_failure.unwrap_or_else(|| "no repeat passed".into()))?;
    Ok(Measured {
        outcome,
        req_per_s,
        setup_s,
        attempted,
        failed,
        peak_rss_mb,
    })
}
