//! `triplea-perfbench`: the repository benchmark of the Triple-A
//! simulator. See `perfbench/README.md` for what it measures and how to
//! run it; `perfbench/run.py` builds and invokes this binary.
//!
//! ```text
//! triplea-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]
//! triplea-perfbench gates       # check that every correctness gate fires
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of the untraced timed
//! runs; `--trace 1` prints the per-layer metrics of the traced run.
//! The last line of standard output is the JSON result.

mod gates;
mod host;
mod report;
mod timed;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use host::quantile;
use report::Metric;
use workloads::{Scale, DEFAULT_SEED, NAMES};

#[global_allocator]
static ALLOC: triplea_alloc_counter::CountingAllocator = triplea_alloc_counter::CountingAllocator;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        scale: Scale::Full,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => {
                a.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    v => return Err(format!("--scale takes full or tiny, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}"));
    }
    Ok(a)
}

/// Quantile of the per-repeat figures each host timing reports. The
/// host's speed drifts in phases of seconds as other tenants of the
/// machine load it; interference only ever slows a repeat down, so the
/// fastest tenth of repeats tracks the program far more steadily than
/// their median does.
const BEST_DECILE: f64 = 0.9;

/// The end-to-end metrics of a timed measurement.
fn end_to_end(a: &Args, budget: Duration) -> Result<(report::Result, String), String> {
    let m = timed::measure(&a.workload, a.seed, a.scale, budget)?;
    let o = &m.outcome;
    let rate = |q| quantile(&m.req_per_s, q);
    let setup = |q| quantile(&m.setup_s, q);
    let n = m.req_per_s.len();
    let metrics = vec![
        Metric::new("req_per_s", rate(BEST_DECILE), "req/s").note(format!(
            "best decile of {n} timed repeats; median {:.0}, q1 {:.0}, q3 {:.0}",
            rate(0.5),
            rate(0.25),
            rate(0.75)
        )),
        Metric::new("setup_s", setup(1.0 - BEST_DECILE), "s").note(format!(
            "best decile of {n} set-ups; median {:.6}, q1 {:.6}, q3 {:.6}",
            setup(0.5),
            setup(0.25),
            setup(0.75)
        )),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MiB"),
        Metric::new("allocs_per_req", o.allocs_per_req(), "count").note(format!(
            "{} allocations / {} requests",
            o.allocs, o.submitted
        )),
        Metric::new("served_frac", o.served_frac(), "ratio").note(format!(
            "{} of {} completed, {} lost",
            o.completed, o.submitted, o.lost
        )),
        Metric::new("sim_kiops", o.sim_kiops, "kIOPS"),
        Metric::new("sim_p50_us", o.p50.us, "us").note(format!(
            "{} samples, {} beyond",
            o.p50.samples, o.p50.beyond
        )),
        Metric::new("sim_p999_us", o.p999.us, "us").note(format!(
            "{} samples, {} beyond",
            o.p999.samples, o.p999.beyond
        )),
    ];
    let note = format!(
        "# lost_write_pages {} count (acknowledged write pages dropped; non-zero is a known defect)",
        o.lost_write_pages
    );
    let result = report::Result {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    };
    Ok((result, note))
}

fn run(a: &Args) -> ExitCode {
    let budget = Duration::from_secs(a.seconds.max(1));
    println!(
        "# workload {} seed {} seconds {} trace {} scale {:?}",
        a.workload, a.seed, a.seconds, a.trace as u8, a.scale
    );
    let outcome = if a.trace {
        traced::measure(&a.workload, a.seed, a.scale, budget).map(|l| {
            let result = report::Result {
                correct: l.failed == 0,
                attempted: l.attempted,
                failed: l.failed,
                metrics: l.metrics,
            };
            (result, l.notes.join("\n"))
        })
    } else {
        end_to_end(a, budget)
    };
    match outcome {
        Ok((result, notes)) => {
            println!("{notes}");
            result.print();
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(&e),
    }
}

/// Every run of the workload failed a gate: report it, print no
/// number.
fn fail(e: &str) -> ExitCode {
    eprintln!("error: {e}");
    println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("gates") => match gates::self_test() {
            Ok(lines) => {
                lines.iter().for_each(|l| println!("{l}"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => match parse(args) {
            Ok(a) => run(&a),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
    }
}
