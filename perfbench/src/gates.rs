//! Correctness gates. A run that fails one counts as a failed
//! operation and contributes no number.
//!
//! * the FTL integrity audit passes on every member;
//! * requests are conserved: completed + lost = submitted;
//! * the simulated digest repeats exactly across repeats of one seed;
//! * a traced run drops no recorder event, and its passes repeat each
//!   other exactly.

use triplea_core::{FederationRun, VerifiedRun};

use crate::host::{percentile_us, Percentile};

/// Everything one run produced that must repeat exactly for one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Requests the trace submitted (volume requests on a federation).
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests lost in flight to a power cut (or, on a federation,
    /// volume requests with no surviving copy).
    pub lost: u64,
    /// Simulator events processed, summed over members.
    pub events: u64,
    /// Acknowledged write pages the array dropped, summed over members.
    pub lost_write_pages: u64,
    /// Heap allocations inside the run call.
    pub allocs: u64,
    /// Completed requests per simulated second, thousands.
    pub sim_kiops: f64,
    /// Median simulated request latency.
    pub p50: Percentile,
    /// 99.9th-percentile simulated request latency.
    pub p999: Percentile,
    /// The FTL audit, rendered (`None` when it passed).
    pub integrity_error: Option<String>,
}

impl Outcome {
    /// The outcome of one single-array run.
    pub fn of_array(run: &VerifiedRun, submitted: u64, allocs: u64) -> Self {
        let r = &run.report;
        Outcome {
            submitted,
            completed: r.completed(),
            lost: r.recovery_stats().lost_inflight_requests,
            events: r.events_processed(),
            lost_write_pages: r.dropped_writes(),
            allocs,
            sim_kiops: r.iops() / 1_000.0,
            p50: percentile_us(r.latency_histogram(), 0.5),
            p999: percentile_us(r.latency_histogram(), 0.999),
            integrity_error: run.integrity.as_ref().err().map(|e| e.to_string()),
        }
    }

    /// The outcome of one federation run.
    pub fn of_federation(run: &FederationRun, submitted: u64, allocs: u64) -> Self {
        let r = &run.report;
        Outcome {
            submitted,
            completed: r.stats.completed,
            lost: r.stats.lost_requests,
            events: r.arrays.iter().map(|a| a.events_processed()).sum(),
            lost_write_pages: r.arrays.iter().map(|a| a.dropped_writes()).sum(),
            allocs,
            sim_kiops: r.iops() / 1_000.0,
            p50: percentile_us(&r.latency, 0.5),
            p999: percentile_us(&r.latency, 0.999),
            integrity_error: run.integrity.as_ref().err().map(|e| e.to_string()),
        }
    }

    /// Completed ÷ submitted.
    pub fn served_frac(&self) -> f64 {
        self.completed as f64 / self.submitted.max(1) as f64
    }

    /// Heap allocations per submitted request.
    pub fn allocs_per_req(&self) -> f64 {
        self.allocs as f64 / self.submitted.max(1) as f64
    }
}

/// Integrity and request conservation.
pub fn check(o: &Outcome) -> Result<(), String> {
    if let Some(e) = &o.integrity_error {
        return Err(format!("FTL integrity audit failed: {e}"));
    }
    if o.completed + o.lost != o.submitted {
        return Err(format!(
            "requests not conserved: completed {} + lost {} != submitted {}",
            o.completed, o.lost, o.submitted
        ));
    }
    if o.submitted == 0 {
        return Err("the workload submitted no request".into());
    }
    Ok(())
}

/// The simulated part of the digest: identical between any two runs of
/// one seed through the same run path, traced or not.
pub fn same_simulation(want: &Outcome, got: &Outcome) -> Result<(), String> {
    let sim = |o: &Outcome| {
        (
            o.submitted,
            o.completed,
            o.lost,
            o.events,
            o.lost_write_pages,
            o.sim_kiops.to_bits(),
            o.p50,
            o.p999,
        )
    };
    if sim(want) != sim(got) {
        return Err(format!("simulated digest differs: {want:?} vs {got:?}"));
    }
    Ok(())
}

/// The full digest of an untraced repeat: the simulation plus the
/// allocation count of the run call.
pub fn same_digest(want: &Outcome, got: &Outcome) -> Result<(), String> {
    same_simulation(want, got)?;
    if want.allocs != got.allocs {
        return Err(format!(
            "allocation count differs between repeats of one seed: {} vs {}",
            want.allocs, got.allocs
        ));
    }
    Ok(())
}

/// A traced run must keep every recorder event.
pub fn no_dropped_events(dropped: u64) -> Result<(), String> {
    if dropped != 0 {
        return Err(format!("the recorder dropped {dropped} events"));
    }
    Ok(())
}

/// Feeds each gate a corrupted input and checks that it fires. Returns
/// one line per check.
pub fn self_test() -> Result<Vec<String>, String> {
    let pct = |us| Percentile {
        us,
        samples: 100,
        beyond: 0,
    };
    let good = Outcome {
        submitted: 100,
        completed: 99,
        lost: 1,
        events: 1_500,
        lost_write_pages: 0,
        allocs: 900,
        sim_kiops: 25.0,
        p50: pct(30.0),
        p999: pct(900.0),
        integrity_error: None,
    };
    let mut lines = Vec::new();
    let mut expect = |what: &str, held: bool| {
        lines.push(format!("{}: {what}", if held { "ok" } else { "FAILED" }));
        held
    };
    let mut ok = expect("a sound outcome passes", check(&good).is_ok());
    let corrupted = Outcome {
        completed: good.completed + 1,
        ..good.clone()
    };
    ok &= expect(
        "conservation gate fires on completed + lost != submitted",
        check(&corrupted).is_err(),
    );
    let broken = Outcome {
        integrity_error: Some("page 7 mapped twice".into()),
        ..good.clone()
    };
    ok &= expect(
        "integrity gate fires on a failed audit",
        check(&broken).is_err(),
    );
    let drifted = Outcome {
        events: good.events + 1,
        ..good.clone()
    };
    ok &= expect(
        "digest gate fires on an events mismatch",
        same_digest(&good, &drifted).is_err(),
    );
    let slower = Outcome {
        p999: pct(901.0),
        ..good.clone()
    };
    ok &= expect(
        "digest gate fires on a p99.9 mismatch",
        same_digest(&good, &slower).is_err(),
    );
    let allocs = Outcome {
        allocs: good.allocs + 1,
        ..good.clone()
    };
    ok &= expect(
        "digest gate fires on an allocation-count mismatch",
        same_digest(&good, &allocs).is_err(),
    );
    ok &= expect(
        "the simulated digest ignores allocation counts",
        same_simulation(&good, &allocs).is_ok(),
    );
    ok &= expect(
        "recorder gate fires on dropped events",
        no_dropped_events(3).is_err(),
    );
    if ok {
        Ok(lines)
    } else {
        Err(lines.join("\n"))
    }
}
