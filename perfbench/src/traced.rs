//! The traced run: the per-layer split of one workload.
//!
//! Arrays are driven through `Array::into_runner()` with the program's
//! recorder attached: every request through `ArrayRunner::submit`, then
//! `step_until` in fixed simulated windows, a full drain, and `finish`,
//! each call timed as a span with the allocation counter read around it.
//! The federation runs through its front door with its recorder
//! attached; it drives its members' runners internally, so the runner
//! spans and the replays of the array engine's own queue and FTL stream
//! are measured on the array workloads only and read 0 on `fed_mirror`.
//!
//! The workload's own stream is then replayed through standalone layer
//! APIs: `Ftl::locate`, `Ftl::write_alloc` with and without a journal,
//! `WeightedArbiter`, `EventQueue` (at the recorded event times) and
//! `VolumeMapper::fragments`. The simulated waits are the reports' own
//! per-request breakdown, read for every workload from the same real run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use serde::Serialize;
use triplea_core::{
    Array, ArrayConfig, ArrayRunner, FederationRun, FederationStats, IoOp, ManagementMode,
    RunReport, RunTrace, Trace, TraceConfig, TraceRequest, VerifiedRun, VolumeMapper,
    WeightedArbiter,
};
use triplea_ftl::{Ftl, JournalConfig, LogicalPage};
use triplea_sim::{EventQueue, SimTime};

use crate::gates::{self, Outcome};
use crate::host::{median, rss_mib, span, Span};
use crate::report::{Metric, EVENT_KINDS};
use crate::timed;
use crate::workloads::{fed_builder, generate, Scale, Target};

/// Simulated window of each `step_until` call.
const WINDOW_NS: u64 = 100_000;

/// Recorder events reserved per request: far above what any workload
/// emits, so the ring never wraps.
const EVENTS_PER_REQUEST_BOUND: usize = 256;

/// Host spans of the core layer. On the federation only `build` is
/// taken (its construction); the runner spans stay zero.
#[derive(Clone, Copy, Default)]
struct CoreSpans {
    build: Span,
    submit: Span,
    step: Span,
    finish: Span,
    /// Resident-set growth across construction, MiB.
    build_rss_mb: f64,
}

/// Recorder-derived totals.
#[derive(Default)]
struct Recorded {
    kinds: BTreeMap<&'static str, u64>,
    dropped: u64,
    /// Simulated times of the recorded events other than arrivals, in
    /// emission order.
    times: Vec<u64>,
}

impl Recorded {
    fn of(trace: &RunTrace) -> Self {
        let mut events: Vec<_> = trace.events.iter().collect();
        events.sort_by_key(|ev| ev.seq);
        let mut r = Recorded {
            dropped: trace.dropped,
            ..Recorded::default()
        };
        for ev in events {
            let kind = ev.kind.name();
            *r.kinds.entry(kind).or_default() += 1;
            if kind != "submit" {
                r.times.push(ev.at);
            }
        }
        r
    }
}

/// One traced pass over a workload.
struct TracedPass {
    gen: Span,
    core: CoreSpans,
    /// The federation's `run_verified` (arrays: none).
    fed_run: Span,
    /// Wall time from synthesis to the end of the run.
    wall: f64,
    outcome: Outcome,
    recorded: Recorded,
    /// Reports the simulated layer metrics are read from: the array's,
    /// or every federation member's.
    reports: Vec<RunReport>,
    /// The array configuration the standalone replays run on (arrays
    /// only).
    array: Option<ArrayConfig>,
    /// The volume mapper and counters (federation only).
    federation: Option<(VolumeMapper, FederationStats)>,
    trace: Trace,
}

fn recorder(requests: usize) -> TraceConfig {
    TraceConfig::all().with_capacity(requests.max(1) * EVENTS_PER_REQUEST_BOUND)
}

/// Drives one array through its runner with the recorder attached.
fn drive(cfg: ArrayConfig, requests: &[TraceRequest], core: &mut CoreSpans) -> VerifiedRun {
    let rss = rss_mib();
    let (mut runner, build) = span(|| {
        Array::new(cfg, ManagementMode::Autonomic)
            .with_recorder(recorder(requests.len()))
            .into_runner()
    });
    core.build_rss_mb = (rss_mib() - rss).max(0.0);
    core.build = build;
    let (_, submit) = span(|| {
        for r in requests {
            runner.submit(r);
        }
    });
    core.submit = submit;
    let last = requests.last().map_or(0, |r| r.at.as_nanos());
    let (_, step) = span(|| step_windows(&mut runner, last));
    core.step = step;
    let (run, finish) = span(|| runner.finish());
    core.finish = finish;
    run
}

/// Steps in fixed simulated windows past the last arrival, then drains.
fn step_windows(runner: &mut ArrayRunner, last_arrival_ns: u64) {
    let mut t = WINDOW_NS;
    while t <= last_arrival_ns + WINDOW_NS {
        runner.step_until(SimTime::from_nanos(t));
        t += WINDOW_NS;
    }
    runner.step_until(SimTime::MAX);
}

fn traced_pass(name: &str, seed: u64, scale: Scale) -> Result<TracedPass, String> {
    let start = Instant::now();
    let (w, gen) = span(|| generate(name, seed, scale).expect("workload name checked"));
    let n = w.trace.len();
    let mut core = CoreSpans::default();
    let mut pass = match w.target {
        Target::Array(cfg) => {
            let run = drive((*cfg).clone(), w.trace.requests(), &mut core);
            TracedPass {
                gen,
                core,
                fed_run: Span::default(),
                wall: 0.0,
                outcome: Outcome::of_array(&run, n as u64, 0),
                recorded: Recorded::of(run.trace.as_ref().ok_or("runner lost its recorder")?),
                reports: vec![run.report],
                array: Some(*cfg),
                federation: None,
                trace: w.trace,
            }
        }
        Target::Federation => {
            let rss = rss_mib();
            let (fed, build) = span(|| {
                fed_builder()
                    .with_recorder(recorder(n))
                    .build()
                    .expect("fed_mirror configuration validates")
            });
            core.build_rss_mb = (rss_mib() - rss).max(0.0);
            core.build = build;
            let mapper = fed.mapper().clone();
            let (run, fed_run): (FederationRun, Span) = span(|| fed.run_verified(&w.trace));
            TracedPass {
                gen,
                core,
                fed_run,
                wall: 0.0,
                outcome: Outcome::of_federation(&run, n as u64, 0),
                recorded: Recorded::of(run.trace.as_ref().ok_or("federation lost its recorder")?),
                federation: Some((mapper, run.report.stats.clone())),
                reports: run.report.arrays,
                array: None,
                trace: w.trace,
            }
        }
    };
    pass.wall = start.elapsed().as_secs_f64();
    Ok(pass)
}

/// Per-request waits of the simulated breakdown, summed over reports,
/// ns: the report's serialised `bd_sum`, which splits the link and
/// storage contention its `avg_*` accessors return combined.
#[derive(Default)]
struct Waits {
    rc_stall: u64,
    switch_stall: u64,
    pcie_wait: u64,
    bus_wait: u64,
    die_wait: u64,
    wbuf_wait: u64,
    fimm_service: u64,
}

fn waits(reports: &[RunReport]) -> Result<Waits, String> {
    let mut w = Waits::default();
    for r in reports {
        let value = r.to_value();
        let bd = value.get("bd_sum").ok_or("report has no bd_sum")?;
        let field = |name: &str| {
            bd.get(name)
                .and_then(|v| v.as_u64())
                .ok_or(format!("report breakdown has no {name}"))
        };
        w.rc_stall += field("rc_stall")?;
        w.switch_stall += field("switch_stall")?;
        w.pcie_wait += field("pcie_wait")?;
        w.bus_wait += field("bus_wait")?;
        w.die_wait += field("die_wait")?;
        w.wbuf_wait += field("wbuf_wait")?;
        w.fimm_service += field("fimm_service")?;
    }
    Ok(w)
}

/// Writes `lpn`, running one GC unit first when the FIMM is out of
/// space and after the write when it crossed `threshold`. `false` when
/// the page could not be placed.
fn write_page(ftl: &mut Ftl, lpn: LogicalPage, threshold: u64) -> bool {
    for _ in 0..2 {
        match ftl.write_alloc(lpn, None) {
            Ok(loc) => {
                if ftl.needs_gc(loc.cluster, loc.fimm, threshold) {
                    collect(ftl, loc.cluster, loc.fimm);
                }
                return true;
            }
            Err(_) => {
                let home = ftl.locate(lpn);
                if !collect(ftl, home.cluster, home.fimm) {
                    return false;
                }
            }
        }
    }
    false
}

/// One GC unit on a FIMM through the FTL's own pick/rewrite/finish.
fn collect(ftl: &mut Ftl, cluster: triplea_core::ClusterId, fimm: u32) -> bool {
    let Some(work) = ftl.gc_pick(cluster, fimm) else {
        return false;
    };
    for &lpn in &work.valid {
        if ftl.gc_rewrite(lpn, &work).is_err() {
            return false;
        }
    }
    ftl.gc_finish(&work);
    true
}

/// Pages of `stream` as individual LPNs, writes only or all.
fn pages(stream: &[TraceRequest], writes_only: bool) -> Vec<LogicalPage> {
    stream
        .iter()
        .filter(|r| !writes_only || r.op == IoOp::Write)
        .flat_map(|r| (0..r.pages as u64).map(move |p| LogicalPage(r.lpn.0 + p)))
        .collect()
}

/// Standalone FTL replays over an array's stream.
#[derive(Default)]
struct FtlReplay {
    write_alloc_ns: f64,
    journal_write_ns: f64,
    journal_checkpoints: u64,
    locate_ns: f64,
}

/// Rounds of the FTL replays; each figure is the median round, so the
/// first round's cold caches do not favour whichever replay runs later.
const FTL_ROUNDS: usize = 3;

/// Replays `stream`'s writes through a fresh FTL, without and then with
/// a journal at the array's cadence, and locates every page it touches.
/// Fails when a write cannot be placed, since the per-page figures
/// would then cover less work than they claim.
fn ftl_replay(cfg: &ArrayConfig, stream: &[TraceRequest]) -> Result<FtlReplay, String> {
    let writes = pages(stream, true);
    let all = pages(stream, false);
    let threshold = cfg.gc_threshold_blocks;
    let cadence = cfg
        .faults
        .power_loss
        .map_or(JournalConfig::default(), |pl| JournalConfig {
            flush_every: pl.flush_every,
            checkpoint_every: pl.checkpoint_every,
        });
    let fresh = || {
        let mut ftl = Ftl::new(cfg.shape);
        ftl.set_gc_policy(cfg.gc_policy);
        ftl
    };
    let write_all = |ftl: &mut Ftl| {
        let (placed, s) = span(|| writes.iter().all(|&x| write_page(ftl, x, threshold)));
        if placed {
            Ok(s.secs)
        } else {
            Err("FTL replay could not place a write".to_string())
        }
    };
    let (mut plain, mut journaled, mut locate) = (Vec::new(), Vec::new(), Vec::new());
    let mut checkpoints = 0;
    for _ in 0..FTL_ROUNDS {
        let mut ftl = fresh();
        plain.push(write_all(&mut ftl)?);
        let mut jftl = fresh();
        jftl.enable_journal(cadence);
        journaled.push(write_all(&mut jftl)?);
        checkpoints = jftl.journal_stats().map_or(0, |s| s.checkpoints);
        locate.push(
            span(|| {
                for &x in &all {
                    black_box(ftl.locate(x));
                }
            })
            .1
            .secs,
        );
    }
    let per = |secs: &[f64], n: usize| {
        if n == 0 {
            0.0
        } else {
            median(secs) * 1e9 / n as f64
        }
    };
    Ok(FtlReplay {
        write_alloc_ns: per(&plain, writes.len()),
        journal_write_ns: per(&journaled, writes.len()),
        journal_checkpoints: checkpoints,
        locate_ns: per(&locate, all.len()),
    })
}

/// Enqueue/grant/complete of every request through a standalone
/// arbiter over the workload's tenant table; ns per request (0 when
/// the workload is untenanted and bypasses the front door).
fn arbiter_replay(cfg: &ArrayConfig, trace: &Trace) -> f64 {
    if cfg.tenants.is_empty() {
        return 0.0;
    }
    let mut arb = WeightedArbiter::new(cfg.tenants.specs());
    let (_, s) = span(|| {
        for (i, r) in trace.requests().iter().enumerate() {
            arb.enqueue(r.tenant, i as u32);
            while let Some((t, _)) = arb.grant() {
                arb.complete(t);
            }
        }
    });
    s.secs * 1e9 / trace.len().max(1) as f64
}

/// Push/pop through a standalone `EventQueue` at the pass's own event
/// times: every arrival is queued up front, as `ArrayRunner::submit`
/// does, then each recorded event's time is pushed in emission order,
/// one pop after each push, and the queue is drained; ns per queue
/// operation.
fn queue_replay(trace: &Trace, times: &[u64]) -> f64 {
    let mut q = EventQueue::new();
    let (ops, s) = span(|| {
        let mut ops = 0u64;
        for (i, r) in trace.requests().iter().enumerate() {
            q.push(r.at, i as u32);
            ops += 1;
        }
        for (i, &at) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(at), i as u32);
            black_box(q.pop());
            ops += 2;
        }
        while black_box(q.pop()).is_some() {
            ops += 1;
        }
        ops
    });
    s.secs * 1e9 / ops.max(1) as f64
}

/// The per-layer figures of one workload.
pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Human-readable findings printed above the result.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

/// Measures `name`'s layers within `budget`: a third on untraced
/// repeats (the digest reference and the tracing-overhead baseline),
/// the rest on traced passes, then the standalone replays once.
pub fn measure(name: &str, seed: u64, scale: Scale, budget: Duration) -> Result<Layers, String> {
    let start = Instant::now();
    let untraced = timed::measure(name, seed, scale, budget / 3)?;
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut passes: Vec<TracedPass> = Vec::new();
    while passes.is_empty() && failed < 3 + untraced.failed || start.elapsed() < budget * 2 / 3 {
        attempted += 1;
        let pass = traced_pass(name, seed, scale).and_then(|p| {
            gates::check(&p.outcome)?;
            gates::no_dropped_events(p.recorded.dropped)?;
            if let Some(first) = passes.first() {
                gates::same_simulation(&first.outcome, &p.outcome)?;
            }
            Ok(p)
        });
        match pass {
            Ok(p) => {
                // Only the last pass's streams, reports and event times
                // are read; the earlier ones contribute their spans.
                if let Some(prev) = passes.last_mut() {
                    prev.reports = Vec::new();
                    prev.recorded.times = Vec::new();
                    prev.trace = Trace::default();
                }
                passes.push(p)
            }
            Err(e) => {
                eprintln!("{name}: traced pass {attempted} failed: {e}");
                failed += 1;
                if passes.is_empty() && failed >= 3 + untraced.failed {
                    return Err(e);
                }
            }
        }
    }
    // The runner and the front door drive the same engine, so they
    // should agree; a disagreement is reported, not gated, because it
    // is a property of the program rather than of this run.
    let agreement = match gates::same_simulation(&untraced.outcome, &passes[0].outcome) {
        Ok(()) => "# run-path agreement: the traced path reproduces run_verified".to_string(),
        Err(e) => format!("# run-path agreement: DIFFERS from run_verified: {e}"),
    };
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let last = passes.last().expect("at least one traced pass");
    let n = last.trace.len() as f64;
    let reports = &last.reports;
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let events = sum(&|r| r.events_processed());
    let mut m = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push(Metric::new(name, v, unit));

    put("workloads.gen_s", med(&|p| p.gen.secs), "s");
    put("workloads.gen_allocs", last.gen.allocs as f64, "count");
    put("core.build_s", med(&|p| p.core.build.secs), "s");
    put("core.build_rss_mb", med(&|p| p.core.build_rss_mb), "MiB");
    // The runner spans are zero on the federation, so these read 0 there.
    put(
        "core.submit_ns",
        med(&|p| p.core.submit.secs) * 1e9 / n,
        "ns",
    );
    put(
        "core.submit_allocs",
        last.core.submit.allocs as f64 / n,
        "count",
    );
    put(
        "core.step_ns_per_event",
        med(&|p| p.core.step.secs) * 1e9 / events.max(1.0),
        "ns",
    );
    put(
        "core.allocs_per_event",
        last.core.step.allocs as f64 / events.max(1.0),
        "count",
    );
    put("core.events_per_req", events / n, "count");
    put("ftl.verify_s", med(&|p| p.core.finish.secs), "s");

    let ftl = match &last.array {
        Some(cfg) => ftl_replay(cfg, last.trace.requests())?,
        None => FtlReplay::default(),
    };
    put("ftl.locate_ns", ftl.locate_ns, "ns");
    put("ftl.write_alloc_ns", ftl.write_alloc_ns, "ns");
    put("ftl.journal_write_ns", ftl.journal_write_ns, "ns");
    put(
        "ftl.journal_checkpoints",
        ftl.journal_checkpoints as f64,
        "count",
    );

    let gc_erases = sum(&|r| r.ftl_stats().gc_erases);
    put("ftl.gc_erases", gc_erases, "count");
    put(
        "ftl.gc_copies_per_erase",
        if gc_erases > 0.0 {
            sum(&|r| r.ftl_stats().gc_writes) / gc_erases
        } else {
            0.0
        },
        "count",
    );
    put(
        "tenant.grant_ns",
        last.array
            .as_ref()
            .map_or(0.0, |cfg| arbiter_replay(cfg, &last.trace)),
        "ns",
    );
    put(
        "tenant.sla_violations",
        sum(&|r| r.sla_violations()),
        "count",
    );
    put(
        "sim.queue_ns_per_op",
        last.array
            .as_ref()
            .map_or(0.0, |_| queue_replay(&last.trace, &last.recorded.times)),
        "ns",
    );

    put(
        "autonomic.migrations",
        sum(&|r| r.autonomic_stats().migrations_completed),
        "count",
    );
    put(
        "autonomic.reloc_writes_per_req",
        sum(&|r| r.ftl_stats().migration_writes) / n,
        "count",
    );
    put(
        "autonomic.redirects",
        sum(&|r| r.autonomic_stats().write_redirects + r.fault_stats().fault_write_redirects),
        "count",
    );
    put(
        "autonomic.rollbacks",
        sum(&|r| r.fault_stats().migration_rollbacks),
        "count",
    );
    // Breakdown averages per completed request (per completed fragment
    // on the federation, whose members each see fragments).
    let w = waits(reports)?;
    let completed = sum(&|r| r.completed()).max(1.0);
    let us = |ns: u64| ns as f64 / 1e3 / completed;
    put("pcie.rc_stall_us", us(w.rc_stall), "us");
    put("pcie.switch_stall_us", us(w.switch_stall), "us");
    put("pcie.link_wait_us", us(w.pcie_wait), "us");
    put("fimm.bus_wait_us", us(w.bus_wait), "us");
    put("fimm.service_us", us(w.fimm_service), "us");
    put("flash.die_wait_us", us(w.die_wait), "us");
    put("core.wbuf_wait_us", us(w.wbuf_wait), "us");

    let faults = |r: &RunReport| {
        let f = r.fault_stats();
        f.transient_read_faults + f.prog_failures + f.erase_failures + f.fimm_deaths
    };
    put("flash.faults", sum(&faults), "count");
    put(
        "recovery.lost_inflight",
        sum(&|r| r.recovery_stats().lost_inflight_requests),
        "count",
    );
    put(
        "recovery.lost_write_pages",
        last.outcome.lost_write_pages as f64,
        "count",
    );
    put(
        "recovery.remount_us",
        sum(&|r| r.recovery_stats().remount_ns) / 1e3,
        "us",
    );
    put(
        "recovery.rebuild_us",
        sum(&|r| r.recovery_stats().rebuild_ns) / 1e3,
        "us",
    );

    let (frag_ns, frag_allocs, frag_per_req, epochs, us_per_frag, commit_frac) =
        match &last.federation {
            Some((mapper, stats)) => {
                let (frags, s) = span(|| {
                    last.trace
                        .requests()
                        .iter()
                        .map(|r| black_box(mapper.fragments(r.lpn, r.pages)).len())
                        .sum::<usize>()
                });
                (
                    s.secs * 1e9 / n,
                    s.allocs as f64 / n,
                    frags as f64 / n,
                    stats.epochs as f64,
                    med(&|p| p.fed_run.secs) * 1e6 / stats.fragments.max(1) as f64,
                    stats.migrations_committed as f64 / stats.migrations_started.max(1) as f64,
                )
            }
            None => Default::default(),
        };
    put("federation.fragments_ns", frag_ns, "ns");
    put("federation.fragments_allocs", frag_allocs, "count");
    put("federation.fragments_per_req", frag_per_req, "count");
    put("federation.epochs", epochs, "count");
    put("federation.host_us_per_fragment", us_per_frag, "us");
    put("federation.migration_commit_frac", commit_frac, "ratio");

    for kind in EVENT_KINDS {
        put(
            &format!("events.{kind}"),
            *last.recorded.kinds.get(kind).unwrap_or(&0) as f64,
            "count",
        );
    }

    // Tracing overhead: the traced path's request rate against the
    // untraced front door's, both over the same simulated work.
    let run_secs = |p: &TracedPass| {
        p.fed_run.secs + p.core.submit.secs + p.core.step.secs + p.core.finish.secs
    };
    let untraced_rate = median(&untraced.req_per_s);
    put(
        "trace.overhead_frac",
        1.0 - (n / med(&run_secs)) / untraced_rate,
        "ratio",
    );
    put(
        "trace.uncovered_frac",
        med(&|p| 1.0 - (p.gen.secs + p.core.build.secs + run_secs(p)) / p.wall),
        "ratio",
    );
    let spans = format!(
        "# spans: traced wall {:.4} s over {} pass(es): gen {:.4} + build {:.4} + fed run {:.4} + submit {:.4} + step {:.4} + finish {:.4}",
        last.wall,
        passes.len(),
        last.gen.secs,
        last.core.build.secs,
        last.fed_run.secs,
        last.core.submit.secs,
        last.core.step.secs,
        last.core.finish.secs
    );
    let mut notes = vec![agreement, spans];
    if last.federation.is_some() {
        notes.push(
            "# not reached on the federation (read 0): core submit/step/finish spans, \
             ftl.locate/write_alloc/journal replays, sim.queue_ns_per_op, and member \
             engine events.*; measured on read_hot and mixed_storm"
                .to_string(),
        );
    }
    Ok(Layers {
        metrics: m,
        notes,
        attempted,
        failed,
    })
}
