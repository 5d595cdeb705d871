//! Fault-injection sweep: how gracefully the array (baseline vs
//! Triple-A) degrades as deterministic faults are injected at each
//! layer of the stack. Every run is seeded, deterministic, and FTL
//! metadata integrity is verified end-to-end.

use crate::experiments::kiops;
use crate::harness::{jf, ju, obj, report_json, text, Experiment, Scale};
use crate::{bench_builder, f1, f2, overload_gap_ns};
use serde_json::Value;
use triplea_core::{
    Array, ArrayConfig, FaultConfig, FimmFaultEvent, FimmFaultKind, FlashFaultProfile,
    ManagementMode, PcieFaultProfile, Trace,
};
use triplea_workloads::Microbench;

fn hot_trace(cfg: &ArrayConfig, seed: u64, requests: usize) -> Trace {
    Microbench::read()
        .hot_clusters(2)
        .requests(requests)
        .gap_ns(overload_gap_ns(cfg, 2))
        .build(cfg, seed)
}

/// Runs one mode and hard-fails the experiment if the FTL metadata lost
/// or duplicated a page along the way.
fn run_checked(cfg: ArrayConfig, mode: ManagementMode, trace: &Trace) -> Value {
    let run = Array::new(cfg, mode).run_verified(trace);
    run.integrity
        .expect("FTL integrity violated under fault injection");
    report_json(&run.report)
}

/// Builds the fault-injection experiment: NAND sweep, whole-module
/// events, and PCI-E corruption sections.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "faults",
        "Fault injection: NAND sweep, module events, PCI-E corruption",
    );
    for (label, transient, hard) in [
        ("none", 0.0, 0.0),
        ("light", 0.005, 0.0002),
        ("moderate", 0.02, 0.001),
        ("heavy", 0.05, 0.004),
    ] {
        e.point(format!("flash/{label}"), move |ctx| {
            let cfg = bench_builder()
                .faults(FaultConfig {
                    flash: FlashFaultProfile {
                        read_transient_prob: transient,
                        prog_fail_prob: hard,
                        erase_fail_prob: hard,
                    },
                    seed: ctx.base_seed,
                    ..FaultConfig::default()
                })
                .build()
                .expect("flash-fault configuration validates");
            let trace = hot_trace(&cfg, ctx.base_seed, scale.requests);
            obj([
                ("rate", text(label)),
                (
                    "base",
                    run_checked(cfg.clone(), ManagementMode::NonAutonomic, &trace),
                ),
                ("aaa", run_checked(cfg, ManagementMode::Autonomic, &trace)),
            ])
        });
    }
    for (label, kind) in [
        ("healthy", None),
        ("slowdown-x4", Some(FimmFaultKind::Slowdown(4))),
        ("dead", Some(FimmFaultKind::Dead)),
    ] {
        e.point(format!("module/{label}"), move |ctx| {
            let mut b = bench_builder();
            if let Some(kind) = kind {
                // Fire mid-run, on a FIMM of hot cluster 0.
                let mid_ns =
                    overload_gap_ns(&crate::bench_config(), 2) * (scale.requests as u64 / 2);
                b = b.faults(FaultConfig::default().with_fimm_event(FimmFaultEvent {
                    cluster: 0,
                    fimm: 0,
                    at_ns: mid_ns,
                    kind,
                }));
            }
            let cfg = b.build().expect("module-fault configuration validates");
            let trace = hot_trace(&cfg, ctx.base_seed, scale.requests);
            obj([
                ("event", text(label)),
                (
                    "base",
                    run_checked(cfg.clone(), ManagementMode::NonAutonomic, &trace),
                ),
                ("aaa", run_checked(cfg, ManagementMode::Autonomic, &trace)),
            ])
        });
    }
    for (label, prob) in [("none", 0.0), ("1e-3", 0.001), ("1e-2", 0.01)] {
        e.point(format!("pcie/{label}"), move |ctx| {
            let cfg = bench_builder()
                .tune(|c| {
                    c.faults.pcie = PcieFaultProfile {
                        corrupt_prob: prob,
                        replay_ns: 700,
                    };
                    c.faults.seed = ctx.base_seed;
                })
                .build()
                .expect("pcie-fault configuration validates");
            let trace = hot_trace(&cfg, ctx.base_seed, scale.requests);
            obj([
                ("corrupt_prob", text(label)),
                ("aaa", run_checked(cfg, ManagementMode::Autonomic, &trace)),
            ])
        });
    }
    e.renderer(|res| {
        let mut out = String::new();
        let mut rows = Vec::new();
        for (_, d) in res.section("flash/") {
            rows.push(vec![
                crate::harness::js(d, "rate"),
                kiops(jf(d, "base.iops")),
                kiops(jf(d, "aaa.iops")),
                f1(jf(d, "base.mean_latency_us")),
                f1(jf(d, "aaa.mean_latency_us")),
                ju(d, "aaa.faults.transient_read_faults").to_string(),
                ju(d, "aaa.faults.blocks_retired_by_fault").to_string(),
                ju(d, "aaa.faults.migration_rollbacks").to_string(),
            ]);
        }
        out.push_str(&crate::harness::fmt_table(
            "NAND fault sweep: ECC retries + grown bad blocks (read-heavy, 2 hot clusters)",
            &[
                "Fault rate",
                "Base IOPS",
                "AAA IOPS",
                "Base lat us",
                "AAA lat us",
                "ECC retries",
                "Bad blocks",
                "Mig rollbacks",
            ],
            &rows,
        ));
        let mut rows = Vec::new();
        for (_, d) in res.section("module/") {
            rows.push(vec![
                crate::harness::js(d, "event"),
                f1(jf(d, "base.mean_latency_us")),
                f1(jf(d, "aaa.mean_latency_us")),
                f2(jf(d, "aaa.mean_latency_us") / jf(d, "base.mean_latency_us").max(1e-9)),
                ju(d, "aaa.faults.degraded_reads").to_string(),
                ju(d, "aaa.autonomic.laggard_detections").to_string(),
                ju(d, "aaa.autonomic.pages_reshaped").to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&crate::harness::fmt_table(
            "Whole-module events at t=midpoint on the hot cluster",
            &[
                "Event",
                "Base lat us",
                "AAA lat us",
                "AAA/Base",
                "Degraded reads",
                "Laggards",
                "Pages reshaped",
            ],
            &rows,
        ));
        let mut rows = Vec::new();
        for (_, d) in res.section("pcie/") {
            rows.push(vec![
                crate::harness::js(d, "corrupt_prob"),
                kiops(jf(d, "aaa.iops")),
                f1(jf(d, "aaa.mean_latency_us")),
                f1(jf(d, "aaa.p99_us")),
                ju(d, "aaa.faults.tlp_replays").to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&crate::harness::fmt_table(
            "PCI-E TLP corruption sweep (replay = 700 ns per corrupted packet)",
            &[
                "Corrupt prob",
                "IOPS",
                "Mean lat us",
                "p99 lat us",
                "TLP replays",
            ],
            &rows,
        ));
        out.push_str(
            "\nall runs seeded from the experiment name and integrity-checked: the\n\
             same spec reproduces this output byte for byte at any thread count.\n",
        );
        out
    });
    e
}
