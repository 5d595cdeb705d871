//! Figure 16: latency time-series under (a) the non-autonomic array,
//! (b) Triple-A with *naive* data migration, and (c) Triple-A with
//! shadow cloning.

use crate::experiments::{curve_rows, kiops};
use crate::harness::{arr, jf, ju, num, obj, report_json, text, Experiment, Scale};
use crate::{bench_builder, f1, overload_gap_ns};
use serde_json::Value;
use triplea_core::{Array, ManagementMode};
use triplea_workloads::Microbench;

fn run(mode: ManagementMode, naive: bool, seed: u64, requests: usize) -> Value {
    let cfg = bench_builder()
        .collect_series(true)
        .tune(|c| c.autonomic.naive_migration = naive)
        .build()
        .expect("fig16 configuration validates");
    let gap = overload_gap_ns(&cfg, 4);
    let trace = Microbench::read()
        .hot_clusters(4)
        .requests(requests)
        .gap_ns(gap)
        .build(&cfg, seed);
    let report = Array::new(cfg, mode).run(&trace);
    let series = arr(report
        .series()
        .thin(150)
        .into_iter()
        .map(|(t, lat_us)| arr(vec![num(t.as_ms_f64()), num(lat_us)]))
        .collect());
    obj([("report", report_json(&report)), ("series", series)])
}

/// Builds the Figure 16 experiment: one point per migration strategy.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new("fig16", "Figure 16: migration-overhead ablation");
    let variants: [(&str, ManagementMode, bool); 3] = [
        ("baseline", ManagementMode::NonAutonomic, false),
        ("naive-migration", ManagementMode::Autonomic, true),
        ("shadow-cloning", ManagementMode::Autonomic, false),
    ];
    for (label, mode, naive) in variants {
        e.point(label, move |ctx| {
            let mut v = run(mode, naive, ctx.base_seed, scale.requests);
            if let Value::Object(pairs) = &mut v {
                pairs.insert(0, ("variant".to_string(), text(label)));
            }
            v
        });
    }
    e.renderer(|res| {
        let mut rows = Vec::new();
        let mut curves = Vec::new();
        for (i, p) in res.points.iter().enumerate() {
            let r = &p.data["report"];
            rows.push(vec![
                p.label.clone(),
                f1(jf(r, "mean_latency_us")),
                f1(jf(r, "p99_us")),
                kiops(jf(r, "iops")),
                ju(r, "autonomic.migrations_started").to_string(),
            ]);
            for pt in curve_rows(&p.data["series"]) {
                curves.push(vec![i as f64, pt[0], pt[1]]);
            }
        }
        let mut out = crate::harness::fmt_table(
            &res.title,
            &["Series", "Mean (us)", "p99 (us)", "IOPS", "Migrations"],
            &rows,
        );
        out.push_str(&crate::harness::fmt_csv_series(
            "fig16 series (series: 0=baseline, 1=naive, 2=shadow)",
            &["series", "submit_ms", "latency_us"],
            &curves,
        ));
        out
    });
    e
}
