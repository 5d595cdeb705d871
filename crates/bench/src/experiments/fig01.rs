//! Figure 1 (motivation): latency CDF of the **non-autonomic** array as
//! the number of hot regions grows.

use crate::experiments::{cdf_json, curve_rows};
use crate::harness::{jf, ju, obj, report_json, uint, Experiment, Scale};
use crate::{bench_config, f1, overload_gap_ns};
use triplea_core::{Array, ManagementMode};
use triplea_workloads::Microbench;

/// Builds the Figure 1 experiment: one point per hot-region count.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "fig01",
        "Figure 1: latency vs number of hot regions (non-autonomic)",
    );
    for hot in [0u32, 2, 4, 8] {
        e.point(format!("hot={hot}"), move |ctx| {
            let cfg = bench_config();
            // Constant per-hot-cluster pressure AND constant run
            // duration: request count scales with the number of hot
            // regions.
            let gap = overload_gap_ns(&cfg, hot.max(1));
            let n = scale.requests / 2 * hot.max(2) as usize;
            let trace = Microbench::read()
                .hot_clusters(hot)
                .requests(n)
                .gap_ns(gap)
                .build(&cfg, ctx.base_seed);
            let report = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
            obj([
                ("hot", uint(hot as u64)),
                ("report", report_json(&report)),
                ("cdf", cdf_json(&report)),
            ])
        });
    }
    e.renderer(|res| {
        let mut rows = Vec::new();
        let mut curves = Vec::new();
        for p in &res.points {
            let r = &p.data["report"];
            rows.push(vec![
                ju(&p.data, "hot").to_string(),
                f1(jf(r, "mean_latency_us")),
                f1(jf(r, "p50_us")),
                f1(jf(r, "p99_us")),
                f1(jf(r, "link_contention_us")),
                f1(jf(r, "storage_contention_us")),
            ]);
            for pt in curve_rows(&p.data["cdf"]) {
                curves.push(vec![ju(&p.data, "hot") as f64, pt[0], pt[1]]);
            }
        }
        let mut out = crate::harness::fmt_table(
            &res.title,
            &[
                "Hot regions",
                "Mean (us)",
                "p50 (us)",
                "p99 (us)",
                "Link-cont. (us)",
                "Storage-cont. (us)",
            ],
            &rows,
        );
        out.push_str(&crate::harness::fmt_csv_series(
            "fig01 CDFs",
            &["hot_regions", "latency_us", "cdf"],
            &curves,
        ));
        out
    });
    e
}
