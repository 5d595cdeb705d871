//! Figure 10: link-contention, storage-contention, and queue-stall
//! times of Triple-A normalized to the baseline, per workload.

use crate::experiments::pair_json;
use crate::harness::{flag, jf, obj, text, Experiment, Scale};
use crate::{bench_config, enterprise_trace_n, f2};
use triplea_workloads::WorkloadProfile;

/// Normalization that reads `1.0` when the baseline component is
/// already zero (nothing to improve), as the original figure did.
fn norm(a: f64, b: f64) -> f64 {
    if b <= 1e-9 {
        1.0
    } else {
        a / b
    }
}

/// Builds the Figure 10 experiment: one point per Table-1 workload.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "fig10",
        "Figure 10: contention & stall times normalized to baseline (lower = better)",
    );
    for profile in WorkloadProfile::table1() {
        let profile = *profile;
        e.point(profile.name, move |ctx| {
            let cfg = bench_config();
            let trace = enterprise_trace_n(&profile, &cfg, ctx.seed, scale.requests);
            let (base, aaa) = pair_json(cfg, &trace);
            obj([
                ("workload", text(profile.name)),
                ("uniform", flag(profile.is_uniform())),
                ("base", base),
                ("aaa", aaa),
            ])
        });
    }
    e.renderer(|res| {
        let mut rows = Vec::new();
        let mut sums = [0.0f64; 3];
        let mut n = 0usize;
        for p in &res.points {
            let d = &p.data;
            let link = norm(
                jf(d, "aaa.link_contention_us"),
                jf(d, "base.link_contention_us"),
            );
            let storage = norm(
                jf(d, "aaa.storage_contention_us"),
                jf(d, "base.storage_contention_us"),
            );
            let stall = norm(jf(d, "aaa.queue_stall_us"), jf(d, "base.queue_stall_us"));
            if d["uniform"].as_bool() != Some(true) {
                sums[0] += link;
                sums[1] += storage;
                sums[2] += stall;
                n += 1;
            }
            rows.push(vec![p.label.clone(), f2(link), f2(storage), f2(stall)]);
        }
        let mut out = crate::harness::fmt_table(
            &res.title,
            &[
                "Workload",
                "Link contention",
                "Storage contention",
                "Queue stall",
            ],
            &rows,
        );
        out.push_str(&format!(
            "\nhot-workload means: link {:.2}, storage {:.2}, queue stall {:.2} \
             (paper: link ≈0.1, storage ≈0.85, stall ≈0.15)\n",
            sums[0] / n.max(1) as f64,
            sums[1] / n.max(1) as f64,
            sums[2] / n.max(1) as f64,
        ));
        out
    });
    e
}
