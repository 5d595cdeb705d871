//! Figure 13: network-size sensitivity — IOPS and latency of Triple-A
//! normalized to the baseline as clusters-per-switch grows.

use crate::experiments::{kiops, netsize_pair, ratio};
use crate::f2;
use crate::harness::{jf, obj, text, Experiment, Scale};

/// Builds the Figure 13 experiment: one point per network width.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "fig13",
        "Figure 13: network-size sensitivity (normalized to baseline)",
    );
    for cps in [8u32, 12, 16, 20] {
        e.point(format!("4x{cps}"), move |ctx| {
            let (base, aaa) = netsize_pair(cps, ctx.base_seed, scale.requests);
            obj([
                ("network", text(&format!("4x{cps}"))),
                ("base", base),
                ("aaa", aaa),
            ])
        });
    }
    e.renderer(|res| {
        let rows: Vec<Vec<String>> = res
            .points
            .iter()
            .map(|p| {
                let d = &p.data;
                vec![
                    p.label.clone(),
                    f2(ratio(jf(d, "aaa.iops"), jf(d, "base.iops"))),
                    f2(ratio(
                        jf(d, "aaa.mean_latency_us"),
                        jf(d, "base.mean_latency_us"),
                    )),
                    kiops(jf(d, "base.iops")),
                    kiops(jf(d, "aaa.iops")),
                ]
            })
            .collect();
        crate::harness::fmt_table(
            &res.title,
            &[
                "Network",
                "Norm. IOPS (higher=better)",
                "Norm. latency (lower=better)",
                "Base IOPS",
                "AAA IOPS",
            ],
            &rows,
        )
    });
    e
}
