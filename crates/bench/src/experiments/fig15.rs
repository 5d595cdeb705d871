//! Figure 15: breakdown of average request time on both arrays under
//! varying network sizes.

use crate::experiments::netsize_pair;
use crate::f1;
use crate::harness::{jf, obj, text, Experiment, Scale};
use serde_json::Value;

fn breakdown_row(label: String, r: &Value) -> Vec<String> {
    vec![
        label,
        f1(jf(r, "rc_stall_us")),
        f1(jf(r, "switch_stall_us")),
        f1(jf(r, "direct_link_us")),
        f1(jf(r, "direct_storage_us")),
        f1(jf(r, "fimm_service_us")),
        f1(jf(r, "network_us")),
        f1(jf(r, "mean_latency_us")),
    ]
}

/// Builds the Figure 15 experiment: one point per network width.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "fig15",
        "Figure 15: execution-time breakdown (all in us per request)",
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
        let mut rows = Vec::new();
        for p in &res.points {
            rows.push(breakdown_row(
                format!("{} baseline", p.label),
                &p.data["base"],
            ));
            rows.push(breakdown_row(
                format!("{} triple-a", p.label),
                &p.data["aaa"],
            ));
        }
        crate::harness::fmt_table(
            &res.title,
            &[
                "Config",
                "RC stall",
                "Switch stall",
                "Link wait",
                "Storage wait",
                "FIMM service",
                "Network",
                "Total mean",
            ],
            &rows,
        )
    });
    e
}
