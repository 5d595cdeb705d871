//! §6.6 — effectiveness of DRAM relocation: sweep the per-cluster
//! write-back buffer from queue-scale to DRAM-scale.

use crate::harness::{jf, ju, obj, report_json, text, uint, Experiment, Scale};
use crate::{bench_builder, f1};
use triplea_core::{Array, ManagementMode};
use triplea_workloads::Microbench;

/// Builds the DRAM-relocation experiment: one point per buffer size.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "dram",
        "DRAM relocation (§6.6): write-burst ack latency vs buffer size",
    );
    for buffer_pages in [64usize, 256, 1_024, 2_048, 8_192] {
        e.point(format!("buffer={buffer_pages}"), move |ctx| {
            let cfg = bench_builder()
                .write_buffer_pages(buffer_pages)
                .build()
                .expect("dram configuration validates");
            // Bursty checkpoint-style writes into two clusters.
            let trace = Microbench::write()
                .hot_clusters(2)
                .bursty(2_000_000, 6_000_000)
                .gap_ns(1_200)
                .requests(scale.requests / 2)
                .build(&cfg, ctx.base_seed);
            let report = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
            obj([
                ("buffer_pages", uint(buffer_pages as u64)),
                (
                    "label",
                    text(&format!(
                        "{buffer_pages} pages ({} MB)",
                        buffer_pages * 4 / 1024
                    )),
                ),
                ("aaa", report_json(&report)),
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
                    crate::harness::js(d, "label"),
                    f1(jf(d, "aaa.mean_latency_us")),
                    f1(jf(d, "aaa.p99_us")),
                    f1(jf(d, "aaa.storage_contention_us")),
                    ju(d, "aaa.autonomic.write_redirects").to_string(),
                ]
            })
            .collect();
        let mut out = crate::harness::fmt_table(
            &res.title,
            &[
                "Write buffer per cluster",
                "Ack mean (us)",
                "Ack p99 (us)",
                "Storage-cont. (us)",
                "Write redirects",
            ],
            &rows,
        );
        out.push_str(
            "\npaper shape: DRAM-scale buffering absorbs bursts (acks near-instant);\n\
             buffer size does not address link/storage contention itself — that\n\
             remains the autonomic manager's job.\n",
        );
        out
    });
    e
}
