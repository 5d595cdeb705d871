//! FTL design-space comparison (paper §4): page mapping à la DFTL vs
//! hybrid log-block mapping à la FAST, plus GC victim-selection policy.

use crate::harness::{jf, js, ju, num, obj, text, uint, Experiment, Scale};
use crate::{f1, f2};
use serde_json::Value;
use triplea_core::ClusterId;
use triplea_flash::FlashGeometry;
use triplea_ftl::{ArrayShape, Ftl, GcPolicy, HybridFtl, LogicalPage};
use triplea_pcie::Topology;
use triplea_sim::SplitMix64;
use triplea_workloads::Zipfian;

/// `(json_key, display_name)` per overwrite stream; keys stay free of
/// dots so the renderer's dotted-path accessors can address them.
const STREAMS: [(&str, &str); 3] = [
    ("seq", "sequential"),
    ("rand", "uniform-random"),
    ("zipf", "zipf-0.99"),
];

/// Geometry under test; the quick scale shrinks the plane so the golden
/// suite's debug-mode run stays fast while keeping utilisation at 85 %.
fn geometry(scale: Scale) -> FlashGeometry {
    FlashGeometry {
        dies: 2,
        planes: 2,
        blocks_per_plane: if scale.requests >= crate::REQUESTS {
            256
        } else {
            32
        },
        pages_per_block: 64,
        page_size: 4096,
        endurance: 100_000,
    }
}

/// Hybrid-FTL log region: 1/8 of a plane (32 blocks at full scale, as
/// the original binary used), so the data region stays large enough for
/// the 85 %-of-device working set at every scale.
fn log_blocks(geom: FlashGeometry) -> usize {
    (geom.blocks_per_plane / 8) as usize
}

/// Overwrite stream `name`: working set = 85 % of the FIMM, overwritten
/// 4× — high utilisation is where GC policy and mapping scheme genuinely
/// separate.
fn stream(name: &str, geom: FlashGeometry, seed: u64) -> Vec<u64> {
    let span = geom.total_pages() * 85 / 100;
    let n = (span * 4) as usize;
    let mut rng = SplitMix64::new(seed);
    match name {
        "sequential" => (0..n as u64).map(|i| i % span).collect(),
        "uniform-random" => (0..n).map(|_| rng.next_below(span)).collect(),
        "zipf-0.99" => {
            let zipf = Zipfian::new(span, 0.99);
            (0..n).map(|_| zipf.sample(&mut rng)).collect()
        }
        other => panic!("unknown stream {other:?}"),
    }
}

/// One-FIMM shape for the page-mapped FTL.
fn fimm_shape(geom: FlashGeometry) -> ArrayShape {
    ArrayShape {
        topology: Topology {
            switches: 1,
            clusters_per_switch: 1,
        },
        fimms_per_cluster: 1,
        packages_per_fimm: 1,
        flash: geom,
    }
}

/// Drives the page-mapped FTL with proactive GC exactly as the array
/// does; returns `(write_amplification, erases, map_entries)`.
fn run_page_mapped(geom: FlashGeometry, stream: &[u64], policy: GcPolicy) -> (f64, u64, usize) {
    let shape = fimm_shape(geom);
    let mut ftl = Ftl::new(shape);
    ftl.set_gc_policy(policy);
    let cluster = ClusterId::default();
    for &lpn in stream {
        while ftl.needs_gc(cluster, 0, 4) {
            let Some(work) = ftl.gc_pick(cluster, 0) else {
                break;
            };
            for l in work.valid.clone() {
                ftl.gc_rewrite(l, &work).expect("spare blocks reserved");
            }
            ftl.gc_finish(&work);
        }
        ftl.write_alloc(LogicalPage(lpn), Some((cluster, 0)))
            .expect("write fits after proactive GC");
    }
    let s = ftl.stats();
    let wa = (s.host_writes + s.gc_writes) as f64 / s.host_writes as f64;
    (wa, s.gc_erases, ftl.page_map().override_count())
}

fn run_hybrid(geom: FlashGeometry, log_blocks: usize, stream: &[u64]) -> (f64, u64, usize) {
    let mut ftl = HybridFtl::new(geom, 1, log_blocks);
    for &lpn in stream {
        ftl.write(lpn);
    }
    let s = ftl.stats();
    (s.write_amplification(), s.erases, ftl.mapping_entries())
}

/// Builds the FTL-comparison experiment: one point per overwrite stream
/// (page-mapped vs hybrid) plus one per GC policy (page-mapped only).
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "ftl_compare",
        "FTL design space: page-mapped (DFTL-class) vs hybrid log-block (FAST-class)",
    );
    for (_, name) in STREAMS {
        e.point(format!("stream/{name}"), move |ctx| {
            let geom = geometry(scale);
            let s = stream(name, geom, ctx.base_seed);
            let (wa_p, er_p, fp_p) = run_page_mapped(geom, &s, GcPolicy::Greedy);
            let (wa_h, er_h, fp_h) = run_hybrid(geom, log_blocks(geom), &s);
            obj([
                ("stream", text(name)),
                ("wa_page", num(wa_p)),
                ("wa_hybrid", num(wa_h)),
                ("erases_page", uint(er_p)),
                ("erases_hybrid", uint(er_h)),
                ("map_entries_page", uint(fp_p as u64)),
                ("map_entries_hybrid", uint(fp_h as u64)),
            ])
        });
    }
    for (label, policy) in [
        ("greedy", GcPolicy::Greedy),
        ("cost-benefit", GcPolicy::CostBenefit),
        ("fifo", GcPolicy::Fifo),
    ] {
        e.point(format!("gc/{label}"), move |ctx| {
            let geom = geometry(scale);
            let mut pairs = vec![("policy".to_string(), text(label))];
            for (key, name) in STREAMS {
                let s = stream(name, geom, ctx.base_seed);
                let (wa, erases, _) = run_page_mapped(geom, &s, policy);
                pairs.push((format!("wa_{key}"), num(wa)));
                pairs.push((format!("erases_{key}"), uint(erases)));
            }
            Value::Object(pairs)
        });
    }
    e.renderer(|res| {
        let mut rows = Vec::new();
        for (_, d) in res.section("stream/") {
            rows.push(vec![
                js(d, "stream"),
                f2(jf(d, "wa_page")),
                f2(jf(d, "wa_hybrid")),
                ju(d, "erases_page").to_string(),
                ju(d, "erases_hybrid").to_string(),
                ju(d, "map_entries_page").to_string(),
                ju(d, "map_entries_hybrid").to_string(),
                f1(jf(d, "map_entries_page") / (ju(d, "map_entries_hybrid").max(1) as f64)),
            ]);
        }
        let mut out = crate::harness::fmt_table(
            &res.title,
            &[
                "Stream",
                "WA page-mapped",
                "WA hybrid",
                "Erases page",
                "Erases hybrid",
                "Map entries page",
                "Map entries hybrid",
                "RAM ratio",
            ],
            &rows,
        );
        out.push_str(
            "\nexpected shape: hybrid needs ~pages-per-block x less mapping RAM but\n\
             amplifies random overwrites far more; page-mapped WA stays near the\n\
             utilisation-driven GC bound.\n",
        );
        let mut rows = Vec::new();
        for (_, d) in res.section("gc/") {
            let mut cells = vec![js(d, "policy")];
            for (key, _) in STREAMS {
                cells.push(f2(jf(d, &format!("wa_{key}"))));
                cells.push(ju(d, &format!("erases_{key}")).to_string());
            }
            rows.push(cells);
        }
        out.push_str(&crate::harness::fmt_table(
            "GC victim selection (page-mapped FTL): WA / erases per stream",
            &[
                "Policy",
                "WA seq",
                "Erases seq",
                "WA random",
                "Erases random",
                "WA zipf",
                "Erases zipf",
            ],
            &rows,
        ));
        out
    });
    e
}
