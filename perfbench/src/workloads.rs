//! The three benchmark workloads: a fixed array or federation
//! configuration plus a request stream synthesised from `--seed`.
//!
//! The configuration never depends on the seed; the program receives
//! only the built [`Trace`]. `Scale` shrinks request counts for the
//! self-test without changing any shape.

use triplea_core::{
    ArrayConfig, FaultConfig, FimmFaultEvent, FimmFaultKind, FlashFaultProfile, IoOp,
    LaggardPolicy, ManagementMode, PowerLossEvent, Simulation, TenantId, TenantSpec, Trace,
    TraceRequest, VolumeSpec,
};
use triplea_ftl::LogicalPage;
use triplea_sim::{SimTime, SplitMix64};
use triplea_workloads::Microbench;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["read_hot", "mixed_storm", "fed_mirror"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2014;

/// How many requests each workload replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size: every workload completes at least 10 k
    /// requests, so at least ten samples lie beyond its p99.9.
    Full,
    /// A few hundred requests, for the self-test.
    Tiny,
}

/// What a workload runs on.
pub enum Target {
    /// One array in autonomic mode.
    Array(Box<ArrayConfig>),
    /// The `fed_mirror` federation, built by [`fed_builder`].
    Federation,
}

/// One generated workload instance.
pub struct Workload {
    /// The configuration the trace runs on.
    pub target: Target,
    /// The generated request stream.
    pub trace: Trace,
}

/// Builds `name` at `scale` from `seed`: configuration plus trace
/// synthesis (everything `setup_s` covers except construction).
pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let tiny = scale == Scale::Tiny;
    Some(match name {
        "read_hot" => read_hot(seed, if tiny { 400 } else { 120_000 }),
        "mixed_storm" => mixed_storm(seed, if tiny { 400 } else { 30_000 }),
        "fed_mirror" => fed_mirror(seed, if tiny { 300 } else { 24_000 }),
        _ => return None,
    })
}

/// Inter-arrival gap that offers `hot_clusters` clusters 1.6× the
/// request rate their ONFi bus can move one page at (the paper's Fig. 1
/// contention regime).
fn overload_gap_ns(cfg: &ArrayConfig, hot_clusters: u32) -> u64 {
    let page = cfg.shape.flash.page_size;
    let per_page_ns = cfg.flash_timing.dma_nanos(page) + cfg.flash_timing.onfi.cmd_overhead;
    let offered = 1.6 * hot_clusters as f64 * 1e9 / per_page_ns as f64;
    (1e9 / offered) as u64
}

/// Paper-baseline 4×16 array, autonomic; random 1-page reads to 4 hot
/// clusters at 1.6× their bus capacity.
fn read_hot(seed: u64, requests: usize) -> Workload {
    let cfg = ArrayConfig::paper_baseline();
    let trace = Microbench::read()
        .hot_clusters(4)
        .requests(requests)
        .gap_ns(overload_gap_ns(&cfg, 4))
        .build(&cfg, seed);
    Workload {
        target: Target::Array(Box::new(cfg)),
        trace,
    }
}

/// Offered request gap of `mixed_storm` (25 k IOPS in total).
const STORM_GAP_NS: u64 = 40_000;

/// `small_test` 2×4 array with a tight free pool, two tenants through
/// the WFQ front door (interactive reads everywhere, batch writes to one
/// 512-page region of cluster 0), light NAND faults, FIMM 0 of that
/// write-hot cluster dying at ¼ span onto a hot spare, and a power cut
/// at ½ span, which lands while the spare is still rebuilding. With the
/// writes on one cluster GC runs all through the trace; spread over two
/// clusters, 30 k requests never crossed the GC threshold.
fn mixed_storm(seed: u64, requests: usize) -> Workload {
    let span_ns = STORM_GAP_NS * requests as u64;
    let faults = FaultConfig {
        flash: FlashFaultProfile {
            read_transient_prob: 0.002,
            prog_fail_prob: 0.0001,
            erase_fail_prob: 0.0001,
        },
        seed: 0x0057_024D,
        ..FaultConfig::default()
    }
    .with_fimm_event(FimmFaultEvent {
        cluster: 0,
        fimm: 0,
        at_ns: span_ns / 4,
        kind: FimmFaultKind::Dead,
    })
    .with_power_loss(PowerLossEvent::at(span_ns / 2));
    let cfg = ArrayConfig::small_builder()
        .with_tenants([TenantSpec::interactive(), TenantSpec::batch()])
        .hot_spares(1)
        .faults(faults)
        .tune(|c| {
            c.shape.flash.blocks_per_plane = 8;
            c.gc_threshold_blocks = 2;
            c.opportunistic_gc = true;
        })
        .build()
        .expect("mixed_storm configuration validates");
    // Each tenant offers half the load; the write stream is shifted by
    // half a gap so the two interleave.
    let half = (requests / 2).max(1);
    let reads = Microbench::read()
        .hot_clusters(0)
        .requests(half)
        .gap_ns(2 * STORM_GAP_NS)
        .build(&cfg, seed);
    let writes = Microbench::write()
        .hot_clusters(1)
        .region_pages(512)
        .requests(requests - half)
        .gap_ns(2 * STORM_GAP_NS)
        .build(&cfg, seed ^ 0x005E_ED0F_5702);
    let stamp = |t: Trace, tenant: u32, shift: u64| {
        t.into_requests().into_iter().map(move |r| {
            let at = SimTime::from_nanos(r.at.as_nanos() + shift);
            TraceRequest { at, ..r }.owned_by(TenantId(tenant))
        })
    };
    let trace = Trace::new(
        stamp(reads, 0, 0)
            .chain(stamp(writes, 1, STORM_GAP_NS))
            .collect(),
    );
    Workload {
        target: Target::Array(Box::new(cfg)),
        trace,
    }
}

/// Pages per stripe chunk of the `fed_mirror` volume.
const CHUNK_PAGES: u64 = 64;
/// Volume capacity in pages.
const VOLUME_PAGES: u64 = 1 << 20;
/// The hot region: the first 64 chunks.
const HOT_PAGES: u64 = 64 * CHUNK_PAGES;
/// Volume-level arrival gap (100 k IOPS offered).
const FED_GAP_NS: u64 = 10_000;

/// The `fed_mirror` federation: 4 paper-baseline members behind one
/// mirrored volume on the serial engine. The laggard policy moves at
/// most one chunk per 8 epochs, so inter-array migration runs without
/// its clone traffic dominating the simulated tail.
pub fn fed_builder() -> triplea_core::FederationBuilder {
    Simulation::builder()
        .mode(ManagementMode::Autonomic)
        .with_federation(4)
        .volume(
            VolumeSpec::replicated(2, 2)
                .chunk_pages(CHUNK_PAGES)
                .volume_pages(VOLUME_PAGES),
        )
        .policy(LaggardPolicy {
            sla_p99_ns: 500_000,
            imbalance_milli: 1_200,
            epoch_ns: 200_000,
            max_chunks_per_epoch: 1,
            cooldown_epochs: 8,
            ..LaggardPolicy::default()
        })
}

/// Four paper-baseline members behind one 2×2 mirrored volume; 80/20
/// hot/uniform, 4:1 read:write, 1–16-page requests at 100 k IOPS.
fn fed_mirror(seed: u64, requests: usize) -> Workload {
    let mut rng = SplitMix64::new(seed ^ 0xFED0_3112);
    let trace = (0..requests)
        .map(|i| {
            let op = if rng.next_below(5) == 0 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            let pages = [1u64, 4, 8, 16][rng.next_below(4) as usize];
            let span = if rng.next_below(10) < 8 {
                HOT_PAGES
            } else {
                VOLUME_PAGES
            };
            let lpn = rng.next_below(span - pages);
            TraceRequest::new(
                SimTime::from_nanos(i as u64 * FED_GAP_NS),
                op,
                LogicalPage(lpn),
                pages as u32,
            )
        })
        .collect();
    Workload {
        target: Target::Federation,
        trace,
    }
}
