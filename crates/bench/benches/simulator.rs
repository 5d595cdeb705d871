//! Criterion micro-benchmarks of the simulator's hot paths, plus
//! scaled-down end-to-end runs of the two management modes.
//!
//! The table/figure regenerators are the `bench` binary's experiment
//! specs; these benches track the *performance of the simulator
//! itself* so regressions in the event loop or substrates are caught.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use triplea_core::{Array, ArrayConfig, ManagementMode};
use triplea_flash::{FlashCommand, FlashGeometry, FlashTiming, Package, PageAddr};
use triplea_ftl::{hal, ArrayShape, Ftl, HybridFtl, LogicalPage, MappingCache};
use triplea_sim::stats::Histogram;
use triplea_sim::trace::{SharedRecorder, TraceConfig, TraceEventKind, TracePort, TraceScope};
use triplea_sim::{BaselineHeapQueue, EventQueue, SimTime, SplitMix64};
use triplea_workloads::{Microbench, Zipfian};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_nanos(i * 37 % 10_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    // The pre-overhaul global heap, raced on the same traffic so the
    // calendar queue's margin is visible in one report.
    c.bench_function("baseline_heap_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = BaselineHeapQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_nanos(i * 37 % 10_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    // Simulation-shaped traffic: a sliding now-frontier with short
    // scheduling deltas, the pattern the bucket ring is built for.
    c.bench_function("event_queue_sliding_window_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut now = 0u64;
            let mut acc = 0u64;
            for round in 0..10u64 {
                for i in 0..1_000u64 {
                    q.push(SimTime::from_nanos(now + (i * 131) % 25_000), round * 1_000 + i);
                }
                for _ in 0..1_000 {
                    let (t, v) = q.pop().expect("pushed above");
                    now = t.as_nanos();
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_trace_emit(c: &mut Criterion) {
    // The disabled path every untraced run takes at every emit site:
    // must stay at one branch, payload closures never built.
    c.bench_function("trace_emit_disabled_10k", |b| {
        let port = TracePort::off();
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                port.emit(|| {
                    acc = acc.wrapping_add(1);
                    TraceEventKind::MapMiss { lpn: i }
                });
            }
            black_box(acc)
        })
    });
    c.bench_function("trace_emit_enabled_10k", |b| {
        let rec = SharedRecorder::new(TraceConfig::all());
        let port = TracePort::attached(rec, TraceScope::fimm(1, 2));
        b.iter(|| {
            for i in 0..10_000u64 {
                port.emit(|| TraceEventKind::MapMiss { lpn: i });
            }
            black_box(port.is_enabled())
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram_record_10k", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            for i in 0..10_000u64 {
                h.record(i * 997 % 5_000_000);
            }
            black_box(h.percentile(0.99))
        })
    });
}

fn bench_ftl(c: &mut Criterion) {
    let shape = ArrayShape::small_test();
    c.bench_function("ftl_locate_10k", |b| {
        let ftl = Ftl::new(shape);
        let total = shape.total_pages();
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc ^= ftl.locate(LogicalPage(i * 131 % total)).addr.page.block as u64;
            }
            black_box(acc)
        })
    });
    // Locate through live overrides: dense segments where writes
    // clustered, sparse entries where they scattered — the page-map
    // hybrid's two lookup paths, vs the home-mapped arithmetic above.
    c.bench_function("ftl_locate_remapped_10k", |b| {
        let mut ftl = Ftl::new(shape);
        let total = shape.total_pages();
        // A clustered run (dense segments) plus a scattered tail
        // (sparse entries).
        for i in 0..2_000u64 {
            ftl.write_alloc(LogicalPage(i % total), None).unwrap();
        }
        for i in 0..500u64 {
            ftl.write_alloc(LogicalPage((i * 8_191) % total), None).unwrap();
        }
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc ^= ftl.locate(LogicalPage(i * 131 % total)).addr.page.block as u64;
            }
            black_box(acc)
        })
    });
    c.bench_function("ftl_write_alloc_1k", |b| {
        b.iter_batched(
            || Ftl::new(shape),
            |mut ftl| {
                for i in 0..1_000u64 {
                    ftl.write_alloc(LogicalPage(i), None).unwrap();
                }
                black_box(ftl.stats().host_writes)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_flash(c: &mut Criterion) {
    c.bench_function("package_begin_op_1k_reads", |b| {
        b.iter_batched(
            || Package::new(FlashGeometry::default(), FlashTiming::default()),
            |mut pkg| {
                let mut t = SimTime::ZERO;
                for i in 0..1_000u32 {
                    let addr = PageAddr {
                        die: i % 2,
                        plane: i % 2,
                        block: (i % 64) * 2 + i % 2,
                        page: 0,
                    };
                    let op = pkg.begin_op(t, &FlashCommand::read(addr)).unwrap();
                    t = op.start;
                }
                black_box(t)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_hal(c: &mut Criterion) {
    use triplea_fimm::FimmAddr;
    let pages: Vec<FimmAddr> = (0..8)
        .map(|i| FimmAddr {
            package: i % 4,
            page: PageAddr {
                die: (i / 4) % 2,
                plane: i % 2,
                block: i,
                page: 0,
            },
        })
        .collect();
    c.bench_function("hal_compose_8_pages", |b| {
        b.iter(|| black_box(hal::compose(triplea_flash::OpKind::Read, black_box(&pages))))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let cfg = ArrayConfig::small_builder()
        .collect_series(false)
        .build()
        .expect("small test array validates");
    let trace = Microbench::read()
        .hot_clusters(2)
        .requests(2_000)
        .gap_ns(1_400)
        .build(&cfg, 42);
    let mut g = c.benchmark_group("end_to_end_2k_requests");
    g.sample_size(10);
    g.bench_function("non_autonomic", |b| {
        b.iter(|| {
            let r = Array::new(cfg.clone(), ManagementMode::NonAutonomic).run(&trace);
            black_box(r.completed())
        })
    });
    g.bench_function("triple_a", |b| {
        b.iter(|| {
            let r = Array::new(cfg.clone(), ManagementMode::Autonomic).run(&trace);
            black_box(r.completed())
        })
    });
    g.finish();
}

fn bench_new_components(c: &mut Criterion) {
    c.bench_function("zipfian_sample_10k", |b| {
        let z = Zipfian::new(1_000_000, 0.99);
        b.iter(|| {
            let mut rng = SplitMix64::new(11);
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(z.sample(&mut rng));
            }
            black_box(acc)
        })
    });
    c.bench_function("mapping_cache_access_10k", |b| {
        b.iter_batched(
            || MappingCache::new(256),
            |mut cache| {
                let mut rng = SplitMix64::new(12);
                let mut hits = 0u64;
                for _ in 0..10_000 {
                    if cache.access(rng.next_below(1_000_000)) {
                        hits += 1;
                    }
                }
                black_box(hits)
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("hybrid_ftl_write_10k", |b| {
        b.iter_batched(
            || HybridFtl::new(FlashGeometry::default(), 1, 16),
            |mut ftl| {
                for i in 0..10_000u64 {
                    ftl.write((i * 167) % 100_000);
                }
                black_box(ftl.stats().merges)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_trace_emit,
    bench_histogram,
    bench_ftl,
    bench_flash,
    bench_hal,
    bench_new_components,
    bench_end_to_end
);
criterion_main!(benches);
