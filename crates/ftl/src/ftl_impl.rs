//! The flash translation layer proper.

use triplea_sim::FxHashMap;

use triplea_pcie::ClusterId;
use triplea_sim::trace::{TraceEventKind, TracePort, TraceScope};

use crate::alloc::{BlockKey, FimmAllocator};
use crate::error::{FtlError, IntegrityError, RecoveryError};
use crate::journal::{
    Checkpoint, Journal, JournalConfig, JournalRecord, JournalStats, RecoveryOutcome,
};
use crate::map::PageMap;
use crate::mapcache::MappingCache;
use crate::shape::{ArrayShape, LogicalPage, PhysLoc};

/// Counters describing FTL activity; the §6.5 wear-out analysis compares
/// `migration_writes` against `host_writes`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct FtlStats {
    /// Pages written on behalf of hosts.
    pub host_writes: u64,
    /// Pages written by autonomic data migration / layout reshaping.
    pub migration_writes: u64,
    /// Pages rewritten by garbage collection.
    pub gc_writes: u64,
    /// Physical pages invalidated by overwrite, migration, or GC.
    pub invalidations: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
}

/// GC victim-selection policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum GcPolicy {
    /// Most invalid pages first (the classic greedy cleaner; default).
    #[default]
    Greedy,
    /// Benefit/cost cleaning: weigh reclaimed space against copy cost
    /// and favour older (colder) blocks — `invalid/(valid+1) × age`.
    CostBenefit,
    /// Oldest sealed block first, regardless of occupancy.
    Fifo,
}

#[derive(Clone, Debug, Default)]
pub(crate) struct BlockUse {
    programmed: u32,
    lpns: FxHashMap<u32, LogicalPage>,
    /// Monotonic sequence assigned when the block sealed (filled); used
    /// by age-aware GC policies.
    sealed_seq: u64,
}

impl BlockUse {
    fn invalid(&self) -> u32 {
        self.programmed - self.lpns.len() as u32
    }
}

/// One block of a dead module's rebuild manifest (see
/// [`Ftl::rebuild_manifest`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RebuildUnit {
    /// Package the block lives on.
    pub package: u32,
    /// Die within the package.
    pub die: u32,
    /// Die-local block number.
    pub block: u32,
    /// Length of the programmed prefix to restore: the spare must end up
    /// with pages `0..programmed` programmed, in order.
    pub programmed: u32,
    /// Page offsets (sorted) holding live data — these need
    /// reconstruction reads from sibling modules; the rest of the prefix
    /// is filler.
    pub live: Vec<u32>,
}

/// A unit of garbage-collection work: one victim block and the live pages
/// that must be rewritten before it can be erased.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcWork {
    /// Cluster owning the victim block.
    pub cluster: ClusterId,
    /// FIMM owning the victim block.
    pub fimm: u32,
    /// Victim package.
    pub package: u32,
    /// Victim die.
    pub die: u32,
    /// Victim (die-local) block number.
    pub block: u32,
    /// Logical pages still live in the victim at pick time.
    pub valid: Vec<LogicalPage>,
}

/// The array-wide flash translation layer (paper §2.3): address
/// translation, erase-before-write management, allocation, GC, and
/// host-side wear accounting, all centralised in the management module
/// rather than inside per-SSD firmware (§3.1, §6.7).
#[derive(Clone, Debug)]
pub struct Ftl {
    shape: ArrayShape,
    map: PageMap,
    allocs: FxHashMap<(u32, u32), FimmAllocator>,
    blocks: FxHashMap<(u32, u32, BlockKey), BlockUse>,
    /// Demand-paged translation cache; `None` models the full in-DRAM
    /// map of Triple-A's relocated-DRAM design (§6.6).
    mapcache: Option<MappingCache>,
    gc_policy: GcPolicy,
    seal_seq: u64,
    stats: FtlStats,
    /// Metadata journal; `None` models battery-backed (durable) map DRAM
    /// where power loss cannot lose translations.
    journal: Option<Box<Journal>>,
    /// Set while a recovery scan re-drives journaled operations, so the
    /// replayed mutations are not journaled again.
    replaying: bool,
    /// Event-trace sink; detached (free) unless the embedding simulation
    /// calls [`Ftl::attach_trace`].
    trace: TracePort,
}

/// Why a page is being written; selects the stat bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteClass {
    Host,
    Migration,
    Gc,
}

impl Ftl {
    /// Creates an FTL over a pristine array with the full map resident
    /// in DRAM (Triple-A's default; translations are free).
    pub fn new(shape: ArrayShape) -> Self {
        Ftl {
            shape,
            map: PageMap::new(shape),
            allocs: FxHashMap::default(),
            blocks: FxHashMap::default(),
            mapcache: None,
            gc_policy: GcPolicy::Greedy,
            seal_seq: 0,
            stats: FtlStats::default(),
            journal: None,
            replaying: false,
            trace: TracePort::off(),
        }
    }

    /// Connects this FTL to an event recorder; translation-cache misses
    /// and GC victim picks are reported through `port` from then on.
    pub fn attach_trace(&mut self, port: TracePort) {
        self.trace = port;
    }

    /// Selects the GC victim-selection policy (default: greedy).
    pub fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.gc_policy = policy;
    }

    /// The GC policy in force.
    pub fn gc_policy(&self) -> GcPolicy {
        self.gc_policy
    }

    /// Creates an FTL whose translations go through a DFTL-style demand
    /// cache of `translation_pages` pages; misses must be charged a
    /// flash read by the caller (see [`Ftl::map_access`]).
    pub fn with_mapping_cache(shape: ArrayShape, translation_pages: usize) -> Self {
        Ftl {
            mapcache: Some(MappingCache::new(translation_pages)),
            ..Ftl::new(shape)
        }
    }

    /// Touches the translation path for `lpn`: returns `true` when the
    /// mapping was resident (or the full map is in DRAM), `false` when
    /// the caller must charge a translation-page flash read.
    pub fn map_access(&mut self, lpn: LogicalPage) -> bool {
        match &mut self.mapcache {
            None => true,
            Some(c) => {
                let hit = c.access(lpn.0);
                if !hit {
                    self.trace.emit(|| TraceEventKind::MapMiss { lpn: lpn.0 });
                }
                hit
            }
        }
    }

    /// The mapping cache, if one is configured.
    pub fn mapping_cache(&self) -> Option<&MappingCache> {
        self.mapcache.as_ref()
    }

    /// The array shape this FTL manages.
    pub fn shape(&self) -> &ArrayShape {
        &self.shape
    }

    /// The logical→physical map (read-only).
    pub fn page_map(&self) -> &PageMap {
        &self.map
    }

    /// Activity counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Resolves a logical page to its current physical location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range; use [`Ftl::check_lpn`] first for
    /// untrusted input.
    pub fn locate(&self, lpn: LogicalPage) -> PhysLoc {
        self.map.locate(lpn)
    }

    /// Validates a logical page number.
    ///
    /// # Errors
    ///
    /// [`FtlError::AddressOutOfRange`] when `lpn` exceeds the address
    /// space.
    pub fn check_lpn(&self, lpn: LogicalPage) -> Result<(), FtlError> {
        if lpn.0 >= self.shape.total_pages() {
            Err(FtlError::AddressOutOfRange(lpn.0))
        } else {
            Ok(())
        }
    }

    fn allocator(&mut self, cluster: ClusterId, fimm: u32) -> &mut FimmAllocator {
        let key = (self.shape.topology.global_index(cluster), fimm);
        let packages = self.shape.packages_per_fimm;
        let flash = self.shape.flash;
        self.allocs
            .entry(key)
            .or_insert_with(|| FimmAllocator::new(packages, flash))
    }

    fn write_internal(
        &mut self,
        lpn: LogicalPage,
        target: (ClusterId, u32),
        class: WriteClass,
    ) -> Result<PhysLoc, FtlError> {
        self.check_lpn(lpn)?;
        let (cluster, fimm) = target;
        let addr = self
            .allocator(cluster, fimm)
            .alloc()
            .ok_or(FtlError::OutOfSpace { cluster, fimm })?;
        let new_loc = PhysLoc {
            cluster,
            fimm,
            addr,
        };
        let old = self.map.remap(lpn, new_loc);
        self.invalidate(lpn, old);
        let gkey = (
            self.shape.topology.global_index(cluster),
            fimm,
            (addr.package, addr.page.die, addr.page.block),
        );
        let entry = self.blocks.entry(gkey).or_default();
        entry.programmed += 1;
        entry.lpns.insert(addr.page.page, lpn);
        if entry.programmed == self.shape.flash.pages_per_block {
            self.seal_seq += 1;
            entry.sealed_seq = self.seal_seq;
        }
        match class {
            WriteClass::Host => self.stats.host_writes += 1,
            WriteClass::Migration => self.stats.migration_writes += 1,
            WriteClass::Gc => self.stats.gc_writes += 1,
        }
        self.journal_append(JournalRecord::Write {
            lpn,
            cluster,
            fimm,
            class,
            loc: new_loc,
        });
        Ok(new_loc)
    }

    fn invalidate(&mut self, lpn: LogicalPage, old: PhysLoc) {
        let gkey = (
            self.shape.topology.global_index(old.cluster),
            old.fimm,
            (old.addr.package, old.addr.page.die, old.addr.page.block),
        );
        if let Some(b) = self.blocks.get_mut(&gkey) {
            // Only drop the entry when it records *this* LPN: a
            // never-written page's default-layout home can coincide with
            // a physical page the log allocator already handed to a
            // different LPN, and that page must stay live.
            if b.lpns.get(&old.addr.page.page) == Some(&lpn) {
                b.lpns.remove(&old.addr.page.page);
                self.stats.invalidations += 1;
            }
        }
        // If the old location was never physically written (default
        // layout, pre-existing data) there is nothing to invalidate.
    }

    /// Services a host write: allocates a fresh page (log-structured) on
    /// the target FIMM — by default the FIMM currently holding the page —
    /// and remaps the LPN.
    ///
    /// A `Some(target)` override is how Triple-A's storage-contention
    /// manager redirects stalled writes to adjacent FIMMs (§4.2).
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] when the target FIMM needs GC first;
    /// [`FtlError::AddressOutOfRange`] for an invalid LPN.
    pub fn write_alloc(
        &mut self,
        lpn: LogicalPage,
        target: Option<(ClusterId, u32)>,
    ) -> Result<PhysLoc, FtlError> {
        self.check_lpn(lpn)?;
        let t = target.unwrap_or_else(|| {
            let cur = self.map.locate(lpn);
            (cur.cluster, cur.fimm)
        });
        self.write_internal(lpn, t, WriteClass::Host)
    }

    /// Relocates a page as part of autonomic data migration or layout
    /// reshaping, counting the extra write separately for the §6.5
    /// wear-out analysis.
    ///
    /// # Errors
    ///
    /// Same as [`Ftl::write_alloc`].
    pub fn migrate(
        &mut self,
        lpn: LogicalPage,
        to_cluster: ClusterId,
        to_fimm: u32,
    ) -> Result<PhysLoc, FtlError> {
        self.check_lpn(lpn)?;
        self.write_internal(lpn, (to_cluster, to_fimm), WriteClass::Migration)
    }

    /// First half of clone-then-unlink migration (§4.1): allocates and
    /// accounts the clone's destination page *without* remapping the
    /// LPN, so in-flight readers keep using the original copy while the
    /// clone is being programmed.
    ///
    /// Pair with [`Ftl::migrate_commit`] once the program completes.
    ///
    /// # Errors
    ///
    /// Same as [`Ftl::write_alloc`].
    pub fn migrate_prepare(
        &mut self,
        lpn: LogicalPage,
        to_cluster: ClusterId,
        to_fimm: u32,
    ) -> Result<PhysLoc, FtlError> {
        self.check_lpn(lpn)?;
        let addr = self
            .allocator(to_cluster, to_fimm)
            .alloc()
            .ok_or(FtlError::OutOfSpace {
                cluster: to_cluster,
                fimm: to_fimm,
            })?;
        let new_loc = PhysLoc {
            cluster: to_cluster,
            fimm: to_fimm,
            addr,
        };
        let gkey = (
            self.shape.topology.global_index(to_cluster),
            to_fimm,
            (addr.package, addr.page.die, addr.page.block),
        );
        let entry = self.blocks.entry(gkey).or_default();
        entry.programmed += 1;
        entry.lpns.insert(addr.page.page, lpn);
        if entry.programmed == self.shape.flash.pages_per_block {
            self.seal_seq += 1;
            entry.sealed_seq = self.seal_seq;
        }
        self.stats.migration_writes += 1;
        self.journal_append(JournalRecord::Prepare {
            lpn,
            cluster: to_cluster,
            fimm: to_fimm,
            loc: new_loc,
        });
        Ok(new_loc)
    }

    /// Second half of clone-then-unlink migration: atomically remaps the
    /// LPN to the clone and invalidates the original — but only if the
    /// mapping still points at `expected_old` (a host write may have
    /// superseded the data mid-clone). On a stale commit the clone is
    /// invalidated instead and `false` is returned.
    pub fn migrate_commit(
        &mut self,
        lpn: LogicalPage,
        new_loc: PhysLoc,
        expected_old: PhysLoc,
    ) -> bool {
        let committed = if self.map.locate(lpn) != expected_old {
            // The data moved under us; discard the clone.
            self.invalidate(lpn, new_loc);
            false
        } else {
            let old = self.map.remap(lpn, new_loc);
            self.invalidate(lpn, old);
            true
        };
        self.journal_append(JournalRecord::Commit {
            lpn,
            new_loc,
            expected_old,
            committed,
        });
        committed
    }

    /// Rolls back a clone-then-unlink migration whose copy failed
    /// mid-flight: the clone at `new_loc` (from [`Ftl::migrate_prepare`])
    /// is discarded and the LPN keeps whatever mapping it has — readers
    /// never saw the clone, so no data is lost. Returns `false` (and
    /// does nothing) in the pathological case where the clone was already
    /// committed as the live mapping.
    pub fn migrate_abort(&mut self, lpn: LogicalPage, new_loc: PhysLoc) -> bool {
        let ok = if self.map.locate(lpn) == new_loc {
            false
        } else {
            self.invalidate(lpn, new_loc);
            true
        };
        self.journal_append(JournalRecord::Abort { lpn, new_loc, ok });
        ok
    }

    /// Quarantines the block holding `loc` after a hardware program/erase
    /// failure: the allocator will never hand out or recycle it again.
    /// Live pages already in the block stay readable and are moved out by
    /// normal overwrite/GC/migration traffic.
    pub fn quarantine_block(&mut self, loc: PhysLoc) {
        self.allocator(loc.cluster, loc.fimm).quarantine((
            loc.addr.package,
            loc.addr.page.die,
            loc.addr.page.block,
        ));
        self.journal_append(JournalRecord::Quarantine { loc });
    }

    /// End-to-end metadata integrity check; `Err` describes the first
    /// violation found.
    ///
    /// Verifies — with no migration in flight — that (1) no two relocated
    /// LPNs share a physical page, (2) every relocated LPN is recorded
    /// live at exactly its mapped location in the block tables, and (3)
    /// every live block-table entry round-trips through the map. Together
    /// these prove no page was lost or duplicated by writes, GC,
    /// migration, or fault rollback.
    pub fn verify_integrity(&self) -> Result<(), IntegrityError> {
        let mut seen: FxHashMap<PhysLoc, LogicalPage> = FxHashMap::default();
        for (lpn, loc) in self.map.remapped_entries() {
            if !self.shape.contains(loc) {
                return Err(IntegrityError::OutOfRange { lpn, loc });
            }
            if let Some(prev) = seen.insert(loc, lpn) {
                return Err(IntegrityError::DoubleMapped {
                    loc,
                    first: prev,
                    second: lpn,
                });
            }
            let gkey = (
                self.shape.topology.global_index(loc.cluster),
                loc.fimm,
                (loc.addr.package, loc.addr.page.die, loc.addr.page.block),
            );
            let listed = self
                .blocks
                .get(&gkey)
                .and_then(|b| b.lpns.get(&loc.addr.page.page));
            if listed != Some(&lpn) {
                return Err(IntegrityError::LostPage {
                    lpn,
                    loc,
                    listed: listed.copied(),
                });
            }
        }
        for ((c, f, key), b) in &self.blocks {
            for (&pg, &lpn) in &b.lpns {
                let loc = self.map.locate(lpn);
                let here = (
                    self.shape.topology.global_index(loc.cluster),
                    loc.fimm,
                    (loc.addr.package, loc.addr.page.die, loc.addr.page.block),
                );
                if here != (*c, *f, *key) || loc.addr.page.page != pg {
                    return Err(IntegrityError::StaleBlockEntry {
                        lpn,
                        cluster: *c,
                        fimm: *f,
                        package: key.0,
                        die: key.1,
                        block: key.2,
                        page: pg,
                        map_loc: loc,
                    });
                }
            }
        }
        Ok(())
    }

    /// Finalises a GC unit whose erase hard-failed: the victim is dropped
    /// from the block table and quarantined rather than recycled — a
    /// grown bad block permanently costs its capacity. The live pages
    /// were already rewritten before the erase was attempted, so nothing
    /// is lost.
    pub fn gc_finish_failed(&mut self, work: &GcWork) {
        let gc = self.shape.topology.global_index(work.cluster);
        let key = (work.package, work.die, work.block);
        self.blocks.remove(&(gc, work.fimm, key));
        self.allocator(work.cluster, work.fimm).quarantine(key);
        self.journal_append(JournalRecord::GcFinish {
            cluster: work.cluster,
            fimm: work.fimm,
            package: work.package,
            die: work.die,
            block: work.block,
            ok: false,
        });
    }

    /// `true` when the FIMM's free-block pool has shrunk below
    /// `threshold` blocks and GC should run.
    pub fn needs_gc(&mut self, cluster: ClusterId, fimm: u32, threshold: u64) -> bool {
        self.allocator(cluster, fimm).free_blocks() < threshold
    }

    /// Picks the best GC victim on a FIMM according to the configured
    /// [`GcPolicy`], among fully-programmed blocks with reclaimable
    /// space. Returns `None` when nothing is reclaimable.
    pub fn gc_pick(&self, cluster: ClusterId, fimm: u32) -> Option<GcWork> {
        let gc = self.shape.topology.global_index(cluster);
        let pages = self.shape.flash.pages_per_block;
        let score = |b: &BlockUse| -> u64 {
            let invalid = b.invalid() as u64;
            match self.gc_policy {
                GcPolicy::Greedy => invalid,
                GcPolicy::CostBenefit => {
                    // benefit/cost x age: reclaimed space per copied page,
                    // scaled by how long ago the block sealed (older
                    // blocks are colder and safer to clean).
                    let valid = b.lpns.len() as u64;
                    let age = self.seal_seq.saturating_sub(b.sealed_seq) + 1;
                    invalid * 1_000 / (valid + 1) * age
                }
                GcPolicy::Fifo => u64::MAX - b.sealed_seq,
            }
        };
        self.blocks
            .iter()
            .filter(|((c, f, _), b)| *c == gc && *f == fimm && b.programmed == pages)
            .filter(|(_, b)| b.invalid() > 0)
            // Tie-break on the block key: HashMap iteration order is not
            // deterministic across processes, and replay determinism is a
            // contract of the whole simulator.
            .max_by_key(|((_, _, key), b)| (score(b), std::cmp::Reverse(*key)))
            .map(|((_, _, key), b)| {
                let mut live: Vec<(u32, LogicalPage)> =
                    b.lpns.iter().map(|(&pg, &l)| (pg, l)).collect();
                live.sort_unstable_by_key(|&(pg, _)| pg);
                let work = GcWork {
                    cluster,
                    fimm,
                    package: key.0,
                    die: key.1,
                    block: key.2,
                    valid: live.into_iter().map(|(_, l)| l).collect(),
                };
                self.trace
                    .with_scope(TraceScope::fimm(gc, fimm))
                    .emit(|| TraceEventKind::GcRun {
                        valid_pages: work.valid.len() as u32,
                    });
                work
            })
    }

    /// Computes the device-restoration manifest for one FIMM: every
    /// block the FTL believes holds programmed pages, with the length of
    /// its programmed prefix and the page offsets that are still live.
    ///
    /// A hot-spare rebuild replays exactly this onto the replacement
    /// module. The full prefix — stale pages included — must be
    /// re-programmed because NAND programs are strictly in-order within
    /// a block and the allocator will hand out page `programmed` next;
    /// only the live offsets need reconstruction reads from siblings.
    /// Units are sorted by `(package, die, block)` for deterministic
    /// replay.
    pub fn rebuild_manifest(&self, cluster: ClusterId, fimm: u32) -> Vec<RebuildUnit> {
        let g = self.shape.topology.global_index(cluster);
        let mut units: Vec<RebuildUnit> = self
            .blocks
            .iter()
            .filter(|((c, f, _), b)| *c == g && *f == fimm && b.programmed > 0)
            .map(|((_, _, key), b)| {
                let mut live: Vec<u32> = b.lpns.keys().copied().collect();
                live.sort_unstable();
                RebuildUnit {
                    package: key.0,
                    die: key.1,
                    block: key.2,
                    programmed: b.programmed,
                    live,
                }
            })
            .collect();
        units.sort_unstable_by_key(|u| (u.package, u.die, u.block));
        units
    }

    /// Rewrites one live page out of a GC victim. Returns `Ok(None)` if
    /// the page has moved since the victim was picked (stale work).
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if the FIMM cannot absorb the rewrite.
    pub fn gc_rewrite(
        &mut self,
        lpn: LogicalPage,
        work: &GcWork,
    ) -> Result<Option<PhysLoc>, FtlError> {
        let cur = self.map.locate(lpn);
        let still_in_victim = cur.cluster == work.cluster
            && cur.fimm == work.fimm
            && cur.addr.package == work.package
            && cur.addr.page.die == work.die
            && cur.addr.page.block == work.block;
        if !still_in_victim {
            return Ok(None);
        }
        self.write_internal(lpn, (work.cluster, work.fimm), WriteClass::Gc)
            .map(Some)
    }

    /// Finalises a GC unit after its live pages were rewritten: recycles
    /// the erased block into the allocator's free pool.
    pub fn gc_finish(&mut self, work: &GcWork) {
        let gc = self.shape.topology.global_index(work.cluster);
        let key = (work.package, work.die, work.block);
        self.blocks.remove(&(gc, work.fimm, key));
        self.allocator(work.cluster, work.fimm).recycle(key);
        self.stats.gc_erases += 1;
        self.journal_append(JournalRecord::GcFinish {
            cluster: work.cluster,
            fimm: work.fimm,
            package: work.package,
            die: work.die,
            block: work.block,
            ok: true,
        });
    }

    /// Host-side total erase count performed via GC on one FIMM.
    pub fn fimm_free_blocks(&mut self, cluster: ClusterId, fimm: u32) -> u64 {
        self.allocator(cluster, fimm).free_blocks()
    }

    /// A deep copy of the durable translation state, used as a journal
    /// checkpoint.
    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            map: self.map.clone(),
            allocs: self.allocs.clone(),
            blocks: self.blocks.clone(),
            seal_seq: self.seal_seq,
            stats: self.stats,
        }
    }

    /// Turns on metadata journaling with the given durability cadence,
    /// taking an initial checkpoint of the current state. Without a
    /// journal, [`Ftl::power_loss`] treats the whole map as durable
    /// (battery-backed DRAM).
    pub fn enable_journal(&mut self, cfg: JournalConfig) {
        self.journal = Some(Box::new(Journal::new(cfg, self.snapshot())));
    }

    /// Journal activity counters; `None` when journaling is off.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|j| j.stats)
    }

    /// Journal records not yet made durable by a group commit — exactly
    /// what the next power cut would lose.
    pub fn journal_unflushed(&self) -> u64 {
        self.journal
            .as_ref()
            .map_or(0, |j| (j.records.len() - j.flushed) as u64)
    }

    /// Appends a mutation record (no-op when journaling is off or while
    /// a recovery scan is re-driving journaled operations), flushing and
    /// checkpointing per the configured cadence.
    fn journal_append(&mut self, rec: JournalRecord) {
        if self.replaying {
            return;
        }
        let needs_checkpoint = match self.journal.as_mut() {
            None => return,
            Some(j) => j.append(rec),
        };
        if needs_checkpoint {
            let snap = self.snapshot();
            if let Some(j) = self.journal.as_mut() {
                j.install_checkpoint(snap);
                let records = j.stats.appended;
                self.trace
                    .emit(|| TraceEventKind::JournalCheckpoint { records });
            }
        }
    }

    /// Simulates losing power: all volatile metadata is discarded and
    /// the mount-time recovery scan runs.
    ///
    /// The mapping cache (if any) restarts cold. With journaling on, the
    /// translation state rewinds to the last checkpoint, flushed journal
    /// records are replayed in order (each cross-checked against the
    /// physical location the original execution recorded), un-flushed
    /// records are dropped, and migration clones caught mid-flight are
    /// rolled back; the scan closes with a fresh checkpoint. Without a
    /// journal the map is modelled as durable and nothing is lost.
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] when replay cannot reproduce the journaled
    /// outcome — the metadata has diverged and must not be trusted.
    pub fn power_loss(&mut self) -> Result<RecoveryOutcome, RecoveryError> {
        if let Some(c) = &self.mapcache {
            // The translation cache lives in volatile DRAM.
            self.mapcache = Some(MappingCache::new(c.capacity()));
        }
        let Some(mut j) = self.journal.take() else {
            return Ok(RecoveryOutcome::default());
        };
        let dropped = (j.records.len() - j.flushed) as u64;
        j.records.truncate(j.flushed);

        // Rewind to the checkpoint.
        self.map = j.checkpoint.map.clone();
        self.allocs = j.checkpoint.allocs.clone();
        self.blocks = j.checkpoint.blocks.clone();
        self.seal_seq = j.checkpoint.seal_seq;
        self.stats = j.checkpoint.stats;

        // Replay the durable journal, tracking clones still in flight.
        self.replaying = true;
        let mut outstanding: Vec<(LogicalPage, PhysLoc)> = Vec::new();
        let result = self.replay(&j.records, &mut outstanding);
        let replayed = match result {
            Ok(n) => n,
            Err(e) => {
                self.replaying = false;
                self.journal = Some(j);
                return Err(e);
            }
        };

        // A prepared clone whose commit/abort never became durable is
        // rolled back, exactly like an aborted migration.
        let aborted_clones = outstanding.len() as u64;
        for (lpn, loc) in outstanding {
            self.migrate_abort(lpn, loc);
        }
        self.replaying = false;

        // The recovery scan ends with a durable checkpoint.
        j.install_checkpoint(self.snapshot());
        j.stats.replayed += replayed;
        j.stats.dropped += dropped;
        j.stats.power_losses += 1;
        self.journal = Some(j);
        self.trace
            .emit(|| TraceEventKind::JournalReplay { replayed, dropped });
        Ok(RecoveryOutcome {
            replayed,
            dropped,
            aborted_clones,
        })
    }

    /// Re-drives `records` in order against the restored checkpoint,
    /// cross-checking each outcome. Deterministic allocation guarantees
    /// replay lands every page exactly where the original run did.
    fn replay(
        &mut self,
        records: &[JournalRecord],
        outstanding: &mut Vec<(LogicalPage, PhysLoc)>,
    ) -> Result<u64, RecoveryError> {
        for (i, rec) in records.iter().enumerate() {
            let index = i as u64;
            match *rec {
                JournalRecord::Write {
                    lpn,
                    cluster,
                    fimm,
                    class,
                    loc,
                } => {
                    let got = self
                        .write_internal(lpn, (cluster, fimm), class)
                        .map_err(|error| RecoveryError::Replay { index, error })?;
                    if got != loc {
                        return Err(RecoveryError::Diverged { index, lpn });
                    }
                }
                JournalRecord::Prepare {
                    lpn,
                    cluster,
                    fimm,
                    loc,
                } => {
                    let got = self
                        .migrate_prepare(lpn, cluster, fimm)
                        .map_err(|error| RecoveryError::Replay { index, error })?;
                    if got != loc {
                        return Err(RecoveryError::Diverged { index, lpn });
                    }
                    outstanding.push((lpn, loc));
                }
                JournalRecord::Commit {
                    lpn,
                    new_loc,
                    expected_old,
                    committed,
                } => {
                    if self.migrate_commit(lpn, new_loc, expected_old) != committed {
                        return Err(RecoveryError::Diverged { index, lpn });
                    }
                    outstanding.retain(|&(l, loc)| (l, loc) != (lpn, new_loc));
                }
                JournalRecord::Abort { lpn, new_loc, ok } => {
                    if self.migrate_abort(lpn, new_loc) != ok {
                        return Err(RecoveryError::Diverged { index, lpn });
                    }
                    outstanding.retain(|&(l, loc)| (l, loc) != (lpn, new_loc));
                }
                JournalRecord::Quarantine { loc } => self.quarantine_block(loc),
                JournalRecord::GcFinish {
                    cluster,
                    fimm,
                    package,
                    die,
                    block,
                    ok,
                } => {
                    let work = GcWork {
                        cluster,
                        fimm,
                        package,
                        die,
                        block,
                        valid: Vec::new(),
                    };
                    if ok {
                        self.gc_finish(&work);
                    } else {
                        self.gc_finish_failed(&work);
                    }
                }
            }
        }
        Ok(records.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> Ftl {
        Ftl::new(ArrayShape::small_test())
    }

    #[test]
    fn write_stays_on_home_fimm_by_default() {
        let mut f = ftl();
        let lpn = LogicalPage(4242);
        let home = f.locate(lpn);
        let new = f.write_alloc(lpn, None).unwrap();
        assert_eq!(new.cluster, home.cluster);
        assert_eq!(new.fimm, home.fimm);
        assert_eq!(f.locate(lpn), new);
        assert_eq!(f.stats().host_writes, 1);
    }

    #[test]
    fn redirected_write_lands_on_target() {
        let mut f = ftl();
        let lpn = LogicalPage(10);
        let home = f.locate(lpn);
        let other_fimm = (home.fimm + 1) % f.shape().fimms_per_cluster;
        let new = f
            .write_alloc(lpn, Some((home.cluster, other_fimm)))
            .unwrap();
        assert_eq!(new.fimm, other_fimm);
        assert_eq!(f.locate(lpn), new);
    }

    #[test]
    fn overwrite_invalidates_previous_page() {
        let mut f = ftl();
        let lpn = LogicalPage(77);
        f.write_alloc(lpn, None).unwrap();
        f.write_alloc(lpn, None).unwrap();
        assert_eq!(f.stats().invalidations, 1);
        assert_eq!(f.stats().host_writes, 2);
    }

    #[test]
    fn migrate_counts_separately() {
        let mut f = ftl();
        let lpn = LogicalPage(5);
        let home = f.locate(lpn);
        let target = ClusterId {
            switch: home.cluster.switch,
            index: (home.cluster.index + 1) % f.shape().topology.clusters_per_switch,
        };
        let new = f.migrate(lpn, target, 0).unwrap();
        assert_eq!(new.cluster, target);
        assert_eq!(f.stats().migration_writes, 1);
        assert_eq!(f.stats().host_writes, 0);
        assert!(f.page_map().is_remapped(lpn));
    }

    #[test]
    fn out_of_range_lpn_rejected() {
        let mut f = ftl();
        let bad = LogicalPage(f.shape().total_pages());
        assert_eq!(
            f.write_alloc(bad, None),
            Err(FtlError::AddressOutOfRange(bad.0))
        );
        assert!(f.check_lpn(LogicalPage(0)).is_ok());
    }

    #[test]
    fn gc_cycle_reclaims_space() {
        let mut f = ftl();
        let home = f.locate(LogicalPage(0));
        // Overwrite one LPN until every write stream has filled (and
        // closed) at least one block full of mostly-invalid pages.
        let g = f.shape().flash;
        let streams = (f.shape().packages_per_fimm * g.dies * g.planes) as u64;
        for _ in 0..(g.pages_per_block as u64 * streams) {
            f.write_alloc(LogicalPage(0), None).unwrap();
        }
        // There must now exist a fully-programmed block with invalid pages
        // on the home fimm of lpn 0.
        let work = f.gc_pick(home.cluster, home.fimm);
        if let Some(work) = work {
            let before = f.fimm_free_blocks(work.cluster, work.fimm);
            let valid = work.valid.clone();
            for lpn in valid {
                f.gc_rewrite(lpn, &work).unwrap();
            }
            f.gc_finish(&work);
            assert_eq!(f.stats().gc_erases, 1);
            assert!(f.fimm_free_blocks(work.cluster, work.fimm) > before);
        } else {
            panic!("expected a GC victim after heavy overwrites");
        }
    }

    #[test]
    fn gc_rewrite_skips_stale_pages() {
        let mut f = ftl();
        let lpn = LogicalPage(0);
        let home = f.locate(lpn);
        let work = GcWork {
            cluster: home.cluster,
            fimm: home.fimm,
            package: 99, // not where the page lives
            die: 0,
            block: 0,
            valid: vec![lpn],
        };
        assert_eq!(f.gc_rewrite(lpn, &work), Ok(None));
    }

    #[test]
    fn migrate_prepare_keeps_old_mapping_until_commit() {
        let mut f = ftl();
        let lpn = LogicalPage(11);
        let old = f.locate(lpn);
        let target = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape().topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, target, 1).unwrap();
        assert_eq!(f.locate(lpn), old, "readers still see the original");
        assert_eq!(f.stats().migration_writes, 1);
        assert!(f.migrate_commit(lpn, clone, old));
        assert_eq!(f.locate(lpn), clone, "commit unlinks the original");
    }

    #[test]
    fn stale_migrate_commit_discards_clone() {
        let mut f = ftl();
        let lpn = LogicalPage(3);
        let old = f.locate(lpn);
        let target = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape().topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, target, 0).unwrap();
        // A host write supersedes the data mid-clone.
        let newer = f.write_alloc(lpn, None).unwrap();
        assert!(!f.migrate_commit(lpn, clone, old));
        assert_eq!(f.locate(lpn), newer, "newer data wins");
        // The discarded clone counts as an invalidation.
        assert!(f.stats().invalidations >= 1);
    }

    #[test]
    fn migrate_abort_discards_clone_and_keeps_original() {
        let mut f = ftl();
        let lpn = LogicalPage(11);
        let old = f.locate(lpn);
        let target = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape().topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, target, 1).unwrap();
        assert!(f.migrate_abort(lpn, clone), "abort succeeds mid-flight");
        assert_eq!(f.locate(lpn), old, "original mapping survives");
        assert_eq!(f.stats().invalidations, 1, "clone page invalidated");
        f.verify_integrity()
            .expect("abort leaves metadata consistent");
        // A later write works normally.
        f.write_alloc(lpn, None).unwrap();
        f.verify_integrity().unwrap();
    }

    #[test]
    fn migrate_abort_refuses_after_commit() {
        let mut f = ftl();
        let lpn = LogicalPage(8);
        let old = f.locate(lpn);
        let target = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape().topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, target, 0).unwrap();
        assert!(f.migrate_commit(lpn, clone, old));
        assert!(!f.migrate_abort(lpn, clone), "committed clone is the data");
        assert_eq!(f.locate(lpn), clone);
        f.verify_integrity().unwrap();
    }

    #[test]
    fn verify_integrity_detects_lost_page() {
        let mut f = ftl();
        let lpn = LogicalPage(21);
        let loc = f.write_alloc(lpn, None).unwrap();
        f.verify_integrity().unwrap();
        // Simulate a buggy rollback that invalidates the live mapping.
        f.invalidate(lpn, loc);
        let err = f.verify_integrity().unwrap_err();
        assert!(
            matches!(err, IntegrityError::LostPage { lpn: l, .. } if l == lpn),
            "{err}"
        );
        assert!(err.to_string().contains("block table records"), "{err}");
    }

    #[test]
    fn gc_finish_failed_quarantines_instead_of_recycling() {
        let mut f = ftl();
        let home = f.locate(LogicalPage(0));
        let g = f.shape().flash;
        let streams = (f.shape().packages_per_fimm * g.dies * g.planes) as u64;
        for _ in 0..(g.pages_per_block as u64 * streams) {
            f.write_alloc(LogicalPage(0), None).unwrap();
        }
        let work = f.gc_pick(home.cluster, home.fimm).expect("victim exists");
        for lpn in work.valid.clone() {
            f.gc_rewrite(lpn, &work).unwrap();
        }
        let before = f.fimm_free_blocks(work.cluster, work.fimm);
        f.gc_finish_failed(&work);
        assert_eq!(
            f.fimm_free_blocks(work.cluster, work.fimm),
            before,
            "failed erase returns nothing to the pool"
        );
        assert_eq!(f.stats().gc_erases, 0);
        let key = (f.shape().topology.global_index(work.cluster), work.fimm);
        assert_eq!(f.allocs[&key].retired_blocks(), 1);
        f.verify_integrity().unwrap();
        // The quarantined block is never handed out again: drain the
        // FIMM and check the bad block's pages never reappear.
        let bad = (work.package, work.die, work.block);
        while let Ok(loc) = f.write_alloc(LogicalPage(1), Some((work.cluster, work.fimm))) {
            assert_ne!(
                (loc.addr.package, loc.addr.page.die, loc.addr.page.block),
                bad,
                "quarantined block re-issued"
            );
        }
    }

    #[test]
    fn full_dram_map_never_misses() {
        let mut f = ftl();
        for i in 0..100 {
            assert!(f.map_access(LogicalPage(i * 9_999)));
        }
        assert!(f.mapping_cache().is_none());
    }

    #[test]
    fn mapping_cache_misses_on_cold_pages() {
        let mut f = Ftl::with_mapping_cache(ArrayShape::small_test(), 2);
        assert!(!f.map_access(LogicalPage(0)), "cold miss");
        assert!(f.map_access(LogicalPage(1)), "same translation page");
        let c = f.mapping_cache().unwrap();
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn gc_policies_pick_sensible_victims() {
        // Build two sealed blocks: one old with few invalid pages, one
        // fresh with many. Greedy prefers the fresh/most-invalid block;
        // FIFO prefers the oldest.
        let mut f = ftl();
        let g = f.shape().flash;
        let streams = (f.shape().packages_per_fimm * g.dies * g.planes) as u64;
        // Round 1: seal one block per stream by writing a working set.
        for i in 0..(g.pages_per_block as u64 * streams) {
            f.write_alloc(LogicalPage(i * 2 % 512), None).unwrap();
        }
        let home = f.locate(LogicalPage(0));
        let greedy = {
            f.set_gc_policy(GcPolicy::Greedy);
            f.gc_pick(home.cluster, home.fimm).expect("victim exists")
        };
        f.set_gc_policy(GcPolicy::Fifo);
        let fifo = f.gc_pick(home.cluster, home.fimm).expect("victim exists");
        f.set_gc_policy(GcPolicy::CostBenefit);
        let cb = f.gc_pick(home.cluster, home.fimm).expect("victim exists");
        // All valid picks; FIFO picks the earliest-sealed block.
        for w in [&greedy, &fifo, &cb] {
            assert_eq!(w.cluster, home.cluster);
        }
        assert_eq!(f.gc_policy(), GcPolicy::CostBenefit);
    }

    #[test]
    fn needs_gc_threshold() {
        let mut f = ftl();
        let c = ClusterId::default();
        assert!(!f.needs_gc(c, 0, 1));
        let total = f.fimm_free_blocks(c, 0);
        assert!(f.needs_gc(c, 0, total + 1));
    }

    use crate::journal::JournalConfig;

    /// flush_every=1 makes every record durable immediately.
    fn eager_journal() -> JournalConfig {
        JournalConfig {
            flush_every: 1,
            checkpoint_every: 1_000_000,
        }
    }

    #[test]
    fn power_loss_without_journal_is_durable() {
        let mut f = ftl();
        let lpn = LogicalPage(9);
        let loc = f.write_alloc(lpn, None).unwrap();
        let out = f.power_loss().unwrap();
        assert_eq!(out, crate::journal::RecoveryOutcome::default());
        assert_eq!(f.locate(lpn), loc, "battery-backed map survives");
        f.verify_integrity().unwrap();
    }

    #[test]
    fn journal_replay_reconstructs_flushed_state() {
        let mut f = ftl();
        f.enable_journal(eager_journal());
        let lpns: Vec<LogicalPage> = (0..40).map(|i| LogicalPage(i * 13)).collect();
        for &l in &lpns {
            f.write_alloc(l, None).unwrap();
        }
        // A committed clone-then-unlink migration, too.
        let mover = lpns[3];
        let old = f.locate(mover);
        let dst = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape().topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(mover, dst, 0).unwrap();
        assert!(f.migrate_commit(mover, clone, old));
        let before: Vec<PhysLoc> = lpns.iter().map(|&l| f.locate(l)).collect();
        let stats_before = f.stats();

        let out = f.power_loss().unwrap();
        assert!(out.replayed > 0);
        assert_eq!(out.dropped, 0, "eager flush loses nothing");
        assert_eq!(out.aborted_clones, 0);
        for (l, want) in lpns.iter().zip(&before) {
            assert_eq!(f.locate(*l), *want, "lpn {} survives the cut", l.0);
        }
        assert_eq!(f.stats(), stats_before);
        f.verify_integrity().unwrap();
        let js = f.journal_stats().unwrap();
        assert_eq!(js.power_losses, 1);
        assert_eq!(js.replayed, out.replayed);
    }

    #[test]
    fn power_loss_drops_unflushed_tail() {
        let mut f = ftl();
        f.enable_journal(JournalConfig {
            flush_every: 1_000_000, // nothing ever group-commits
            checkpoint_every: 1_000_000,
        });
        let lpn = LogicalPage(123);
        let home = f.locate(lpn);
        f.write_alloc(lpn, None).unwrap();
        assert_eq!(f.journal_unflushed(), 1);
        let out = f.power_loss().unwrap();
        assert_eq!(out.dropped, 1);
        assert_eq!(out.replayed, 0);
        assert_eq!(f.locate(lpn), home, "un-flushed write rewound");
        assert_eq!(f.stats().host_writes, 0, "stats rewound with the state");
        f.verify_integrity().unwrap();
    }

    #[test]
    fn dangling_prepared_clone_rolled_back_on_recovery() {
        let mut f = ftl();
        f.enable_journal(eager_journal());
        let lpn = LogicalPage(5);
        let old = f.locate(lpn);
        let dst = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape().topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, dst, 0).unwrap();
        // Power cut lands between prepare and commit.
        let out = f.power_loss().unwrap();
        assert_eq!(out.aborted_clones, 1);
        assert_eq!(f.locate(lpn), old, "readers never saw the clone");
        assert_ne!(f.locate(lpn), clone);
        f.verify_integrity()
            .expect("recovery scan aborts mid-flight clones");
    }

    #[test]
    fn checkpoint_cadence_truncates_journal() {
        let mut f = ftl();
        f.enable_journal(JournalConfig {
            flush_every: 1,
            checkpoint_every: 8,
        });
        for i in 0..50 {
            f.write_alloc(LogicalPage(i), None).unwrap();
        }
        let js = f.journal_stats().unwrap();
        assert!(js.checkpoints >= 5, "checkpoints: {}", js.checkpoints);
        let before: Vec<PhysLoc> = (0..50).map(|i| f.locate(LogicalPage(i))).collect();
        let out = f.power_loss().unwrap();
        assert!(
            out.replayed < 50,
            "checkpoints bound the replay: {}",
            out.replayed
        );
        for (i, want) in before.iter().enumerate() {
            assert_eq!(f.locate(LogicalPage(i as u64)), *want);
        }
        f.verify_integrity().unwrap();
    }

    #[test]
    fn recovery_survives_gc_and_quarantine_records() {
        let mut f = ftl();
        f.enable_journal(eager_journal());
        let home = f.locate(LogicalPage(0));
        let g = f.shape().flash;
        let streams = (f.shape().packages_per_fimm * g.dies * g.planes) as u64;
        for _ in 0..(g.pages_per_block as u64 * streams) {
            f.write_alloc(LogicalPage(0), None).unwrap();
        }
        let work = f.gc_pick(home.cluster, home.fimm).expect("victim exists");
        for lpn in work.valid.clone() {
            f.gc_rewrite(lpn, &work).unwrap();
        }
        f.gc_finish(&work);
        f.quarantine_block(f.locate(LogicalPage(0)));
        let want = f.locate(LogicalPage(0));
        let erases = f.stats().gc_erases;
        f.power_loss().unwrap();
        assert_eq!(f.locate(LogicalPage(0)), want);
        assert_eq!(f.stats().gc_erases, erases);
        f.verify_integrity().unwrap();
    }
}
