//! Journaled FTL metadata: power-loss consistency for the host-side map.
//!
//! Triple-A keeps the entire translation map in the management module's
//! DRAM (§6.6) — volatile memory. A real array must survive losing that
//! DRAM at an arbitrary instant, so the FTL can run with a *metadata
//! journal*: an ordered log of every logical mutation (writes, clone
//! prepare/commit/abort, quarantines, GC block retirements) since the
//! last durable **checkpoint** of the full translation state.
//!
//! The model mirrors a group-committed journal device:
//!
//! * every mutation appends one [`JournalRecord`];
//! * records become durable in batches — once `flush_every` records
//!   accumulate past the flush watermark, the batch is flushed;
//! * once `checkpoint_every` flushed records accumulate, the FTL takes a
//!   fresh checkpoint (a deep copy of the map, allocators, and block
//!   tables) and truncates the journal.
//!
//! On power loss ([`Ftl::power_loss`](crate::Ftl::power_loss)) everything
//! volatile is discarded: un-flushed journal records are lost, and the
//! mapping cache (if any) restarts cold. The mount-time recovery scan
//! restores the checkpoint and *replays* the flushed records in order by
//! re-driving the same FTL operations. Because allocation is fully
//! deterministic, replay reproduces the exact pre-crash metadata; each
//! record carries the physical location the original operation produced,
//! so replay doubles as a self-check — any divergence surfaces as a typed
//! [`RecoveryError`](crate::RecoveryError) instead of silent corruption.
//! Clone-then-unlink migrations caught mid-flight (a prepared clone whose
//! commit/abort never flushed) are rolled back during the scan, exactly
//! like an aborted migration, so `verify_integrity` holds afterwards.

use triplea_pcie::ClusterId;
use triplea_sim::FxHashMap;

use crate::alloc::{BlockKey, FimmAllocator};
use crate::ftl_impl::{BlockUse, FtlStats, WriteClass};
use crate::map::PageMap;
use crate::shape::{LogicalPage, PhysLoc};

/// Durability cadence of the metadata journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Records per group commit: a batch of this many records past the
    /// flush watermark becomes durable at once. Values below 1 are
    /// treated as 1 (flush every record).
    pub flush_every: u32,
    /// Flushed records that trigger a fresh checkpoint (deep copy of the
    /// translation state) and journal truncation. Values below 1 are
    /// treated as 1.
    pub checkpoint_every: u32,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            flush_every: 8,
            checkpoint_every: 4_096,
        }
    }
}

/// Counters describing journal activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct JournalStats {
    /// Records appended over the journal's lifetime.
    pub appended: u64,
    /// Group commits performed.
    pub flushes: u64,
    /// Checkpoints taken (excluding the one implicit in enabling the
    /// journal, including the one closing each recovery scan).
    pub checkpoints: u64,
    /// Records replayed by mount-time recovery scans.
    pub replayed: u64,
    /// Un-flushed records lost to power cuts.
    pub dropped: u64,
    /// Power-loss events survived.
    pub power_losses: u64,
}

/// What a mount-time recovery scan did; returned by
/// [`Ftl::power_loss`](crate::Ftl::power_loss).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Flushed journal records replayed onto the checkpoint.
    pub replayed: u64,
    /// Un-flushed records discarded with the volatile state.
    pub dropped: u64,
    /// Mid-flight migration clones rolled back by the scan (prepared but
    /// never committed or aborted before the cut).
    pub aborted_clones: u64,
}

/// One logical metadata mutation, with the physical outcome the original
/// execution produced (replay re-derives and cross-checks it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JournalRecord {
    /// A page write: host, migration (one-shot), or GC rewrite.
    Write {
        lpn: LogicalPage,
        cluster: ClusterId,
        fimm: u32,
        class: WriteClass,
        loc: PhysLoc,
    },
    /// First half of clone-then-unlink migration.
    Prepare {
        lpn: LogicalPage,
        cluster: ClusterId,
        fimm: u32,
        loc: PhysLoc,
    },
    /// Second half: unlink the original (or discard a stale clone).
    Commit {
        lpn: LogicalPage,
        new_loc: PhysLoc,
        expected_old: PhysLoc,
        committed: bool,
    },
    /// Mid-flight rollback of a prepared clone.
    Abort {
        lpn: LogicalPage,
        new_loc: PhysLoc,
        ok: bool,
    },
    /// Grown-bad-block quarantine after a program/erase failure.
    Quarantine { loc: PhysLoc },
    /// GC victim finalisation: `ok` recycled the block, `!ok` retired it
    /// after a failed erase.
    GcFinish {
        cluster: ClusterId,
        fimm: u32,
        package: u32,
        die: u32,
        block: u32,
        ok: bool,
    },
}

/// A deep copy of the FTL's durable translation state.
#[derive(Clone, Debug)]
pub(crate) struct Checkpoint {
    pub(crate) map: PageMap,
    pub(crate) allocs: FxHashMap<(u32, u32), FimmAllocator>,
    pub(crate) blocks: FxHashMap<(u32, u32, BlockKey), BlockUse>,
    pub(crate) seal_seq: u64,
    pub(crate) stats: FtlStats,
}

/// The journal proper: last checkpoint + ordered records since.
#[derive(Clone, Debug)]
pub(crate) struct Journal {
    pub(crate) cfg: JournalConfig,
    pub(crate) checkpoint: Checkpoint,
    pub(crate) records: Vec<JournalRecord>,
    /// Records `[..flushed]` are durable; the tail is volatile.
    pub(crate) flushed: usize,
    pub(crate) stats: JournalStats,
}

impl Journal {
    pub(crate) fn new(cfg: JournalConfig, checkpoint: Checkpoint) -> Self {
        Journal {
            cfg,
            checkpoint,
            records: Vec::new(),
            flushed: 0,
            stats: JournalStats::default(),
        }
    }

    /// Appends a record and applies the group-commit flush cadence.
    /// Returns `true` when the flushed prefix has grown large enough
    /// that the owner should take a checkpoint.
    pub(crate) fn append(&mut self, rec: JournalRecord) -> bool {
        self.records.push(rec);
        self.stats.appended += 1;
        let flush_every = self.cfg.flush_every.max(1) as usize;
        if self.records.len() - self.flushed >= flush_every {
            self.flushed = self.records.len();
            self.stats.flushes += 1;
        }
        self.flushed >= self.cfg.checkpoint_every.max(1) as usize
    }

    /// Installs a fresh checkpoint and truncates the journal.
    pub(crate) fn install_checkpoint(&mut self, checkpoint: Checkpoint) {
        self.checkpoint = checkpoint;
        self.records.clear();
        self.flushed = 0;
        self.stats.checkpoints += 1;
    }
}
