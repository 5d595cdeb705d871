//! Host-side flash software for Triple-A (paper §2.3).
//!
//! The paper's key architectural move is *unboxing* the SSD: FIMMs carry
//! bare NAND only, and every piece of flash software — the hardware
//! abstraction layer, address translation, garbage collection,
//! wear-levelling — runs host-side in the autonomic flash-array
//! management module. This crate is that software:
//!
//! * [`ArrayShape`] — the physical dimensions of the array.
//! * [`StripedLayout`] — the default physical data layout: contiguous
//!   logical regions per cluster (so workload skew creates *hot
//!   clusters*), striped across FIMMs/packages/dies inside a cluster for
//!   parallelism.
//! * [`PageMap`] — logical→physical translation: the striped default
//!   plus a sparse override table that data migration and layout
//!   reshaping mutate.
//! * [`Ftl`] — log-structured write allocation per FIMM, invalidation
//!   tracking, greedy garbage collection and wear-aware block selection.
//! * [`hal`] — flash-command composition that exploits die-interleave,
//!   multi-plane and cache modes (§2.2).
//!
//! # Example
//!
//! ```
//! use triplea_ftl::{ArrayShape, Ftl, LogicalPage};
//!
//! let shape = ArrayShape::small_test();
//! let mut ftl = Ftl::new(shape);
//! let lpn = LogicalPage(1234);
//! let before = ftl.locate(lpn);
//! // a write allocates a fresh page in the same FIMM and remaps the LPN
//! let after = ftl.write_alloc(lpn, None).unwrap();
//! assert_eq!(ftl.locate(lpn), after);
//! assert_eq!(before.cluster, after.cluster);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod error;
mod ftl_impl;
pub mod hal;
mod hybrid;
mod journal;
mod layout;
mod map;
mod mapcache;
mod shape;

pub use alloc::FimmAllocator;
pub use error::{FtlError, IntegrityError, RecoveryError};
pub use ftl_impl::{Ftl, FtlStats, GcPolicy, GcWork, RebuildUnit};
pub use hybrid::{HybridFtl, HybridStats};
pub use journal::{JournalConfig, JournalStats, RecoveryOutcome};
pub use layout::StripedLayout;
pub use map::PageMap;
pub use mapcache::{MappingCache, ENTRIES_PER_TRANSLATION_PAGE};
pub use shape::{ArrayShape, LogicalPage, PhysLoc};
