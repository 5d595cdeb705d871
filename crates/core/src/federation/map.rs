//! The deterministic volume address mapper: volume LBA → (member array,
//! array-local LPN), with replica fan-out and migration overrides.

use triplea_ftl::LogicalPage;
use triplea_sim::FxHashMap;

use crate::federation::config::FederationConfig;

/// Where one copy of one chunk currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlacement {
    /// Member array holding the copy.
    pub array: u32,
    /// Array-local chunk index (home row, or a migration slot ≥ the
    /// volume's row count after an inter-array migration).
    pub local_chunk: u64,
}

/// One array-local fragment of a volume request: the contiguous page run
/// a single chunk contributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Volume chunk the run falls into.
    pub chunk: u64,
    /// Page offset inside the chunk.
    pub offset: u64,
    /// Pages in the run (never crosses a chunk boundary).
    pub pages: u32,
}

/// The volume → member-array address map.
///
/// Home placement is pure arithmetic: copy `j` of chunk `k` lives on
/// array `(k mod W) + jW` at local chunk `k / W` — a bijection from
/// chunks onto each copy group's `(array, row)` space. Inter-array
/// migrations overlay sparse overrides pointing into the migration-slot
/// region (local chunks `rows..rows+slots`); the override table is
/// consulted first, so commit is a single insert and rollback is simply
/// never inserting.
#[derive(Clone, Debug)]
pub struct VolumeMapper {
    width: u32,
    replicas: u32,
    chunk_pages: u64,
    volume_pages: u64,
    chunks: u64,
    rows: u64,
    /// `(copy, chunk) → placement` for migrated copies only.
    overrides: FxHashMap<(u32, u64), ChunkPlacement>,
}

impl VolumeMapper {
    /// Builds the mapper for a validated federation geometry.
    pub(crate) fn new(cfg: &FederationConfig) -> Self {
        VolumeMapper {
            width: cfg.volume.stripe_width,
            replicas: cfg.volume.replicas,
            chunk_pages: cfg.volume.chunk_pages,
            volume_pages: cfg.volume.volume_pages,
            chunks: cfg.chunks,
            rows: cfg.rows,
            overrides: FxHashMap::default(),
        }
    }

    /// A standalone mapper over raw geometry — the property-test entry
    /// point (no full [`FederationConfig`] needed).
    pub fn from_geometry(width: u32, replicas: u32, chunk_pages: u64, chunks: u64) -> Self {
        assert!(width >= 1 && replicas >= 1 && chunk_pages >= 1 && chunks >= 1);
        VolumeMapper {
            width,
            replicas,
            chunk_pages,
            volume_pages: chunks * chunk_pages,
            chunks,
            rows: chunks.div_ceil(width as u64),
            overrides: FxHashMap::default(),
        }
    }

    /// Stripe width `W`.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Replication factor `R`.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Pages per chunk.
    pub fn chunk_pages(&self) -> u64 {
        self.chunk_pages
    }

    /// Volume capacity in pages.
    pub fn volume_pages(&self) -> u64 {
        self.volume_pages
    }

    /// Volume chunks.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Array-local home rows (`ceil(chunks / W)`); migration slots start
    /// at this local-chunk index.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The *home* placement of copy `copy` of chunk `chunk` — pure
    /// arithmetic, ignoring migration overrides.
    pub fn home(&self, copy: u32, chunk: u64) -> ChunkPlacement {
        debug_assert!(copy < self.replicas && chunk < self.chunks);
        ChunkPlacement {
            array: (chunk % self.width as u64) as u32 + copy * self.width,
            local_chunk: chunk / self.width as u64,
        }
    }

    /// The inverse of [`VolumeMapper::home`]: which `(copy, chunk)`
    /// homes at `(array, local_chunk)`, or `None` when the slot is past
    /// the end of that array's column.
    pub fn home_inverse(&self, array: u32, local_chunk: u64) -> Option<(u32, u64)> {
        let w = self.width as u64;
        let copy = array / self.width;
        let column = (array % self.width) as u64;
        if copy >= self.replicas {
            return None;
        }
        let chunk = local_chunk * w + column;
        (chunk < self.chunks).then_some((copy, chunk))
    }

    /// The *current* placement of copy `copy` of chunk `chunk` —
    /// migration overrides first, home placement otherwise.
    pub fn placement(&self, copy: u32, chunk: u64) -> ChunkPlacement {
        self.overrides
            .get(&(copy, chunk))
            .copied()
            .unwrap_or_else(|| self.home(copy, chunk))
    }

    /// `true` when this copy has been migrated off its home.
    pub fn is_migrated(&self, copy: u32, chunk: u64) -> bool {
        self.overrides.contains_key(&(copy, chunk))
    }

    /// Migrated-copy count.
    pub fn migrated(&self) -> usize {
        self.overrides.len()
    }

    /// Commits a migration: copy `copy` of `chunk` now reads and writes
    /// at `to`. Called only after every clone write is durable on the
    /// destination (clone-then-commit).
    pub(crate) fn commit_migration(&mut self, copy: u32, chunk: u64, to: ChunkPlacement) {
        self.overrides.insert((copy, chunk), to);
    }

    /// The member arrays currently holding any copy of `chunk`, in copy
    /// order.
    pub fn holders(&self, chunk: u64) -> Vec<u32> {
        (0..self.replicas)
            .map(|j| self.placement(j, chunk).array)
            .collect()
    }

    /// Splits a volume request `[lpn, lpn + pages)` into per-chunk
    /// fragments, in address order. Every fragment stays inside one
    /// chunk, so it maps to one contiguous array-local run per copy.
    pub fn fragments(&self, lpn: LogicalPage, pages: u32) -> Vec<Fragment> {
        debug_assert!(lpn.0 + pages as u64 <= self.volume_pages);
        let mut out = Vec::new();
        let mut addr = lpn.0;
        let mut left = pages as u64;
        while left > 0 {
            let chunk = addr / self.chunk_pages;
            let offset = addr % self.chunk_pages;
            let run = left.min(self.chunk_pages - offset);
            out.push(Fragment {
                chunk,
                offset,
                pages: run as u32,
            });
            addr += run;
            left -= run;
        }
        out
    }

    /// The array-local LPN of `offset` inside `placement`'s chunk.
    pub fn local_lpn(&self, placement: ChunkPlacement, offset: u64) -> LogicalPage {
        LogicalPage(placement.local_chunk * self.chunk_pages + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_is_a_bijection_per_copy_group() {
        let m = VolumeMapper::from_geometry(3, 2, 8, 17);
        for copy in 0..2 {
            let mut seen = std::collections::BTreeSet::new();
            for chunk in 0..17 {
                let p = m.home(copy, chunk);
                assert!(p.array / 3 == copy, "copy group");
                assert!(p.local_chunk < m.rows());
                assert!(
                    seen.insert((p.array, p.local_chunk)),
                    "collision at {chunk}"
                );
                assert_eq!(m.home_inverse(p.array, p.local_chunk), Some((copy, chunk)));
            }
        }
    }

    #[test]
    fn fragments_respect_chunk_boundaries() {
        let m = VolumeMapper::from_geometry(2, 1, 8, 16);
        let frags = m.fragments(LogicalPage(6), 12);
        assert_eq!(
            frags,
            vec![
                Fragment {
                    chunk: 0,
                    offset: 6,
                    pages: 2
                },
                Fragment {
                    chunk: 1,
                    offset: 0,
                    pages: 8
                },
                Fragment {
                    chunk: 2,
                    offset: 0,
                    pages: 2
                },
            ]
        );
        let total: u32 = frags.iter().map(|f| f.pages).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn overrides_supersede_home_until_then_identical() {
        let mut m = VolumeMapper::from_geometry(2, 2, 4, 8);
        assert_eq!(m.placement(1, 5), m.home(1, 5));
        assert!(!m.is_migrated(1, 5));
        let slot = ChunkPlacement {
            array: 0,
            local_chunk: m.rows() + 3,
        };
        m.commit_migration(1, 5, slot);
        assert_eq!(m.placement(1, 5), slot);
        assert!(m.is_migrated(1, 5));
        assert_eq!(m.placement(0, 5), m.home(0, 5), "other copy untouched");
        assert_eq!(m.holders(5), vec![m.home(0, 5).array, 0]);
    }

    #[test]
    fn local_lpn_lands_inside_the_local_chunk() {
        let m = VolumeMapper::from_geometry(4, 1, 16, 64);
        let p = m.home(0, 9);
        assert_eq!(m.local_lpn(p, 5).0, p.local_chunk * 16 + 5);
    }
}
