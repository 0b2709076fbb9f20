//! The LaKe two-level cache engine (§3.1, Figure 1).
//!
//! LaKe layers an on-chip BRAM cache (L1) over an on-board DRAM cache (L2,
//! with its value chunks tracked by an SRAM free list). A query is
//! forwarded to the host software only when it misses both layers. This
//! module is the host-agnostic cache logic; `LakeDevice` wraps it with
//! timing, power, and packet handling.

use inc_hw::MemorySpec;

use crate::store::{ChunkAllocator, LruCache};

/// Sizing of the two cache levels.
#[derive(Clone, Copy, Debug)]
pub struct LakeCacheConfig {
    /// Entries in the on-chip L1.
    pub l1_entries: usize,
    /// Entries in the DRAM L2 hash table.
    pub l2_entries: usize,
    /// DRAM value-chunk size, bytes.
    pub chunk_bytes: usize,
    /// Total value chunks the SRAM free list can track.
    pub total_chunks: u64,
}

impl LakeCacheConfig {
    /// The paper's SUME configuration (§5.3): L1 bounded by on-chip BRAM
    /// (×65k smaller than DRAM), L2 bounded by the DRAM hash table and the
    /// 4.7 M-entry SRAM free list of 64 B chunks.
    pub fn sume() -> Self {
        let l1_bytes = MemorySpec::lake_l1_bram().capacity_bytes;
        LakeCacheConfig {
            // 128 B per entry: a 64 B value chunk plus key and metadata.
            l1_entries: (l1_bytes / 128) as usize,
            l2_entries: 4_700_000,
            chunk_bytes: 64,
            total_chunks: 4_700_000,
        }
    }

    /// A small configuration for tests.
    pub fn tiny(l1: usize, l2: usize) -> Self {
        LakeCacheConfig {
            l1_entries: l1,
            l2_entries: l2,
            chunk_bytes: 64,
            total_chunks: (l2 as u64) * 4,
        }
    }
}

/// Which layer (if any) answered a lookup. A hit lends the stored
/// value out of the cache — the reply is encoded straight from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup<'a> {
    /// Served from on-chip memory.
    L1Hit {
        /// Stored value.
        value: &'a [u8],
        /// Stored flags.
        flags: u32,
    },
    /// Served from DRAM (and promoted to L1).
    L2Hit {
        /// Stored value.
        value: &'a [u8],
        /// Stored flags.
        flags: u32,
    },
    /// Missed both layers; must be forwarded to the host.
    Miss,
}

/// Cumulative cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LakeStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (L1 misses that hit DRAM).
    pub l2_hits: u64,
    /// Full misses forwarded to software.
    pub misses: u64,
    /// Invalidations via DELETE.
    pub invalidations: u64,
}

impl LakeStats {
    /// Overall hardware hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.l1_hits + self.l2_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.l1_hits + self.l2_hits) as f64 / total as f64
        }
    }
}

/// The two-level cache.
///
/// # Examples
///
/// ```
/// use inc_kvs::{LakeCache, LakeCacheConfig, Lookup};
///
/// let mut cache = LakeCache::new(LakeCacheConfig::tiny(4, 16));
/// assert_eq!(cache.get(b"k"), Lookup::Miss);
/// cache.warm(b"k".to_vec(), b"v".to_vec(), 0);
/// assert!(matches!(cache.get(b"k"), Lookup::L1Hit { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct LakeCache {
    config: LakeCacheConfig,
    l1: LruCache,
    l2: LruCache,
    alloc: ChunkAllocator,
    stats: LakeStats,
}

impl LakeCache {
    /// Creates an empty (cold) cache.
    pub fn new(config: LakeCacheConfig) -> Self {
        LakeCache {
            config,
            l1: LruCache::new(config.l1_entries),
            l2: LruCache::new(config.l2_entries),
            alloc: ChunkAllocator::new(config.chunk_bytes, config.total_chunks),
            stats: LakeStats::default(),
        }
    }

    /// Looks up a key, promoting L2 hits into L1.
    pub fn get(&mut self, key: &[u8]) -> Lookup<'_> {
        // Split borrows: a hit is lent out of one level while the other
        // level and the counters are still touched.
        let LakeCache { l1, l2, stats, .. } = self;
        if let Some(slot) = l1.lookup(key) {
            stats.l1_hits += 1;
            let (value, flags) = l1.slot(slot);
            return Lookup::L1Hit { value, flags };
        }
        if let Some((value, flags)) = l2.get_with_flags(key) {
            stats.l2_hits += 1;
            // Promote into L1; L1 eviction is harmless (still in L2).
            l1.insert_with_flags(key.to_vec(), value.to_vec(), flags);
            return Lookup::L2Hit { value, flags };
        }
        stats.misses += 1;
        Lookup::Miss
    }

    /// Inserts an entry into both levels (cache warm-up on a miss reply,
    /// or write-through on SET).
    pub fn warm(&mut self, key: Vec<u8>, value: Vec<u8>, flags: u32) {
        // Free the chunks of whatever this key previously held in L2.
        if let Some((old, _)) = self.l2.get_with_flags(&key) {
            let old_len = old.len();
            self.alloc.free(old_len);
        }
        // Make room in the chunk store, evicting LRU entries as needed.
        while !self.alloc.alloc(value.len()) {
            match self.l2.pop_lru() {
                Some((evicted_key, evicted_value)) => {
                    self.alloc.free(evicted_value.len());
                    self.l1.remove(&evicted_key);
                }
                None => return, // Value larger than the whole chunk store.
            }
        }
        if let Some((evicted_key, evicted_value)) =
            self.l2.insert_with_flags(key.clone(), value.clone(), flags)
        {
            self.alloc.free(evicted_value.len());
            self.l1.remove(&evicted_key);
        }
        self.l1.insert_with_flags(key, value, flags);
    }

    /// Invalidates a key in both levels (DELETE).
    pub fn invalidate(&mut self, key: &[u8]) {
        self.l1.remove(key);
        if let Some((v, _)) = self.l2.get_with_flags(key) {
            let len = v.len();
            self.l2.remove(key);
            self.alloc.free(len);
        }
        self.stats.invalidations += 1;
    }

    /// Empties both levels, as after the memories were held in reset
    /// during a parked period (§9.2: "at first all memory accesses will be
    /// a miss ... until the cache, both on and off chip, warms").
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.alloc = ChunkAllocator::new(self.config.chunk_bytes, self.config.total_chunks);
    }

    /// Returns the cumulative statistics.
    pub fn stats(&self) -> LakeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_warm_then_l1_hit() {
        let mut c = LakeCache::new(LakeCacheConfig::tiny(4, 16));
        assert_eq!(c.get(b"k"), Lookup::Miss);
        c.warm(b"k".to_vec(), b"value".to_vec(), 7);
        match c.get(b"k") {
            Lookup::L1Hit { value, flags } => {
                assert_eq!(value, b"value");
                assert_eq!(flags, 7);
            }
            other => panic!("expected L1 hit, got {other:?}"),
        }
        let s = c.stats();
        assert_eq!((s.l1_hits, s.l2_hits, s.misses), (1, 0, 1));
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut c = LakeCache::new(LakeCacheConfig::tiny(2, 16));
        for i in 0..4u8 {
            c.warm(vec![i], vec![i; 8], 0);
        }
        // Keys 0 and 1 were evicted from L1 (capacity 2) but live in L2.
        match c.get(&[0]) {
            Lookup::L2Hit { value, .. } => assert_eq!(value, vec![0; 8]),
            other => panic!("expected L2 hit, got {other:?}"),
        }
        // The L2 hit promoted key 0 back into L1.
        assert!(matches!(c.get(&[0]), Lookup::L1Hit { .. }));
    }

    #[test]
    fn invalidate_removes_from_both_levels() {
        let mut c = LakeCache::new(LakeCacheConfig::tiny(2, 16));
        c.warm(b"k".to_vec(), b"v".to_vec(), 0);
        c.invalidate(b"k");
        assert_eq!(c.get(b"k"), Lookup::Miss);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn chunk_pressure_evicts_lru() {
        // 16 L2 entries but only 8 chunks of 64 B: two 256 B values fill it.
        let mut c = LakeCache::new(LakeCacheConfig {
            l1_entries: 2,
            l2_entries: 16,
            chunk_bytes: 64,
            total_chunks: 8,
        });
        c.warm(b"a".to_vec(), vec![1; 256], 0);
        c.warm(b"b".to_vec(), vec![2; 256], 0);
        // The chunks are full: inserting "c" must evict "a" (LRU) to
        // free them.
        c.warm(b"c".to_vec(), vec![3; 256], 0);
        assert_eq!(c.get(b"a"), Lookup::Miss);
        assert!(matches!(
            c.get(b"c"),
            Lookup::L1Hit { .. } | Lookup::L2Hit { .. }
        ));
    }

    #[test]
    fn rewriting_key_frees_old_chunks() {
        let mut c = LakeCache::new(LakeCacheConfig {
            l1_entries: 2,
            l2_entries: 16,
            chunk_bytes: 64,
            total_chunks: 8,
        });
        c.warm(b"a".to_vec(), vec![1; 512], 0); // fills all 8 chunks
        c.warm(b"a".to_vec(), vec![1; 64], 0); // shrinks to 1 chunk
                                               // The other 7 chunks are free: a 448 B value fits beside "a".
        c.warm(b"b".to_vec(), vec![2; 448], 0);
        assert_ne!(c.get(b"a"), Lookup::Miss);
        assert_ne!(c.get(b"b"), Lookup::Miss);
    }

    #[test]
    fn clear_makes_everything_miss() {
        let mut c = LakeCache::new(LakeCacheConfig::tiny(4, 16));
        c.warm(b"k".to_vec(), b"v".to_vec(), 0);
        c.clear();
        assert_eq!(c.get(b"k"), Lookup::Miss);
        // And the cache still works after the cold restart.
        c.warm(b"k".to_vec(), b"v2".to_vec(), 0);
        assert!(matches!(c.get(b"k"), Lookup::L1Hit { .. }));
    }

    #[test]
    fn oversized_value_rejected_gracefully() {
        let mut c = LakeCache::new(LakeCacheConfig {
            l1_entries: 2,
            l2_entries: 4,
            chunk_bytes: 64,
            total_chunks: 2,
        });
        c.warm(b"big".to_vec(), vec![0; 1024], 0); // needs 16 chunks > 2
        assert_eq!(c.get(b"big"), Lookup::Miss);
    }

    #[test]
    fn sume_config_capacities() {
        let cfg = LakeCacheConfig::sume();
        // On-chip entries are in the hundreds; L2 in the millions.
        assert!(cfg.l1_entries >= 256 && cfg.l1_entries < 2_048);
        assert_eq!(cfg.l2_entries, 4_700_000);
        let ratio = cfg.l2_entries / cfg.l1_entries;
        // §5.3 reports ×32k-×65k between on-chip and off-chip capacity;
        // the hash-entry ratio lands in the same ballpark.
        assert!(ratio > 1_000, "ratio {ratio}");
    }

    #[test]
    fn hit_ratio_accounting() {
        let mut c = LakeCache::new(LakeCacheConfig::tiny(4, 16));
        c.warm(b"a".to_vec(), b"1".to_vec(), 0);
        c.get(b"a");
        c.get(b"a");
        c.get(b"nope");
        assert!((c.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }
}
