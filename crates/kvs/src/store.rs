//! Key-value storage engines.
//!
//! [`LruCache`] is the O(1) least-recently-used cache used by both LaKe
//! cache levels; [`ChunkAllocator`] models LaKe's SRAM free-list of DRAM
//! value chunks (§5.3); [`KvStore`] is the authoritative memcached-style
//! store run by the host software.

use inc_sim::FixedHashMap;

/// An O(1) LRU cache keyed by byte strings.
///
/// Implemented as a slab of entries linked into an intrusive LRU list,
/// with a hash index — the same structure memcached itself uses.
///
/// # Examples
///
/// ```
/// use inc_kvs::LruCache;
///
/// let mut c = LruCache::new(2);
/// c.insert(b"a".to_vec(), b"1".to_vec());
/// c.insert(b"b".to_vec(), b"2".to_vec());
/// c.get(b"a"); // refresh a
/// c.insert(b"c".to_vec(), b"3".to_vec()); // evicts b
/// assert!(c.get(b"b").is_none());
/// assert!(c.get(b"a").is_some());
/// ```
#[derive(Clone, Debug)]
pub struct LruCache {
    capacity: usize,
    index: FixedHashMap<Vec<u8>, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: Option<usize>, // Most recently used.
    tail: Option<usize>, // Least recently used.
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Clone, Debug)]
struct Entry {
    key: Vec<u8>,
    value: Vec<u8>,
    flags: u32,
    prev: Option<usize>,
    next: Option<usize>,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            capacity,
            index: FixedHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: None,
            tail: None,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            Some(p) => self.slab[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.slab[n].prev = prev,
            None => self.tail = prev,
        }
        self.slab[idx].prev = None;
        self.slab[idx].next = None;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = None;
        self.slab[idx].next = self.head;
        if let Some(h) = self.head {
            self.slab[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head == Some(idx) {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    /// Finds `key`'s slab slot, refreshing its recency and counting a
    /// hit or miss. Returning the slot rather than a borrow lets
    /// [`LakeCache`](crate::LakeCache) lend a value out of one level
    /// and still touch the other on the miss path.
    pub(crate) fn lookup(&mut self, key: &[u8]) -> Option<usize> {
        match self.index.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.touch(idx);
                Some(idx)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The value and flags in a slot [`LruCache::lookup`] returned.
    pub(crate) fn slot(&self, idx: usize) -> (&[u8], u32) {
        let e = &self.slab[idx];
        (&e.value, e.flags)
    }

    /// Looks up `key`, refreshing its recency. Counts a hit or miss.
    pub fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        self.get_with_flags(key).map(|(value, _)| value)
    }

    /// Looks up `key` and its flags, refreshing recency.
    pub fn get_with_flags(&mut self, key: &[u8]) -> Option<(&[u8], u32)> {
        let idx = self.lookup(key)?;
        Some(self.slot(idx))
    }

    /// Checks for presence without counting or refreshing.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.index.contains_key(key)
    }

    /// Inserts or updates an entry, evicting the LRU entry if full.
    ///
    /// Returns the evicted `(key, value)`, if any.
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Option<(Vec<u8>, Vec<u8>)> {
        self.insert_with_flags(key, value, 0)
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(Vec<u8>, Vec<u8>)> {
        let t = self.tail?;
        self.unlink(t);
        let key = std::mem::take(&mut self.slab[t].key);
        let value = std::mem::take(&mut self.slab[t].value);
        self.index.remove(&key);
        self.free.push(t);
        self.evictions += 1;
        Some((key, value))
    }

    /// Inserts or updates an entry with flags.
    pub fn insert_with_flags(
        &mut self,
        key: Vec<u8>,
        value: Vec<u8>,
        flags: u32,
    ) -> Option<(Vec<u8>, Vec<u8>)> {
        if let Some(&idx) = self.index.get(&key) {
            self.slab[idx].value = value;
            self.slab[idx].flags = flags;
            self.touch(idx);
            return None;
        }
        let evicted = if self.index.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Entry {
                    key: key.clone(),
                    value,
                    flags,
                    prev: None,
                    next: None,
                };
                i
            }
            None => {
                self.slab.push(Entry {
                    key: key.clone(),
                    value,
                    flags,
                    prev: None,
                    next: None,
                });
                self.slab.len() - 1
            }
        };
        self.push_front(idx);
        self.index.insert(key, idx);
        evicted
    }

    /// Removes an entry; returns `true` if it existed.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        match self.index.remove(key) {
            Some(idx) => {
                self.unlink(idx);
                self.slab[idx].key = Vec::new();
                self.slab[idx].value = Vec::new();
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Removes everything (counters preserved).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.head = None;
        self.tail = None;
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns (hits, misses, evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Hit ratio in `[0, 1]` (0 when no lookups yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// LaKe's DRAM chunk allocator with its SRAM free list (§5.3).
///
/// Values are stored in fixed 64 B chunks; the SRAM holds the list of free
/// chunks (up to 4.7 M entries). Allocation fails when either the chunks
/// or the free-list capacity is exhausted.
#[derive(Clone, Debug)]
pub struct ChunkAllocator {
    chunk_bytes: usize,
    total_chunks: u64,
    allocated: u64,
}

impl ChunkAllocator {
    /// Creates an allocator over `total_chunks` chunks of `chunk_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(chunk_bytes: usize, total_chunks: u64) -> Self {
        assert!(chunk_bytes > 0 && total_chunks > 0);
        ChunkAllocator {
            chunk_bytes,
            total_chunks,
            allocated: 0,
        }
    }

    /// Chunks needed for a value of `len` bytes.
    pub fn chunks_for(&self, len: usize) -> u64 {
        (len.max(1)).div_ceil(self.chunk_bytes) as u64
    }

    /// Allocates chunks for a value; returns `false` when out of space.
    pub fn alloc(&mut self, len: usize) -> bool {
        let need = self.chunks_for(len);
        if self.allocated + need > self.total_chunks {
            return false;
        }
        self.allocated += need;
        true
    }

    /// Releases the chunks of a value of `len` bytes.
    pub fn free(&mut self, len: usize) {
        let n = self.chunks_for(len).min(self.allocated);
        self.allocated -= n;
    }

    /// Chunks currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
}

/// The authoritative memcached-style store run by host software.
///
/// Unbounded in entries (host DRAM is effectively infinite next to the
/// card's), but value sizes are bounded like memcached's 1 MB limit.
#[derive(Clone, Debug, Default)]
pub struct KvStore {
    map: FixedHashMap<Vec<u8>, (Vec<u8>, u32)>,
    max_value_bytes: usize,
}

impl KvStore {
    /// Creates an empty store with memcached's 1 MB value limit.
    pub fn new() -> Self {
        KvStore {
            map: FixedHashMap::default(),
            max_value_bytes: 1 << 20,
        }
    }

    /// Retrieves a value and its flags.
    pub fn get(&self, key: &[u8]) -> Option<(&[u8], u32)> {
        self.map.get(key).map(|(v, f)| (v.as_slice(), *f))
    }

    /// Stores a value; returns `false` if it exceeds the size limit.
    pub fn set(&mut self, key: Vec<u8>, value: Vec<u8>, flags: u32) -> bool {
        if value.len() > self.max_value_bytes {
            return false;
        }
        self.map.insert(key, (value, flags));
        true
    }

    /// Deletes a key; returns `true` if it existed.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        self.map.remove(key).is_some()
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_order() {
        let mut c = LruCache::new(3);
        c.insert(b"a".to_vec(), b"1".to_vec());
        c.insert(b"b".to_vec(), b"2".to_vec());
        c.insert(b"c".to_vec(), b"3".to_vec());
        assert!(c.get(b"a").is_some()); // a is now MRU
        let evicted = c.insert(b"d".to_vec(), b"4".to_vec());
        assert_eq!(evicted, Some((b"b".to_vec(), b"2".to_vec())));
        assert_eq!(c.len(), 3);
        assert!(c.contains(b"a") && c.contains(b"c") && c.contains(b"d"));
    }

    #[test]
    fn lru_update_refreshes() {
        let mut c = LruCache::new(2);
        c.insert(b"a".to_vec(), b"1".to_vec());
        c.insert(b"b".to_vec(), b"2".to_vec());
        c.insert(b"a".to_vec(), b"1b".to_vec()); // update, no eviction
        assert_eq!(c.len(), 2);
        let evicted = c.insert(b"c".to_vec(), b"3".to_vec());
        assert_eq!(evicted, Some((b"b".to_vec(), b"2".to_vec())));
        assert_eq!(c.get(b"a").unwrap(), b"1b");
    }

    #[test]
    fn lru_remove_and_reuse_slot() {
        let mut c = LruCache::new(2);
        c.insert(b"a".to_vec(), b"1".to_vec());
        assert!(c.remove(b"a"));
        assert!(!c.remove(b"a"));
        assert!(c.is_empty());
        c.insert(b"b".to_vec(), b"2".to_vec());
        c.insert(b"c".to_vec(), b"3".to_vec());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(b"b").unwrap(), b"2");
    }

    #[test]
    fn lru_stats_and_hit_ratio() {
        let mut c = LruCache::new(2);
        c.insert(b"a".to_vec(), b"1".to_vec());
        c.get(b"a");
        c.get(b"zz");
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 1));
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_single_slot() {
        let mut c = LruCache::new(1);
        c.insert(b"a".to_vec(), b"1".to_vec());
        let ev = c.insert(b"b".to_vec(), b"2".to_vec());
        assert_eq!(ev, Some((b"a".to_vec(), b"1".to_vec())));
        assert_eq!(c.get(b"b").unwrap(), b"2");
        assert!(c.get(b"a").is_none());
    }

    #[test]
    fn pop_lru_returns_oldest() {
        let mut c = LruCache::new(4);
        c.insert(b"a".to_vec(), b"1".to_vec());
        c.insert(b"b".to_vec(), b"2".to_vec());
        c.get(b"a");
        assert_eq!(c.pop_lru(), Some((b"b".to_vec(), b"2".to_vec())));
        assert_eq!(c.pop_lru(), Some((b"a".to_vec(), b"1".to_vec())));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn lru_flags_round_trip() {
        let mut c = LruCache::new(2);
        c.insert_with_flags(b"k".to_vec(), b"v".to_vec(), 77);
        let (v, f) = c.get_with_flags(b"k").unwrap();
        assert_eq!(v, b"v");
        assert_eq!(f, 77);
    }

    #[test]
    fn lru_many_operations_consistent() {
        // Model-based check against a simple reference implementation.
        let mut c = LruCache::new(8);
        let mut reference: Vec<Vec<u8>> = Vec::new(); // MRU-first key list
        for i in 0..1000u32 {
            let key = format!("k{}", i % 20).into_bytes();
            if i % 3 == 0 {
                c.insert(key.clone(), b"v".to_vec());
                reference.retain(|k| k != &key);
                reference.insert(0, key);
                reference.truncate(8);
            } else {
                let hit = c.get(&key).is_some();
                let ref_hit = reference.contains(&key);
                assert_eq!(hit, ref_hit, "at op {i}");
                if ref_hit {
                    reference.retain(|k| k != &key);
                    reference.insert(0, key);
                }
            }
        }
    }

    #[test]
    fn chunk_allocator_limits() {
        let mut a = ChunkAllocator::new(64, 10);
        assert!(a.alloc(64)); // 1 chunk
        assert!(a.alloc(65)); // 2 chunks
        assert!(a.alloc(448)); // 7 chunks -> exactly 10
        assert_eq!(a.allocated(), 10);
        assert!(!a.alloc(1));
        a.free(65);
        assert_eq!(a.allocated(), 8);
        assert!(a.alloc(128));
    }

    #[test]
    fn chunk_allocator_lake_capacity() {
        // §5.3: 64 B chunks; the SRAM free list bounds the store at
        // 4.7 M chunks.
        let a = ChunkAllocator::new(64, 4_700_000);
        assert_eq!(a.chunks_for(64), 1);
        assert_eq!(a.chunks_for(1), 1);
        assert_eq!(a.chunks_for(200), 4);
        assert_eq!(a.allocated(), 0);
    }

    #[test]
    fn kvstore_basics() {
        let mut s = KvStore::new();
        assert!(s.set(b"k".to_vec(), b"v".to_vec(), 9));
        assert_eq!(s.get(b"k"), Some((b"v".as_slice(), 9)));
        assert!(s.delete(b"k"));
        assert!(!s.delete(b"k"));
        assert!(s.get(b"k").is_none());
    }

    #[test]
    fn kvstore_value_size_limit() {
        let mut s = KvStore::new();
        assert!(!s.set(b"big".to_vec(), vec![0; (1 << 20) + 1], 0));
        assert!(s.set(b"ok".to_vec(), vec![0; 1 << 20], 0));
    }
}
