//! Small-footprint map containers for per-node protocol state.
//!
//! At paper scale (a few hundred nodes) each servent carrying half a dozen
//! `HashMap`s is invisible. At 10^5–10^6 nodes the fixed overhead of those
//! maps — SipHash state, load-factor slack, 48-byte struct headers —
//! dominates the bytes-per-node budget. Two replacements cover every
//! per-node table in the protocol crates:
//!
//! * [`VecMap`] — a sorted `Vec<(K, V)>` with binary-search lookup, for
//!   keyspaces bounded by a node's degree (connection tables, in-flight
//!   downloads: typically ≤ 32 entries, never more than a few hundred).
//!   An empty map is one `Vec` (24 bytes, no allocation); a populated map
//!   stores exactly its entries plus growth slack, with no hash state and
//!   no per-slot control bytes.
//! * [`FifoMap`] / [`FifoSet`] — the bounded route/duplicate tables
//!   (seen-GUIDs, query routes, push routes). Each entry is stored once,
//!   in an insertion-order ring that stops growing at the bound, and found
//!   through a half-full linear-probing index of `u32` ring positions
//!   hashed via the [`KeyHash`] trait. Eviction overwrites the oldest ring
//!   entry in place and closes its index slot by backward shift, so there
//!   is no separate FIFO queue, no tombstone, and a table at its bound
//!   never grows again. Replaces the `HashMap` + `VecDeque` pairs with one
//!   allocation-free-when-empty structure and a multiply-shift hash
//!   instead of SipHash.
//!
//! Both preserve the *exact* observable semantics of the `HashMap`-based
//! code they replace (the proptest suites below drive them against the
//! std-collections reference): full-key equality on every probe, value
//! overwrite without FIFO reordering, eviction strictly in insert order.
//! Iteration order of [`VecMap`] is sorted by key — already deterministic,
//! unlike `HashMap`, so the fan-out sites that used to collect-and-sort
//! can keep their sort as a no-op safety net.

/// A 64-bit hash for open-addressed table keys. Implementors must provide
/// a well-mixed value (the table uses the high bits via multiply-shift);
/// equality of hashes is *never* trusted — every probe compares full keys.
pub trait KeyHash {
    fn key_hash(&self) -> u64;
}

#[inline]
fn mix(h: u64) -> u64 {
    // splitmix64 finalizer: cheap, and forgiving of weak inputs like
    // sequential connection ids.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl KeyHash for u64 {
    #[inline]
    fn key_hash(&self) -> u64 {
        mix(*self)
    }
}

impl KeyHash for crate::ConnId {
    #[inline]
    fn key_hash(&self) -> u64 {
        mix(self.0)
    }
}

// ---------------------------------------------------------------------------
// VecMap
// ---------------------------------------------------------------------------

/// A map stored as a `Vec<(K, V)>` sorted by key: binary-search reads,
/// shift-insert writes. Intended for degree-bounded tables where n stays
/// small; every operation is O(log n) to find plus O(n) to shift, which
/// beats hashing for n up to a few hundred and costs a fraction of the
/// memory.
#[derive(Debug, Clone)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn idx(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.idx(key).is_ok()
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.idx(key).ok().map(|i| &self.entries[i].1)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.idx(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Inserts, returning the previous value if the key was present
    /// (`HashMap::insert` semantics).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.idx(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes, returning the value if the key was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.idx(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// `entry(key).or_insert_with(default)` without the entry-API plumbing:
    /// returns the existing value or inserts the default first.
    pub fn entry_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.idx(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Key-sorted iteration (deterministic, unlike `HashMap`).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Keeps only entries for which `f` returns true (sorted order).
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }

    /// Heap bytes held by the backing storage.
    pub fn heap_bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<(K, V)>()) as u64
    }
}

// ---------------------------------------------------------------------------
// FifoMap / FifoSet
// ---------------------------------------------------------------------------

/// An index slot that points at no ring entry.
const EMPTY: u32 = u32::MAX;

/// The home index slot of `key` in an index of `mask + 1` slots.
#[inline]
fn home<K: KeyHash>(key: &K, mask: usize) -> usize {
    (key.key_hash() >> 32) as usize & mask
}

/// A hash map with FIFO capacity eviction: the `HashMap + VecDeque`
/// route-table idiom as one structure. `insert` on a *fresh* key appends it
/// and, once `bound` keys are held, overwrites the oldest in place;
/// `insert` on an *existing* key overwrites the value without moving it —
/// exactly the semantics of the code it replaces (`remember_seen` /
/// `route_query_back`).
///
/// Each entry is stored once, in a ring in insertion order that stops
/// growing at `bound`. A linear-probing index of `u32` ring positions,
/// kept at most half full, finds keys; a deleted index slot is closed by
/// backward shift, so there are no tombstones and the footprint at the
/// bound is fixed. An empty map holds no heap allocation.
#[derive(Debug, Clone)]
pub struct FifoMap<K, V> {
    /// Entries in insertion order; once full, the oldest sits at `head`.
    ring: Vec<(K, V)>,
    head: usize,
    /// Ring positions, power-of-two sized; `EMPTY` marks a free slot.
    index: Vec<u32>,
    bound: usize,
}

impl<K: KeyHash + Eq + Copy, V> FifoMap<K, V> {
    pub fn bounded(bound: usize) -> Self {
        assert!(
            bound > 0 && bound < EMPTY as usize,
            "FifoMap bound {bound} out of range"
        );
        FifoMap {
            ring: Vec::new(),
            head: 0,
            index: Vec::new(),
            bound,
        }
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The ring position holding `key`, if present.
    fn find(&self, key: &K) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        let mut i = home(key, mask);
        loop {
            match self.index[i] {
                EMPTY => return None,
                p if self.ring[p as usize].0 == *key => return Some(p as usize),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Points a free index slot on `key`'s probe chain at ring `pos`.
    fn place(index: &mut [u32], key: &K, pos: usize) {
        let mask = index.len() - 1;
        let mut i = home(key, mask);
        while index[i] != EMPTY {
            i = (i + 1) & mask;
        }
        index[i] = pos as u32;
    }

    /// Doubles the index and re-places every ring entry.
    fn grow_index(&mut self) {
        self.index = vec![EMPTY; (self.index.len() * 2).max(16)];
        for (pos, (k, _)) in self.ring.iter().enumerate() {
            Self::place(&mut self.index, k, pos);
        }
    }

    /// Removes ring `pos` from the index, shifting later members of its
    /// probe run back so every lookup still reaches its key.
    fn unindex(&mut self, pos: usize) {
        let mask = self.index.len() - 1;
        let mut hole = home(&self.ring[pos].0, mask);
        while self.index[hole] as usize != pos {
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let p = self.index[j];
            if p == EMPTY {
                break;
            }
            // Move the entry at `j` into the hole unless its home lies
            // cyclically in (hole, j].
            let h = home(&self.ring[p as usize].0, mask);
            if j.wrapping_sub(h) & mask >= j.wrapping_sub(hole) & mask {
                self.index[hole] = p;
                hole = j;
            }
        }
        self.index[hole] = EMPTY;
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|p| &self.ring[p].1)
    }

    /// Inserts with FIFO bounding. A fresh key is appended (overwriting the
    /// oldest entry once `bound` are held); overwriting an existing key's
    /// value leaves its position untouched.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(p) = self.find(&key) {
            return Some(std::mem::replace(&mut self.ring[p].1, value));
        }
        let pos = if self.ring.len() < self.bound {
            if (self.ring.len() + 1) * 2 > self.index.len() {
                self.grow_index();
            }
            if self.ring.len() == self.ring.capacity() {
                let want = (self.ring.len() * 2).max(8).min(self.bound);
                self.ring.reserve_exact(want - self.ring.len());
            }
            self.ring.push((key, value));
            self.ring.len() - 1
        } else {
            let pos = self.head;
            self.unindex(pos);
            self.ring[pos] = (key, value);
            self.head = (pos + 1) % self.bound;
            pos
        };
        Self::place(&mut self.index, &key, pos);
        None
    }

    /// Heap bytes held by the ring and its index.
    pub fn heap_bytes(&self) -> u64 {
        (self.ring.capacity() * std::mem::size_of::<(K, V)>()
            + self.index.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// [`FifoMap`] with unit values: the bounded duplicate-suppression set.
#[derive(Debug, Clone)]
pub struct FifoSet<K> {
    map: FifoMap<K, ()>,
}

impl<K: KeyHash + Eq + Copy> FifoSet<K> {
    pub fn bounded(bound: usize) -> Self {
        FifoSet {
            map: FifoMap::bounded(bound),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts; returns true when the key was fresh (`HashSet::insert`
    /// semantics), evicting FIFO past the bound.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    pub fn heap_bytes(&self) -> u64 {
        self.map.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn vecmap_basics() {
        let mut m: VecMap<u64, &str> = VecMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "a"), None);
        assert_eq!(m.insert(3, "b"), None);
        assert_eq!(m.insert(5, "c"), Some("a"));
        assert_eq!(m.get(&5), Some(&"c"));
        assert_eq!(m.len(), 2);
        let keys: Vec<u64> = m.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, vec![3, 5], "iteration is key-sorted");
        assert_eq!(m.remove(&3), Some("b"));
        assert_eq!(m.remove(&3), None);
        *m.entry_or_insert_with(9, || "z") = "y";
        assert_eq!(m.get(&9), Some(&"y"));
        m.retain(|&k, _| k != 9);
        assert!(!m.contains_key(&9));
    }

    #[test]
    fn fifomap_evicts_in_insert_order() {
        let mut m: FifoMap<u64, u32> = FifoMap::bounded(3);
        for k in 0..3u64 {
            assert_eq!(m.insert(k, k as u32), None);
        }
        // Overwrite must not refresh position 0 in the queue.
        assert_eq!(m.insert(0, 99), Some(0));
        assert_eq!(m.len(), 3);
        m.insert(3, 3); // evicts key 0 despite the recent overwrite
        assert!(!m.contains_key(&0));
        assert!(m.contains_key(&1));
        m.insert(4, 4); // evicts key 1
        assert!(!m.contains_key(&1));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn fifoset_matches_manual_idiom() {
        // Reference: the exact remember_seen idiom from the servent.
        let bound = 4;
        let mut set = HashSet::new();
        let mut order = std::collections::VecDeque::new();
        let mut fifo: FifoSet<u64> = FifoSet::bounded(bound);
        for k in [1u64, 2, 3, 1, 4, 5, 6, 2, 2, 7, 1] {
            let fresh_ref = set.insert(k);
            if fresh_ref {
                order.push_back(k);
                if order.len() > bound {
                    let old = order.pop_front().unwrap();
                    set.remove(&old);
                }
            }
            assert_eq!(fifo.insert(k), fresh_ref, "key {k}");
        }
        for k in 0..10u64 {
            assert_eq!(fifo.contains(&k), set.contains(&k), "key {k}");
        }
    }

    #[test]
    fn empty_maps_hold_no_heap() {
        let m: FifoMap<u64, u64> = FifoMap::bounded(16);
        assert_eq!(m.heap_bytes(), 0);
        let v: VecMap<u64, u64> = VecMap::new();
        assert_eq!(v.heap_bytes(), 0);
    }

    /// A table at its bound never grows again: eviction reuses the ring
    /// slot and leaves no tombstone behind in the index.
    #[test]
    fn footprint_is_fixed_at_the_bound() {
        let bound = 1000u64;
        let mut set: FifoSet<u64> = FifoSet::bounded(bound as usize);
        let mut map: FifoMap<u64, u64> = FifoMap::bounded(bound as usize);
        for k in 0..bound {
            set.insert(k);
            map.insert(k, k);
        }
        let (set_bytes, map_bytes) = (set.heap_bytes(), map.heap_bytes());
        for k in bound..64 * bound {
            set.insert(k);
            map.insert(k, k);
        }
        assert_eq!(set.heap_bytes(), set_bytes);
        assert_eq!(map.heap_bytes(), map_bytes);
        assert_eq!(set.len(), bound as usize);
        assert!(set.contains(&(64 * bound - 1)) && !set.contains(&(63 * bound - 1)));
    }

    proptest::proptest! {
        /// VecMap vs HashMap under a random op stream.
        #[test]
        fn vecmap_equivalence(ops in proptest::collection::vec(
            (0u8..4, 0u64..32, 0u32..1000), 0..200)) {
            let mut vm: VecMap<u64, u32> = VecMap::new();
            let mut hm: HashMap<u64, u32> = HashMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => proptest::prop_assert_eq!(vm.insert(k, v), hm.insert(k, v)),
                    1 => proptest::prop_assert_eq!(vm.remove(&k), hm.remove(&k)),
                    2 => proptest::prop_assert_eq!(vm.get(&k), hm.get(&k)),
                    _ => proptest::prop_assert_eq!(vm.contains_key(&k), hm.contains_key(&k)),
                }
                proptest::prop_assert_eq!(vm.len(), hm.len());
            }
            let mut reference: Vec<(u64, u32)> = hm.into_iter().collect();
            reference.sort_unstable();
            let got: Vec<(u64, u32)> = vm.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, reference, "sorted iteration matches");
        }

        /// FifoMap vs the HashMap+VecDeque idiom it replaces. Bounds up to
        /// 63 and a key space four times the bound drive the ring past
        /// wrap-around and the index through long backward-shift chains.
        #[test]
        fn fifomap_equivalence(
            bound in 1usize..64,
            ops in proptest::collection::vec((0u8..3, 0u64..256, 0u32..100), 0..1000),
        ) {
            let keys = 4 * bound as u64;
            let mut fm: FifoMap<u64, u32> = FifoMap::bounded(bound);
            let mut hm: HashMap<u64, u32> = HashMap::new();
            let mut order: std::collections::VecDeque<u64> = Default::default();
            for (op, k, v) in ops {
                let k = k % keys;
                if op < 2 {
                    let prev = hm.insert(k, v);
                    if prev.is_none() {
                        order.push_back(k);
                        if order.len() > bound {
                            let old = order.pop_front().unwrap();
                            hm.remove(&old);
                        }
                    }
                    proptest::prop_assert_eq!(fm.insert(k, v), prev);
                } else {
                    proptest::prop_assert_eq!(fm.get(&k), hm.get(&k));
                }
                proptest::prop_assert_eq!(fm.len(), hm.len());
            }
            for k in 0..keys {
                proptest::prop_assert_eq!(fm.get(&k), hm.get(&k), "final key {}", k);
            }
        }

        /// FifoSet vs HashSet+VecDeque (the remember_seen idiom).
        #[test]
        fn fifoset_equivalence(
            bound in 1usize..64,
            keys in proptest::collection::vec(0u64..256, 0..1000),
        ) {
            let space = 4 * bound as u64;
            let mut fs: FifoSet<u64> = FifoSet::bounded(bound);
            let mut hs: HashSet<u64> = HashSet::new();
            let mut order: std::collections::VecDeque<u64> = Default::default();
            for k in keys {
                let k = k % space;
                let fresh = hs.insert(k);
                if fresh {
                    order.push_back(k);
                    if order.len() > bound {
                        let old = order.pop_front().unwrap();
                        hs.remove(&old);
                    }
                }
                proptest::prop_assert_eq!(fs.insert(k), fresh);
                proptest::prop_assert_eq!(fs.len(), hs.len());
            }
            for k in 0..space {
                proptest::prop_assert_eq!(fs.contains(&k), hs.contains(&k));
            }
        }
    }
}
