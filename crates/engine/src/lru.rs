//! The one deterministic LRU behind every cache tier of this crate: the
//! [`crate::PrepCache`] instance tier and both [`crate::ReuseCache`]
//! tiers (solutions and warm bases).
//!
//! Every access takes a fresh stamp from a per-map logical tick, so
//! stamps are **unique within a map** and the victim — the entry with
//! the least stamp — is a pure function of the access sequence, with no
//! wall-clock or hash-order dependence. Two indexes share each key (one
//! `Arc<str>` allocation): a `HashMap` from key to `(value, stamp)` for
//! lookups, and a `BTreeMap` from stamp to key for recency, so a lookup
//! is one hash and an eviction is a `pop_first`: O(log n), copying no
//! key. Keys are whole canonical instance serializations and every
//! call runs under a tier mutex, so neither may cost O(capacity).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A capacity-bounded (or unbounded) deterministic LRU map from string
/// keys to `V`. Victim = least stamp; see the module docs.
#[derive(Debug)]
pub(crate) struct Lru<V> {
    map: HashMap<Arc<str>, (V, u64)>,
    /// Recency index: stamp → key, least recent first.
    order: BTreeMap<u64, Arc<str>>,
    tick: u64,
    cap: usize,
}

/// The default map is **unbounded**: it never evicts.
impl<V> Default for Lru<V> {
    fn default() -> Self {
        Lru {
            cap: usize::MAX,
            ..Lru::new(1)
        }
    }
}

impl<V> Lru<V> {
    /// An empty map holding at most `cap` entries (`0` is treated as 1).
    pub(crate) fn new(cap: usize) -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn check(&self) {
        debug_assert_eq!(self.map.len(), self.order.len(), "LRU indexes out of sync");
    }

    /// Looks `key` up and, on a hit, makes it the most recent entry.
    pub(crate) fn get_refreshed(&mut self, key: &str) -> Option<&V> {
        let tick = self.touch();
        // a refresh never changes the map's length, and the value stays
        // borrowed from it, so the sync check reads the length up front
        let resident = self.map.len();
        let (value, stamp) = self.map.get_mut(key)?;
        let shared = self.order.remove(stamp).expect("resident key is indexed");
        *stamp = tick;
        self.order.insert(tick, shared);
        debug_assert_eq!(resident, self.order.len(), "LRU indexes out of sync");
        Some(&*value)
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove(&mut self, key: &str) -> Option<V> {
        let (value, stamp) = self.map.remove(key)?;
        self.order.remove(&stamp);
        self.check();
        Some(value)
    }

    /// Inserts (or replaces) `key` as the most recent entry. A new key
    /// first evicts least-recent entries until it fits; they are
    /// returned, least recent first, so the caller can account for them
    /// (and drop them outside its lock). Replacing a resident key
    /// evicts nothing.
    pub(crate) fn insert(&mut self, key: &str, value: V) -> Vec<(Arc<str>, V)> {
        let tick = self.touch();
        if let Some((slot, stamp)) = self.map.get_mut(key) {
            let shared = self.order.remove(stamp).expect("resident key is indexed");
            *slot = value;
            *stamp = tick;
            self.order.insert(tick, shared);
            self.check();
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.map.len() >= self.cap {
            let (_, victim) = self.order.pop_first().expect("cap >= 1, map non-empty");
            let (dead, _) = self.map.remove(&victim).expect("indexed key is resident");
            evicted.push((victim, dead));
        }
        let shared: Arc<str> = Arc::from(key);
        self.order.insert(tick, Arc::clone(&shared));
        self.map.insert(shared, (value, tick));
        self.check();
        evicted
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Every resident `(key, value)`, in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.map.iter().map(|(k, (v, _))| (&**k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The victim rule every tier used before this type existed: a
    /// stamped map whose insert past capacity scans all entries for the
    /// least `(stamp, key)`. Kept only as the oracle for [`Lru`].
    struct ScanLru {
        map: HashMap<String, (u32, u64)>,
        tick: u64,
        cap: usize,
    }

    impl ScanLru {
        fn touch(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn get_refreshed(&mut self, key: &str) -> Option<u32> {
            let tick = self.touch();
            self.map.get_mut(key).map(|(v, last)| {
                *last = tick;
                *v
            })
        }

        fn remove(&mut self, key: &str) -> Option<u32> {
            self.map.remove(key).map(|(v, _)| v)
        }

        fn insert(&mut self, key: &str, value: u32) -> Vec<(String, u32)> {
            let tick = self.touch();
            if let Some(slot) = self.map.get_mut(key) {
                *slot = (value, tick);
                return Vec::new();
            }
            let mut evicted = Vec::new();
            while self.map.len() >= self.cap {
                let victim = self
                    .map
                    .iter()
                    .map(|(k, (_, last))| (*last, k.clone()))
                    .min()
                    .expect("cap >= 1, map non-empty")
                    .1;
                let (v, _) = self.map.remove(&victim).unwrap();
                evicted.push((victim, v));
            }
            self.map.insert(key.to_string(), (value, tick));
            evicted
        }

        fn residents(&self) -> Vec<(String, u32)> {
            let mut out: Vec<_> = self.map.iter().map(|(k, (v, _))| (k.clone(), *v)).collect();
            out.sort();
            out
        }
    }

    fn residents(lru: &Lru<u32>) -> Vec<(String, u32)> {
        let mut out: Vec<_> = lru.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        out.sort();
        out
    }

    /// One step of a random access sequence: `(op, key, value)`. Keys
    /// come from a pool of 12 so that hits, misses, re-inserts of a
    /// resident key and removals of absent keys all occur at every
    /// capacity in 1..=8.
    fn step() -> impl Strategy<Value = (u8, u8, u32)> {
        (0u8..4, 0u8..12, 0u32..1_000)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed LRU and the full-scan oracle agree step for step
        /// on residents, victim order and eviction counts — stamps are
        /// unique, so the scan's key tie-break never fires.
        #[test]
        fn indexed_lru_matches_full_scan_rule(
            cap in 1usize..9,
            steps in proptest::collection::vec(step(), 1..120),
        ) {
            let mut lru: Lru<u32> = Lru::new(cap);
            let mut oracle = ScanLru { map: HashMap::new(), tick: 0, cap };
            let (mut evictions, mut oracle_evictions) = (0usize, 0usize);
            for (i, &(op, k, v)) in steps.iter().enumerate() {
                let key = format!("key-{k}");
                match op {
                    0 | 1 => {
                        let got: Vec<(String, u32)> = lru
                            .insert(&key, v)
                            .into_iter()
                            .map(|(k, v)| (k.to_string(), v))
                            .collect();
                        let want = oracle.insert(&key, v);
                        evictions += got.len();
                        oracle_evictions += want.len();
                        prop_assert_eq!(got, want, "victims differ at step {}", i);
                    }
                    2 => {
                        let got = lru.get_refreshed(&key).copied();
                        prop_assert_eq!(got, oracle.get_refreshed(&key), "lookup differs at step {}", i);
                    }
                    _ => {
                        prop_assert_eq!(lru.remove(&key), oracle.remove(&key), "remove differs at step {}", i);
                    }
                }
                prop_assert_eq!(residents(&lru), oracle.residents(), "residents differ at step {}", i);
                prop_assert_eq!(evictions, oracle_evictions);
                prop_assert!(lru.len() <= cap);
            }
        }
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut lru = Lru::default();
        for i in 0..1_000u32 {
            assert!(lru.insert(&format!("k{i}"), i).is_empty());
        }
        assert_eq!(lru.len(), 1_000);
    }
}
