//! The workspace's one bounded least-recently-used map.
//!
//! Every cache that outlives a compile — the loop-record store, the
//! service's suite result cache, the suite strike ledger — is a
//! [`SyncLru`]: `u64` content keys, an entry bound fixed at creation,
//! least-recently-used eviction, and an eviction counter. Hitting the
//! bound can only cost rebuild time, never change an answer.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// A map bounded to `cap` entries. Lookups and inserts stamp the entry
/// with a logical clock; an insert past the bound evicts the entry with
/// the oldest stamp.
#[derive(Debug)]
pub struct BoundedLru<V> {
    map: HashMap<u64, (V, u64)>,
    tick: u64,
    cap: usize,
    evictions: u64,
}

impl<V> BoundedLru<V> {
    /// An empty map holding at most `cap` entries (at least one).
    pub fn new(cap: usize) -> Self {
        BoundedLru {
            map: HashMap::new(),
            tick: 0,
            cap: cap.max(1),
            evictions: 0,
        }
    }

    /// Looks up `key`, making it the most recently used entry.
    pub fn get(&mut self, key: u64) -> Option<&mut V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|(v, last)| {
            *last = tick;
            v
        })
    }

    /// Inserts (or replaces) `key` as the most recently used entry and
    /// evicts least-recently-used entries past the bound. The entry
    /// just inserted carries the newest stamp, so it is never the
    /// victim.
    pub fn insert(&mut self, key: u64, value: V) {
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        while self.map.len() > self.cap {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }

    pub fn remove(&mut self, key: u64) -> Option<V> {
        self.map.remove(&key).map(|(v, _)| v)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted by the bound since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Resident entries in no particular order; does not touch the
    /// recency stamps.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.map.iter().map(|(k, (v, _))| (*k, v))
    }
}

/// A [`BoundedLru`] shared between threads. [`SyncLru::lock`] is the
/// only way in, and it recovers a poisoned mutex instead of panicking:
/// every `BoundedLru` update leaves the map valid at each step, so a
/// worker that panicked while holding the guard costs at most one
/// stale entry, never the daemon.
#[derive(Debug)]
pub struct SyncLru<V>(Mutex<BoundedLru<V>>);

impl<V> SyncLru<V> {
    pub fn new(cap: usize) -> Self {
        SyncLru(Mutex::new(BoundedLru::new(cap)))
    }

    pub fn lock(&self) -> MutexGuard<'_, BoundedLru<V>> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_refreshes_recency_so_the_untouched_entry_is_evicted() {
        let mut lru = BoundedLru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(1).copied(), Some("a"));
        lru.insert(3, "c");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions(), 1);
        assert!(lru.get(2).is_none(), "2 was least recently used");
        assert!(lru.get(1).is_some() && lru.get(3).is_some());
    }

    #[test]
    fn cap_one_keeps_only_the_newest_and_counts_every_eviction() {
        // A zero cap is floored to one.
        let mut lru = BoundedLru::new(0);
        for k in 0..5 {
            lru.insert(k, k);
            assert_eq!(lru.len(), 1);
            assert_eq!(lru.get(k).copied(), Some(k), "just-inserted key survives");
        }
        assert_eq!(lru.evictions(), 4);
    }

    #[test]
    fn replacing_a_key_is_not_an_eviction() {
        let mut lru = BoundedLru::new(2);
        lru.insert(1, 10);
        lru.insert(1, 11);
        assert_eq!((lru.len(), lru.evictions()), (1, 0));
        assert_eq!(lru.remove(1), Some(11));
        assert!(lru.is_empty());
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let lru = SyncLru::new(4);
        lru.lock().insert(1, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lru.lock();
            panic!("poison the mutex");
        }));
        assert!(r.is_err());
        assert_eq!(lru.lock().get(1).copied(), Some(1));
    }
}
