//! The server-side weight cache.
//!
//! Each edge server holds a byte-accounted LRU cache of specialist
//! weight artifacts. The cache is part of the deterministic simulation:
//! recency is a monotonic logical tick (not wall time), entries live in a
//! plain vector (no hash-order dependence), and every decision is a pure
//! function of the request sequence — so fleet digests that include
//! cache statistics are byte-identical at any worker count.
//!
//! A **miss** is what makes the model plane a serving problem: the
//! artifact must be fetched and resident before the session's first
//! enhanced frame, so the fleet charges the load (latency + MACs) through
//! the admission controller and delays the session's start. The cache
//! only does the bookkeeping; the charging policy lives with the caller.

use crate::fingerprint::HeadId;

/// Running counters of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from resident artifacts.
    pub hits: u64,
    /// Requests that had to load the artifact.
    pub misses: u64,
    /// Artifacts evicted to make room.
    pub evictions: u64,
    /// Total bytes loaded on misses.
    pub bytes_loaded: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
}

nerve_net::wire_record!(CacheStats {
    hits,
    misses,
    evictions,
    bytes_loaded,
    resident_bytes
});

impl CacheStats {
    /// Hit fraction over all requests (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What one request did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Artifact was resident; no cost.
    Hit,
    /// Artifact was loaded; `evicted_bytes` made room for it.
    Miss { evicted_bytes: u64 },
}

impl CacheOutcome {
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    head: HeadId,
    bytes: u64,
    last_used: u64,
}

/// Deterministic byte-accounted LRU over weight artifacts.
#[derive(Debug, Clone)]
pub struct WeightCache {
    capacity_bytes: u64,
    entries: Vec<Entry>,
    tick: u64,
    stats: CacheStats,
}

impl WeightCache {
    /// An empty cache holding at most `capacity_bytes` of artifacts.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            entries: Vec::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Request `head` (sized `bytes`): a hit refreshes recency; a miss
    /// evicts least-recently-used artifacts until the new one fits, then
    /// loads it. An artifact larger than the whole cache is loaded
    /// through (counted, not retained). The generic head is pinned at the
    /// server and never enters the cache — requests for it are hits by
    /// definition.
    pub fn request(&mut self, head: HeadId, bytes: u64) -> CacheOutcome {
        self.tick += 1;
        if head == HeadId::Generic {
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.head == head) {
            e.last_used = self.tick;
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        self.stats.misses += 1;
        self.stats.bytes_loaded += bytes;
        let mut evicted_bytes = 0u64;
        if bytes <= self.capacity_bytes {
            while self.stats.resident_bytes + bytes > self.capacity_bytes {
                let lru = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("resident bytes imply entries");
                let gone = self.entries.remove(lru);
                self.stats.resident_bytes -= gone.bytes;
                self.stats.evictions += 1;
                evicted_bytes += gone.bytes;
            }
            self.entries.push(Entry {
                head,
                bytes,
                last_used: self.tick,
            });
            self.stats.resident_bytes += bytes;
        }
        CacheOutcome::Miss { evicted_bytes }
    }

    /// Is the artifact currently resident (generic is always resident)?
    pub fn contains(&self, head: HeadId) -> bool {
        head == HeadId::Generic || self.entries.iter().any(|e| e.head == head)
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Artifacts currently resident.
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// Snapshot the cache's mutable state for a fleet checkpoint: the
    /// resident entries with their recency ticks (entry order is the
    /// insertion order, which eviction scans), the logical tick, and the
    /// counters. Capacity travels with the reconstructing config.
    pub fn state(&self) -> WeightCacheState {
        WeightCacheState {
            entries: self
                .entries
                .iter()
                .map(|e| (e.head, e.bytes, e.last_used))
                .collect(),
            tick: self.tick,
            stats: self.stats,
        }
    }

    /// Restore a snapshot taken by [`state`](Self::state).
    pub fn restore(&mut self, state: WeightCacheState) {
        self.entries = state
            .entries
            .into_iter()
            .map(|(head, bytes, last_used)| Entry {
                head,
                bytes,
                last_used,
            })
            .collect();
        self.tick = state.tick;
        self.stats = state.stats;
    }
}

/// Serializable position of a [`WeightCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct WeightCacheState {
    /// `(head, bytes, last_used)` in the cache's internal entry order.
    pub entries: Vec<(HeadId, u64, u64)>,
    pub tick: u64,
    pub stats: CacheStats,
}

nerve_net::wire_record!(WeightCacheState {
    entries,
    tick,
    stats
});

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_video::synth::Category;

    fn head(i: usize) -> HeadId {
        HeadId::Specialist(Category::ALL[i])
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut c = WeightCache::new(1000);
        assert!(matches!(
            c.request(head(0), 400),
            CacheOutcome::Miss { evicted_bytes: 0 }
        ));
        assert!(c.request(head(0), 400).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().resident_bytes, 400);
        assert_eq!(c.stats().bytes_loaded, 400);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut c = WeightCache::new(1000);
        c.request(head(0), 400);
        c.request(head(1), 400);
        c.request(head(0), 400); // refresh 0 — head 1 is now LRU
        let out = c.request(head(2), 400);
        assert_eq!(out, CacheOutcome::Miss { evicted_bytes: 400 });
        assert!(c.contains(head(0)));
        assert!(!c.contains(head(1)), "LRU must be the evicted one");
        assert!(c.contains(head(2)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().resident_bytes, 800);
    }

    #[test]
    fn generic_head_is_pinned_and_free() {
        let mut c = WeightCache::new(100);
        assert!(c.request(HeadId::Generic, 96_000).is_hit());
        assert!(c.contains(HeadId::Generic));
        assert_eq!(c.stats().resident_bytes, 0);
    }

    #[test]
    fn oversized_artifact_loads_through_without_residency() {
        let mut c = WeightCache::new(100);
        let out = c.request(head(3), 500);
        assert_eq!(out, CacheOutcome::Miss { evicted_bytes: 0 });
        assert!(!c.contains(head(3)));
        assert_eq!(c.stats().bytes_loaded, 500);
        assert_eq!(c.stats().resident_bytes, 0);
    }

    #[test]
    fn request_sequence_is_deterministic() {
        let run = || {
            let mut c = WeightCache::new(1200);
            for i in [0usize, 1, 2, 0, 3, 1, 4, 0, 2] {
                c.request(head(i), 400);
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }
}
