//! The content-addressed plan cache.
//!
//! Bounded capacity with **deterministic LRU-by-sequence eviction**: every
//! access stamps the entry with a monotonically increasing sequence
//! number, and insertion into a full cache evicts the entry with the
//! smallest stamp.  Stamps are unique, so the victim is always unique —
//! the eviction order is a pure function of the access history, never of
//! hash-map iteration order or wall-clock time.
//!
//! An entry is only the plan's compact JSON
//! ([`crate::PlanBody::render_json`]), written once when the plan is
//! computed: every hit splices those bytes into its response, and nothing
//! reads the plan in any other form.

use std::collections::HashMap;

struct Entry {
    plan: String,
    last_used: u64,
}

/// A bounded LRU cache from request keys to rendered plans.
pub struct PlanCache {
    capacity: usize,
    seq: u64,
    map: HashMap<String, Entry>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            seq: 0,
            map: HashMap::new(),
        }
    }

    /// Look up a rendered plan, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<&str> {
        self.seq += 1;
        let seq = self.seq;
        self.map.get_mut(key).map(|e| {
            e.last_used = seq;
            e.plan.as_str()
        })
    }

    /// Insert a rendered plan, evicting the least-recently-used entry when
    /// full.  Returns the evicted key, if any.
    pub fn insert(&mut self, key: String, plan: String) -> Option<String> {
        self.seq += 1;
        if let Some(e) = self.map.get_mut(&key) {
            // Re-insertion of a live key refreshes it in place.
            e.plan = plan;
            e.last_used = self.seq;
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("cache is non-empty when full");
            self.map.remove(&victim);
            Some(victim)
        } else {
            None
        };
        self.map.insert(
            key,
            Entry {
                plan,
                last_used: self.seq,
            },
        );
        evicted
    }

    /// Number of plans held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no plans are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(tag: u64) -> String {
        crate::PlanBody {
            topo: "mesh:2x2".into(),
            algorithm: "opt-arch".into(),
            k: 2,
            bytes: tag,
            hold: 1,
            end: 2,
            latency: 2,
            depth: 1,
            chain: vec![0, 1],
            sends: vec![(0, 1, 0, 2)],
            certificate: None,
        }
        .render_json()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        assert_eq!(c.insert("a".into(), body(1)), None);
        assert_eq!(c.insert("b".into(), body(2)), None);
        // Touch `a`, making `b` the LRU entry.
        assert!(c.get("a").is_some());
        assert_eq!(c.insert("c".into(), body(3)), Some("b".into()));
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_order_is_a_function_of_access_history() {
        // Same access sequence twice ⇒ same eviction sequence, despite the
        // HashMap's arbitrary internal order.
        let run = || {
            let mut c = PlanCache::new(3);
            let mut evicted = Vec::new();
            for (i, key) in ["a", "b", "c", "d", "b", "e", "a", "f"].iter().enumerate() {
                if c.get(key).is_none() {
                    evicted.extend(c.insert((*key).to_string(), body(i as u64)));
                }
            }
            evicted
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!(first, vec!["a", "c", "d", "b"], "pure LRU victim order");
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut c = PlanCache::new(2);
        c.insert("a".into(), body(1));
        c.insert("b".into(), body(2));
        assert_eq!(c.insert("a".into(), body(9)), None, "no eviction");
        assert_eq!(c.get("a"), Some(body(9).as_str()));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c = PlanCache::new(0);
        assert_eq!(c.capacity(), 1);
        assert_eq!(c.insert("a".into(), body(1)), None);
        assert_eq!(c.insert("b".into(), body(2)), Some("a".into()));
        assert!(!c.is_empty());
    }
}
