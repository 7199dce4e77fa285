//! The content-addressed plan cache.
//!
//! Bounded capacity with **deterministic LRU-by-sequence eviction**: every
//! access stamps the entry with a monotonically increasing sequence
//! number, and insertion into a full cache evicts the entry with the
//! smallest stamp.  Stamps are unique, so the victim is always unique —
//! the eviction order is a pure function of the access history, never of
//! hash-map iteration order or wall-clock time.
//!
//! An entry is only the tail of its responses, `"key":…,"plan":…`: the
//! JSON-escaped key and the plan's compact JSON
//! ([`crate::PlanBody::render_json`]), written once when the plan is
//! computed.  Every response for the plan splices those bytes, and
//! nothing reads the plan in any other form.
//!
//! Entries are found by their member-list key or through an **alias**, the
//! seeded form of a request that drew those members.  An entry has at most
//! one alias, so there are never more aliases than plans; an alias holds
//! one seeded key and the entry's slot, and is dropped with its entry.

use std::collections::HashMap;

use crate::request::SeededKey;

struct Entry {
    tail: String,
    last_used: u64,
    /// Whether an alias points at this entry.
    aliased: bool,
}

/// A bounded LRU cache from request keys to rendered response tails.
pub struct PlanCache {
    capacity: usize,
    seq: u64,
    /// Built by the first insert: an empty cache holds no tables, so a
    /// new engine costs no more to build than with the one map it had
    /// before aliases.
    tables: Option<Box<Tables>>,
}

#[derive(Default)]
struct Tables {
    /// Member-list key → slot in `entries`.
    index: HashMap<String, usize>,
    /// Seeded key → slot in `entries`.
    aliases: HashMap<SeededKey, usize>,
    entries: Vec<Entry>,
}

impl Tables {
    fn touch(&mut self, slot: usize, seq: u64) -> &str {
        let e = &mut self.entries[slot];
        e.last_used = seq;
        &e.tail
    }

    fn unalias(&mut self, slot: usize) {
        if std::mem::take(&mut self.entries[slot].aliased) {
            self.aliases.retain(|_, s| *s != slot);
        }
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            seq: 0,
            tables: None,
        }
    }

    /// Look up a response tail by key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<&str> {
        self.seq += 1;
        let t = self.tables.as_deref_mut()?;
        let slot = *t.index.get(key)?;
        Some(t.touch(slot, self.seq))
    }

    /// Look up a response tail by the seeded form of a request, refreshing
    /// its recency on a hit like [`PlanCache::get`].
    pub(crate) fn get_alias(&mut self, alias: &SeededKey) -> Option<&str> {
        self.seq += 1;
        let t = self.tables.as_deref_mut()?;
        let slot = *t.aliases.get(alias)?;
        Some(t.touch(slot, self.seq))
    }

    /// Make `alias` the one alias of the entry cached under `key`, if
    /// there is one; any alias it had before is dropped.
    pub(crate) fn alias(&mut self, key: &str, alias: SeededKey) {
        let Some(t) = self.tables.as_deref_mut() else {
            return;
        };
        let Some(&slot) = t.index.get(key) else {
            return;
        };
        t.unalias(slot);
        t.entries[slot].aliased = true;
        t.aliases.insert(alias, slot);
    }

    /// Insert a response tail, evicting the least-recently-used entry (and
    /// its alias) when full.  Returns the evicted key, if any.
    pub fn insert(&mut self, key: String, tail: String) -> Option<String> {
        self.seq += 1;
        let fresh = Entry {
            tail,
            last_used: self.seq,
            aliased: false,
        };
        let t = self.tables.get_or_insert_with(Box::default);
        if let Some(&slot) = t.index.get(&key) {
            // Re-insertion of a live key refreshes it in place.
            t.entries[slot].tail = fresh.tail;
            t.entries[slot].last_used = fresh.last_used;
            return None;
        }
        if t.index.len() < self.capacity {
            t.index.insert(key, t.entries.len());
            t.entries.push(fresh);
            return None;
        }
        let (victim, slot) = t
            .index
            .iter()
            .min_by_key(|(_, &s)| t.entries[s].last_used)
            .map(|(k, &s)| (k.clone(), s))
            .expect("cache is non-empty when full");
        t.index.remove(&victim);
        t.unalias(slot);
        t.entries[slot] = fresh;
        t.index.insert(key, slot);
        Some(victim)
    }

    /// Number of plans held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.as_ref().map_or(0, |t| t.index.len())
    }

    /// True when no plans are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    use crate::request::{parse_request, Request};

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

    fn seeded(seed: u64) -> SeededKey {
        let line = format!(r#"{{"topo": "mesh:4x4", "k": 2, "seed": {seed}}}"#);
        let Ok(Request::Plan(plan, _)) = parse_request(&line) else {
            panic!("expected a plan request");
        };
        plan.seeded().expect("a seeded request").clone()
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

    #[test]
    fn an_alias_hit_stamps_its_entry_and_dies_with_it() {
        let mut c = PlanCache::new(2);
        c.insert("a".into(), body(1));
        c.insert("b".into(), body(2));
        c.alias("a", seeded(1));
        c.alias("nothing cached", seeded(7));
        let aliases = |c: &PlanCache| c.tables.as_ref().map_or(0, |t| t.aliases.len());
        assert_eq!(aliases(&c), 1, "an alias needs a live entry");
        // The alias hit makes `b` the LRU entry.
        assert_eq!(c.get_alias(&seeded(1)), Some(body(1).as_str()));
        assert_eq!(c.insert("c".into(), body(3)), Some("b".into()));
        // A second alias replaces the first: one per entry.
        c.alias("a", seeded(2));
        assert!(c.get_alias(&seeded(1)).is_none());
        assert_eq!(aliases(&c), 1);
        // Evicting `a` drops its alias.
        c.get("c");
        assert_eq!(c.insert("d".into(), body(4)), Some("a".into()));
        assert!(c.get_alias(&seeded(2)).is_none());
        assert_eq!(aliases(&c), 0);
    }
}
