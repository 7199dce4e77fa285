//! The content-addressed plan cache.
//!
//! Bounded capacity with **deterministic LRU eviction**: every access moves
//! its entry to the most-recently-used end of a list threaded through the
//! entries, and insertion into a full cache evicts the entry at the other
//! end — the one whose last access is oldest, as the smallest of a stamp
//! taken on every access would name it.  The victim is always unique, and
//! the eviction order is a pure function of the access history, never of
//! hash-map iteration order or wall-clock time.  Finding it, and dropping
//! its key and alias, is O(1).
//!
//! An entry is only the tail of its responses, `"key":…,"plan":…`: the
//! JSON-escaped key and the plan's compact JSON
//! ([`crate::PlanBody::render_json`]), written once when the plan is
//! computed.  Every response for the plan splices those bytes, and
//! nothing reads the plan in any other form.
//!
//! Entries are found by their member-list key or through an **alias**, the
//! seeded form of a request that drew those members.  An entry has at most
//! one alias, so there are never more aliases than plans; an alias is
//! dropped with its entry.
//!
//! Each key is held once, by its entry; the two maps go from a key's
//! 64-bit digest to the slot, and a lookup checks the entry's own key.  A
//! digest names at most one entry: should two keys share one, the later
//! takes the map over and the earlier is found by no lookup until it is
//! evicted — a lost hit, never a wrong plan.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher, Hash, Hasher};

use crate::request::SeededKey;

/// The end of the recency list.
const NIL: usize = usize::MAX;

/// A key's digest in the cache's maps: SipHash with fixed keys, so a
/// replay keys the maps, and so answers, identically.
fn digest(key: &(impl Hash + ?Sized)) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// A map from digests to slots.  A digest is already a hash, so the map
/// uses it as is instead of hashing it again.
type DigestMap = HashMap<u64, usize, BuildHasherDefault<Digested>>;

/// The [`Hasher`] of a [`DigestMap`]: passes its one `u64` through.
#[derive(Default)]
struct Digested(u64);

impl Hasher for Digested {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a digest map hashes only u64 digests");
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

struct Entry {
    /// The member-list key, with its digest.
    key: String,
    key_digest: u64,
    tail: String,
    /// The seeded key an alias finds the entry by, with its digest.
    alias: Option<(SeededKey, u64)>,
    /// The next less recently used entry, or [`NIL`].
    older: usize,
    /// The next more recently used entry, or [`NIL`].
    newer: usize,
}

/// A bounded LRU cache from request keys to rendered response tails.
pub struct PlanCache {
    capacity: usize,
    /// Built by the first insert: an empty cache holds no tables, so a
    /// new engine costs no more to build than with the one map it had
    /// before aliases.
    tables: Option<Box<Tables>>,
}

struct Tables {
    /// Member-list key digest → slot in `entries`.
    index: DigestMap,
    /// Seeded key digest → slot in `entries`.
    aliases: DigestMap,
    entries: Vec<Entry>,
    /// The least and the most recently used entries, or [`NIL`].
    oldest: usize,
    newest: usize,
}

impl Default for Tables {
    fn default() -> Self {
        Tables {
            index: DigestMap::default(),
            aliases: DigestMap::default(),
            entries: Vec::new(),
            oldest: NIL,
            newest: NIL,
        }
    }
}

impl Tables {
    /// The slot holding `key`, whose digest is `d`.
    fn find(&self, key: &str, d: u64) -> Option<usize> {
        let slot = *self.index.get(&d)?;
        (self.entries[slot].key == key).then_some(slot)
    }

    /// Take `slot` out of the recency list.
    fn unlink(&mut self, slot: usize) {
        let Entry { older, newer, .. } = self.entries[slot];
        match older {
            NIL => self.oldest = newer,
            o => self.entries[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.entries[n].older = older,
        }
    }

    /// Put `slot` at the most recently used end of the list.
    fn push_newest(&mut self, slot: usize) {
        self.entries[slot].older = self.newest;
        self.entries[slot].newer = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.entries[n].newer = slot,
        }
        self.newest = slot;
    }

    fn touch(&mut self, slot: usize) -> &str {
        if self.newest != slot {
            self.unlink(slot);
            self.push_newest(slot);
        }
        &self.entries[slot].tail
    }

    fn unalias(&mut self, slot: usize) {
        if let Some((_, d)) = self.entries[slot].alias.take() {
            if self.aliases.get(&d) == Some(&slot) {
                self.aliases.remove(&d);
            }
        }
    }

    fn set_alias(&mut self, slot: usize, alias: SeededKey) {
        self.unalias(slot);
        let d = digest(&alias);
        self.aliases.insert(d, slot);
        self.entries[slot].alias = Some((alias, d));
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            tables: None,
        }
    }

    /// Look up a response tail by key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<&str> {
        let t = self.tables.as_deref_mut()?;
        let slot = t.find(key, digest(key))?;
        Some(t.touch(slot))
    }

    /// Look up a response tail by the seeded form of a request, refreshing
    /// its recency on a hit like [`PlanCache::get`].
    pub(crate) fn get_alias(&mut self, alias: &SeededKey) -> Option<&str> {
        let t = self.tables.as_deref_mut()?;
        let slot = *t.aliases.get(&digest(alias))?;
        let aliased = t.entries[slot].alias.as_ref().map(|(a, _)| a);
        (aliased == Some(alias)).then(|| t.touch(slot))
    }

    /// Make `alias` the one alias of the entry cached under `key`, if
    /// there is one; any alias it had before is dropped.
    pub(crate) fn alias(&mut self, key: &str, alias: SeededKey) {
        let Some(t) = self.tables.as_deref_mut() else {
            return;
        };
        if let Some(slot) = t.find(key, digest(key)) {
            t.set_alias(slot, alias);
        }
    }

    /// Insert a response tail, evicting the least-recently-used entry (and
    /// its alias) when full.  Returns the evicted key, if any.
    pub fn insert(&mut self, key: String, tail: String) -> Option<String> {
        self.insert_aliased(key, tail, None)
    }

    /// [`PlanCache::insert`], then [`PlanCache::alias`] the entry if
    /// `alias` is given.
    pub(crate) fn insert_aliased(
        &mut self,
        key: String,
        tail: String,
        alias: Option<SeededKey>,
    ) -> Option<String> {
        let t = self.tables.get_or_insert_with(Box::default);
        let d = digest(key.as_str());
        let (slot, evicted) = if let Some(slot) = t.find(&key, d) {
            // Re-insertion of a live key refreshes it in place.
            t.entries[slot].tail = tail;
            t.touch(slot);
            (slot, None)
        } else {
            let fresh = Entry {
                key,
                key_digest: d,
                tail,
                alias: None,
                older: NIL,
                newer: NIL,
            };
            let (slot, evicted) = if t.entries.len() < self.capacity {
                t.entries.push(fresh);
                (t.entries.len() - 1, None)
            } else {
                let slot = t.oldest;
                t.unlink(slot);
                t.unalias(slot);
                let victim = std::mem::replace(&mut t.entries[slot], fresh);
                if t.index.get(&victim.key_digest) == Some(&slot) {
                    t.index.remove(&victim.key_digest);
                }
                (slot, Some(victim.key))
            };
            t.index.insert(d, slot);
            t.push_newest(slot);
            (slot, evicted)
        };
        if let Some(alias) = alias {
            t.set_alias(slot, alias);
        }
        evicted
    }

    /// Number of plans held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.as_ref().map_or(0, |t| t.entries.len())
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
