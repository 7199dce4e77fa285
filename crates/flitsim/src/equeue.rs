//! The engine's event queue — a calendar (bucket-ring) queue with a heap
//! for far-future events, popping in ascending `(t, ord)` order.
//!
//! # Ordering contract
//!
//! Events pop in ascending `(t, ord)` order, where `ord` is an **intrinsic**
//! ordering key built by the engine from the event's priority class, kind,
//! and the identity of the entity it drives (channel id, node id, or the
//! worm's birth rank).  Intrinsic means *execution-order independent*: the
//! key of an event never depends on how many other events were scheduled
//! before it, only on what the event is, so the order of equal-time events
//! is part of the model and every `SimResult` fingerprint pins it.
//!
//! The engine guarantees `(t, ord)` pairs are unique: at one instant a
//! channel has at most one pending release, a node one pending kick, and a
//! worm one pending event of each kind (see `Engine::ord_of`).
//!
//! # Structure
//!
//! Simulated time in a wormhole run advances in small steps (a router delay
//! or a drain tail), so nearly every pending event lives within a few
//! thousand cycles of the cursor.  The queue exploits that:
//!
//! * a power-of-two ring of [`SLOTS`] buckets, slot `t & (SLOTS-1)`, holds
//!   every event with `cursor <= t < cursor + SLOTS` as an intrusive singly
//!   linked list over a recycled node pool (no per-event allocation in
//!   steady state);
//! * an occupancy bitmap finds the next non-empty bucket with a handful of
//!   word scans;
//! * far-future events (campaign `not_before` staggering) overflow into a
//!   plain binary heap and migrate into the ring whenever the cursor
//!   advances past the point where they fit.
//!
//! Nothing is ever scheduled before the cursor (the time of the last
//! event popped): the engine schedules every event, releases included, at
//! or after the cycle it is processing.  `push` asserts this on every call,
//! in release builds too, because an earlier event would pop out of order
//! and silently change the simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pcm::Time;

/// Ring size in buckets (cycles of look-ahead before the overflow heap).
const SLOTS: usize = 4096;
const NIL: u32 = u32::MAX;

/// Memory footprint of one pending bucketed event, for the peak-heap
/// estimate in `RunMeta`.
pub(crate) const ENTRY_BYTES: usize = std::mem::size_of::<Node>();

#[derive(Clone, Copy)]
struct Node {
    t: Time,
    /// The intrinsic ordering key (priority, kind, entity rank).
    ord: u64,
    ev: u64,
    next: u32,
}

/// The calendar queue.  `push` takes `(time, ord, payload)`; `pop` returns
/// `(time, ord, payload)` in ascending `(time, ord)` order.
pub(crate) struct EventQueue {
    slots: Box<[u32]>,
    occupied: Box<[u64]>,
    cursor: Time,
    nodes: Vec<Node>,
    free: u32,
    len: usize,
    bucketed: usize,
    overflow: BinaryHeap<Reverse<(Time, u64, u64)>>,
}

impl EventQueue {
    pub fn new() -> Self {
        Self {
            slots: vec![NIL; SLOTS].into_boxed_slice(),
            occupied: vec![0u64; SLOTS / 64].into_boxed_slice(),
            cursor: 0,
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            bucketed: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// A queue that holds no buffers, for a `Sim` whose state is out on
    /// loan to a run; nothing is ever pushed onto it.
    pub fn lent() -> Self {
        Self {
            slots: Box::new([]),
            occupied: Box::new([]),
            cursor: 0,
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            bucketed: 0,
            overflow: BinaryHeap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Make an empty queue ready for a run that starts at time 0: only the
    /// cursor moves, since popping the last event left every bucket empty;
    /// the ring and the node pool stay.
    ///
    /// # Panics
    /// If an event is still pending.
    pub fn rewind(&mut self) {
        assert_eq!(self.len, 0, "run ended with events still queued");
        debug_assert!(self.bucketed == 0 && self.overflow.is_empty());
        self.cursor = 0;
    }

    pub fn push(&mut self, t: Time, ord: u64, ev: u64) {
        assert!(
            t >= self.cursor,
            "event scheduled at {t}, before the queue cursor {}",
            self.cursor
        );
        self.len += 1;
        if t >= self.cursor.saturating_add(SLOTS as Time) {
            self.overflow.push(Reverse((t, ord, ev)));
        } else {
            self.bucket(t, ord, ev);
        }
    }

    pub fn pop(&mut self) -> Option<(Time, u64, u64)> {
        if self.len == 0 {
            return None;
        }
        if self.bucketed == 0 {
            // Everything pending is far-future: jump the window to it.
            let &Reverse((t, _, _)) = self.overflow.peek().expect("len accounting broke");
            self.cursor = t;
            self.migrate();
        }
        let slot = self.next_occupied();
        let (t, ord, ev) = self.unlink_min(slot);
        self.bucketed -= 1;
        self.len -= 1;
        if t > self.cursor {
            self.cursor = t;
            self.migrate();
        }
        Some((t, ord, ev))
    }

    fn bucket(&mut self, t: Time, ord: u64, ev: u64) {
        let slot = (t as usize) & (SLOTS - 1);
        let node = Node {
            t,
            ord,
            ev,
            next: self.slots[slot],
        };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.slots[slot] = idx;
        self.occupied[slot >> 6] |= 1 << (slot & 63);
        self.bucketed += 1;
    }

    /// Move every overflow event now inside the ring window into buckets.
    /// Must run on every cursor advance: an overflow event left outside the
    /// ring while bucketed events at later times exist would pop out of
    /// order.
    fn migrate(&mut self) {
        let horizon = self.cursor.saturating_add(SLOTS as Time);
        while let Some(&Reverse((t, ord, ev))) = self.overflow.peek() {
            if t >= horizon {
                break;
            }
            self.overflow.pop();
            self.bucket(t, ord, ev);
        }
    }

    /// First occupied slot at or ring-wise after the cursor's slot.  Ring
    /// order from the cursor is time order: every bucketed `t` lies in
    /// `[cursor, cursor + SLOTS)`, which maps injectively onto the ring.
    fn next_occupied(&self) -> usize {
        let start = (self.cursor as usize) & (SLOTS - 1);
        let word = self.occupied[start >> 6] >> (start & 63);
        if word != 0 {
            return start + word.trailing_zeros() as usize;
        }
        let words = self.occupied.len();
        for k in 1..=words {
            let i = ((start >> 6) + k) % words;
            let w = self.occupied[i];
            if w != 0 {
                return (i << 6) + w.trailing_zeros() as usize;
            }
        }
        unreachable!("bucketed > 0 but no occupied slot")
    }

    /// Unlink and recycle the minimum-(t, ord) node of a slot's list.  All
    /// nodes in one slot share the same `t` (the window is injective per
    /// slot), so this is the kind/rank minimum of one instant.
    fn unlink_min(&mut self, slot: usize) -> (Time, u64, u64) {
        let head = self.slots[slot];
        debug_assert_ne!(head, NIL);
        let mut best = head;
        let mut best_prev = NIL;
        let mut prev = head;
        let mut cur = self.nodes[head as usize].next;
        while cur != NIL {
            let (c, b) = (&self.nodes[cur as usize], &self.nodes[best as usize]);
            if (c.t, c.ord) < (b.t, b.ord) {
                best = cur;
                best_prev = prev;
            }
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        let after = self.nodes[best as usize].next;
        if best_prev == NIL {
            self.slots[slot] = after;
        } else {
            self.nodes[best_prev as usize].next = after;
        }
        if self.slots[slot] == NIL {
            self.occupied[slot >> 6] &= !(1 << (slot & 63));
        }
        let n = self.nodes[best as usize];
        self.nodes[best as usize].next = self.free;
        self.free = best;
        (n.t, n.ord, n.ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: a plain heap over the same `(t, ord)` key.
    #[derive(Default)]
    struct RefHeap {
        heap: BinaryHeap<Reverse<(Time, u64, u64)>>,
    }

    impl RefHeap {
        fn push(&mut self, t: Time, ord: u64, ev: u64) {
            self.heap.push(Reverse((t, ord, ev)));
        }

        fn pop(&mut self) -> Option<(Time, u64, u64)> {
            self.heap.pop().map(|Reverse(k)| k)
        }
    }

    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn drive(seed: u64, pushes: usize, time_spread: Time) {
        let mut rng = Lcg(seed);
        let mut q = EventQueue::new();
        let mut r = RefHeap::default();
        let mut now: Time = 0;
        let mut pushed = 0usize;
        let mut ev = 0u64;
        while pushed < pushes || q.len() > 0 {
            let do_push = pushed < pushes && (q.len() == 0 || !rng.next().is_multiple_of(3));
            if do_push {
                // Mix same-instant, near-future and far-future (overflow)
                // times; `now` is the queue's cursor.
                let t = match rng.next() % 10 {
                    0 => now,
                    1 => now + SLOTS as Time + rng.next() % time_spread,
                    _ => now + rng.next() % 700,
                };
                // Unique intrinsic ords, as the engine guarantees: the
                // counter stands in for a (prio, kind, rank) key.
                ev += 1;
                let ord = (rng.next() % 2) << 63 | ev;
                q.push(t, ord, ev);
                r.push(t, ord, ev);
                pushed += 1;
            } else {
                let got = q.pop();
                let want = r.pop();
                assert_eq!(got, want, "divergence at seed {seed} after {pushed} pushes");
                if let Some((t, _, _)) = got {
                    now = now.max(t);
                }
            }
        }
        assert_eq!(q.pop(), None);
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn matches_reference_heap_order_exactly() {
        for seed in 0..20 {
            drive(seed, 800, 100_000);
        }
    }

    #[test]
    fn far_future_staggering_round_trips_through_overflow() {
        // Campaign-style: a burst of events spread over many ring windows.
        drive(99, 400, 50_000_000);
    }

    #[test]
    fn lower_ord_pops_first_at_one_instant() {
        let mut q = EventQueue::new();
        q.push(10, 1 << 63 | 7, 100);
        q.push(10, 3, 200);
        q.push(10, 1 << 63 | 2, 101);
        q.push(10, 9, 201);
        assert_eq!(q.pop(), Some((10, 3, 200)));
        assert_eq!(q.pop(), Some((10, 9, 201)));
        assert_eq!(q.pop(), Some((10, 1 << 63 | 2, 101)));
        assert_eq!(q.pop(), Some((10, 1 << 63 | 7, 100)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "before the queue cursor 1000")]
    fn pushing_before_the_cursor_panics() {
        let mut q = EventQueue::new();
        q.push(1000, 1, 1);
        assert_eq!(q.pop(), Some((1000, 1, 1)));
        // The cursor is now 1000: an earlier event would pop out of order.
        q.push(400, 2, 2);
    }

    #[test]
    fn node_pool_recycles_instead_of_growing() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..8 {
                q.push(round * 10 + i, i, i);
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        assert!(
            q.nodes.len() <= 8,
            "pool grew to {} for 8 concurrent events",
            q.nodes.len()
        );
    }
}
