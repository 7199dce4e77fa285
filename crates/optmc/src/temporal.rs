//! Temporal contention avoidance — the paper's §6 proposal for networks
//! that cannot be partitioned into contention-free clusters (e.g. the
//! unidirectional butterfly MIN):
//!
//! > "Instead of preventing a common communication channel used by
//! > different senders at any time, some channels are allowed to be shared.
//! > However, the senders who share the same communication channels are
//! > ordered such that they are unlikely to send at the same time.  In other
//! > words, the ordering is temporal contention-free."
//!
//! The scheduler below materialises that idea greedily: it replays the
//! chain-splitting recursion, but before admitting a send it consults a
//! per-channel reservation table; if any channel of the send's path is
//! reserved by an earlier, overlapping send, the send's initiation is
//! *delayed* past the reservation instead of letting the worm block inside
//! the network (where a blocked head would hold channels and cascade).  The
//! resulting start times are fed to the flit-level run through
//! [`flitsim::SendReq::not_before`].

use std::collections::HashMap;

use mtree::{Schedule, SendEvent, SplitStrategy};
use pcm::Time;
use topo::{Chain, ChannelId, Topology};

/// A schedule whose start times have been adjusted to be (predicted)
/// temporally contention-free.
#[derive(Debug, Clone)]
pub struct TemporalSchedule {
    /// The adjusted schedule (same sends, possibly later starts).
    pub schedule: Schedule,
    /// Earliest initiation time of the send that delivers to each chain
    /// position (0 for the source, which receives nothing).
    pub not_before: Vec<Time>,
    /// Total delay injected across all sends, relative to the naive
    /// schedule — the price paid for avoiding in-network blocking.
    pub added_delay: Time,
}

/// Build the temporally-ordered schedule for `chain` with `splits` under
/// `(hold, end)` on `topo`.
///
/// Reservation model: a send occupies every channel of its deterministic
/// path for `(start, start + t_end)` — conservative (a worm holds most
/// channels for less), which is the right bias for an *avoidance* scheduler.
pub fn temporal_schedule(
    topo: &dyn Topology,
    chain: &Chain,
    splits: &SplitStrategy,
    hold: Time,
    end: Time,
) -> TemporalSchedule {
    temporal_schedule_with_lead(topo, chain, splits, hold, end, 0)
}

/// [`temporal_schedule`] with a *software lead*: a send's worm only enters
/// the network `lead` cycles after initiation (`lead = t_send(m)`), so a
/// send may be initiated while a conflicting predecessor still drains, as
/// long as its own flits arrive after the predecessor's reservation ends.
/// `lead = 0` recovers the fully conservative scheduler, under which no two
/// senders' whole `(start, start + t_end)` lifetimes ever share a channel;
/// a positive lead produces tighter schedules that are still blocking-free
/// in the flit-level simulator (the operational criterion).
pub fn temporal_schedule_with_lead(
    topo: &dyn Topology,
    chain: &Chain,
    splits: &SplitStrategy,
    hold: Time,
    end: Time,
    lead: Time,
) -> TemporalSchedule {
    let k = chain.len();
    // Reservation: channel → (free time, chain position of the reserving
    // sender).  A sender's *own* previous reservation is ignored: its
    // consecutive worms are already serialised by the one-port injection
    // channel and `t_hold ≥ drain`.
    let mut free_at: HashMap<ChannelId, (Time, usize)> = HashMap::new();
    let mut sends: Vec<SendEvent> = Vec::with_capacity(k.saturating_sub(1));
    let mut recv_time = vec![0 as Time; k];
    let mut not_before = vec![0 as Time; k];
    let mut added = 0;

    // Replay the recursion with a work stack, exactly as Schedule::build,
    // but let channel reservations push starts later.
    let mut stack = vec![(0usize, k.saturating_sub(1), chain.src_pos(), 0 as Time)];
    while let Some((mut l, mut r, s, mut cursor)) = stack.pop() {
        while l < r {
            let i = r - l + 1;
            let j = splits.j(i);
            let (rec, d_lo, d_hi);
            if s < l + j {
                rec = l + j;
                d_lo = rec;
                d_hi = r;
                r = rec - 1;
            } else {
                rec = r - j;
                d_lo = l;
                d_hi = rec;
                l = rec + 1;
            }
            let path = topo.det_path(chain.node(s), chain.node(rec));
            let mut start = cursor;
            for ch in &path {
                if let Some(&(f, owner)) = free_at.get(ch) {
                    if owner != s {
                        start = start.max(f.saturating_sub(lead));
                    }
                }
            }
            added += start - cursor;
            for ch in &path {
                free_at.insert(*ch, (start + end, s));
            }
            let arrive = start + end;
            sends.push(SendEvent {
                from: s,
                to: rec,
                start,
                arrive,
                range: (d_lo, d_hi),
            });
            recv_time[rec] = arrive;
            not_before[rec] = start;
            stack.push((d_lo, d_hi, rec, arrive));
            cursor = start + hold;
        }
    }
    // `added` accumulates start − cursor per send: exactly the delay
    // injected relative to running every sender at full speed.
    TemporalSchedule {
        schedule: Schedule {
            k,
            src: chain.src_pos(),
            hold,
            end,
            sends,
            recv_time,
        },
        not_before,
        added_delay: added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use flitsim::SimConfig;
    use topo::{Mesh, NodeId, Omega};

    /// The operational criterion: on the unique-path omega network, runs
    /// pre-delayed by the temporal scheduler never block in the flit-level
    /// simulator, while naive runs of the same OPT-tree do.
    #[test]
    fn temporal_runs_never_block_where_naive_runs_do() {
        let o = Omega::new(5);
        let cfg = SimConfig::paragon_like();
        let mut naive_blocked = 0;
        for seed in 0..15u64 {
            let parts = crate::experiments::random_placement(32, 12, seed);
            for bytes in [64, 1024, 4096] {
                let run = |temporal| {
                    crate::runner::run_multicast_with(
                        &o,
                        &cfg,
                        Algorithm::OptTree,
                        &parts,
                        parts[0],
                        bytes,
                        temporal,
                    )
                };
                let t = run(true);
                assert_eq!(t.sim.blocked_cycles, 0, "seed {seed}, {bytes} bytes");
                t.schedule.validate().unwrap();
                naive_blocked += u32::from(run(false).sim.blocked_cycles > 0);
            }
        }
        assert!(naive_blocked > 0, "no naive omega run blocked");
    }

    #[test]
    fn no_delay_when_paths_are_disjoint() {
        // On a mesh with the architecture ordering, the naive schedule is
        // already conflict-free, so the temporal scheduler must not delay
        // anything.
        let m = Mesh::new(&[8, 8]);
        for seed in 0..10u64 {
            let parts = crate::experiments::random_placement(64, 10, seed);
            let chain = Algorithm::OptArch.chain(&m, &parts, parts[0]);
            let splits = Algorithm::OptArch.splits(20, 55, 10);
            let t = temporal_schedule(&m, &chain, &splits, 20, 55);
            assert_eq!(t.added_delay, 0, "seed {seed}");
            let naive = Schedule::build(10, chain.src_pos(), &splits, 20, 55);
            assert_eq!(t.schedule.latency(), naive.latency());
        }
    }

    #[test]
    fn delays_appear_on_the_omega_network() {
        // Somewhere in these seeds the unique-path omega forces a delay.
        let o = Omega::new(5);
        let total: Time = (0..15u64)
            .map(|seed| {
                let parts = crate::experiments::random_placement(32, 12, seed);
                let chain = Algorithm::OptTree.chain(&o, &parts, parts[0]);
                let splits = Algorithm::OptTree.splits(20, 55, 12);
                temporal_schedule(&o, &chain, &splits, 20, 55).added_delay
            })
            .sum();
        assert!(total > 0, "expected at least one forced delay on omega");
    }

    #[test]
    fn latency_never_below_naive() {
        let o = Omega::new(4);
        let parts: Vec<NodeId> = (0..10u32).map(NodeId).collect();
        let chain = Algorithm::OptTree.chain(&o, &parts, NodeId(0));
        let splits = Algorithm::OptTree.splits(30, 100, 10);
        let t = temporal_schedule(&o, &chain, &splits, 30, 100);
        let naive = Schedule::build(10, 0, &splits, 30, 100);
        assert!(t.schedule.latency() >= naive.latency());
    }
}
