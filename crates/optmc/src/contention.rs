//! The static contention checker — the operational form of Theorems 1 & 2.
//!
//! [`check_schedule_windowed`] replays a position-level [`Schedule`]'s tree
//! under the engine's exact contention-free timing rules
//! ([`OccupancyParams`], derived from a [`SimConfig`]) and computes a
//! *per-channel occupancy window* `[acquire, release)` for every channel of
//! every worm.  Two sends conflict exactly when their windows on a shared
//! channel intersect — which is also exactly when the wormhole simulator
//! would record blocked time, making the check a sound *and* complete
//! certificate for deterministic (non-adaptive, one-port) configurations.
//! Conflicts are counted per (send pair, channel), so OPT-tree's contention
//! is quantified rather than merely detected.
//!
//! [`scan_windows`] is the one pairwise scan.  Every window carries the
//! index of the multicast that owns it, so a lone schedule is a set of one
//! (every tag 0) and `netcheck`'s schedule-set analysis scans its members'
//! windows, shifted into global time and tagged, with the same function.

use flitsim::SimConfig;
use mtree::Schedule;
use pcm::{MsgSize, Time};
use serde::{Deserialize, Serialize};
use topo::{Chain, ChannelId, RoutingError, Topology};

/// The timing constants the windowed checker replays — the engine's
/// contention-free rules evaluated at one message size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancyParams {
    /// Send software latency (initiation → first flit enters the network).
    pub t_send: Time,
    /// Receive software latency (tail consumed → receiver owns the message).
    pub t_recv: Time,
    /// CPU occupancy per send (spacing between a node's initiations).
    pub t_hold: Time,
    /// Worm length in flits.
    pub flits: u64,
    /// Head traversal cycles per channel.
    pub router_delay: Time,
    /// Flit capacity of each channel buffer (≥ 1).
    pub buffer_flits: u64,
}

impl OccupancyParams {
    /// Evaluate a simulator configuration at one message size.
    pub fn from_config(cfg: &SimConfig, bytes: MsgSize) -> Self {
        Self {
            t_send: cfg.software.t_send.eval(bytes),
            t_recv: cfg.software.t_recv.eval(bytes),
            t_hold: cfg.software.t_hold.eval(bytes),
            flits: cfg.flits(bytes),
            router_delay: cfg.router_delay,
            buffer_flits: cfg.buffer_flits.max(1),
        }
    }
}

/// One channel held by one send for the half-open interval
/// `[acquire, release)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelWindow {
    /// Index of the owning multicast in its schedule set (0 for a lone
    /// schedule).
    pub mcast: usize,
    /// Index of the send in its schedule's `sends`.
    pub send: usize,
    /// The held channel.
    pub channel: ChannelId,
    /// Cycle the worm's head acquires the channel.
    pub acquire: Time,
    /// Cycle the worm's tail frees it (exclusive).
    pub release: Time,
}

/// Two sends — possibly of different multicasts — whose occupancy windows
/// on `channel` intersect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowConflict {
    /// Multicast of the earlier-acquiring send.
    pub mcast_a: usize,
    /// Index of the earlier-acquiring send in its schedule's `sends`.
    pub send_a: usize,
    /// Multicast of the later-acquiring send.
    pub mcast_b: usize,
    /// Index of the later-acquiring send.
    pub send_b: usize,
    /// The contended channel.
    pub channel: ChannelId,
    /// Start of the overlap.
    pub from: Time,
    /// End of the overlap (exclusive).
    pub until: Time,
}

/// Per-channel occupancy windows of every send in the schedule, replayed
/// under the engine's contention-free timing.
///
/// The replay follows the schedule's tree structure (who sends to whom, in
/// each node's issue order — `schedule.sends` is emitted parent-before-child
/// with each node's sends consecutive) but recomputes all times from
/// `params` by the engine's rules: a node picks up queued sends `t_hold`
/// apart starting at its receive completion, the worm's head enters the
/// network `t_send` later and advances one channel per `router_delay`, the
/// tail compresses into `ceil(flits/buffer)`-channel spans while climbing
/// and streams out one flit per cycle while draining.
///
/// Every window is tagged multicast 0; a schedule-set analysis re-tags
/// each member's windows before scanning them together.
///
/// Returns a [`RoutingError`] if any send's deterministic path cannot be
/// materialised (a topology bug — netcheck reports it as a diagnostic).
pub fn occupancy_windows(
    topo: &dyn Topology,
    chain: &Chain,
    schedule: &Schedule,
    params: &OccupancyParams,
) -> Result<Vec<ChannelWindow>, RoutingError> {
    let k = schedule.k;
    let rd = params.router_delay;
    let span = params.flits.div_ceil(params.buffer_flits) as usize;
    // Next CPU pickup time per chain position; the source starts at 0,
    // everyone else at their receive completion.
    let mut next_free: Vec<Option<Time>> = vec![None; k];
    next_free[schedule.src] = Some(0);
    let mut windows = Vec::new();
    // One path buffer and one routing scratch for every send.
    let (mut path, mut cand) = (Vec::new(), Vec::new());
    for (idx, e) in schedule.sends.iter().enumerate() {
        let t0 = next_free[e.from].expect("schedule delivers a node before it sends");
        next_free[e.from] = Some(t0 + params.t_hold);
        let inject = t0 + params.t_send;
        topo.det_path_into(chain.node(e.from), chain.node(e.to), &mut path, &mut cand)?;
        let p = path.len();
        // The head takes path index i at `inject + i·rd`.
        let acquire = |i: usize| inject + i as Time * rd;
        let tail_consumed = acquire(p - 1) + rd + params.flits - 1;
        for (i, &ch) in path.iter().enumerate() {
            let release = if i + span < p {
                // Tail leaves channel i when the head takes channel i+span.
                acquire(i + span)
            } else {
                // Streams out during the drain; at most `buffer` flits fit
                // in each of the (p-1-i) downstream buffers.
                let downstream = params.buffer_flits * (p - 1 - i) as Time;
                tail_consumed.saturating_sub(downstream).max(acquire(i) + 1)
            };
            windows.push(ChannelWindow {
                mcast: 0,
                send: idx,
                channel: ch,
                acquire: acquire(i),
                release,
            });
        }
        next_free[e.to] = Some(tail_consumed + params.t_recv);
    }
    Ok(windows)
}

/// Find all windowed conflicts of `schedule` embedded on `topo` via
/// `chain`: pairs of sends whose occupancy windows on a shared channel
/// intersect.  Same-sender pairs are included — if `t_hold` is shorter
/// than the injection drain, a node's consecutive worms really do collide
/// on the injection channel and the simulator counts it as blocked time.
pub fn check_schedule_windowed(
    topo: &dyn Topology,
    chain: &Chain,
    schedule: &Schedule,
    params: &OccupancyParams,
) -> Result<Vec<WindowConflict>, RoutingError> {
    Ok(scan_windows(&occupancy_windows(
        topo, chain, schedule, params,
    )?))
}

/// The one pairwise window scan, underneath [`check_schedule_windowed`]
/// and `netcheck`'s schedule-set analysis: find every pair of windows from
/// *different* sends — told apart by `(mcast, send)` — that intersect on a
/// shared channel.  Windows are half-open `[acquire, release)`, so touching
/// windows (one releases exactly when the other acquires) and zero-length
/// windows never conflict.  Conflicts come back sorted by overlap start,
/// then by send pair.
pub fn scan_windows(windows: &[ChannelWindow]) -> Vec<WindowConflict> {
    // Group windows per channel by sorting `(channel << 32) | index` keys,
    // not the windows themselves, then order each group (tiny: a channel
    // is shared by at most a handful of sends) by acquire time and send,
    // the index breaking ties as a stable sort would, and scan it pairwise.
    assert!(
        u32::try_from(windows.len()).is_ok(),
        "window indices must fit in 32 bits"
    );
    let mut keys: Vec<u64> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| (u64::from(w.channel.0) << 32) | i as u64)
        .collect();
    keys.sort_unstable();
    let window = |key: u64| &windows[key as u32 as usize];
    let mut conflicts = Vec::new();
    for group in keys.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if group.len() < 2 {
            continue;
        }
        group.sort_unstable_by_key(|&k| {
            let w = window(k);
            (w.acquire, w.mcast, w.send, k)
        });
        for (i, &ka) in group.iter().enumerate() {
            let a = window(ka);
            for b in group[i + 1..].iter().map(|&kb| window(kb)) {
                if (a.mcast, a.send) == (b.mcast, b.send) {
                    continue; // a buggy path revisiting its own channel
                }
                let from = a.acquire.max(b.acquire);
                let until = a.release.min(b.release);
                if from < until {
                    conflicts.push(WindowConflict {
                        mcast_a: a.mcast,
                        send_a: a.send,
                        mcast_b: b.mcast,
                        send_b: b.send,
                        channel: a.channel,
                        from,
                        until,
                    });
                }
            }
        }
    }
    conflicts.sort_by_key(|c| (c.from, c.mcast_a, c.send_a, c.mcast_b, c.send_b));
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;

    use topo::{Mesh, NodeId};

    /// The windowed conflicts of the schedule `run_multicast` builds for
    /// `alg` at `bytes`: the runner's model pair feeds the DP, and the
    /// replay runs at the same message size.
    fn runner_conflicts(
        topo: &dyn Topology,
        cfg: &SimConfig,
        alg: Algorithm,
        parts: &[NodeId],
        src: NodeId,
        bytes: MsgSize,
    ) -> Vec<WindowConflict> {
        let hops = crate::runner::nominal_hops(topo, parts, src);
        let (hold, end) = cfg.effective_pair_ports(hops, bytes, topo.graph().ports() as u64);
        let chain = alg.chain(topo, parts, src);
        let splits = alg.splits(hold, end, parts.len().max(2));
        let sched = Schedule::build(parts.len(), chain.src_pos(), &splits, hold, end);
        let params = OccupancyParams::from_config(cfg, bytes);
        check_schedule_windowed(topo, &chain, &sched, &params).unwrap()
    }

    /// The paper's Fig. 1 placement (8 nodes in a 6×6 mesh): OPT-mesh is
    /// contention-free from every source under the engine's own timing.
    #[test]
    fn fig1_opt_mesh_is_windowed_clean() {
        let m = Mesh::new(&[6, 6]);
        let cfg = SimConfig::paragon_like();
        let parts: Vec<NodeId> = [1u32, 4, 9, 13, 19, 25, 28, 33].map(NodeId).to_vec();
        for src in &parts {
            let conflicts = runner_conflicts(&m, &cfg, Algorithm::OptArch, &parts, *src, 1024);
            assert!(conflicts.is_empty(), "src {src:?}: {conflicts:?}");
        }
    }

    /// U-mesh (binomial on the dimension-ordered chain) is contention-free
    /// as well — the McKinley result the paper builds on.
    #[test]
    fn u_mesh_is_windowed_clean() {
        let m = Mesh::new(&[8, 8]);
        let cfg = SimConfig::paragon_like();
        let parts: Vec<NodeId> = [2u32, 5, 11, 17, 23, 31, 38, 44, 50, 57, 61, 63]
            .map(NodeId)
            .to_vec();
        let conflicts = runner_conflicts(&m, &cfg, Algorithm::UArch, &parts, NodeId(17), 4096);
        assert!(conflicts.is_empty(), "{conflicts:?}");
    }

    /// The unordered OPT-tree generally conflicts — that is the paper's
    /// motivation for tuning.  Over random placements, scrambled chains
    /// must produce conflicts for a solid fraction of seeds while the
    /// architecture-ordered OPT-mesh never does.
    #[test]
    fn unordered_opt_tree_conflicts_where_opt_mesh_does_not() {
        let m = Mesh::new(&[6, 6]);
        let cfg = SimConfig::paragon_like();
        let mut scrambled_conflicts = 0;
        let n_seeds = 40;
        for seed in 0..n_seeds {
            let parts = crate::experiments::random_placement(36, 12, seed);
            let src = parts[0];
            if !runner_conflicts(&m, &cfg, Algorithm::OptTree, &parts, src, 4096).is_empty() {
                scrambled_conflicts += 1;
            }
            let conflicts = runner_conflicts(&m, &cfg, Algorithm::OptArch, &parts, src, 4096);
            assert!(
                conflicts.is_empty(),
                "OPT-mesh conflicted at seed {seed}: {conflicts:?}"
            );
        }
        assert!(
            scrambled_conflicts > n_seeds / 4,
            "only {scrambled_conflicts}/{n_seeds} scrambled placements conflicted"
        );
    }

    #[test]
    fn single_send_never_conflicts() {
        let m = Mesh::new(&[4, 4]);
        let cfg = SimConfig::paragon_like();
        let parts = [NodeId(0), NodeId(15)];
        assert!(runner_conflicts(&m, &cfg, Algorithm::OptArch, &parts, NodeId(0), 4096).is_empty());
    }

    /// Windowed occupancy agrees with the simulator: a scrambled OPT-tree
    /// that the windowed checker flags really blocks, and the conflict
    /// *count* is positive (the counting upgrade over bare detection).
    #[test]
    fn windowed_verdict_matches_simulator_on_scrambles() {
        let m = Mesh::new(&[6, 6]);
        let mut cfg = SimConfig::paragon_like();
        cfg.adaptive = false; // deterministic paths = exact replay
        let bytes = 2048;
        let mut agree = 0;
        for seed in 0..12 {
            let parts = crate::experiments::random_placement(36, 10, seed);
            let src = parts[0];
            let conflicts = runner_conflicts(&m, &cfg, Algorithm::OptTree, &parts, src, bytes);
            let out =
                crate::runner::run_multicast(&m, &cfg, Algorithm::OptTree, &parts, src, bytes);
            assert_eq!(
                conflicts.is_empty(),
                out.sim.blocked_cycles == 0,
                "seed {seed}: {} static conflicts vs {} blocked cycles",
                conflicts.len(),
                out.sim.blocked_cycles
            );
            agree += 1;
        }
        assert_eq!(agree, 12);
    }

    /// Overlap intervals are well-formed and windows cover every path
    /// channel exactly once per send, all tagged as multicast 0.
    #[test]
    fn occupancy_windows_cover_paths() {
        let m = Mesh::new(&[6, 6]);
        let cfg = SimConfig::paragon_like();
        let parts: Vec<NodeId> = [0u32, 7, 14, 21, 28, 35].map(NodeId).to_vec();
        let chain = Algorithm::OptArch.chain(&m, &parts, NodeId(0));
        let splits = Algorithm::OptArch.splits(300, 700, parts.len());
        let sched = Schedule::build(parts.len(), chain.src_pos(), &splits, 300, 700);
        let params = OccupancyParams::from_config(&cfg, 256);
        let windows = occupancy_windows(&m, &chain, &sched, &params).unwrap();
        for (idx, e) in sched.sends.iter().enumerate() {
            let path = m.det_path(chain.node(e.from), chain.node(e.to));
            let mine: Vec<_> = windows.iter().filter(|w| w.send == idx).collect();
            assert_eq!(mine.len(), path.len(), "send {idx}");
            for w in mine {
                assert!(w.acquire < w.release, "empty window {w:?}");
                assert!(path.contains(&w.channel));
                assert_eq!(w.mcast, 0);
            }
        }
    }

    /// Boundary semantics of the half-open `[acquire, release)` windows,
    /// pinned on synthetic populations fed straight to [`scan_windows`].
    mod scan_boundaries {
        use super::*;

        fn w(send: usize, channel: u32, acquire: Time, release: Time) -> ChannelWindow {
            ChannelWindow {
                mcast: 0,
                send,
                channel: ChannelId(channel),
                acquire,
                release,
            }
        }

        #[test]
        fn touching_windows_do_not_conflict() {
            // One releases exactly when the other acquires: a clean handoff.
            assert!(scan_windows(&[w(0, 7, 100, 200), w(1, 7, 200, 300)]).is_empty());
        }

        #[test]
        fn one_cycle_overlap_conflicts() {
            let c = scan_windows(&[w(0, 7, 100, 201), w(1, 7, 200, 300)]);
            assert_eq!(c.len(), 1);
            assert_eq!((c[0].from, c[0].until), (200, 201));
        }

        #[test]
        fn zero_length_windows_overlap_nothing() {
            // A degenerate `[t, t)` window holds the channel for no cycle.
            assert!(scan_windows(&[w(0, 7, 150, 150), w(1, 7, 100, 200)]).is_empty());
            assert!(scan_windows(&[w(0, 7, 150, 150), w(1, 7, 150, 150)]).is_empty());
        }

        #[test]
        fn identical_starts_conflict_with_canonical_pair_order() {
            let c = scan_windows(&[w(1, 7, 100, 250), w(0, 7, 100, 200)]);
            assert_eq!(c.len(), 1);
            // The tie on acquire breaks by send index, so send 0 is `send_a`.
            assert_eq!((c[0].send_a, c[0].send_b), (0, 1));
            assert_eq!((c[0].from, c[0].until), (100, 200));
        }

        #[test]
        fn different_channels_never_conflict() {
            assert!(scan_windows(&[w(0, 7, 100, 200), w(1, 8, 100, 200)]).is_empty());
        }

        /// `w` moved into multicast `mcast` of a schedule set.
        fn of(mcast: usize, window: ChannelWindow) -> ChannelWindow {
            ChannelWindow { mcast, ..window }
        }

        #[test]
        fn same_send_revisiting_a_channel_is_skipped() {
            assert!(scan_windows(&[w(0, 7, 100, 200), w(0, 7, 150, 250)]).is_empty());
            // …but the same send index in another multicast is another send,
            let c = scan_windows(&[w(0, 7, 100, 200), of(1, w(0, 7, 150, 250))]);
            assert_eq!(c.len(), 1);
            assert_eq!((c[0].mcast_a, c[0].mcast_b), (0, 1));
            // …and two sends of one set member conflict like any others.
            let c = scan_windows(&[of(2, w(3, 7, 100, 200)), of(2, w(4, 7, 150, 250))]);
            assert_eq!(c.len(), 1);
            assert_eq!(
                (c[0].mcast_a, c[0].send_a, c[0].mcast_b, c[0].send_b),
                (2, 3, 2, 4)
            );
        }

        /// The scan as it was before it sorted keys: copy the windows and
        /// stably sort the copies by `(channel, acquire, mcast, send)`.
        fn reference_scan(windows: &[ChannelWindow]) -> Vec<WindowConflict> {
            let mut sorted = windows.to_vec();
            sorted.sort_by_key(|w| (w.channel.0, w.acquire, w.mcast, w.send));
            let mut conflicts = Vec::new();
            for group in sorted.chunk_by(|a, b| a.channel == b.channel) {
                for (i, a) in group.iter().enumerate() {
                    for b in &group[i + 1..] {
                        if (a.mcast, a.send) == (b.mcast, b.send) {
                            continue;
                        }
                        let (from, until) = (a.acquire.max(b.acquire), a.release.min(b.release));
                        if from < until {
                            conflicts.push(WindowConflict {
                                mcast_a: a.mcast,
                                send_a: a.send,
                                mcast_b: b.mcast,
                                send_b: b.send,
                                channel: a.channel,
                                from,
                                until,
                            });
                        }
                    }
                }
            }
            conflicts.sort_by_key(|c| (c.from, c.mcast_a, c.send_a, c.mcast_b, c.send_b));
            conflicts
        }

        /// Random populations on a few shared channels, with acquire times
        /// drawn from a narrow range so that ties are common, and
        /// (mcast, send) pairs that repeat: the key sort must find the
        /// same conflicts, in the same order, with the same a/b roles.
        #[test]
        fn key_sort_matches_the_reference_scan() {
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let mut conflicted = 0;
            for _ in 0..500 {
                let len = next(40) as usize;
                let windows: Vec<ChannelWindow> = (0..len)
                    .map(|_| {
                        let acquire = next(12) * 10;
                        ChannelWindow {
                            mcast: next(3) as usize,
                            send: next(4) as usize,
                            channel: ChannelId(next(5) as u32 * 1000),
                            acquire,
                            release: acquire + next(40),
                        }
                    })
                    .collect();
                let got = scan_windows(&windows);
                assert_eq!(got, reference_scan(&windows), "{windows:?}");
                conflicted += usize::from(!got.is_empty());
            }
            assert!(conflicted > 100, "only {conflicted} populations conflicted");
        }

        #[test]
        fn conflicts_come_back_in_overlap_time_order() {
            let c = scan_windows(&[
                w(0, 9, 500, 600),
                w(1, 9, 550, 650),
                w(2, 3, 0, 100),
                w(3, 3, 50, 150),
            ]);
            assert_eq!(c.len(), 2);
            assert!(c[0].from <= c[1].from);
            assert_eq!(c[0].channel, ChannelId(3));
        }
    }
}
