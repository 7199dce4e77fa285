//! Schedule-*set* certification: contention analysis across several
//! concurrently scheduled multicasts.
//!
//! A single multicast's windowed analysis ([`optmc::check_schedule_windowed`])
//! is exact for deterministic configurations; a real machine runs many
//! multicasts at once (`optmc::run_concurrent`, `optmc workload`, campaign
//! cells).  This module lifts the analysis to a whole [`ScheduleSet`]: each
//! member's schedule is replayed under the engine's contention-free timing
//! with every window shifted by the member's start offset and tagged with
//! the member's index, and the combined window population goes through the
//! same scan as a lone schedule ([`optmc::scan_windows`]), which finds
//! overlaps within a member *and* between members.  A single multicast is
//! a set of one: its set analysis returns exactly the conflicts of
//! `check_schedule_windowed`, in the same order.
//!
//! ## Soundness
//!
//! The per-member replay assumes each multicast's CPUs run only that
//! multicast's schedule.  When two members share a node *and* are active
//! over overlapping cycle ranges, the shared node's CPU serializes their
//! sends in an order the independent replays do not model, so the windows
//! are no longer exact.  [`analyze_set`] therefore reports any such pair as
//! an `NC0212` error: a set is **certified clean only when its members are
//! pairwise node-disjoint (or temporally disjoint) and no two windows
//! overlap** — precisely the regime where the replay is engine-exact and
//! "certified clean ⇔ zero simulator blocked cycles" holds (the
//! differential oracle in [`crate::oracle`] pins this).  Sets that share
//! nodes concurrently may still be *refuted* (a found conflict is real
//! evidence of contention pressure), but never certified.

use flitsim::SimConfig;
use mtree::Schedule;
use optmc::{
    occupancy_windows, scan_windows, Algorithm, ChannelWindow, McastSpec, OccupancyParams,
    WindowConflict,
};
use pcm::Time;
use topo::{NodeId, RoutingError, Topology};

use crate::diag::{Diagnostic, Report, Severity};

/// A set of concurrently scheduled multicasts on one topology: the
/// [`McastSpec`]s (participants + source + bytes + start offset) plus the
/// algorithm that builds each member's tree.
#[derive(Debug, Clone)]
pub struct ScheduleSet {
    /// The members, in injection order.
    pub specs: Vec<McastSpec>,
    /// The multicast algorithm every member uses.
    pub algorithm: Algorithm,
}

/// One member's replayed occupancy: its windows in *global* time (shifted
/// by the member's start) and its activity envelope.
#[derive(Debug, Clone)]
pub struct MemberOccupancy {
    /// Channel windows, times global, each tagged with the member's index
    /// into the set's `specs`.
    pub windows: Vec<ChannelWindow>,
    /// First cycle the member occupies anything (its start offset).
    pub active_from: Time,
    /// Conservative end of the member's activity: last window release plus
    /// the receive software latency (exclusive).
    pub active_until: Time,
}

/// A pair of members that share nodes while both are active — the regime
/// the independent replays cannot model exactly (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOverlap {
    /// The earlier-starting member.
    pub mcast_a: usize,
    /// The later-starting member.
    pub mcast_b: usize,
    /// The nodes both participate on.
    pub nodes: Vec<NodeId>,
}

/// Everything [`analyze_set`] computes about a set.
#[derive(Debug, Clone)]
pub struct SetAnalysis {
    /// Per-member replayed occupancy, index-aligned with the set's specs.
    pub members: Vec<MemberOccupancy>,
    /// All window overlaps, intra- and cross-member, in time order.
    pub conflicts: Vec<WindowConflict>,
    /// Member pairs sharing nodes while temporally overlapping.
    pub node_overlaps: Vec<NodeOverlap>,
}

impl SetAnalysis {
    /// Conflicts between two *different* members.
    pub fn cross_conflicts(&self) -> impl Iterator<Item = &WindowConflict> {
        self.conflicts.iter().filter(|c| c.mcast_a != c.mcast_b)
    }

    /// Conflicts within a single member's schedule.
    pub fn intra_conflicts(&self) -> impl Iterator<Item = &WindowConflict> {
        self.conflicts.iter().filter(|c| c.mcast_a == c.mcast_b)
    }

    /// True when the set is certified contention-free: no window overlaps
    /// anywhere and no concurrently-active node sharing.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty() && self.node_overlaps.is_empty()
    }
}

/// Replay every member of `set` under `cfg`'s contention-free timing and
/// scan the combined windows for conflicts.
///
/// # Errors
/// A [`RoutingError`] if any member's deterministic path fails to
/// materialise (a topology bug `check_topology` reports as `NC0101`).
///
/// # Panics
/// If `cfg.adaptive` is set: the replay materialises first-preference
/// deterministic paths and is only exact without adaptivity.
pub fn analyze_set(
    topo: &dyn Topology,
    cfg: &SimConfig,
    set: &ScheduleSet,
) -> Result<SetAnalysis, RoutingError> {
    assert!(
        !cfg.adaptive,
        "schedule-set certification requires deterministic routing"
    );
    let g = topo.graph();
    let mut members = Vec::with_capacity(set.specs.len());
    for (mcast, spec) in set.specs.iter().enumerate() {
        // Build the schedule exactly as `run_concurrent` does, then shift
        // its windows into global time by the member's start offset and
        // tag them with the member.
        let k = spec.participants.len();
        let hops = optmc::runner::nominal_hops(topo, &spec.participants, spec.src);
        let (hold, end) = cfg.effective_pair_ports(hops, spec.bytes, g.ports() as u64);
        let chain = set.algorithm.chain(topo, &spec.participants, spec.src);
        let splits = set.algorithm.splits(hold, end, k.max(2));
        let schedule = Schedule::build(k, chain.src_pos(), &splits, hold, end);
        let params = OccupancyParams::from_config(cfg, spec.bytes);
        let mut windows = occupancy_windows(topo, &chain, &schedule, &params)?;
        for w in &mut windows {
            w.mcast = mcast;
            w.acquire = w.acquire.saturating_add(spec.start);
            w.release = w.release.saturating_add(spec.start);
        }
        let last_release = windows.iter().map(|w| w.release).max().unwrap_or(0);
        members.push(MemberOccupancy {
            windows,
            active_from: spec.start,
            // The final receiver still runs t_recv of software after its
            // tail drains; fold it into the envelope so the node-overlap
            // guard stays conservative.
            active_until: last_release.saturating_add(params.t_recv).max(spec.start),
        });
    }

    let all: Vec<ChannelWindow> = members
        .iter()
        .flat_map(|m| m.windows.iter().copied())
        .collect();
    let conflicts = scan_windows(&all);
    let node_overlaps = find_node_overlaps(&set.specs, &members);
    Ok(SetAnalysis {
        members,
        conflicts,
        node_overlaps,
    })
}

/// Member pairs that share participants while their activity envelopes
/// overlap (half-open `[active_from, active_until)` intervals).
fn find_node_overlaps(specs: &[McastSpec], members: &[MemberOccupancy]) -> Vec<NodeOverlap> {
    let mut overlaps = Vec::new();
    for a in 0..specs.len() {
        for b in (a + 1)..specs.len() {
            let (ma, mb) = (&members[a], &members[b]);
            if ma.active_from >= mb.active_until || mb.active_from >= ma.active_until {
                continue; // temporally disjoint: serialization is benign
            }
            let mut shared: Vec<NodeId> = specs[a]
                .participants
                .iter()
                .filter(|n| specs[b].participants.contains(n))
                .copied()
                .collect();
            if !shared.is_empty() {
                shared.sort_by_key(|n| n.0);
                overlaps.push(NodeOverlap {
                    mcast_a: a,
                    mcast_b: b,
                    nodes: shared,
                });
            }
        }
    }
    overlaps
}

/// Render a [`SetAnalysis`] as a diagnostic [`Report`] (normalized).
///
/// * clean → `NC0210` certification (info);
/// * window overlaps → one `NC0211` error per conflicting pair, with the
///   contended channel, the overlap window, and the endpoints as spans;
/// * concurrently-active node sharing → one `NC0212` error per pair.
pub fn report_set(topo: &dyn Topology, set: &ScheduleSet, analysis: &SetAnalysis) -> Report {
    let mut report = Report::new(format!(
        "{:?} x{} on {}",
        set.algorithm,
        set.specs.len(),
        topo.name()
    ));
    for c in &analysis.conflicts {
        let label = if c.mcast_a == c.mcast_b {
            format!(
                "multicast #{} conflicts with itself (sends {} and {})",
                c.mcast_a, c.send_a, c.send_b
            )
        } else {
            format!(
                "multicast #{} send {} and multicast #{} send {} contend",
                c.mcast_a, c.send_a, c.mcast_b, c.send_b
            )
        };
        report.push(
            Diagnostic::new(
                Severity::Error,
                "NC0211",
                format!(
                    "{label} for channel ch{} during cycles {}..{}",
                    c.channel.0, c.from, c.until
                ),
            )
            .with_nodes(vec![set.specs[c.mcast_a].src, set.specs[c.mcast_b].src])
            .with_channels(vec![c.channel])
            .with_window(c.from, c.until)
            .with_help(
                "stagger the start offsets or re-place the participant groups so the \
                 trees use disjoint channels",
            ),
        );
    }
    for o in &analysis.node_overlaps {
        report.push(
            Diagnostic::new(
                Severity::Error,
                "NC0212",
                format!(
                    "multicasts #{} and #{} share {} node(s) while both are active: \
                     their CPU serialization is outside the replay model, so the set \
                     cannot be certified",
                    o.mcast_a,
                    o.mcast_b,
                    o.nodes.len()
                ),
            )
            .with_nodes(o.nodes.clone())
            .with_window(
                analysis.members[o.mcast_b].active_from,
                analysis.members[o.mcast_a]
                    .active_until
                    .min(analysis.members[o.mcast_b].active_until),
            )
            .with_help(
                "use node-disjoint participant groups, or separate the starts by more \
                 than a member's completion time",
            ),
        );
    }
    if analysis.is_clean() {
        let n_windows: usize = analysis.members.iter().map(|m| m.windows.len()).sum();
        report.push(Diagnostic::new(
            Severity::Info,
            "NC0210",
            format!(
                "schedule set certified contention-free: {} multicasts, {} channel \
                 windows, no overlaps, members pairwise independent",
                set.specs.len(),
                n_windows
            ),
        ));
    }
    report.normalize();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use optmc::random_placement;
    use topo::Mesh;

    fn det_cfg() -> SimConfig {
        let mut cfg = SimConfig::paragon_like();
        cfg.adaptive = false;
        cfg
    }

    /// Node-disjoint groups from one shuffled pool, starts spaced by `gap`.
    fn disjoint_specs(n: usize, k: usize, count: usize, gap: Time, seed: u64) -> Vec<McastSpec> {
        let pool = random_placement(n, k * count, seed);
        pool.chunks(k)
            .enumerate()
            .map(|(i, c)| McastSpec {
                participants: c.to_vec(),
                src: c[0],
                bytes: 2048,
                start: i as Time * gap,
            })
            .collect()
    }

    #[test]
    fn far_apart_disjoint_multicasts_certify_clean() {
        let m = Mesh::new(&[16, 16]);
        let set = ScheduleSet {
            specs: disjoint_specs(256, 8, 4, 1_000_000, 3),
            algorithm: Algorithm::OptArch,
        };
        let analysis = analyze_set(&m, &det_cfg(), &set).unwrap();
        assert!(analysis.is_clean(), "{:?}", analysis.conflicts);
        let report = report_set(&m, &set, &analysis);
        assert!(!report.has_errors(), "{}", report.render_human());
        assert!(report.diagnostics.iter().any(|d| d.code == "NC0210"));
    }

    #[test]
    fn simultaneous_batch_reports_cross_interference() {
        // Many simultaneous 24-node multicasts on a 16x16 mesh must collide
        // somewhere (the `interference_shows_up` regime of optmc::concurrent).
        let m = Mesh::new(&[16, 16]);
        let mut found = false;
        for seed in 0..6u64 {
            let set = ScheduleSet {
                specs: disjoint_specs(256, 24, 4, 0, seed),
                algorithm: Algorithm::OptArch,
            };
            let analysis = analyze_set(&m, &det_cfg(), &set).unwrap();
            if analysis.cross_conflicts().next().is_some() {
                found = true;
                let report = report_set(&m, &set, &analysis);
                assert!(report.has_errors());
                let witness = report
                    .diagnostics
                    .iter()
                    .find(|d| d.code == "NC0211")
                    .expect("interference must carry an NC0211 witness");
                assert!(!witness.channels.is_empty(), "witness has no channel span");
                let (from, until) = witness.window.expect("witness has no time window");
                assert!(from < until);
                break;
            }
        }
        assert!(found, "no simultaneous batch interfered across 6 seeds");
    }

    #[test]
    fn member_internal_conflicts_are_reported_too() {
        // A scrambled OPT-tree member conflicts with itself; the set
        // analysis must surface it even if members never cross.
        let m = Mesh::new(&[6, 6]);
        for seed in 0..12u64 {
            let parts = random_placement(36, 10, seed);
            let set = ScheduleSet {
                specs: vec![McastSpec {
                    src: parts[0],
                    participants: parts,
                    bytes: 2048,
                    start: 0,
                }],
                algorithm: Algorithm::OptTree,
            };
            let analysis = analyze_set(&m, &det_cfg(), &set).unwrap();
            if analysis.intra_conflicts().next().is_some() {
                assert!(!analysis.is_clean());
                return;
            }
        }
        panic!("no scrambled OPT-tree member conflicted across 12 seeds");
    }

    /// A second group sharing exactly one node with `a`.
    fn sharing_one_node(a: &[NodeId], seed: u64) -> Vec<NodeId> {
        let shared = a[2];
        let mut b: Vec<_> = random_placement(256, 12, seed)
            .into_iter()
            .filter(|&n| n != shared && !a.contains(&n))
            .take(7)
            .collect();
        b.push(shared);
        b
    }

    #[test]
    fn concurrently_active_node_sharing_blocks_certification() {
        let m = Mesh::new(&[16, 16]);
        let a = random_placement(256, 8, 41);
        let b = sharing_one_node(&a, 42);
        let set = ScheduleSet {
            specs: vec![
                McastSpec {
                    src: a[0],
                    participants: a,
                    bytes: 2048,
                    start: 0,
                },
                McastSpec {
                    src: b[0],
                    participants: b,
                    bytes: 2048,
                    start: 0,
                },
            ],
            algorithm: Algorithm::OptArch,
        };
        let analysis = analyze_set(&m, &det_cfg(), &set).unwrap();
        assert_eq!(analysis.node_overlaps.len(), 1);
        assert!(!analysis.is_clean());
        let report = report_set(&m, &set, &analysis);
        assert!(report.diagnostics.iter().any(|d| d.code == "NC0212"));
    }

    #[test]
    fn temporally_disjoint_node_sharing_is_benign() {
        // Same shared node, but the second multicast starts far after the
        // first completes: the guard must not fire and the set certifies.
        let m = Mesh::new(&[16, 16]);
        let a = random_placement(256, 8, 41);
        let b = sharing_one_node(&a, 42);
        let set = ScheduleSet {
            specs: vec![
                McastSpec {
                    src: a[0],
                    participants: a,
                    bytes: 2048,
                    start: 0,
                },
                McastSpec {
                    src: b[0],
                    participants: b,
                    bytes: 2048,
                    start: 5_000_000,
                },
            ],
            algorithm: Algorithm::OptArch,
        };
        let analysis = analyze_set(&m, &det_cfg(), &set).unwrap();
        assert!(analysis.node_overlaps.is_empty(), "temporal gap ignored");
        assert!(analysis.is_clean(), "{:?}", analysis.conflicts);
    }
}
