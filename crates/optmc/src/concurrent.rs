//! Concurrent multicasts — probing the paper's single-multicast assumption.
//!
//! Theorem 1 makes *one* multicast contention-free; real machines run many
//! at once (every MPI_Bcast on a different communicator).  Two OPT-mesh
//! multicasts are each internally channel-disjoint, but nothing separates
//! their channel sets from each other, so they interfere.  This module runs
//! several multicasts simultaneously and reports per-multicast latency
//! against the solo baseline — the "interference factor" of the tuned
//! algorithms.

use flitsim::{Engine, Program, SendReq, SimConfig, SimResult};
use mtree::Schedule;
use pcm::{MsgSize, Time};
use topo::{NodeId, Topology};

use crate::algorithm::Algorithm;
use crate::program::{McastProgram, Range};
use crate::runner::nominal_hops;

/// Payload of a message belonging to one of several concurrent multicasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tagged {
    /// Which multicast this message belongs to.
    pub mcast: u32,
    /// The delegated chain range within that multicast.
    pub range: Range,
}

/// A program multiplexing several independent multicast runtimes.
pub struct MultiMcast {
    programs: Vec<McastProgram>,
    completed: Vec<Option<Time>>,
}

impl MultiMcast {
    /// Wrap the per-multicast programs.
    pub fn new(programs: Vec<McastProgram>) -> Self {
        let completed = vec![None; programs.len()];
        Self {
            programs,
            completed,
        }
    }

    /// Total deliveries across all multicasts.
    pub fn deliveries(&self) -> usize {
        self.programs.iter().map(McastProgram::deliveries).sum()
    }

    /// Expected total deliveries.
    pub fn expected(&self) -> usize {
        self.programs.iter().map(McastProgram::n_dests).sum()
    }

    /// Time the last destination of multicast `mcast` finished receiving,
    /// or `None` if it had no destinations (k = 1).  Tracked per multicast
    /// tag, so it stays exact even when participant groups overlap and a
    /// node receives messages from several multicasts.
    pub fn completed(&self, mcast: usize) -> Option<Time> {
        self.completed[mcast]
    }
}

impl Program for MultiMcast {
    type Payload = Tagged;

    fn on_receive(&mut self, node: NodeId, payload: &Tagged, now: Time) -> Vec<SendReq<Tagged>> {
        let mcast = payload.mcast;
        let done = &mut self.completed[mcast as usize];
        *done = Some(done.map_or(now, |c| c.max(now)));
        let inner = self.programs[mcast as usize].on_receive(node, &payload.range, now);
        inner
            .into_iter()
            .map(|req| SendReq {
                dest: req.dest,
                bytes: req.bytes,
                payload: Tagged {
                    mcast,
                    range: req.payload,
                },
                not_before: req.not_before,
            })
            .collect()
    }
}

/// One multicast's specification within a concurrent batch.
#[derive(Debug, Clone)]
pub struct McastSpec {
    /// Participants (source included).
    pub participants: Vec<NodeId>,
    /// The source node.
    pub src: NodeId,
    /// Message payload bytes.
    pub bytes: MsgSize,
    /// Injection time of the root's first sends — 0 for the classic
    /// all-at-once batch; an arrival process for open-loop workloads.
    pub start: Time,
}

/// Per-multicast outcome of a concurrent run.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentOutcome {
    /// This multicast's latency within the joint run, measured from its
    /// own start (arrival) time.
    pub latency: Time,
    /// Its solo analytic bound.
    pub analytic: Time,
    /// Its start (arrival) time.
    pub start: Time,
}

/// Run `specs` jointly under `algorithm`, each root injecting at its
/// spec's `start` time (all zero = the classic simultaneous batch; an
/// arrival process = an open-loop workload).  Returns per-multicast
/// outcomes plus the raw joint result.
///
/// # Panics
/// If any spec is malformed (see [`crate::run_multicast`]'s contract).
pub fn run_concurrent(
    topo: &dyn Topology,
    cfg: &SimConfig,
    algorithm: Algorithm,
    specs: &[McastSpec],
) -> (Vec<ConcurrentOutcome>, SimResult) {
    let n_nodes = topo.graph().n_nodes();
    let mut programs = Vec::with_capacity(specs.len());
    let mut roots = Vec::with_capacity(specs.len());
    let mut analytic = Vec::with_capacity(specs.len());
    for spec in specs {
        let k = spec.participants.len();
        let hops = nominal_hops(topo, &spec.participants, spec.src);
        let (hold, end) = cfg.effective_pair_ports(hops, spec.bytes, topo.graph().ports() as u64);
        let chain = algorithm.chain(topo, &spec.participants, spec.src);
        let splits = algorithm.splits(hold, end, k.max(2));
        let schedule = Schedule::build(k, chain.src_pos(), &splits, hold, end);
        analytic.push(schedule.latency());
        let program = McastProgram::new(chain, splits, spec.bytes, n_nodes)
            .with_addr_overhead(cfg.addr_bytes);
        roots.push((program.root(), spec.start, program.root_sends()));
        programs.push(program);
    }

    let multi = MultiMcast::new(programs);
    let expected = multi.expected();
    let mut engine = Engine::new(topo, cfg.clone(), multi);
    for (mcast, (root, start, sends)) in roots.into_iter().enumerate() {
        let tagged: Vec<SendReq<Tagged>> = sends
            .into_iter()
            .map(|req| SendReq {
                dest: req.dest,
                bytes: req.bytes,
                payload: Tagged {
                    mcast: mcast as u32,
                    range: req.payload,
                },
                // A multicast's schedule is built with its own start at 0;
                // shifting every send constraint by the arrival time keeps a
                // delayed multicast from launching early off a node CPU
                // another multicast already kicked.
                not_before: req.not_before.saturating_add(start).max(start),
            })
            .collect();
        engine.start(root, start, tagged);
    }
    let (multi, sim) = engine.run();
    assert_eq!(
        multi.deliveries(),
        expected,
        "a concurrent multicast lost messages"
    );

    let outcomes = analytic
        .iter()
        .zip(specs)
        .enumerate()
        .map(|(i, (&a, spec))| {
            let completed = multi.completed(i).unwrap_or(spec.start);
            ConcurrentOutcome {
                latency: completed.saturating_sub(spec.start),
                analytic: a,
                start: spec.start,
            }
        })
        .collect();
    (outcomes, sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::random_placement;
    use topo::Mesh;

    fn specs_disjoint(n: usize, k: usize, count: usize, seed: u64) -> Vec<McastSpec> {
        // Disjoint participant sets drawn from one shuffled pool.
        let pool = random_placement(n, k * count, seed);
        pool.chunks(k)
            .map(|c| McastSpec {
                participants: c.to_vec(),
                src: c[0],
                bytes: 4096,
                start: 0,
            })
            .collect()
    }

    #[test]
    fn concurrent_multicasts_all_deliver() {
        let m = Mesh::new(&[16, 16]);
        let cfg = SimConfig::paragon_like();
        let specs = specs_disjoint(256, 16, 3, 11);
        let (outs, sim) = run_concurrent(&m, &cfg, Algorithm::OptArch, &specs);
        assert_eq!(outs.len(), 3);
        assert_eq!(sim.messages.len(), 3 * 15);
        for o in &outs {
            assert!(o.latency >= o.analytic - 64, "{o:?}");
        }
    }

    #[test]
    fn single_spec_matches_plain_runner() {
        let m = Mesh::new(&[16, 16]);
        let cfg = SimConfig::paragon_like();
        let parts = random_placement(256, 16, 5);
        let solo = crate::run_multicast(&m, &cfg, Algorithm::OptArch, &parts, parts[0], 4096);
        let spec = McastSpec {
            participants: parts.clone(),
            src: parts[0],
            bytes: 4096,
            start: 0,
        };
        let (outs, _) = run_concurrent(&m, &cfg, Algorithm::OptArch, &[spec]);
        assert_eq!(outs[0].latency, solo.latency);
    }

    #[test]
    fn delayed_multicast_on_a_shared_root_waits_for_its_start() {
        // Two multicasts rooted at the same node, far apart in time: the
        // second must not launch early off the root's already-kicked CPU,
        // and each must run at its solo latency.
        let m = Mesh::new(&[16, 16]);
        let cfg = SimConfig::paragon_like();
        let a = random_placement(256, 16, 21);
        let b = random_placement(256, 16, 22);
        let root = a[0];
        let mut b_parts = vec![root];
        b_parts.extend(b.iter().copied().filter(|&n| n != root).take(15));
        let solo_a = crate::run_multicast(&m, &cfg, Algorithm::OptArch, &a, root, 4096);
        let solo_b = crate::run_multicast(&m, &cfg, Algorithm::OptArch, &b_parts, root, 4096);
        let specs = [
            McastSpec {
                participants: a,
                src: root,
                bytes: 4096,
                start: 0,
            },
            McastSpec {
                participants: b_parts,
                src: root,
                bytes: 4096,
                start: 500_000,
            },
        ];
        let (outs, _) = run_concurrent(&m, &cfg, Algorithm::OptArch, &specs);
        assert_eq!(outs[0].latency, solo_a.latency);
        assert_eq!(outs[1].latency, solo_b.latency, "second start not honored");
    }

    #[test]
    fn early_forwarder_is_not_blocked_by_a_future_root() {
        // Node X forwards for an early multicast AND roots one arriving
        // much later.  X's queued future root-sends must not head-of-line
        // block the early multicast's forwards.
        let m = Mesh::new(&[16, 16]);
        let cfg = SimConfig::paragon_like();
        let a = random_placement(256, 24, 31);
        let x = a[5]; // a non-root participant that will forward
        let b = random_placement(256, 16, 32);
        let mut b_parts = vec![x];
        b_parts.extend(b.iter().copied().filter(|&n| n != x).take(15));
        let solo_a = crate::run_multicast(&m, &cfg, Algorithm::OptArch, &a, a[0], 4096);
        let solo_b = crate::run_multicast(&m, &cfg, Algorithm::OptArch, &b_parts, x, 4096);
        let specs = [
            McastSpec {
                participants: a.clone(),
                src: a[0],
                bytes: 4096,
                start: 0,
            },
            McastSpec {
                participants: b_parts,
                src: x,
                bytes: 4096,
                start: 500_000,
            },
        ];
        let (outs, _) = run_concurrent(&m, &cfg, Algorithm::OptArch, &specs);
        assert_eq!(outs[0].latency, solo_a.latency, "early multicast delayed");
        assert_eq!(outs[1].latency, solo_b.latency);
    }

    #[test]
    fn interference_shows_up_between_tuned_multicasts() {
        // Each multicast is internally contention-free; jointly they are
        // not.  Over several seeds at least one pair must interfere.
        let m = Mesh::new(&[16, 16]);
        let cfg = SimConfig::paragon_like();
        let mut blocked_total = 0;
        for seed in 0..6u64 {
            let specs = specs_disjoint(256, 24, 4, seed);
            let (_, sim) = run_concurrent(&m, &cfg, Algorithm::OptArch, &specs);
            blocked_total += sim.blocked_cycles;
        }
        assert!(blocked_total > 0, "expected cross-multicast interference");
    }
}
