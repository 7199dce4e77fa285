//! Runtime invariant validation: an [`Observer`] that rides along inside a
//! simulation and checks the engine's own rules as they execute.
//!
//! The validator watches the channel-event stream (acquire, release,
//! inject, drain, blocked) and asserts:
//!
//! * **exclusive channels** — a channel is never acquired while held, and
//!   never released by a worm that does not hold it;
//! * **acquire/release balance** — every acquire is eventually released
//!   (checked at summary time via the outstanding count);
//! * **monotonic time** — channel events arrive in non-decreasing
//!   simulation time (CPU-idle edges are emitted with future timestamps by
//!   design and are not part of this check);
//! * **one-port injection** — a node never holds more injection channels
//!   than its NI has ports.
//!
//! The engine funnels a [`TraceSink::Custom`] observer through
//! [`Observer::on_event`], and [`TraceSink::finish`] drops the boxed
//! observer, so the state lives behind an `Rc<RefCell<…>>` shared with a
//! [`ValidatorHandle`] the caller keeps to read the verdict after the run.

use std::cell::RefCell;
use std::rc::Rc;

use flitsim::trace::{TraceEvent, TraceKind};
use flitsim::{Observer, TraceSink};
use pcm::Time;
use topo::{Endpoint, NetworkGraph};

/// Violations are capped so a pathological run cannot balloon memory; the
/// total count keeps being tracked past the cap.
const MAX_RECORDED_VIOLATIONS: usize = 64;

#[derive(Debug)]
struct VState {
    /// Current holder per channel.
    holder: Vec<Option<u32>>,
    /// `Some(node)` for injection channels, indexed by channel.
    inj_node: Vec<Option<u32>>,
    /// NI ports per node (uniform across the graph).
    ports: usize,
    /// Injection channels currently held, per node.
    held_inj: Vec<usize>,
    acquires: u64,
    releases: u64,
    last_t: Time,
    n_violations: u64,
    violations: Vec<String>,
}

impl VState {
    fn violate(&mut self, msg: String) {
        self.n_violations += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(msg);
        }
    }
}

/// The verdict of a validated run.
#[derive(Debug, Clone)]
pub struct ValidationSummary {
    /// Channel acquires observed.
    pub acquires: u64,
    /// Channel releases observed.
    pub releases: u64,
    /// Channels still held when the summary was taken (should be 0 after a
    /// completed run).
    pub outstanding: u64,
    /// Total invariant violations (may exceed `violations.len()`).
    pub n_violations: u64,
    /// The first violations, as human-readable messages.
    pub violations: Vec<String>,
}

impl ValidationSummary {
    /// A clean run: no violations and every acquire released.
    pub fn ok(&self) -> bool {
        self.n_violations == 0 && self.outstanding == 0
    }
}

/// The observer half: box it into a sink with [`Validator::into_sink`] and
/// hand it to the engine.
pub struct Validator {
    state: Rc<RefCell<VState>>,
}

/// The caller's half: survives the run and yields the
/// [`ValidationSummary`].
pub struct ValidatorHandle {
    state: Rc<RefCell<VState>>,
}

impl Validator {
    /// A validator for one run on `graph`, plus the handle to read the
    /// verdict afterwards.
    pub fn new(graph: &NetworkGraph) -> (Validator, ValidatorHandle) {
        let nc = graph.n_channels();
        let inj_node: Vec<Option<u32>> = graph
            .channels()
            .map(|ch| match ch.src {
                Endpoint::Node(n) => Some(n.0),
                Endpoint::Router(_) => None,
            })
            .collect();
        debug_assert_eq!(inj_node.len(), nc);
        let state = Rc::new(RefCell::new(VState {
            holder: vec![None; nc],
            inj_node,
            ports: graph.ports(),
            held_inj: vec![0; graph.n_nodes()],
            acquires: 0,
            releases: 0,
            last_t: 0,
            n_violations: 0,
            violations: Vec::new(),
        }));
        (
            Validator {
                state: Rc::clone(&state),
            },
            ValidatorHandle { state },
        )
    }

    /// Wrap into the engine's observer slot.
    pub fn into_sink(self) -> TraceSink {
        TraceSink::Custom(Box::new(self))
    }
}

impl Observer for Validator {
    fn on_event(&mut self, e: TraceEvent) {
        // Only channel-stream kinds participate; CPU edges (CpuIdle in
        // particular) are emitted ahead of time by the engine.
        match e.kind {
            TraceKind::Acquire
            | TraceKind::Release
            | TraceKind::InjectStart
            | TraceKind::DrainStart
            | TraceKind::Blocked => {}
            _ => return,
        }
        let s = &mut *self.state.borrow_mut();
        if e.t < s.last_t {
            s.violate(format!(
                "time went backwards: {:?} at t={} after t={}",
                e.kind, e.t, s.last_t
            ));
        }
        s.last_t = s.last_t.max(e.t);
        match e.kind {
            TraceKind::Acquire => {
                let Some(ch) = e.channel else {
                    s.violate(format!("acquire by worm {} without a channel", e.worm));
                    return;
                };
                s.acquires += 1;
                if let Some(h) = s.holder[ch.idx()] {
                    s.violate(format!(
                        "worm {} acquired ch{} at t={} while worm {h} still holds it",
                        e.worm, ch.0, e.t
                    ));
                }
                s.holder[ch.idx()] = Some(e.worm);
                if let Some(node) = s.inj_node[ch.idx()] {
                    s.held_inj[node as usize] += 1;
                    if s.held_inj[node as usize] > s.ports {
                        s.violate(format!(
                            "node {node} holds {} injection channels at t={}, NI has {} port(s)",
                            s.held_inj[node as usize], e.t, s.ports
                        ));
                    }
                }
            }
            TraceKind::Release => {
                let Some(ch) = e.channel else {
                    s.violate(format!("release by worm {} without a channel", e.worm));
                    return;
                };
                s.releases += 1;
                match s.holder[ch.idx()] {
                    Some(h) if h == e.worm => {
                        s.holder[ch.idx()] = None;
                        if let Some(node) = s.inj_node[ch.idx()] {
                            s.held_inj[node as usize] = s.held_inj[node as usize].saturating_sub(1);
                        }
                    }
                    Some(h) => s.violate(format!(
                        "worm {} released ch{} at t={} held by worm {h}",
                        e.worm, ch.0, e.t
                    )),
                    None => s.violate(format!(
                        "worm {} released free channel ch{} at t={}",
                        e.worm, ch.0, e.t
                    )),
                }
            }
            _ => {}
        }
    }
}

impl ValidatorHandle {
    /// The verdict so far (normally read after the run finishes).
    pub fn summary(&self) -> ValidationSummary {
        let s = self.state.borrow();
        let outstanding = s.holder.iter().filter(|h| h.is_some()).count() as u64;
        ValidationSummary {
            acquires: s.acquires,
            releases: s.releases,
            outstanding,
            n_violations: s.n_violations,
            violations: s.violations.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optmc::{run_multicast_observed, Algorithm, RunOptions};
    use topo::{ChannelId, Mesh, NodeId, Topology};

    #[test]
    fn clean_multicast_run_validates() {
        let m = Mesh::new(&[6, 6]);
        let cfg = flitsim::SimConfig::paragon_like();
        let parts: Vec<NodeId> = [0u32, 5, 12, 18, 23, 29, 35].map(NodeId).to_vec();
        let (v, handle) = Validator::new(m.graph());
        let out = run_multicast_observed(
            &m,
            &cfg,
            Algorithm::OptArch,
            &parts,
            NodeId(0),
            1024,
            &RunOptions::default(),
            Some(v.into_sink()),
        );
        assert_eq!(out.sim.messages.len(), 6);
        let sum = handle.summary();
        assert!(sum.ok(), "violations: {:?}", sum.violations);
        assert_eq!(sum.acquires, sum.releases);
        assert!(sum.acquires > 0, "validator saw no events");
    }

    #[test]
    fn synthetic_double_acquire_is_flagged() {
        let m = Mesh::new(&[4, 4]);
        let (mut v, handle) = Validator::new(m.graph());
        // A router-to-router channel: an injection channel would also trip
        // the one-port check and double the violation count.
        let ch = m
            .graph()
            .channels()
            .position(|c| matches!(c.src, Endpoint::Router(_)))
            .map(|i| Some(ChannelId(i as u32)))
            .expect("mesh has router channels");
        v.on_event(TraceEvent::on_channel(5, 0, ch, TraceKind::Acquire));
        v.on_event(TraceEvent::on_channel(6, 1, ch, TraceKind::Acquire));
        let sum = handle.summary();
        assert_eq!(sum.n_violations, 1);
        assert!(sum.violations[0].contains("while worm 0 still holds it"));
        assert!(!sum.ok());
    }

    #[test]
    fn backwards_time_and_bad_release_are_flagged() {
        let m = Mesh::new(&[4, 4]);
        let (mut v, handle) = Validator::new(m.graph());
        let ch = Some(ChannelId(3));
        v.on_event(TraceEvent::on_channel(10, 0, ch, TraceKind::Acquire));
        // Release by a worm that is not the holder, at an earlier time.
        v.on_event(TraceEvent::on_channel(7, 2, ch, TraceKind::Release));
        let sum = handle.summary();
        assert_eq!(sum.n_violations, 2, "{:?}", sum.violations);
        assert!(sum
            .violations
            .iter()
            .any(|m| m.contains("time went backwards")));
        assert!(sum.violations.iter().any(|m| m.contains("held by worm 0")));
    }

    #[test]
    fn outstanding_channels_fail_ok() {
        let m = Mesh::new(&[4, 4]);
        let (mut v, handle) = Validator::new(m.graph());
        v.on_event(TraceEvent::on_channel(
            1,
            0,
            Some(ChannelId(2)),
            TraceKind::Acquire,
        ));
        let sum = handle.summary();
        assert_eq!(sum.n_violations, 0);
        assert_eq!(sum.outstanding, 1);
        assert!(!sum.ok(), "unreleased channel must fail the balance check");
    }
}
