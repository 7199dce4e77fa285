//! User-level parameter measurement inside the simulator.
//!
//! The paper's methodology (\[5\], §2.1) measures `t_hold(m)` and `t_end(m)`
//! at the application level and feeds them to the OPT-tree DP.  We reproduce
//! that loop: these functions run micro-benchmarks *on the flit-level
//! simulator* — a one-way timed transfer for `t_end`, a send burst for
//! `t_hold` — and `pcm::calibrate` fits the affine model.  The result should
//! (and, per the crate tests, does) agree with the closed-form
//! [`SimConfig::effective_pair`].

use flitsim::program::SinkProgram;
use flitsim::{Engine, SendReq, Sim, SimConfig};
use pcm::calibrate::{fit_linear, Sample};
use pcm::{LinearFn, MsgSize, Time};
use topo::{NodeId, Topology};

/// Measure the one-way end-to-end latency of a `bytes`-sized message from
/// `src` to `dst` on an idle network.
pub fn measure_t_end(
    topo: &dyn Topology,
    cfg: &SimConfig,
    src: NodeId,
    dst: NodeId,
    bytes: MsgSize,
) -> Time {
    t_end_on(&mut Sim::new(topo.graph()), topo, cfg, src, dst, bytes)
}

fn t_end_on(
    sim: &mut Sim<()>,
    topo: &dyn Topology,
    cfg: &SimConfig,
    src: NodeId,
    dst: NodeId,
    bytes: MsgSize,
) -> Time {
    let mut e = Engine::with_sim(topo, cfg.clone(), SinkProgram, sim);
    e.start(src, 0, vec![SendReq::to(dst, bytes, ())]);
    let (_, r) = e.run();
    r.messages[0].latency()
}

/// Measure the holding latency: `n` back-to-back sends from `src`; the mean
/// gap between consecutive send initiations is `t_hold(m)` (the injection
/// port and CPU jointly gate it).
pub fn measure_t_hold(
    topo: &dyn Topology,
    cfg: &SimConfig,
    src: NodeId,
    dst: NodeId,
    bytes: MsgSize,
    n: usize,
) -> Time {
    t_hold_on(&mut Sim::new(topo.graph()), topo, cfg, src, dst, bytes, n)
}

fn t_hold_on(
    sim: &mut Sim<()>,
    topo: &dyn Topology,
    cfg: &SimConfig,
    src: NodeId,
    dst: NodeId,
    bytes: MsgSize,
    n: usize,
) -> Time {
    assert!(n >= 2, "a burst needs at least two sends");
    let mut e = Engine::with_sim(topo, cfg.clone(), SinkProgram, sim);
    let sends = vec![SendReq::to(dst, bytes, ()); n];
    e.start(src, 0, sends);
    let (_, r) = e.run();
    let mut inits: Vec<Time> = r.messages.iter().map(|m| m.initiated).collect();
    inits.sort_unstable();
    (inits[n - 1] - inits[0]) / (n as Time - 1)
}

/// Calibrated affine fits of `t_hold(m)` and `t_end(m)` over a size sweep —
/// the full user-level methodology.  Every measurement of the sweep runs
/// on one [`Sim`].
pub fn calibrate(
    topo: &dyn Topology,
    cfg: &SimConfig,
    src: NodeId,
    dst: NodeId,
    sizes: &[MsgSize],
) -> (LinearFn, LinearFn) {
    let mut sim = Sim::new(topo.graph());
    let hold_samples: Vec<Sample> = sizes
        .iter()
        .map(|&m| Sample::new(m, t_hold_on(&mut sim, topo, cfg, src, dst, m, 8)))
        .collect();
    let end_samples: Vec<Sample> = sizes
        .iter()
        .map(|&m| Sample::new(m, t_end_on(&mut sim, topo, cfg, src, dst, m)))
        .collect();
    let hold = fit_linear(&hold_samples).expect("two or more distinct sizes");
    let end = fit_linear(&end_samples).expect("two or more distinct sizes");
    (hold, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::Mesh;

    #[test]
    fn measured_t_end_matches_effective_pair() {
        let m = Mesh::new(&[16, 16]);
        let cfg = SimConfig::paragon_like();
        let (src, dst) = (NodeId(0), NodeId(136)); // 8+8 = 16 hops
        let hops = m.distance(src, dst);
        for bytes in [64u64, 1024, 8192] {
            let measured = measure_t_end(&m, &cfg, src, dst, bytes);
            let (_, predicted) = cfg.effective_pair(hops, bytes);
            assert_eq!(measured, predicted, "bytes={bytes}");
        }
    }

    #[test]
    fn measured_t_hold_matches_effective_pair() {
        let m = Mesh::new(&[16, 16]);
        let cfg = SimConfig::paragon_like();
        let (src, dst) = (NodeId(0), NodeId(136));
        for bytes in [64u64, 1024, 8192] {
            let measured = measure_t_hold(&m, &cfg, src, dst, bytes, 8);
            let (predicted, _) = cfg.effective_pair(m.distance(src, dst), bytes);
            assert_eq!(measured, predicted, "bytes={bytes}");
        }
    }

    #[test]
    fn calibration_recovers_affine_model() {
        let m = Mesh::new(&[8, 8]);
        let cfg = SimConfig::paragon_like();
        let sizes = [64u64, 512, 1024, 4096, 16384];
        let (hold, end) = calibrate(&m, &cfg, NodeId(0), NodeId(36), &sizes);
        // Slopes: hold = max(0.13 CPU, 0.125 drain) = 0.13; end has
        // software + streaming = 0.15 + 0.15 + 0.125 = 0.425.
        assert!(
            (hold.slope - 0.13).abs() < 0.01,
            "hold slope {}",
            hold.slope
        );
        assert!((end.slope - 0.425).abs() < 0.01, "end slope {}", end.slope);
        assert!(hold.base > 0.0 && end.base > 0.0);
    }
}
