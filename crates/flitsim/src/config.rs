//! Simulator configuration: hardware constants and the software-overhead
//! model.

use pcm::{CommParams, LinearFn, MsgSize, Time};
use serde::{Deserialize, Serialize};

/// Software (operating system / messaging library) overheads, per message
/// size — the measurable quantities of the parameterized model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftwareModel {
    /// Latency from send initiation until the first flit may enter the
    /// injection channel.
    pub t_send: LinearFn,
    /// Latency from tail-flit consumption until the receiving process owns
    /// the message (and, in a multicast, may start forwarding).
    pub t_recv: LinearFn,
    /// CPU occupancy of a send: the next send from the same node may not
    /// *initiate* earlier than this after the previous one.
    pub t_hold: LinearFn,
}

impl SoftwareModel {
    /// Zero software overhead — raw hardware latencies, useful in unit
    /// tests.
    pub fn zero() -> Self {
        Self {
            t_send: LinearFn::zero(),
            t_recv: LinearFn::zero(),
            t_hold: LinearFn::zero(),
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Flit width in bytes.
    pub flit_bytes: u64,
    /// Header flits prepended to every message (routing info + the multicast
    /// address list ride here).
    pub header_flits: u64,
    /// Cycles for the head flit to traverse one channel (router pipeline
    /// latency).
    pub router_delay: Time,
    /// Flit capacity of each channel's buffer (≥ 1).  Deeper buffers let a
    /// worm compress into fewer channels, shrinking the footprint it holds
    /// while blocked — the classic wormhole vs virtual-cut-through spectrum
    /// (ablated in `ablation_buffers`).
    pub buffer_flits: u64,
    /// Whether a blocked head may take a lower-preference routing candidate
    /// (BMIN adaptive up-phase).  Deterministic topologies offer a single
    /// candidate, so this has no effect on them.
    pub adaptive: bool,
    /// Bytes of header payload per destination address carried by a
    /// unicast-based multicast message (paper §3: "each message carries the
    /// addresses of the destinations for which the receiving node is
    /// responsible").  0 (the default) folds the list into the header flit —
    /// the approximation the analytic model makes; a realistic value (e.g.
    /// 4) lets the `ablation_addr_overhead` experiment quantify the model
    /// error that approximation hides.
    pub addr_bytes: u64,
    /// Record a channel-level event trace into [`crate::SimResult::trace`]
    /// (see [`crate::trace`]).  Off by default — traces grow with message
    /// count × path length.
    pub trace: bool,
    /// Upper bound on retained trace events when `trace` is set: events
    /// past the limit are dropped (and counted), and
    /// [`crate::SimResult::truncated`] is raised.  `None` retains
    /// everything.  Ignored when a custom observer is installed via
    /// [`crate::Engine::set_observer`].
    pub trace_limit: Option<usize>,
    /// Always 1 and read by nothing.  Kept only because the benchmark under
    /// `perfbench/` still assigns it; delete it once the benchmark stops.
    pub shards: usize,
    /// Software overheads.
    pub software: SoftwareModel,
}

impl SimConfig {
    /// Number of flits in a message of `bytes` payload bytes.
    pub fn flits(&self, bytes: MsgSize) -> u64 {
        self.header_flits + bytes.div_ceil(self.flit_bytes).max(1)
    }

    /// Number of channels an `L`-flit worm occupies when fully compressed
    /// into `buffer_flits`-deep buffers.
    pub fn span(&self, bytes: MsgSize) -> u64 {
        self.flits(bytes).div_ceil(self.buffer_flits.max(1))
    }

    /// A mid-1990s-style configuration matching
    /// [`pcm::CommParams::paragon_like`]: 8-byte flits, single-cycle
    /// routers, software overheads a few hundred cycles plus per-byte copy
    /// costs (0.15 cycles/byte on each side — the memcpy/checksum costs that
    /// dominated mid-90s messaging stacks and that make `t_end` grow much
    /// faster than `t_hold`).  `t_hold`'s slope is kept at or above the
    /// injection rate (1 flit/cycle = 1/8 cycle per byte), because on a
    /// one-port wormhole NI the measured hold time can never be less than
    /// the wire drain time; it stays below `t_send`'s slope because the CPU
    /// hands off to DMA before the NI finishes.
    pub fn paragon_like() -> Self {
        Self {
            flit_bytes: 8,
            header_flits: 1,
            router_delay: 1,
            buffer_flits: 1,
            adaptive: true,
            addr_bytes: 0,
            trace: false,
            trace_limit: None,
            shards: 1,
            software: SoftwareModel {
                t_send: LinearFn::new(350.0, 0.15),
                t_recv: LinearFn::new(300.0, 0.15),
                t_hold: LinearFn::new(250.0, 0.13),
            },
        }
    }

    /// Predicted contention-free end-to-end latency of a single message over
    /// `hops` router-to-router hops: `t_send + head traversal + streaming +
    /// t_recv`.  The engine reproduces this figure exactly on an idle
    /// network (see the crate tests), which is how the simulator and the
    /// analytic model are kept consistent.
    pub fn predict_p2p(&self, hops: usize, bytes: MsgSize) -> Time {
        let path_channels = hops as u64 + 2; // + injection + consumption
        self.software.t_send.eval(bytes)
            + path_channels * self.router_delay
            + (self.flits(bytes) - 1)
            + self.software.t_recv.eval(bytes)
    }

    /// The effective `(t_hold, t_end)` pair of this simulated machine for a
    /// message of `bytes` over a nominal `hops`-hop path — what a user-level
    /// calibration would measure, and what the OPT-tree DP should be fed.
    ///
    /// `t_hold` is the max of the CPU occupancy and the injection-channel
    /// drain time (the one-port NI cannot accept a new worm faster than the
    /// previous one clears the injection channel).
    pub fn effective_pair(&self, hops: usize, bytes: MsgSize) -> (Time, Time) {
        self.effective_pair_ports(hops, bytes, 1)
    }

    /// [`SimConfig::effective_pair`] for a `ports`-port NI: with `p` ports a
    /// node keeps `p` worms in flight, so the injection-drain constraint on
    /// the initiation rate weakens to `drain / p`; the CPU term is
    /// unchanged (software still issues sends one at a time).
    pub fn effective_pair_ports(&self, hops: usize, bytes: MsgSize, ports: u64) -> (Time, Time) {
        assert!(ports >= 1);
        let cpu = self.software.t_hold.eval(bytes);
        let drain = self.flits(bytes).div_ceil(ports);
        (cpu.max(drain), self.predict_p2p(hops, bytes))
    }

    /// Project this configuration into a [`pcm::CommParams`] with the given
    /// nominal hop count.
    pub fn to_comm_params(&self, hops: f64) -> CommParams {
        let inject_rate = 1.0 / self.flit_bytes as f64;
        let hold = self.software.t_hold;
        CommParams {
            t_send: self.software.t_send,
            t_recv: self.software.t_recv,
            // t_hold: max(CPU, drain) — keep the larger slope and base.
            t_hold: LinearFn::new(
                hold.base.max(self.header_flits as f64),
                hold.slope.max(inject_rate),
            ),
            t_net_size: LinearFn::new(
                // Header flit + streaming; the -1 and +2 channel constants
                // are folded into the base.
                (self.header_flits + 1) as f64 * self.router_delay as f64,
                inject_rate,
            ),
            net_hops: hops,
            per_hop: self.router_delay as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_count_rounds_up_and_has_header() {
        let c = SimConfig::paragon_like();
        assert_eq!(c.flits(0), 2); // header + 1 minimum payload flit
        assert_eq!(c.flits(1), 2);
        assert_eq!(c.flits(8), 2);
        assert_eq!(c.flits(9), 3);
        assert_eq!(c.flits(64), 9);
    }

    #[test]
    fn predict_p2p_composes() {
        let mut c = SimConfig::paragon_like();
        c.software = SoftwareModel::zero();
        // 3 hops, 16 bytes => 3 flits: channels = 5, head 5 cycles, +2 more
        // flits streaming.
        assert_eq!(c.predict_p2p(3, 16), 5 + 2);
    }

    #[test]
    fn effective_hold_at_least_drain() {
        let c = SimConfig::paragon_like();
        // 64 KiB: drain = 1 + 8192 flits; CPU = 250 + 0.13*65536 ≈ 8770.
        let (hold, end) = c.effective_pair(16, 65536);
        assert!(hold >= c.flits(65536));
        assert!(hold < end);
    }

    #[test]
    fn effective_pair_is_physical() {
        let c = SimConfig::paragon_like();
        for bytes in [0u64, 64, 1024, 4096, 65536] {
            let (hold, end) = c.effective_pair(16, bytes);
            assert!(hold <= end, "hold {hold} > end {end} at {bytes}");
        }
    }
}
