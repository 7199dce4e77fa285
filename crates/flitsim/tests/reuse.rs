//! A run on a reused [`Sim`] is a run on a fresh engine.
//!
//! One `Sim` per network shape runs a mixed sequence of cases — every
//! routing family, contended and clean traffic, shallow and deep buffers,
//! slow and instant routers, a 2-port NI, a far-future start, and the
//! counters, memory and JSONL sinks — twice over, so each case follows
//! different predecessors.  After every run the result is compared with a
//! fresh engine's: the `SimResult::fingerprint()`, the heap high-water
//! marks, the Perfetto export and the JSONL stream must be equal.
//!
//! Every message here ends at a receive-only leaf (`SinkProgram` never
//! forwards), whose receive software is the only thing that changes its
//! CPU; a reset that skipped such nodes would start the next run's receive
//! late on the same leaf, and the repeated cases catch it.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use flitsim::program::SinkProgram;
use flitsim::{perfetto, Engine, SendReq, Sim, SimConfig, SimResult, SoftwareModel, TraceSink};
use pcm::Time;
use topo::{Bmin, Mesh, NodeId, Omega, Topology, Torus, UpPolicy};

/// A `Write` whose bytes the test can read back after the engine drops
/// its sink.
#[derive(Clone, Default)]
struct Shared(Rc<RefCell<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Clone, Copy, Debug)]
enum Sink {
    Null,
    Counters,
    Memory,
    Jsonl,
}

struct Case {
    name: &'static str,
    /// Index into the test's topologies.
    topo: usize,
    router_delay: Time,
    buffer_flits: u64,
    /// `(src, dst, bytes, start)`.
    sends: &'static [(u32, u32, u64, Time)],
    sink: Sink,
}

/// What one run leaves to compare: the result and the JSONL bytes.
fn run(topo: &dyn Topology, case: &Case, sim: Option<&mut Sim<()>>) -> (SimResult, Vec<u8>) {
    let cfg = SimConfig {
        router_delay: case.router_delay,
        buffer_flits: case.buffer_flits,
        software: SoftwareModel {
            // A receive long enough to outlast the next run's arrival at
            // the same leaf.
            t_recv: pcm::LinearFn::constant(700.0),
            ..SimConfig::paragon_like().software
        },
        ..SimConfig::paragon_like()
    };
    let mut engine = match sim {
        Some(sim) => Engine::with_sim(topo, cfg, SinkProgram, sim),
        None => Engine::new(topo, cfg, SinkProgram),
    };
    let jsonl = Shared::default();
    match case.sink {
        Sink::Null => {}
        Sink::Counters => engine.set_observer(TraceSink::counters()),
        Sink::Memory => engine.set_observer(TraceSink::memory()),
        Sink::Jsonl => engine.set_observer(TraceSink::jsonl(Box::new(jsonl.clone()))),
    }
    for &(src, dst, bytes, at) in case.sends {
        engine.start(NodeId(src), at, vec![SendReq::to(NodeId(dst), bytes, ())]);
    }
    let (_, result) = engine.run();
    let bytes = jsonl.0.borrow().clone();
    (result, bytes)
}

#[test]
fn a_reused_sim_gives_a_fresh_engines_bytes() {
    let topos: [Box<dyn Topology>; 5] = [
        Box::new(Mesh::new(&[6, 6])),
        Box::new(Torus::new(&[4, 4])),
        Box::new(Bmin::new(4, UpPolicy::Straight)),
        Box::new(Omega::new(4)),
        Box::new(Mesh::with_ports(&[5], 2)),
    ];
    let cases = [
        Case {
            name: "mesh clean",
            topo: 0,
            router_delay: 1,
            buffer_flits: 1,
            sends: &[(0, 35, 4096, 0), (5, 30, 512, 0)],
            sink: Sink::Null,
        },
        Case {
            name: "mesh contended, shared leaf",
            topo: 0,
            router_delay: 1,
            buffer_flits: 1,
            sends: &[(0, 3, 8000, 0), (1, 3, 8000, 0), (12, 3, 64, 40)],
            sink: Sink::Memory,
        },
        Case {
            name: "mesh deep buffers, slow routers",
            topo: 0,
            router_delay: 3,
            buffer_flits: 4096,
            sends: &[(0, 5, 8000, 0), (2, 4, 8, 100), (6, 3, 256, 0)],
            sink: Sink::Counters,
        },
        Case {
            name: "mesh instant routers, far-future start",
            topo: 0,
            router_delay: 0,
            buffer_flits: 1,
            sends: &[(7, 28, 1024, 0), (8, 3, 1024, 50_000_000)],
            sink: Sink::Jsonl,
        },
        Case {
            name: "torus contended",
            topo: 1,
            router_delay: 1,
            buffer_flits: 1,
            sends: &[(0, 10, 4096, 0), (1, 10, 4096, 0), (3, 9, 128, 0)],
            sink: Sink::Memory,
        },
        Case {
            name: "torus clean, deep buffers",
            topo: 1,
            router_delay: 3,
            buffer_flits: 4096,
            sends: &[(5, 15, 2048, 0)],
            sink: Sink::Null,
        },
        Case {
            name: "bmin contended up-phase",
            topo: 2,
            router_delay: 1,
            buffer_flits: 1,
            sends: &[(0, 12, 4000, 0), (1, 14, 4000, 0), (5, 9, 4000, 0)],
            sink: Sink::Jsonl,
        },
        Case {
            name: "bmin clean, instant routers",
            topo: 2,
            router_delay: 0,
            buffer_flits: 4096,
            sends: &[(3, 4, 64, 0), (9, 14, 64, 10)],
            sink: Sink::Counters,
        },
        Case {
            name: "omega contended",
            topo: 3,
            router_delay: 1,
            buffer_flits: 1,
            sends: &[(0, 8, 4096, 0), (1, 8, 4096, 0), (2, 12, 512, 0)],
            sink: Sink::Memory,
        },
        Case {
            name: "omega clean, far-future start",
            topo: 3,
            router_delay: 3,
            buffer_flits: 1,
            sends: &[(6, 1, 1024, 20_000)],
            sink: Sink::Null,
        },
        Case {
            name: "2-port line, overlapping injections",
            topo: 4,
            router_delay: 1,
            buffer_flits: 1,
            sends: &[(2, 0, 8000, 0), (2, 4, 8000, 0), (1, 4, 64, 30)],
            sink: Sink::Jsonl,
        },
        Case {
            name: "2-port line, counters",
            topo: 4,
            router_delay: 0,
            buffer_flits: 4096,
            sends: &[(0, 4, 4000, 0), (4, 0, 4000, 0)],
            sink: Sink::Counters,
        },
    ];
    let mut sims: Vec<Sim<()>> = topos.iter().map(|t| Sim::new(t.graph())).collect();
    for pass in 0..2 {
        for case in &cases {
            let topo = topos[case.topo].as_ref();
            let (want, want_jsonl) = run(topo, case, None);
            let (got, got_jsonl) = run(topo, case, Some(&mut sims[case.topo]));
            let what = format!("pass {pass}, {} ({:?} sink)", case.name, case.sink);
            assert_eq!(got.fingerprint(), want.fingerprint(), "{what}");
            assert_eq!(
                got.meta.peak_heap_events, want.meta.peak_heap_events,
                "{what}"
            );
            assert_eq!(
                got.meta.peak_heap_bytes, want.meta.peak_heap_bytes,
                "{what}"
            );
            assert_eq!(
                perfetto::export_string(&got, Some(topo.graph())),
                perfetto::export_string(&want, Some(topo.graph())),
                "{what}"
            );
            assert_eq!(got_jsonl, want_jsonl, "{what}");
            if matches!(case.sink, Sink::Memory | Sink::Jsonl) {
                assert!(
                    got.meta.trace_events > 0,
                    "{what}: the sink recorded nothing"
                );
            }
        }
    }
}

#[test]
fn the_repeated_leaf_receive_starts_on_time() {
    // The same message twice on one Sim: the leaf's receive software ends
    // 700 cycles after its tail arrives, later than the second run's tail
    // arrives, so a CPU left busy by the first run would delay the second.
    let mesh = Mesh::new(&[4, 4]);
    let case = Case {
        name: "repeat",
        topo: 0,
        router_delay: 1,
        buffer_flits: 1,
        sends: &[(0, 15, 256, 0)],
        sink: Sink::Null,
    };
    let mut sim = Sim::new(mesh.graph());
    let (first, _) = run(&mesh, &case, Some(&mut sim));
    let (second, _) = run(&mesh, &case, Some(&mut sim));
    assert_eq!(second.messages, first.messages);
}

#[test]
#[should_panic(expected = "cannot run")]
fn a_sim_runs_only_its_own_shape() {
    let small = Mesh::new(&[4, 4]);
    let large = Mesh::new(&[6, 6]);
    let mut sim = Sim::new(small.graph());
    let _ = Engine::with_sim(&large, SimConfig::paragon_like(), SinkProgram, &mut sim);
}
