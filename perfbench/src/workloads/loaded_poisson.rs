//! `loaded_poisson`: many multicasts sharing the network.  Each op
//! generates one `campaign::workload::generate_specs` batch — 64 groups of
//! 16 nodes, 4 KB each, Poisson arrivals with a mean gap of 500 cycles on
//! the paper's `mesh:16x16` — and simulates it jointly with
//! `optmc::run_concurrent`.  (On `mesh:32x32` the 8 MB route table lives
//! in the L3 the host shares with other tenants, which made run-to-run
//! spreads too wide; see `NOTES.md`.)

use campaign::workload::generate_specs;
use campaign::{Arrivals, WorkloadSpec};
use flitsim::SimConfig;
use optmc::{run_concurrent, Algorithm};
use topo::Topology;

use super::{check_ref, input_seed};
use crate::decomposed;
use crate::output::Output;
use crate::refs::Refs;
use crate::trace::Tracer;
use crate::Workload;

const NAME: &str = "loaded_poisson";
const TOPO: &str = "mesh:16x16";
const COUNT: usize = 64;
const K: usize = 16;
const BYTES: u64 = 4096;
const MEAN_GAP: f64 = 500.0;
/// Batches per input cycle.
const POOL: usize = 512;

pub(crate) struct LoadedPoisson {
    batches: Vec<WorkloadSpec>,
    cfg: SimConfig,
    refs: Option<Refs>,
    topo: Option<Box<dyn Topology>>,
}

impl LoadedPoisson {
    pub(crate) fn new(seed: u64, refs: Option<Refs>) -> Self {
        LoadedPoisson {
            batches: (0..POOL)
                .map(|b| WorkloadSpec {
                    count: COUNT,
                    k: K,
                    bytes: BYTES,
                    arrivals: Arrivals::Poisson { mean_gap: MEAN_GAP },
                    seed: input_seed(seed, NAME, b),
                })
                .collect(),
            cfg: SimConfig::paragon_like(),
            refs,
            topo: None,
        }
    }

    fn input(&self, i: u64) -> (&dyn Topology, &WorkloadSpec) {
        let topo = self.topo.as_deref().expect("set-up ran");
        (topo, &self.batches[i as usize % POOL])
    }
}

impl Workload for LoadedPoisson {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let topo = tr.span("topo.build", |_| optmc::spec::parse_topology(TOPO))?;
        decomposed::route_table(topo.as_ref(), tr, "setup.topo.route_table_mb");
        self.topo = Some(topo);
        Ok(())
    }

    fn teardown(&mut self) {
        self.topo = None;
    }

    fn cycle_len(&self) -> usize {
        POOL
    }

    fn op(&mut self, i: u64) -> Result<Output, String> {
        let (topo, batch) = self.input(i);
        let specs = generate_specs(topo.graph().n_nodes(), batch);
        let (outcomes, sim) = run_concurrent(topo, &self.cfg, Algorithm::OptArch, &specs);
        Ok(Output::Batch(outcomes, Box::new(sim)))
    }

    fn op_traced(&mut self, i: u64, tr: &mut Tracer) -> Result<Output, String> {
        let (topo, batch) = self.input(i);
        let specs = tr.span("campaign.workload", |_| {
            generate_specs(topo.graph().n_nodes(), batch)
        });
        // `run_concurrent` stays one span; the engine's own wall clock
        // splits `flitsim.run` off it.
        let (outcomes, sim) = tr.span("optmc.concurrent", |tr| {
            let (outcomes, sim) = run_concurrent(topo, &self.cfg, Algorithm::OptArch, &specs);
            tr.child_span("flitsim.run", sim.meta.wall_ns);
            (outcomes, sim)
        });
        decomposed::count_sim(tr, &sim);
        Ok(Output::Batch(outcomes, Box::new(sim)))
    }

    fn check(&self, i: u64, out: &Output) -> Result<(), String> {
        let Output::Batch(outcomes, sim) = out else {
            return Err("not a batch outcome".into());
        };
        if outcomes.len() != COUNT {
            return Err(format!("{} outcomes, want {COUNT}", outcomes.len()));
        }
        if sim.messages.len() != COUNT * (K - 1) {
            return Err(format!(
                "{} messages delivered, want {}",
                sim.messages.len(),
                COUNT * (K - 1)
            ));
        }
        if let Some(o) = outcomes.iter().find(|o| o.latency == 0) {
            return Err(format!("multicast starting at {} took 0 cycles", o.start));
        }
        check_ref(
            self.refs.as_ref(),
            NAME,
            &(i as usize % POOL).to_string(),
            out,
        )
    }
}
