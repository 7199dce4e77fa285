//! The three workloads.  Each generates its inputs from the seed in `new`
//! (untimed), builds program state in `setup` (timed as `setup_s`), and
//! runs one op per call on a single thread with one op in flight.

mod loaded_poisson;
mod paper_figures;
mod plan_service;

pub(crate) use loaded_poisson::LoadedPoisson;
pub(crate) use paper_figures::PaperFigures;
pub(crate) use plan_service::PlanService;

use crate::output::{digest, Output};
use crate::refs::Refs;

/// Compare `out` with the digest recorded for `workload`'s input `id`,
/// when references are loaded.
fn check_ref(refs: Option<&Refs>, workload: &str, id: &str, out: &Output) -> Result<(), String> {
    let Some(refs) = refs else {
        return Ok(());
    };
    let want = refs
        .digest(workload, id)
        .ok_or_else(|| format!("no reference recorded for {workload} input {id}"))?;
    let got = digest(&out.canonical());
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{workload} input {id}: output digest {got:016x} != reference {want:016x}"
        ))
    }
}

/// Seed of input `i` of a workload's stream: `optmc::trial_seed` over the
/// run seed and the workload name, so every workload draws independently.
fn input_seed(seed: u64, workload: &str, i: usize) -> u64 {
    optmc::trial_seed(seed, crate::output::digest(workload), i)
}
