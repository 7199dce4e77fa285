//! What one op returns, its canonical text for reference digests, and the
//! comparison the traced run makes against the untraced wrapper.

use flitsim::SimResult;
use optmc::concurrent::ConcurrentOutcome;
use optmc::{RunOutcome, TrialOutcome};

/// The output of one op.
#[derive(Debug)]
pub enum Output {
    /// `paper_figures`: one cell's trials (engine wall time included).
    Cell(Vec<TrialOutcome>),
    /// One `optmc::run_multicast`: what the self-tests compare the
    /// traced copy of that wrapper by.
    Multicast(Box<RunOutcome>),
    /// `loaded_poisson`: one batch's per-multicast outcomes and the joint
    /// simulation.
    Batch(Vec<ConcurrentOutcome>, Box<SimResult>),
    /// `plan_service`: the response lines of one request.
    Plan(Vec<String>),
}

/// FNV-1a 64 of `text`: the reference digest.
pub(crate) fn digest(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A trial outcome without its host wall time, the one field that is not
/// a deterministic output.
fn trial_text(o: &TrialOutcome) -> String {
    format!(
        "{},{},{},{},{},{},{};",
        o.trial, o.placement_seed, o.latency, o.analytic, o.blocked, o.contention_free, o.events
    )
}

fn sim_sentinels(s: &SimResult) -> String {
    format!(
        "finish {} messages {} blocked {} blocked_events {} busy {} events {} scheduled {}",
        s.finish,
        s.messages.len(),
        s.blocked_cycles,
        s.blocked_events,
        s.channel_busy_cycles,
        s.meta.events_processed,
        s.meta.events_scheduled
    )
}

fn batch_text(outcomes: &[ConcurrentOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| format!("{}+{}/{};", o.start, o.latency, o.analytic))
        .collect()
}

fn multicast_text(o: &RunOutcome) -> String {
    format!(
        "latency {} analytic {} pair {:?} chain {:?} {}",
        o.latency,
        o.analytic,
        o.pair,
        o.chain_nodes.iter().map(|n| n.0).collect::<Vec<_>>(),
        sim_sentinels(&o.sim)
    )
}

impl Output {
    /// Canonical text of the deterministic part of the output; its
    /// [`digest`] is what `references.txt` records.  Plan responses are
    /// taken with `"cached"` normalized, since whether a request hits
    /// depends on the requests before it, not on the plan.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            Output::Cell(trials) => trials.iter().map(trial_text).collect(),
            Output::Multicast(o) => multicast_text(o),
            Output::Batch(outcomes, sim) => {
                format!("{} {}", batch_text(outcomes), sim_sentinels(sim))
            }
            Output::Plan(lines) => lines
                .iter()
                .map(|l| l.replacen("\"cached\":true", "\"cached\":false", 1))
                .collect::<Vec<_>>()
                .join("\n"),
        }
    }

    /// `Ok` when `other` (the traced decomposition's output) equals this
    /// one (the wrapper's): the same trial outcomes, the same
    /// `SimResult::fingerprint()`, the same response bytes.
    ///
    /// # Errors
    /// Quotes both outputs' canonical text, cut short.
    pub fn same_as(&self, other: &Output) -> Result<(), String> {
        let same = match (self, other) {
            (Output::Cell(a), Output::Cell(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| trial_text(x) == trial_text(y))
            }
            (Output::Multicast(a), Output::Multicast(b)) => {
                multicast_text(a) == multicast_text(b)
                    && a.schedule == b.schedule
                    && a.sim.fingerprint() == b.sim.fingerprint()
            }
            (Output::Batch(a, sa), Output::Batch(b, sb)) => {
                batch_text(a) == batch_text(b) && sa.fingerprint() == sb.fingerprint()
            }
            (Output::Plan(a), Output::Plan(b)) => a == b,
            _ => false,
        };
        if same {
            Ok(())
        } else {
            let cut = |s: String| s.chars().take(160).collect::<String>();
            Err(format!(
                "wrapper {} vs traced {}",
                cut(self.canonical()),
                cut(other.canonical())
            ))
        }
    }
}
