//! # `plansvc` — the sans-io multicast-planning service
//!
//! The paper's end product is the ability to answer planning queries:
//! given an architecture and its calibrated `(t_hold, t_end)` pair,
//! produce the optimal multicast schedule for a request.  This crate is
//! that capability as a *service core*, split sans-io style (in the sense
//! of the `engineio` engine and magic-wormhole's core/io crates):
//!
//! * [`Engine`] — the state machine.  [`Input`] events in ([`Input::Line`]
//!   request lines, [`Input::Rejected`] lines the shell could not read,
//!   [`Input::Computed`] finished computations),
//!   [`Command`]s out ([`Command::Respond`] response lines,
//!   [`Command::Compute`] work orders).  No sockets, no clocks, no files —
//!   every transition is a pure function of the input history, so scripted
//!   event-sequence tests cover the whole protocol and a replayed request
//!   stream produces byte-identical responses.
//! * [`PlanCache`] — content-addressed storage of computed plans, keyed by
//!   [`PlanRequest::key`] through [`campaign::key::compose`] (the same
//!   injective composition campaign cells use), bounded, with
//!   deterministic LRU-by-sequence eviction.  Each plan may also be found
//!   through an alias, the seeded form `(topo, alg, bytes, k, seed,
//!   params)` of a request that drew its members, so a repeated seeded
//!   request is answered without drawing its placement.
//! * single-flight batching — concurrent misses for one key run the OPT
//!   DP once; late arrivals join the first request's waiter list and are
//!   answered from the one [`Input::Computed`] event.
//! * [`compute_plan`] — the pure expensive step: chain construction,
//!   parameter derivation, the OPT DP, schedule layout, and (optionally) a
//!   verified [`netcheck::PlanCertificate`].
//!
//! The blocking shell lives in the CLI crate as `optmc serve` (stdin/
//! stdout and TCP) and `optmc plan` (one-shot); the `perfbench/`
//! benchmark drives the same engine for timing.  Service counters live
//! per engine in [`EngineStats`] and nowhere else (deterministic, so
//! snapshots of one engine replay byte-identically);
//! [`EngineStats::record_into`] exports them under the `plansvc_*_total`
//! names.

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod plan;
pub mod request;

pub use cache::PlanCache;
pub use engine::{Command, Engine, EngineConfig, EngineStats, Input, RequestId};
pub use plan::{compute_plan, PlanBody, PlanOptions};
pub use request::{parse_line, ParseError, ParsedLine, PlanRequest};

use telem::TelemetrySnapshot;

impl EngineStats {
    /// Record these counters into a telemetry snapshot under the
    /// `plansvc_*` metric names.
    pub fn record_into(&self, snap: &mut TelemetrySnapshot) {
        snap.counter(
            "plansvc_requests_total",
            "Plan requests handled",
            self.requests,
        );
        snap.counter(
            "plansvc_cache_hits_total",
            "Plans served from the cache",
            self.hits,
        );
        snap.counter(
            "plansvc_cache_misses_total",
            "Plan requests that initiated a computation",
            self.misses,
        );
        snap.counter(
            "plansvc_coalesced_total",
            "Plan requests that joined an in-flight computation",
            self.coalesced,
        );
        snap.counter(
            "plansvc_dp_runs_total",
            "Completed plan computations",
            self.dp_runs,
        );
        snap.counter(
            "plansvc_cache_evictions_total",
            "Plan-cache evictions",
            self.evictions,
        );
        snap.counter(
            "plansvc_errors_total",
            "Rejected or failed requests",
            self.errors,
        );
    }
}

/// Drive the engine over one request line, executing any [`Command::Compute`]
/// synchronously via [`compute_plan`], and collect the emitted responses.
///
/// This is the canonical *blocking* shell loop in miniature — the CLI's
/// stdin mode, the tests, and the `perfbench/` benchmark all use it.
pub fn step_blocking(
    engine: &mut Engine,
    id: RequestId,
    text: &str,
    opts: &PlanOptions,
) -> Vec<(RequestId, String)> {
    let text = text.to_string();
    handle_blocking(engine, Input::Line { id, text }, opts)
}

/// [`step_blocking`] for any input event: feed `input`, run every
/// [`Command::Compute`] it leads to through [`compute_plan`] and feed the
/// result back as an [`Input::Computed`] event, and collect the emitted
/// responses.
pub fn handle_blocking(
    engine: &mut Engine,
    input: Input,
    opts: &PlanOptions,
) -> Vec<(RequestId, String)> {
    engine.handle(input);
    let mut responses = Vec::new();
    while let Some(cmd) = engine.poll() {
        match cmd {
            Command::Respond { id, line } => responses.push((id, line)),
            Command::Compute { key, request } => {
                let result = compute_plan(&request, opts).map(Box::new);
                engine.handle(Input::Computed { key, result });
            }
        }
    }
    responses
}
