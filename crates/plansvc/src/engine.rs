//! The sans-io planning engine: input events in, output commands out.
//!
//! The engine owns all service *state* — the plan cache, the in-flight
//! table, the counters — and none of the *transport*.  A shell feeds it
//! [`Input`]s and drains [`Command`]s:
//!
//! * [`Input::Line`] — one request line arrived (from stdin, a TCP
//!   connection, a test vector — the engine cannot tell).
//! * [`Input::Rejected`] — the shell refused a line it could not read.
//! * [`Command::Respond`] — write this response line to the client that
//!   sent request `id`.
//! * [`Command::Compute`] — run the expensive plan computation
//!   ([`crate::compute_plan`]) for this request, in whatever execution
//!   context the shell likes, and feed the result back as
//!   [`Input::Computed`].
//!
//! A seeded request is answered from the cache's alias for its seeded form
//! when there is one, before its placement is drawn; otherwise the engine
//! draws the members and looks the plan up by its member-list key.
//!
//! Cache misses for the same key are **single-flighted**: the first miss
//! emits one `Compute`; requests for that key arriving before the result
//! join a waiter list instead of emitting further `Compute`s.  When the
//! `Computed` input lands, every waiter is answered in arrival order.
//! Because every transition is a pure function of the input history, a
//! request stream replayed against a fresh engine produces byte-identical
//! response lines — the property the serve smoke test pins.

use std::collections::VecDeque;

use netcheck::certificate::push_json_str;
use serde_json::Value;

use crate::cache::PlanCache;
use crate::plan::PlanBody;
use crate::request::{parse_request, PlanRequest, Request, SeededKey};

/// Shell-assigned identifier routing a response back to its requester.
pub type RequestId = u64;

/// An event fed into the engine.
#[derive(Debug)]
pub enum Input {
    /// A request line arrived.
    Line {
        /// Shell-assigned routing id.
        id: RequestId,
        /// The raw line (newline stripped).
        text: String,
    },
    /// A request line the shell could not read (longer than its limit, or
    /// not UTF-8): answered with an error response, like a line that does
    /// not parse.
    Rejected {
        /// Shell-assigned routing id.
        id: RequestId,
        /// Why the line was refused.
        reason: String,
    },
    /// A previously commanded computation finished.
    Computed {
        /// The request key the computation was for.
        key: String,
        /// The plan, or the computation's error message.
        result: Result<Box<PlanBody>, String>,
    },
}

/// An action the shell must carry out.
#[derive(Debug)]
pub enum Command {
    /// Run [`crate::compute_plan`] for `request` and feed the result back
    /// as [`Input::Computed`] with the same `key`.
    Compute {
        /// The request's cache key.
        key: String,
        /// The resolved request.
        request: Box<PlanRequest>,
    },
    /// Deliver `line` to the client that sent request `id`.
    Respond {
        /// The routing id from the originating [`Input::Line`].
        id: RequestId,
        /// A complete JSON response line (no trailing newline).
        line: String,
    },
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Plan-cache capacity (entries).
    pub capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { capacity: 1024 }
    }
}

/// Deterministic service counters (cycle- and wall-clock-free, so two
/// replays of one stream report identical stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Request lines handled (plan requests only; stats lines excluded).
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that initiated a computation.
    pub misses: u64,
    /// Requests that joined an already-in-flight computation.
    pub coalesced: u64,
    /// Completed plan computations (successful `Computed` inputs).
    pub dp_runs: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Requests rejected before keying (unreadable lines, parse and
    /// validation failures) plus failed computations.
    pub errors: u64,
}

struct Waiter {
    id: RequestId,
    echo: Option<Value>,
}

/// One computation in flight: its key, the seeded form of the request that
/// commanded it (the alias its cache entry gets), and who waits for it.
struct InFlight {
    key: String,
    alias: Option<SeededKey>,
    waiters: Vec<Waiter>,
}

/// The sans-io planning engine.  See the module docs for the contract.
pub struct Engine {
    cache: PlanCache,
    /// In-flight computations, waiters in request-arrival order.  A `Vec`
    /// keeps iteration deterministic; in-flight counts are small (bounded
    /// by the shell's concurrency).
    inflight: Vec<InFlight>,
    out: VecDeque<Command>,
    stats: EngineStats,
}

impl Engine {
    /// A fresh engine with an empty cache.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        Engine {
            cache: PlanCache::new(cfg.capacity),
            inflight: Vec::new(),
            out: VecDeque::new(),
            stats: EngineStats::default(),
        }
    }

    /// Feed one input event; drain the consequences with [`Engine::poll`].
    pub fn handle(&mut self, input: Input) {
        match input {
            Input::Line { id, text } => self.handle_line(id, &text),
            Input::Rejected { id, reason } => {
                self.stats.errors += 1;
                self.respond(id, error_line(None, &reason));
            }
            Input::Computed { key, result } => self.handle_computed(&key, result),
        }
    }

    /// Next pending command, if any.
    pub fn poll(&mut self) -> Option<Command> {
        self.out.pop_front()
    }

    /// Deterministic service counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of plans currently cached.
    #[must_use]
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// The cache capacity the engine was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Number of distinct computations currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    fn handle_line(&mut self, id: RequestId, text: &str) {
        let (plan, echo) = match parse_request(text) {
            Err(e) => {
                self.stats.errors += 1;
                self.respond(id, error_line(e.echo.as_ref(), &e.message));
                return;
            }
            Ok(Request::Stats(echo)) => {
                let line = self.stats_line(echo.as_ref());
                self.respond(id, line);
                return;
            }
            Ok(Request::Plan(plan, echo)) => (plan, echo),
        };
        self.stats.requests += 1;
        // A seeded hit: no placement drawn, no key built.
        if let Some(tail) = plan.seeded().and_then(|s| self.cache.get_alias(s)) {
            let line = response_line(echo.as_ref(), true, tail);
            self.stats.hits += 1;
            self.respond(id, line);
            return;
        }
        let (request, alias) = plan.expand();
        let key = request.key();
        if let Some(tail) = self.cache.get(&key) {
            let line = response_line(echo.as_ref(), true, tail);
            if let Some(alias) = alias {
                self.cache.alias(&key, alias);
            }
            self.stats.hits += 1;
            self.respond(id, line);
        } else if let Some(f) = self.inflight.iter_mut().find(|f| f.key == key) {
            self.stats.coalesced += 1;
            f.waiters.push(Waiter { id, echo });
        } else {
            self.stats.misses += 1;
            self.inflight.push(InFlight {
                key: key.clone(),
                alias,
                waiters: vec![Waiter { id, echo }],
            });
            self.out.push_back(Command::Compute {
                key,
                request: Box::new(request),
            });
        }
    }

    fn handle_computed(&mut self, key: &str, result: Result<Box<PlanBody>, String>) {
        let Some(pos) = self.inflight.iter().position(|f| f.key == key) else {
            // A stray completion (shell bug or duplicate); nothing waits,
            // nothing to do.
            return;
        };
        let InFlight {
            key,
            alias,
            waiters,
        } = self.inflight.remove(pos);
        match result {
            Ok(body) => {
                self.stats.dp_runs += 1;
                // Render once; every waiter now — and every future hit —
                // splices these bytes instead of re-walking the plan.
                let tail = response_tail(&key, &body);
                for w in &waiters {
                    let line = response_line(w.echo.as_ref(), false, &tail);
                    self.respond(w.id, line);
                }
                if self.cache.insert_aliased(key, tail, alias).is_some() {
                    self.stats.evictions += 1;
                }
            }
            Err(message) => {
                for w in &waiters {
                    self.stats.errors += 1;
                    let line = error_line(w.echo.as_ref(), &message);
                    self.respond(w.id, line);
                }
            }
        }
    }

    fn respond(&mut self, id: RequestId, line: String) {
        self.out.push_back(Command::Respond { id, line });
    }

    fn stats_line(&self, echo: Option<&Value>) -> String {
        let s = self.stats;
        let stats = Value::Object(vec![
            ("requests".to_string(), Value::UInt(s.requests)),
            ("hits".to_string(), Value::UInt(s.hits)),
            ("misses".to_string(), Value::UInt(s.misses)),
            ("coalesced".to_string(), Value::UInt(s.coalesced)),
            ("dp_runs".to_string(), Value::UInt(s.dp_runs)),
            ("evictions".to_string(), Value::UInt(s.evictions)),
            ("errors".to_string(), Value::UInt(s.errors)),
            (
                "cached_plans".to_string(),
                Value::UInt(self.cache.len() as u64),
            ),
            (
                "capacity".to_string(),
                Value::UInt(self.cache.capacity() as u64),
            ),
        ]);
        let mut fields = Vec::new();
        if let Some(e) = echo {
            fields.push(("id".to_string(), e.clone()));
        }
        fields.push(("ok".to_string(), Value::Bool(true)));
        fields.push(("stats".to_string(), stats));
        render(&Value::Object(fields))
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("response JSON render cannot fail")
}

/// The part of every success response for one plan that does not depend
/// on the request: `"key":<key>,"plan":<plan>`, the key JSON-escaped.
/// Written once, when the plan is computed, and cached.
fn response_tail(key: &str, body: &PlanBody) -> String {
    let mut tail = String::with_capacity(key.len() + 16 + body.json_capacity());
    tail.push_str("\"key\":");
    push_json_str(&mut tail, key);
    tail.push_str(",\"plan\":");
    body.write_json(&mut tail);
    tail
}

/// Build a success response by splicing a cached [`response_tail`] into
/// the envelope.  Byte-compatible with rendering the equivalent
/// [`Value::Object`] (pinned by a test below) — this is the hot path for
/// cache hits, so neither the key nor the plan JSON is re-generated per
/// request.
fn response_line(echo: Option<&Value>, cached: bool, tail: &str) -> String {
    let mut s = String::with_capacity(tail.len() + 64);
    s.push('{');
    if let Some(e) = echo {
        s.push_str("\"id\":");
        s.push_str(&render(e));
        s.push(',');
    }
    s.push_str("\"ok\":true,\"cached\":");
    s.push_str(if cached { "true," } else { "false," });
    s.push_str(tail);
    s.push('}');
    s
}

fn error_line(echo: Option<&Value>, message: &str) -> String {
    let mut fields = Vec::new();
    if let Some(e) = echo {
        fields.push(("id".to_string(), e.clone()));
    }
    fields.push(("ok".to_string(), Value::Bool(false)));
    fields.push(("error".to_string(), Value::Str(message.to_string())));
    render(&Value::Object(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spliced_response_matches_a_full_value_render() {
        // The hot-path splice must stay byte-compatible with rendering the
        // equivalent Value tree, or hit and miss responses would diverge in
        // formatting (and replay determinism claims would weaken).
        for topo in ["mesh:8x8", "torus:4x4", "bmin:16", "omega:16"] {
            let request = PlanRequest {
                topo: topo.to_string(),
                algorithm: optmc::Algorithm::OptArch,
                members: [0, 5, 10, 15].map(topo::NodeId).to_vec(),
                bytes: 2048,
                params: None,
            };
            let body = crate::compute_plan(&request, &crate::PlanOptions { certify: true })
                .expect("certified plan");
            // The cached tail is the plan's key and bytes, rendered once;
            // the second key needs JSON escapes.
            for key in [request.key(), "plan|\"q\"\\|\n\u{1}".to_string()] {
                let tail = response_tail(&key, &body);
                for echo in [None, Some(Value::UInt(7)), Some(Value::Str("x|9\"".into()))] {
                    for cached in [false, true] {
                        let spliced = response_line(echo.as_ref(), cached, &tail);
                        let mut fields = Vec::new();
                        if let Some(e) = &echo {
                            fields.push(("id".to_string(), e.clone()));
                        }
                        fields.push(("ok".to_string(), Value::Bool(true)));
                        fields.push(("cached".to_string(), Value::Bool(cached)));
                        fields.push(("key".to_string(), Value::Str(key.clone())));
                        fields.push(("plan".to_string(), body.to_value()));
                        assert_eq!(spliced, render(&Value::Object(fields)), "{topo}");
                    }
                }
            }
        }
    }
}
