//! `plan_service`: planning with no simulation.  One client sends plan
//! requests to one `plansvc::Engine` through `plansvc::step_blocking`,
//! with a 256-plan cache and certification on (as `optmc serve --certify`
//! runs).  Request keys are Zipf(1) over 2048 keys spanning four
//! topologies, k ∈ {8,16,32,64} and 4 KB messages: a sequence of 4096
//! draws, replayed in a cycle so that every request slot recurs.

use plansvc::{step_blocking, Command, Engine, EngineConfig, Input, PlanOptions};

use super::{check_ref, input_seed};
use crate::decomposed;
use crate::output::{digest, Output};
use crate::refs::Refs;
use crate::trace::Tracer;
use crate::Workload;

const NAME: &str = "plan_service";
const TOPOS: [&str; 4] = ["mesh:16x16", "bmin:128", "mesh:32x32", "bmin:512"];
const KS: [usize; 4] = [8, 16, 32, 64];
const KEYS: usize = 2048;
const CAPACITY: usize = 256;
/// Requests per input cycle.
const REQUESTS: u64 = 4096;
const OPTS: PlanOptions = PlanOptions { certify: true };

pub(crate) struct PlanService {
    seed: u64,
    /// Request line of each key, most popular first.
    lines: Vec<String>,
    /// Zipf(1) cumulative distribution over key ranks.
    cdf: Vec<f64>,
    refs: Option<Refs>,
    engine: Option<Engine>,
    traced_engine: Option<Engine>,
}

impl PlanService {
    pub(crate) fn new(seed: u64, refs: Option<Refs>) -> Self {
        let lines = (0..KEYS)
            .map(|j| {
                format!(
                    r#"{{"topo":"{}","alg":"opt-arch","bytes":4096,"k":{},"seed":{}}}"#,
                    TOPOS[j % TOPOS.len()],
                    KS[(j / TOPOS.len()) % KS.len()],
                    input_seed(seed, NAME, j)
                )
            })
            .collect();
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=KEYS)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        PlanService {
            seed,
            lines,
            cdf,
            refs,
            engine: None,
            traced_engine: None,
        }
    }

    /// The key op `i` requests: a pure function of the seed and `i`'s
    /// slot in the request cycle.
    fn key(&self, i: u64) -> usize {
        let slot = i % REQUESTS;
        let bits = optmc::splitmix64(input_seed(self.seed, "plan_service.stream", 0) ^ slot);
        let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c <= u).min(KEYS - 1)
    }
}

/// `plansvc::step_blocking` with the engine's `handle`/`poll` work in a
/// `plansvc.service` span, `compute_plan` decomposed inside it, and the
/// engine's handling of the finished plan (rendering its JSON once,
/// caching it, answering the waiters) in `plansvc.render`.
fn step_traced(engine: &mut Engine, id: u64, text: &str, tr: &mut Tracer) -> Vec<(u64, String)> {
    tr.span("plansvc.service", |tr| {
        engine.handle(Input::Line {
            id,
            text: text.to_string(),
        });
        let mut responses = Vec::new();
        while let Some(cmd) = engine.poll() {
            match cmd {
                Command::Respond { id, line } => responses.push((id, line)),
                Command::Compute { key, request } => {
                    let result = tr
                        .span("plansvc.compute", |tr| {
                            decomposed::compute_plan(&request, &OPTS, tr)
                        })
                        .map(Box::new);
                    tr.span("plansvc.render", |_| {
                        engine.handle(Input::Computed { key, result });
                    });
                }
            }
        }
        responses
    })
}

fn plan_output(responses: Vec<(u64, String)>) -> Output {
    Output::Plan(responses.into_iter().map(|(_, line)| line).collect())
}

impl Workload for PlanService {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let config = EngineConfig { capacity: CAPACITY };
        self.engine = Some(tr.span("plansvc.engine", |_| Engine::new(config)));
        self.traced_engine = tr.enabled().then(|| Engine::new(config));
        Ok(())
    }

    fn teardown(&mut self) {
        self.engine = None;
        self.traced_engine = None;
    }

    fn cycle_len(&self) -> usize {
        REQUESTS as usize
    }

    fn op(&mut self, i: u64) -> Result<Output, String> {
        let line = &self.lines[self.key(i)];
        let engine = self.engine.as_mut().expect("set-up ran");
        Ok(plan_output(step_blocking(engine, i, line, &OPTS)))
    }

    fn op_traced(&mut self, i: u64, tr: &mut Tracer) -> Result<Output, String> {
        let line = &self.lines[self.key(i)];
        let engine = self.traced_engine.as_mut().expect("traced set-up ran");
        let before = engine.stats();
        let responses = step_traced(engine, i, line, tr);
        let after = engine.stats();
        tr.count("plansvc.hit_ratio", (after.hits - before.hits) as f64);
        tr.count(
            "plansvc.evictions",
            (after.evictions - before.evictions) as f64,
        );
        Ok(plan_output(responses))
    }

    fn check(&self, i: u64, out: &Output) -> Result<(), String> {
        let Output::Plan(lines) = out else {
            return Err("not a plan response".into());
        };
        let [line] = lines.as_slice() else {
            return Err(format!("{} responses to one request", lines.len()));
        };
        if !line.starts_with(r#"{"ok":true,"cached":"#) {
            return Err(format!("request failed: {}", &line[..line.len().min(200)]));
        }
        // Theorem 1: the certificate finds OPT-mesh contention-free.  On
        // the BMIN, Theorem 2 holds only with the adaptive up-phase the
        // certificate does not model, so there its verdict is not checked.
        let j = self.key(i);
        let clean = line.contains(r#""clean":true"#);
        if !clean && !line.contains(r#""clean":false"#) {
            return Err("plan carries no certificate".into());
        }
        if TOPOS[j % TOPOS.len()].starts_with("mesh") && !clean {
            let key = line.split(r#""plan":"#).next().unwrap_or(line);
            return Err(format!("OPT-mesh plan certificate is not clean: {key}"));
        }
        check_ref(self.refs.as_ref(), NAME, &j.to_string(), out)
    }

    /// Every key once, through a fresh engine: the digest of a plan does
    /// not depend on the requests before it.
    fn record(&mut self) -> Result<Vec<(String, u64)>, String> {
        let mut engine = Engine::new(EngineConfig { capacity: CAPACITY });
        (0..KEYS)
            .map(|j| {
                let out = plan_output(step_blocking(&mut engine, j as u64, &self.lines[j], &OPTS));
                Ok((j.to_string(), digest(&out.canonical())))
            })
            .collect()
    }
}
