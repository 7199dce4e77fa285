//! `optmc serve` / `optmc plan` — the thin blocking I/O shell around the
//! sans-io [`plansvc`] engine.
//!
//! The engine stays transport-free; this module owns every socket, stream,
//! and clock:
//!
//! * **stdin/stdout mode** (default): newline-delimited JSON requests on
//!   stdin, one response line per request on stdout, strictly in order —
//!   the deterministic mode `scripts/check.sh` smokes.  A summary goes to
//!   stderr at EOF (suppressed by `--quiet`), and `--telemetry-out` writes
//!   the service snapshot (counters + wall-clock hit/miss latency
//!   histograms).
//! * **TCP mode** (`--listen ADDR`): one engine-owner loop, one
//!   reader/writer thread pair per connection.  Pending lines from all
//!   connections are drained into the engine *before* any computation
//!   runs, so identical misses arriving together genuinely coalesce into
//!   one DP execution (single-flight across connections).
//! * **one-shot mode** (`optmc plan`): one request built from flags,
//!   answered on stdout, no service loop at all.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Instant;

use plansvc::{
    compute_plan, parse_line, step_blocking, Command, Engine, EngineConfig, EngineStats, Input,
    ParsedLine, PlanOptions,
};
use serde_json::Value;
use telem::{Histogram, TelemetrySnapshot};

use crate::args::Args;
use crate::{err, CliError};

/// Shell configuration shared by every serve mode.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Plan-cache capacity.
    pub capacity: usize,
    /// Attach a verified certificate to every plan.
    pub certify: bool,
}

impl ServeOptions {
    fn engine(&self) -> Engine {
        Engine::new(EngineConfig {
            capacity: self.capacity,
        })
    }

    fn plan_opts(&self) -> PlanOptions {
        PlanOptions {
            certify: self.certify,
        }
    }
}

/// What one serve session did: the engine's deterministic counters plus
/// wall-clock latency histograms (nanoseconds, hits and misses separate).
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Deterministic engine counters.
    pub stats: EngineStats,
    /// Plans held when the stream ended.
    pub cached_plans: usize,
    /// Wall-clock nanoseconds per cache-hit request.
    pub hit_ns: Histogram,
    /// Wall-clock nanoseconds per cache-miss request (includes the DP).
    pub miss_ns: Histogram,
}

impl ServeSummary {
    /// The service telemetry snapshot: `plansvc_*` counters, cache
    /// occupancy, and the hit/miss latency histograms.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        self.stats.record_into(&mut snap);
        snap.gauge(
            "plansvc_cached_plans",
            "Plans held in the cache",
            self.cached_plans as u64,
        );
        snap.histogram(
            "plansvc_hit_latency_ns",
            "Wall-clock nanoseconds per cache-hit request",
            &self.hit_ns,
        );
        snap.histogram(
            "plansvc_miss_latency_ns",
            "Wall-clock nanoseconds per cache-miss request",
            &self.miss_ns,
        );
        snap
    }

    fn render(&self) -> String {
        let s = self.stats;
        format!(
            "serve: {} requests ({} hits, {} misses, {} coalesced, {} evictions, {} errors), {} plans cached",
            s.requests, s.hits, s.misses, s.coalesced, s.evictions, s.errors, self.cached_plans
        )
    }
}

/// Serve a newline-delimited request stream to completion: one response
/// line per request line, in order, flushed per line.  Pure over the
/// reader/writer pair, so tests drive it with in-memory buffers.
pub fn serve_stream<R: BufRead, W: Write>(
    input: R,
    mut output: W,
    opts: &ServeOptions,
) -> Result<ServeSummary, CliError> {
    let mut engine = opts.engine();
    let plan_opts = opts.plan_opts();
    let mut hit_ns = Histogram::new();
    let mut miss_ns = Histogram::new();
    let mut next_id = 0u64;
    for line in input.lines() {
        let line = line.map_err(|e| err(format!("reading request stream: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        next_id += 1;
        let before = engine.stats();
        let started = Instant::now();
        let responses = step_blocking(&mut engine, next_id, &line, &plan_opts);
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let after = engine.stats();
        if after.hits > before.hits {
            hit_ns.record(elapsed_ns);
        } else if after.misses > before.misses {
            miss_ns.record(elapsed_ns);
        }
        for (_, text) in responses {
            writeln!(output, "{text}").map_err(|e| err(format!("writing response: {e}")))?;
        }
        output
            .flush()
            .map_err(|e| err(format!("flushing response: {e}")))?;
    }
    Ok(ServeSummary {
        stats: engine.stats(),
        cached_plans: engine.cached_plans(),
        hit_ns,
        miss_ns,
    })
}

/// `optmc serve` — stdin/stdout by default, TCP with `--listen`.
pub fn cmd_serve(a: &Args) -> Result<String, CliError> {
    let opts = ServeOptions {
        capacity: a.num("capacity", 1024)?,
        certify: a.has("certify"),
    };
    let quiet = a.has("quiet");
    if let Some(addr) = a.get("listen") {
        if a.get("telemetry-out").is_some() {
            return Err(err(
                "--telemetry-out requires the stdin/stdout mode (the TCP loop never ends)",
            ));
        }
        let listener = TcpListener::bind(addr).map_err(|e| err(format!("--listen {addr}: {e}")))?;
        if !quiet {
            let local = listener
                .local_addr()
                .map_or_else(|_| addr.to_string(), |l| l.to_string());
            eprintln!("optmc serve: listening on {local}");
        }
        tcp_serve(&listener, &opts);
        return Ok(String::new());
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let summary = serve_stream(stdin.lock(), stdout.lock(), &opts)?;
    if let Some(path) = a.get("telemetry-out") {
        crate::write_snapshot(path, &summary.snapshot())?;
    }
    if !quiet {
        eprintln!("{}", summary.render());
    }
    Ok(String::new())
}

enum ConnEvent {
    Opened {
        conn: u64,
        writer: mpsc::Sender<String>,
    },
    Line {
        conn: u64,
        text: String,
    },
    Closed {
        conn: u64,
    },
}

/// The TCP engine-owner loop.  Runs until the accept thread dies (i.e.
/// forever in practice — the server is killed externally).
///
/// All connection events funnel through one channel into the single
/// engine; each wakeup drains *every* pending event before executing any
/// `Compute`, so concurrent identical misses coalesce across connections.
pub fn tcp_serve(listener: &TcpListener, opts: &ServeOptions) {
    let plan_opts = opts.plan_opts();
    let (tx, rx) = mpsc::channel::<ConnEvent>();
    {
        let tx = tx.clone();
        let listener = listener.try_clone().expect("cloning listener handle");
        std::thread::spawn(move || accept_loop(&listener, &tx));
    }
    drop(tx);
    let mut engine = opts.engine();
    let mut writers: HashMap<u64, mpsc::Sender<String>> = HashMap::new();
    let mut routes: HashMap<u64, u64> = HashMap::new();
    let mut next_id = 0u64;
    while let Ok(first) = rx.recv() {
        // Batch: drain everything already pending before computing.
        let mut events = vec![first];
        while let Ok(ev) = rx.try_recv() {
            events.push(ev);
        }
        let mut computes = Vec::new();
        for ev in events {
            match ev {
                ConnEvent::Opened { conn, writer } => {
                    writers.insert(conn, writer);
                }
                ConnEvent::Closed { conn } => {
                    writers.remove(&conn);
                }
                ConnEvent::Line { conn, text } => {
                    next_id += 1;
                    routes.insert(next_id, conn);
                    engine.handle(Input::Line { id: next_id, text });
                }
            }
        }
        drain_commands(&mut engine, &mut computes, &mut routes, &writers);
        // Execute the batch's work orders; each completion may answer
        // many coalesced waiters.
        while !computes.is_empty() {
            for (key, request) in std::mem::take(&mut computes) {
                let result = compute_plan(&request, &plan_opts).map(Box::new);
                engine.handle(Input::Computed { key, result });
            }
            drain_commands(&mut engine, &mut computes, &mut routes, &writers);
        }
    }
}

fn drain_commands(
    engine: &mut Engine,
    computes: &mut Vec<(String, Box<plansvc::PlanRequest>)>,
    routes: &mut HashMap<u64, u64>,
    writers: &HashMap<u64, mpsc::Sender<String>>,
) {
    while let Some(cmd) = engine.poll() {
        match cmd {
            Command::Compute { key, request } => computes.push((key, request)),
            Command::Respond { id, line } => {
                if let Some(conn) = routes.remove(&id) {
                    if let Some(w) = writers.get(&conn) {
                        // A send error means the client left; drop the line.
                        let _ = w.send(line);
                    }
                }
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, tx: &mpsc::Sender<ConnEvent>) {
    let mut conn_seq = 0u64;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        conn_seq += 1;
        let conn = conn_seq;
        let (wtx, wrx) = mpsc::channel::<String>();
        if tx.send(ConnEvent::Opened { conn, writer: wtx }).is_err() {
            return; // engine loop is gone
        }
        let write_half = stream.try_clone().ok();
        std::thread::spawn(move || writer_loop(write_half, &wrx));
        let tx = tx.clone();
        std::thread::spawn(move || reader_loop(stream, conn, &tx));
    }
}

fn writer_loop(stream: Option<TcpStream>, lines: &mpsc::Receiver<String>) {
    let Some(stream) = stream else { return };
    let mut out = std::io::BufWriter::new(stream);
    while let Ok(line) = lines.recv() {
        if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
            return;
        }
    }
}

fn reader_loop(stream: TcpStream, conn: u64, tx: &mpsc::Sender<ConnEvent>) {
    let reader = std::io::BufReader::new(stream);
    for line in reader.lines() {
        let Ok(text) = line else { break };
        if text.trim().is_empty() {
            continue;
        }
        if tx.send(ConnEvent::Line { conn, text }).is_err() {
            return;
        }
    }
    let _ = tx.send(ConnEvent::Closed { conn });
}

/// `optmc plan` — one request from flags, one answer, no service loop.
pub fn cmd_plan(a: &Args) -> Result<String, CliError> {
    let topo = a.require("topo")?;
    let mut fields: Vec<(String, Value)> = vec![("topo".to_string(), Value::Str(topo.to_string()))];
    if let Some(alg) = a.get("alg") {
        fields.push(("alg".to_string(), Value::Str(alg.to_string())));
    }
    match (a.get("members"), a.get("nodes")) {
        (Some(_), Some(_)) => {
            return Err(err("give either --members or --nodes, not both"));
        }
        (Some(csv), None) => {
            let ids: Result<Vec<Value>, CliError> = csv
                .split(',')
                .map(|tok| {
                    tok.trim()
                        .parse::<u64>()
                        .map(Value::UInt)
                        .map_err(|_| err(format!("--members: cannot parse '{tok}'")))
                })
                .collect();
            fields.push(("members".to_string(), Value::Array(ids?)));
        }
        (None, Some(_)) => {
            fields.push(("k".to_string(), Value::UInt(a.require_num("nodes")?)));
            fields.push(("seed".to_string(), Value::UInt(a.num("seed", 1997)?)));
        }
        (None, None) => {
            return Err(err("missing --members (or --nodes for a seeded placement)"));
        }
    }
    fields.push(("bytes".to_string(), Value::UInt(a.num("bytes", 4096)?)));
    match (a.get("hold"), a.get("end")) {
        (None, None) => {}
        (Some(_), Some(_)) => {
            fields.push(("hold".to_string(), Value::UInt(a.require_num("hold")?)));
            fields.push(("end".to_string(), Value::UInt(a.require_num("end")?)));
        }
        _ => return Err(err("--hold and --end must be given together")),
    }
    let line = serde_json::to_string(&Value::Object(fields))
        .map_err(|e| err(format!("building request: {e}")))?;
    let ParsedLine::Plan(request, _) = parse_line(&line).map_err(|e| err(e.message))? else {
        unreachable!("cmd_plan builds plan requests only");
    };
    let opts = PlanOptions {
        certify: a.has("certify"),
    };
    let body = compute_plan(&request, &opts).map_err(CliError)?;
    if a.has("json") {
        let mut text = serde_json::to_string_pretty(&body.to_value())
            .map_err(|e| err(format!("rendering plan: {e}")))?;
        text.push('\n');
        return Ok(text);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} on {}: k={}, {} bytes  (key {})",
        body.algorithm,
        body.topo,
        body.k,
        body.bytes,
        request.key()
    );
    let _ = writeln!(text, "  (t_hold, t_end) = ({}, {})", body.hold, body.end);
    let _ = writeln!(
        text,
        "  analytic latency {} cycles, depth {} rounds",
        body.latency, body.depth
    );
    let chain = body
        .chain
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(text, "  chain: {chain}");
    let _ = writeln!(text, "  sends:");
    for &(from, to, start, arrive) in &body.sends {
        let _ = writeln!(
            text,
            "    t={start:<8} {from:>5} -> {to:<5} (arrive {arrive})"
        );
    }
    if let Some(cert) = &body.certificate {
        let verdict = if cert.clean {
            "clean (contention-free, verified)"
        } else {
            "CONTENDED"
        };
        let _ = writeln!(
            text,
            "  certificate: {verdict}, {} channel windows",
            cert.windows.len()
        );
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn opts(capacity: usize) -> ServeOptions {
        ServeOptions {
            capacity,
            certify: false,
        }
    }

    fn serve(batch: &str, capacity: usize) -> (String, ServeSummary) {
        let mut out = Vec::new();
        let summary = serve_stream(Cursor::new(batch), &mut out, &opts(capacity)).unwrap();
        (String::from_utf8(out).unwrap(), summary)
    }

    const BATCH: &str = r#"{"id": 1, "topo": "mesh:8x8", "k": 8, "seed": 1, "bytes": 2048}
{"id": 2, "topo": "mesh:8x8", "k": 8, "seed": 1, "bytes": 2048}
{"id": 3, "topo": "mesh:8x8", "alg": "u-arch", "k": 8, "seed": 2, "bytes": 1024}
{"id": 4, "topo": "mesh:8x8", "k": 8, "seed": 1, "bytes": 2048}
{"id": 5, "stats": true}
"#;

    #[test]
    fn scripted_batch_is_byte_stable_and_hits_cache() {
        let (out1, summary) = serve(BATCH, 64);
        let (out2, _) = serve(BATCH, 64);
        assert_eq!(out1, out2, "same stream, byte-identical responses");
        assert_eq!(out1.lines().count(), 5, "one response per request line");
        let s = summary.stats;
        assert_eq!((s.requests, s.hits, s.misses), (4, 2, 2));
        assert_eq!(s.dp_runs, 2);
        assert!(out1.lines().last().unwrap().contains("\"hits\":2"));
        // Wall-clock histograms saw every request.
        assert_eq!(summary.hit_ns.count, 2);
        assert_eq!(summary.miss_ns.count, 2);
    }

    #[test]
    fn thousand_request_stream_serves_deterministically() {
        // The acceptance-criteria stream at shell level: 1000 requests,
        // replayed, byte-identical stdout.
        let mut batch = String::new();
        for i in 0..1000 {
            let topo = if i % 2 == 0 { "mesh:8x8" } else { "bmin:64" };
            let k = 2 + (i % 7);
            let seed = i % 5;
            let _ = writeln!(
                batch,
                r#"{{"id": {i}, "topo": "{topo}", "k": {k}, "seed": {seed}}}"#
            );
        }
        let (out1, summary) = serve(&batch, 256);
        let (out2, _) = serve(&batch, 256);
        assert_eq!(out1, out2);
        assert_eq!(out1.lines().count(), 1000);
        assert_eq!(summary.stats.requests, 1000);
        assert!(summary.stats.hits > 900, "{:?}", summary.stats);
    }

    #[test]
    fn error_lines_answer_without_killing_the_stream() {
        let batch = "not json\n{\"topo\": \"mesh:4x4\", \"k\": 4}\n";
        let (out, summary) = serve(batch, 8);
        assert_eq!(out.lines().count(), 2);
        assert!(out.lines().next().unwrap().contains("\"ok\":false"));
        assert!(out.lines().nth(1).unwrap().contains("\"ok\":true"));
        assert_eq!(summary.stats.errors, 1);
    }

    #[test]
    fn unbuildable_topology_is_an_error_response_not_a_crash() {
        // A torus side of 1 used to reach `Torus::new`'s assertion and take
        // the whole server down; the request after it went unanswered.
        let batch = "{\"id\": 1, \"topo\": \"torus:1x4\", \"k\": 2}\n\
                     {\"id\": 2, \"topo\": \"mesh:4x4\", \"k\": 4}\n";
        let (out, summary) = serve(batch, 8);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains("\"ok\":false") && lines[0].contains("\"id\":1"));
        assert!(lines[1].contains("\"ok\":true") && lines[1].contains("\"id\":2"));
        assert_eq!(summary.stats.errors, 1);
    }

    #[test]
    fn snapshot_round_trips_for_inspect() {
        let (_, summary) = serve(BATCH, 64);
        let snap = summary.snapshot();
        let text = snap.to_json();
        let back = TelemetrySnapshot::from_json(&text).unwrap();
        assert_eq!(back.get("plansvc_requests_total"), Some(4));
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn tcp_mode_coalesces_across_connections() {
        // Loopback sockets may be unavailable in sandboxed test runs;
        // skip loudly rather than fail.
        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => {
                eprintln!("SKIP tcp_mode_coalesces_across_connections: bind: {e}");
                return;
            }
        };
        let addr = listener.local_addr().unwrap();
        let serve_opts = opts(64);
        std::thread::spawn(move || tcp_serve(&listener, &serve_opts));
        let mut a = TcpStream::connect(addr).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        let req = r#"{"topo": "mesh:8x8", "k": 8, "seed": 1, "bytes": 2048}"#;
        writeln!(a, "{req}").unwrap();
        writeln!(b, "{req}").unwrap();
        let mut ra = std::io::BufReader::new(a.try_clone().unwrap());
        let mut rb = std::io::BufReader::new(b.try_clone().unwrap());
        let mut la = String::new();
        let mut lb = String::new();
        ra.read_line(&mut la).unwrap();
        rb.read_line(&mut lb).unwrap();
        assert!(la.contains("\"ok\":true"), "{la}");
        // Whether the second request coalesced (miss in the same batch) or
        // hit the warm cache depends on arrival timing; the plan bytes must
        // be identical either way.
        let plan_of = |line: &str| {
            let at = line.find("\"plan\":").expect("response carries a plan");
            line[at..].to_string()
        };
        assert_eq!(
            plan_of(&la),
            plan_of(&lb),
            "both connections get the same plan bytes"
        );
        // The stats line reports a single DP run when the two misses
        // coalesced, or two when the batch raced; either way both clients
        // were answered, and dp_runs never exceeds misses.
        writeln!(a, "{{\"stats\": true}}").unwrap();
        let mut ls = String::new();
        ra.read_line(&mut ls).unwrap();
        assert!(ls.contains("\"requests\":2"), "{ls}");
    }
}
