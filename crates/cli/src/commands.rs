//! The subcommand implementations.  Each returns the text it would print so
//! tests can assert on output.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use flitsim::SimConfig;
use mtree::{dot, MulticastTree, Schedule, SplitStrategy};
use optmc::experiments::{random_placement, run_trials};
use optmc::{check_schedule_windowed, measure, OccupancyParams, RunOptions};
use pcm::Time;

use crate::args::Args;
use crate::spec::{discipline_for, parse_algorithm, parse_topology};
use crate::{err, CliError};

/// Dispatch a parsed argument set.
pub fn dispatch(a: &Args) -> Result<String, CliError> {
    // Only `sweep` takes an action word (`sweep run` etc.).
    if a.command != "sweep" {
        if let Some(action) = &a.action {
            return Err(err(format!("unexpected positional argument '{action}'")));
        }
    }
    match a.command.as_str() {
        "tree" => cmd_tree(a),
        "check" => cmd_check(a),
        "run" => cmd_run(a),
        "inspect" => cmd_inspect(a),
        "compare" => cmd_compare(a),
        "calibrate" => cmd_calibrate(a),
        "gather" => cmd_gather(a),
        "growth" => cmd_growth(a),
        "sweep" => crate::sweep::cmd_sweep(a),
        "workload" => crate::sweep::cmd_workload(a),
        "serve" => crate::serve::cmd_serve(a),
        "plan" => crate::serve::cmd_plan(a),
        "" | "help" => Ok(crate::USAGE.to_string()),
        other => Err(err(format!(
            "unknown subcommand '{other}'\n\n{}",
            crate::USAGE
        ))),
    }
}

/// `optmc tree` — the OPT-tree DP table and (optionally) the DOT tree.
fn cmd_tree(a: &Args) -> Result<String, CliError> {
    let hold: Time = a.require_num("hold")?;
    let end: Time = a.require_num("end")?;
    let k: usize = a.require_num("k")?;
    if k == 0 {
        return Err(err("--k must be at least 1"));
    }
    if hold > end {
        return Err(err(format!(
            "model requires t_hold <= t_end ({hold} > {end})"
        )));
    }
    let src: usize = a.num("src", 0)?;
    if src >= k {
        return Err(err(format!("--src {src} out of range 0..{k}")));
    }
    let tab = mtree::opt::opt_table(hold, end, k);
    let mut out = String::new();
    let _ = writeln!(out, "OPT-tree DP for t_hold={hold}, t_end={end}:");
    let _ = writeln!(out, "{:>6} {:>10} {:>6}", "i", "t[i]", "j_i");
    for i in 1..=k {
        if i >= 2 {
            let _ = writeln!(out, "{:>6} {:>10} {:>6}", i, tab.t(i), tab.j(i));
        } else {
            let _ = writeln!(out, "{:>6} {:>10} {:>6}", i, tab.t(i), "-");
        }
    }
    let strat = SplitStrategy::Opt(tab);
    let sched = Schedule::build(k, src, &strat, hold, end);
    let _ = writeln!(
        out,
        "\nlatency {} (binomial would be {})",
        sched.latency(),
        SplitStrategy::Binomial.latency(hold, end, k)
    );
    if a.has("dot") {
        let tree = MulticastTree::from_schedule(&sched);
        let _ = write!(out, "\n{}", dot::to_dot(&tree, None));
    }
    Ok(out)
}

/// `optmc check` — static verification with structured diagnostics:
/// channel-dependency-graph deadlock analysis and routing lints always;
/// with `--alg`, windowed-occupancy contention certification of the
/// schedule plus the differential oracle against the instrumented
/// simulator; with `--set`, certification of a whole workload-style
/// schedule *set* with a plan certificate.  Exits nonzero when any
/// error-level finding exists.
fn cmd_check(a: &Args) -> Result<String, CliError> {
    use netcheck::{Diagnostic, Severity};

    let spec = a.require("topo")?;
    let topo = parse_topology(spec)?;
    let discipline = discipline_for(spec)?;
    let mut report = netcheck::check_topology(topo.as_ref(), &discipline);

    if a.has("set") {
        return cmd_check_set(a, topo.as_ref(), report);
    }

    if let Some(alg_name) = a.get("alg") {
        let alg = parse_algorithm(alg_name)?;
        let n = topo.graph().n_nodes();
        let k: usize = a.num("nodes", n)?;
        if k > n || k < 2 {
            return Err(err(format!("--nodes must be in 2..={n}")));
        }
        let bytes: u64 = a.num("bytes", 4096)?;
        let seed: u64 = a.num("seed", 1997)?;
        let mut cfg = build_cfg(a)?;
        // The windowed replay and the differential oracle are exact only
        // for deterministic routing; adaptivity is disabled for the check.
        cfg.adaptive = false;
        let mut parts = random_placement(n, k, seed);
        if let Some(s) = a.get("src") {
            let s: u32 = s
                .parse()
                .map_err(|_| err(format!("--src: cannot parse '{s}'")))?;
            if s as usize >= n {
                return Err(err(format!("--src {s} out of range 0..{n}")));
            }
            // Pin the multicast source: move it to the front of the
            // placement (swapping in for the seed-chosen source if absent).
            match parts.iter().position(|&p| p.0 == s) {
                Some(i) => parts.swap(0, i),
                None => parts[0] = topo::NodeId(s),
            }
        }
        let src = parts[0];
        let hops = optmc::runner::nominal_hops(topo.as_ref(), &parts, src);
        let (hold, end) = cfg.effective_pair_ports(hops, bytes, topo.graph().ports() as u64);
        let chain = alg.chain(topo.as_ref(), &parts, src);
        let splits = alg.splits(hold, end, k.max(2));
        let schedule = Schedule::build(k, chain.src_pos(), &splits, hold, end);
        report.target = format!(
            "{} on {} (k={k}, {bytes} bytes, seed {seed})",
            alg.display_name(topo.as_ref()),
            topo.name()
        );

        let params = OccupancyParams::from_config(&cfg, bytes);
        let conflicts = check_schedule_windowed(topo.as_ref(), &chain, &schedule, &params)
            .map_err(|e| err(format!("cannot materialise schedule paths: {e}")))?;
        if conflicts.is_empty() {
            report.push(Diagnostic::new(
                Severity::Info,
                "NC0202",
                format!(
                    "windowed occupancy analysis certifies the schedule contention-free \
                     ({} sends, deterministic routing)",
                    schedule.sends.len()
                ),
            ));
        } else {
            let c = conflicts[0];
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    "NC0201",
                    format!(
                        "windowed occupancy analysis finds {} conflicting \
                         (send pair, channel) overlaps; first overlap spans cycles {}..{}",
                        conflicts.len(),
                        c.from,
                        c.until
                    ),
                )
                .with_nodes(vec![
                    chain.node(schedule.sends[c.send_a].from),
                    chain.node(schedule.sends[c.send_a].to),
                    chain.node(schedule.sends[c.send_b].from),
                    chain.node(schedule.sends[c.send_b].to),
                ])
                .with_channels(vec![c.channel]),
            );
        }

        // Differential leg: the instrumented simulator must agree with
        // the static verdict, and the run must uphold every engine
        // invariant.
        let (validator, handle) = netcheck::Validator::new(topo.graph());
        let out = optmc::run_multicast_observed(
            topo.as_ref(),
            &cfg,
            alg,
            &parts,
            src,
            bytes,
            &RunOptions::default(),
            Some(validator.into_sink()),
        );
        let blocked = out.sim.blocked_cycles;
        let validation = handle.summary();
        if !validation.ok() {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    "NC0301",
                    format!(
                        "simulator run violated {} engine invariant(s); first: {}",
                        validation.n_violations.max(validation.outstanding),
                        validation
                            .violations
                            .first()
                            .map_or("channels left held at finish", String::as_str)
                    ),
                )
                .with_help("this is a simulator bug, not a schedule property"),
            );
        }
        if conflicts.is_empty() == (blocked == 0) {
            report.push(Diagnostic::new(
                Severity::Info,
                "NC0203",
                format!(
                    "differential oracle agrees: {} static conflicts vs {} blocked cycles \
                     in the simulator",
                    conflicts.len(),
                    blocked
                ),
            ));
        } else {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    "NC0302",
                    format!(
                        "static analysis and simulator disagree: {} conflicts predicted \
                         but {} blocked cycles observed",
                        conflicts.len(),
                        blocked
                    ),
                )
                .with_help("one of the windowed replay or the engine timing is wrong"),
            );
        }
    }

    render_report(a, report, "")
}

/// `optmc check --set` — schedule-*set* certification: build a
/// workload-style set of `--count` multicasts (the same generator as
/// `optmc workload`, or node-disjoint pool-chunked groups with
/// `--disjoint`), certify the combined channel-occupancy windows, emit a
/// machine-checkable plan certificate (re-verified independently, written
/// to `--cert-out`), and run the joint differential oracle.
fn cmd_check_set(
    a: &Args,
    topo: &dyn topo::Topology,
    mut report: netcheck::Report,
) -> Result<String, CliError> {
    use campaign::workload::generate_specs;
    use campaign::WorkloadSpec;
    use netcheck::{Diagnostic, PlanCertificate, ScheduleSet, Severity};

    let alg = parse_algorithm(a.get("alg").unwrap_or("opt-arch"))?;
    let n = topo.graph().n_nodes();
    let count: usize = a.num("count", 4)?;
    if count == 0 {
        return Err(err("--count must be at least 1"));
    }
    let k: usize = a.require_num("nodes")?;
    if k > n || k < 2 {
        return Err(err(format!("--nodes must be in 2..={n}")));
    }
    let bytes: u64 = a.num("bytes", 4096)?;
    let seed: u64 = a.num("seed", 1997)?;
    let arrivals = crate::sweep::parse_arrivals(a)?;
    let mut cfg = build_cfg(a)?;
    // Set certification is exact only under deterministic routing.
    cfg.adaptive = false;

    let mut specs = generate_specs(
        n,
        &WorkloadSpec {
            count,
            k,
            bytes,
            arrivals,
            seed,
        },
    );
    if a.has("disjoint") {
        // Same arrival process, but the groups are carved from one
        // shuffled node pool so members are pairwise node-disjoint — the
        // regime where a clean certificate is attainable.
        if k * count > n {
            return Err(err(format!(
                "--disjoint needs --nodes x --count <= {n} (got {})",
                k * count
            )));
        }
        let pool = random_placement(n, k * count, seed);
        for (chunk, s) in pool.chunks(k).zip(specs.iter_mut()) {
            s.src = chunk[0];
            s.participants = chunk.to_vec();
        }
    }
    let set = ScheduleSet {
        specs,
        algorithm: alg,
    };

    let analysis = netcheck::analyze_set(topo, &cfg, &set)
        .map_err(|e| err(format!("cannot materialise member schedule paths: {e}")))?;
    let set_report = netcheck::report_set(topo, &set, &analysis);
    report.target = format!(
        "schedule set: {} (k={k}, {bytes} bytes, seed {seed})",
        set_report.target
    );
    for d in set_report.diagnostics {
        report.push(d);
    }

    // The certificate is the machine-checkable artifact; its verifier
    // re-derives the verdict from the interval population alone, so a
    // prover bug shows up as a verification failure, not a silent pass.
    let cert = PlanCertificate::from_analysis(topo, &set, &analysis);
    match cert.verify() {
        Ok(()) => report.push(Diagnostic::new(
            Severity::Info,
            "NC0213",
            format!(
                "plan certificate re-verified independently: {} members, {} channel \
                 windows, verdict '{}'",
                cert.multicasts.len(),
                cert.windows.len(),
                if cert.clean { "clean" } else { "contended" }
            ),
        )),
        Err(e) => report.push(
            Diagnostic::new(
                Severity::Error,
                "NC0213",
                format!("plan certificate failed independent verification: {e}"),
            )
            .with_help("prover and verifier disagree — a netcheck bug, not a schedule property"),
        ),
    }
    let mut extra = String::new();
    if let Some(path) = a.get("cert-out") {
        std::fs::write(path, cert.to_json()).map_err(|e| err(format!("--cert-out {path}: {e}")))?;
        let _ = writeln!(extra, "plan certificate written to {path}");
    }

    // Differential leg: the joint simulation must agree with the static
    // verdict (strict biconditional for pairwise-independent members).
    let case = netcheck::differential_set_case(topo, &cfg, &set, &analysis);
    if case.agree {
        report.push(Diagnostic::new(
            Severity::Info,
            "NC0203",
            format!(
                "differential set oracle agrees{}: {} conflicts predicted vs {} blocked \
                 cycles in the joint simulation",
                if case.strict {
                    ""
                } else {
                    " (sound direction only; members share nodes)"
                },
                case.conflicts,
                case.blocked_cycles
            ),
        ));
    } else {
        report.push(
            Diagnostic::new(
                Severity::Error,
                "NC0302",
                format!(
                    "set analysis and joint simulation disagree: {} conflicts predicted \
                     but {} blocked cycles observed",
                    case.conflicts, case.blocked_cycles
                ),
            )
            .with_help("one of the shifted window replay or the engine timing is wrong"),
        );
    }

    render_report(a, report, &extra)
}

/// Normalize, render (`--json` or human), and pick the exit arm: any
/// error-level diagnostic makes the whole check fail.  `extra` carries
/// human-only trailer lines (artifact paths); it never contaminates JSON.
fn render_report(a: &Args, mut report: netcheck::Report, extra: &str) -> Result<String, CliError> {
    report.normalize();
    let text = if a.has("json") {
        report.to_json()
    } else {
        format!("{}{extra}", report.render_human())
    };
    if report.has_errors() {
        Err(CliError(text))
    } else {
        Ok(text)
    }
}

fn build_cfg(a: &Args) -> Result<SimConfig, CliError> {
    let mut cfg = SimConfig::paragon_like();
    cfg.addr_bytes = a.num("addr-bytes", cfg.addr_bytes)?;
    cfg.buffer_flits = a.num("buffer-flits", cfg.buffer_flits)?;
    if a.has("no-adaptive") {
        cfg.adaptive = false;
    }
    if a.has("trace") {
        cfg.trace = true;
    }
    if let Some(limit) = a.get("trace-limit") {
        let limit: usize = limit
            .parse()
            .map_err(|_| err(format!("--trace-limit: cannot parse '{limit}'")))?;
        cfg.trace_limit = Some(limit);
    }
    Ok(cfg)
}

/// `optmc run` — one multicast, full detail.
fn cmd_run(a: &Args) -> Result<String, CliError> {
    let topo = parse_topology(a.require("topo")?)?;
    let alg = parse_algorithm(a.require("alg")?)?;
    let k: usize = a.require_num("nodes")?;
    let bytes: u64 = a.require_num("bytes")?;
    let seed: u64 = a.num("seed", 1997)?;
    let n = topo.graph().n_nodes();
    if k > n {
        return Err(err(format!("--nodes {k} exceeds the topology's {n} nodes")));
    }
    if k < 2 {
        return Err(err("--nodes must be at least 2"));
    }
    let cfg = build_cfg(a)?;
    let opts = RunOptions {
        temporal: a.has("temporal"),
        ..RunOptions::default()
    };
    let parts = random_placement(n, k, seed);
    let out = optmc::run_multicast_opts(topo.as_ref(), &cfg, alg, &parts, parts[0], bytes, &opts);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} on {}: {} nodes, {} bytes, seed {}",
        alg.display_name(topo.as_ref()),
        topo.name(),
        k,
        bytes,
        seed
    );
    let _ = writeln!(
        text,
        "  model pair     t_hold={}, t_end={}",
        out.pair.0, out.pair.1
    );
    let _ = writeln!(text, "  analytic bound {}", out.analytic);
    let _ = writeln!(text, "  sim latency    {}", out.latency);
    let _ = writeln!(
        text,
        "  blocked        {} cycles in {} episodes",
        out.sim.blocked_cycles, out.sim.blocked_events
    );
    // The windowed replay of the run's schedule.  It does not model the
    // temporal scheduler's start delays, so temporal runs omit the line.
    if !opts.temporal {
        let chain = alg.chain(topo.as_ref(), &parts, parts[0]);
        let params = OccupancyParams::from_config(&cfg, bytes);
        let overlaps = check_schedule_windowed(topo.as_ref(), &chain, &out.schedule, &params)
            .map_err(|e| err(format!("cannot materialise schedule paths: {e}")))?;
        let _ = writeln!(
            text,
            "  static check   {} (send pair, channel) overlaps",
            overlaps.len()
        );
    }
    if cfg.trace {
        if out.sim.truncated {
            let _ = writeln!(
                text,
                "\nwarning: trace truncated at --trace-limit {} events; timeline is a prefix",
                out.sim.trace.len()
            );
        }
        let _ = writeln!(text, "\nbusiest channels:");
        let _ = write!(
            text,
            "{}",
            flitsim::trace::render_timeline(&out.sim.trace, topo.graph(), 8)
        );
    }
    Ok(text)
}

/// `optmc inspect` — one multicast under full observation: run report,
/// phase breakdown, the per-channel contention heatmap (`--heatmap`,
/// `--heatmap-out`), a deterministic telemetry snapshot
/// (`--telemetry-out`, JSON or `.prom` Prometheus text), and the trace
/// exported as Perfetto JSON, JSONL, or a textual timeline.
fn cmd_inspect(a: &Args) -> Result<String, CliError> {
    let topo = parse_topology(a.require("topo")?)?;
    let alg = parse_algorithm(a.require("alg")?)?;
    let k: usize = a.require_num("nodes")?;
    let bytes: u64 = a.require_num("bytes")?;
    let seed: u64 = a.num("seed", 1997)?;
    let format = a.get("format").unwrap_or("text");
    if !matches!(format, "perfetto" | "jsonl" | "text") {
        return Err(err(format!(
            "--format must be perfetto, jsonl or text (got '{format}')"
        )));
    }
    let n = topo.graph().n_nodes();
    if k > n || k < 2 {
        return Err(err(format!("--nodes must be in 2..={n}")));
    }
    let mut cfg = build_cfg(a)?;
    cfg.trace = true; // inspect exists to observe
    let opts = RunOptions {
        temporal: a.has("temporal"),
        ..RunOptions::default()
    };
    let parts = random_placement(n, k, seed);
    let trace_out = a.get("trace-out");

    // JSONL with a file destination streams straight to disk — the trace
    // never accumulates in memory — keeping `--trace-limit` events at most.
    let write_error = Rc::new(RefCell::new(None));
    let sink = match (format, trace_out) {
        ("jsonl", Some(path)) => {
            let f =
                std::fs::File::create(path).map_err(|e| err(format!("--trace-out {path}: {e}")))?;
            let out = Box::new(KeepError {
                inner: std::io::BufWriter::new(f),
                error: Rc::clone(&write_error),
            });
            Some(match cfg.trace_limit {
                Some(limit) => flitsim::TraceSink::jsonl_limited(out, limit),
                None => flitsim::TraceSink::jsonl(out),
            })
        }
        _ => None,
    };
    let out = optmc::run_multicast_observed(
        topo.as_ref(),
        &cfg,
        alg,
        &parts,
        parts[0],
        bytes,
        &opts,
        sink,
    );

    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} on {}: {} nodes, {} bytes, seed {}",
        alg.display_name(topo.as_ref()),
        topo.name(),
        k,
        bytes,
        seed
    );
    let _ = writeln!(
        text,
        "  analytic bound {}  sim latency {}\n",
        out.analytic, out.latency
    );
    let _ = write!(text, "{}", flitsim::obs::render_report(&out.sim));

    if a.has("heatmap") {
        let _ = writeln!(text);
        let _ = write!(
            text,
            "{}",
            flitsim::heatmap::render(&out.sim, topo.graph(), 16, 48)
        );
    }
    // Side artifacts are written before the perfetto/jsonl stdout early
    // returns so they compose with every --format.
    if let Some(path) = a.get("heatmap-out") {
        let json = serde_json::to_string_pretty(&flitsim::heatmap::to_json(
            &out.sim,
            topo.graph(),
            16,
            48,
        ))
        .map_err(|e| err(format!("serializing heatmap: {e}")))?;
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| err(format!("--heatmap-out {path}: {e}")))?;
        let _ = writeln!(text, "\nheatmap JSON written to {path}");
    }
    if let Some(path) = a.get("telemetry-out") {
        crate::write_snapshot(path, &flitsim::metrics::run_snapshot(&out.sim))?;
        let _ = writeln!(text, "telemetry snapshot written to {path}");
    }
    // A plan-service snapshot (from `optmc serve --telemetry-out`) rendered
    // alongside the run report: cache counters and latency histograms.
    if let Some(path) = a.get("plan-telemetry") {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| err(format!("--plan-telemetry {path}: {e}")))?;
        let snap = telem::TelemetrySnapshot::from_json(&raw)
            .map_err(|e| err(format!("--plan-telemetry {path}: {e}")))?;
        let _ = writeln!(text, "\nplan service ({path}):");
        let _ = write!(text, "{}", snap.render_text());
    }

    match format {
        "perfetto" => {
            let json = flitsim::perfetto::export_string(&out.sim, Some(topo.graph()));
            match trace_out {
                Some(path) => {
                    std::fs::write(path, &json)
                        .map_err(|e| err(format!("--trace-out {path}: {e}")))?;
                    let _ = writeln!(
                        text,
                        "\nperfetto trace written to {path} ({} bytes) — load at ui.perfetto.dev",
                        json.len()
                    );
                }
                None => return Ok(json),
            }
        }
        "jsonl" => match trace_out {
            Some(path) => {
                let events = out.sim.meta.trace_events + out.sim.meta.trace_dropped;
                // A failed write or flush is an error; a `--trace-limit`
                // cut is the prefix the user asked for.
                if let Some(e) = write_error.borrow().as_ref() {
                    return Err(err(format!(
                        "--trace-out {path}: writing the jsonl trace failed ({e}); the file \
                         holds at most a prefix of the run's {events} events"
                    )));
                }
                if out.sim.truncated {
                    let _ = writeln!(
                        text,
                        "\njsonl trace streamed to {path} (the first {} of {events} events, \
                         cut at --trace-limit)",
                        out.sim.meta.trace_events
                    );
                } else {
                    let _ = writeln!(text, "\njsonl trace streamed to {path} ({events} events)");
                }
            }
            None => {
                let mut lines = String::new();
                for ev in &out.sim.trace {
                    let line = serde_json::to_string(ev)
                        .map_err(|se| err(format!("serializing trace: {se}")))?;
                    let _ = writeln!(lines, "{line}");
                }
                return Ok(lines);
            }
        },
        _ => {
            let _ = writeln!(text, "\nbusiest channels:");
            let _ = write!(
                text,
                "{}",
                flitsim::trace::render_timeline(&out.sim.trace, topo.graph(), 8)
            );
            if let Some(path) = trace_out {
                std::fs::write(path, &text).map_err(|e| err(format!("--trace-out {path}: {e}")))?;
            }
        }
    }
    Ok(text)
}

/// A writer that keeps the first error it returns, so that `optmc inspect`
/// can tell a trace file whose writes failed from one that `--trace-limit`
/// cut short: the sink counts both as dropped events.
struct KeepError<W> {
    inner: W,
    error: Rc<RefCell<Option<String>>>,
}

impl<W> KeepError<W> {
    fn keep<T>(&self, result: std::io::Result<T>) -> std::io::Result<T> {
        match result {
            // `write_all` retries an interrupted write.
            Err(e) if e.kind() != std::io::ErrorKind::Interrupted => {
                self.error.borrow_mut().get_or_insert_with(|| e.to_string());
                Err(e)
            }
            result => result,
        }
    }
}

impl<W: std::io::Write> std::io::Write for KeepError<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let result = self.inner.write(buf);
        self.keep(result)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let result = self.inner.flush();
        self.keep(result)
    }
}

/// `optmc compare` — all algorithms, averaged over trials.
fn cmd_compare(a: &Args) -> Result<String, CliError> {
    let topo = parse_topology(a.require("topo")?)?;
    let k: usize = a.require_num("nodes")?;
    let bytes: u64 = a.require_num("bytes")?;
    let trials: usize = a.num("trials", 16)?;
    let seed: u64 = a.num("seed", 1997)?;
    let n = topo.graph().n_nodes();
    if k > n || k < 2 {
        return Err(err(format!("--nodes must be in 2..={n}")));
    }
    let cfg = build_cfg(a)?;
    let mut text = format!(
        "{} — {k} nodes, {bytes} bytes, {trials} random placements\n\n",
        topo.name()
    );
    let _ = writeln!(
        text,
        "{:<12} {:>12} {:>12} {:>12} {:>10}",
        "algorithm", "latency", "analytic", "blocked", "cf-frac"
    );
    for alg in [
        optmc::Algorithm::UArch,
        optmc::Algorithm::OptTree,
        optmc::Algorithm::OptArch,
        optmc::Algorithm::Sequential,
    ] {
        let s = run_trials(topo.as_ref(), &cfg, alg, k, bytes, trials, seed);
        let _ = writeln!(
            text,
            "{:<12} {:>12.1} {:>12.1} {:>12.1} {:>10.2}",
            alg.display_name(topo.as_ref()),
            s.mean_latency,
            s.mean_analytic,
            s.mean_blocked,
            s.contention_free_fraction
        );
    }
    Ok(text)
}

/// `optmc calibrate` — user-level measurement of (t_hold, t_end).
fn cmd_calibrate(a: &Args) -> Result<String, CliError> {
    let topo = parse_topology(a.require("topo")?)?;
    let sizes: Vec<u64> = match a.get("sizes") {
        None => vec![64, 256, 1024, 4096, 16384, 65536],
        Some(csv) => csv
            .split(',')
            .map(|s| s.parse().map_err(|_| err(format!("bad size '{s}'"))))
            .collect::<Result<_, _>>()?,
    };
    if sizes.len() < 2 {
        return Err(err("need at least two sizes to fit the model"));
    }
    let cfg = build_cfg(a)?;
    let n = topo.graph().n_nodes() as u32;
    let (src, dst) = (topo::NodeId(0), topo::NodeId(n / 2));
    let mut text = format!("calibrating on {} ({} -> {}):\n", topo.name(), src.0, dst.0);
    let _ = writeln!(text, "{:>10} {:>12} {:>12}", "bytes", "t_hold", "t_end");
    for &m in &sizes {
        let h = measure::measure_t_hold(topo.as_ref(), &cfg, src, dst, m, 8);
        let e = measure::measure_t_end(topo.as_ref(), &cfg, src, dst, m);
        let _ = writeln!(text, "{m:>10} {h:>12} {e:>12}");
    }
    let (hold_fn, end_fn) = measure::calibrate(topo.as_ref(), &cfg, src, dst, &sizes);
    let _ = writeln!(text, "\n  t_hold(m) = {hold_fn}");
    let _ = writeln!(text, "  t_end(m)  = {end_fn}");
    Ok(text)
}

/// `optmc gather` — the dual collective over the same tree.
fn cmd_gather(a: &Args) -> Result<String, CliError> {
    let topo = parse_topology(a.require("topo")?)?;
    let alg = parse_algorithm(a.require("alg")?)?;
    let k: usize = a.require_num("nodes")?;
    let bytes: u64 = a.require_num("bytes")?;
    let seed: u64 = a.num("seed", 1997)?;
    let n = topo.graph().n_nodes();
    if k > n || k < 2 {
        return Err(err(format!("--nodes must be in 2..={n}")));
    }
    let cfg = build_cfg(a)?;
    let parts = random_placement(n, k, seed);
    let out = optmc::gather::run_gather(topo.as_ref(), &cfg, alg, &parts, parts[0], bytes);
    let mc = optmc::run_multicast(topo.as_ref(), &cfg, alg, &parts, parts[0], bytes);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} gather on {}: {} nodes, {} bytes",
        alg.display_name(topo.as_ref()),
        topo.name(),
        k,
        bytes
    );
    let _ = writeln!(text, "  gather latency     {}", out.latency);
    let _ = writeln!(text, "  multicast latency  {}", mc.latency);
    let _ = writeln!(text, "  mirrored bound     {}", out.analytic);
    let _ = writeln!(
        text,
        "  gather blocked     {} cycles",
        out.sim.blocked_cycles
    );
    Ok(text)
}

/// `optmc growth` — the reachable-set curve.
fn cmd_growth(a: &Args) -> Result<String, CliError> {
    let hold: Time = a.require_num("hold")?;
    let end: Time = a.require_num("end")?;
    if hold == 0 || hold > end {
        return Err(err("growth needs 0 < t_hold <= t_end"));
    }
    let until: Time = a.num("until", 10 * end)?;
    let mut text = format!("reachable nodes N(T) for t_hold={hold}, t_end={end}:\n");
    for (t, n) in mtree::growth::growth_curve(hold, end, until) {
        let _ = writeln!(text, "{t:>8}  {n}");
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmdline: &str) -> Result<String, CliError> {
        dispatch(&Args::parse(cmdline.split_whitespace().map(String::from)).unwrap())
    }

    #[test]
    fn tree_command_prints_fig1_values() {
        let out = run("tree --hold 20 --end 55 --k 8").unwrap();
        assert!(out.contains("latency 130"), "{out}");
        assert!(out.contains("binomial would be 165"), "{out}");
    }

    #[test]
    fn tree_with_dot_emits_graphviz() {
        let out = run("tree --hold 20 --end 55 --k 8 --dot").unwrap();
        assert!(out.contains("digraph multicast"));
    }

    #[test]
    fn tree_rejects_bad_model() {
        assert!(run("tree --hold 60 --end 55 --k 8").is_err());
        assert!(run("tree --hold 20 --end 55 --k 0").is_err());
        assert!(run("tree --hold 20 --end 55 --k 8 --src 9").is_err());
    }

    #[test]
    fn run_command_reports_contention_freedom() {
        let out = run("run --topo mesh:8x8 --alg opt-arch --nodes 12 --bytes 2048").unwrap();
        assert!(out.contains("blocked        0 cycles"), "{out}");
        assert!(
            out.contains("static check   0 (send pair, channel) overlaps"),
            "{out}"
        );
    }

    #[test]
    fn temporal_run_prints_no_static_line() {
        // The windowed replay does not model the temporal start delays.
        let out =
            run("run --topo omega:32 --alg opt-tree --nodes 12 --bytes 1024 --temporal").unwrap();
        assert!(out.contains("blocked        0 cycles"), "{out}");
        assert!(!out.contains("static check"), "{out}");
    }

    #[test]
    fn run_command_with_trace_shows_channels() {
        let out =
            run("run --topo mesh:8x8 --alg opt-tree --nodes 12 --bytes 2048 --trace").unwrap();
        assert!(out.contains("busiest channels"), "{out}");
    }

    #[test]
    fn inspect_text_reports_phases_and_vitals() {
        let out =
            run("inspect --topo mesh:8x8 --alg opt-arch --nodes 12 --bytes 2048 --format text")
                .unwrap();
        assert!(out.contains("phases: queued"), "{out}");
        assert!(out.contains("events ("), "{out}");
        assert!(out.contains("busiest channels"), "{out}");
    }

    #[test]
    fn inspect_perfetto_stdout_is_json() {
        let out =
            run("inspect --topo mesh:4x4 --alg opt-tree --nodes 6 --bytes 1024 --format perfetto")
                .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v.get("traceEvents").unwrap().as_array().unwrap().len() > 4);
    }

    #[test]
    fn inspect_jsonl_stdout_is_one_event_per_line() {
        let out =
            run("inspect --topo mesh:4x4 --alg opt-tree --nodes 6 --bytes 1024 --format jsonl")
                .unwrap();
        let mut n = 0;
        for line in out.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("kind").is_some(), "bad event line: {line}");
            n += 1;
        }
        assert!(n > 4, "expected several trace events, got {n}");
    }

    #[test]
    fn inspect_jsonl_trace_to_a_full_device_is_an_error() {
        // /dev/full accepts the open and fails every write with ENOSPC.
        if !std::path::Path::new("/dev/full").exists() {
            eprintln!("skipped: /dev/full is absent on this host");
            return;
        }
        let e = run(
            "inspect --topo mesh:8x8 --alg opt-tree --nodes 12 --bytes 4096 \
                     --format jsonl --trace-out /dev/full",
        )
        .unwrap_err();
        assert!(e.0.contains("--trace-out /dev/full"), "{}", e.0);
        assert!(e.0.contains("at most a prefix"), "{}", e.0);
    }

    #[test]
    fn inspect_jsonl_trace_file_honours_the_trace_limit() {
        let path = std::env::temp_dir().join("optmc_inspect_limit_test.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&format!(
            "inspect --topo mesh:8x8 --alg opt-tree --nodes 12 --bytes 4096 \
             --trace-limit 10 --format jsonl --trace-out {path_s}"
        ))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 10, "{out}");
        assert!(
            out.contains("trace: TRUNCATED (219 events dropped)"),
            "{out}"
        );
        assert!(out.contains("the first 10 of 229 events"), "{out}");
    }

    #[test]
    fn inspect_writes_perfetto_file_end_to_end() {
        let path = std::env::temp_dir().join("optmc_inspect_test.perfetto.json");
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&format!(
            "inspect --topo mesh:8x8 --alg u-arch --nodes 10 --bytes 4096 \
             --format perfetto --trace-out {path_s}"
        ))
        .unwrap();
        assert!(out.contains("perfetto trace written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(v.get("traceEvents").unwrap().as_array().unwrap().len() > 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn inspect_heatmap_renders_and_exports() {
        let base = std::env::temp_dir().join(format!("optmc_inspect_heat_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let heat = base.join("heat.json");
        let out = run(&format!(
            "inspect --topo mesh:8x8 --alg opt-tree --nodes 12 --bytes 2048 --seed 0 \
             --heatmap --heatmap-out {}",
            heat.to_str().unwrap()
        ))
        .unwrap();
        assert!(out.contains("contention heatmap:"), "{out}");
        assert!(out.contains("heatmap JSON written"), "{out}");
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&heat).unwrap()).unwrap();
        assert!(!v.get("channels").unwrap().as_array().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn inspect_telemetry_out_is_deterministic_and_speaks_prometheus() {
        let base = std::env::temp_dir().join(format!("optmc_inspect_tel_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let (t1, t2, prom) = (
            base.join("a.json"),
            base.join("b.json"),
            base.join("t.prom"),
        );
        let cmd = "inspect --topo mesh:8x8 --alg opt-arch --nodes 12 --bytes 2048 --format text";
        run(&format!("{cmd} --telemetry-out {}", t1.to_str().unwrap())).unwrap();
        run(&format!("{cmd} --telemetry-out {}", t2.to_str().unwrap())).unwrap();
        let a = std::fs::read_to_string(&t1).unwrap();
        assert_eq!(
            a,
            std::fs::read_to_string(&t2).unwrap(),
            "same seed, same bytes"
        );
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert!(
            v.get("counters")
                .unwrap()
                .get("run_events_processed")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        // .prom selects the Prometheus text exposition.
        run(&format!("{cmd} --telemetry-out {}", prom.to_str().unwrap())).unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(
            text.contains("# TYPE run_events_processed counter"),
            "{text}"
        );
        assert!(text.contains("run_latency_cycles_count"), "{text}");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn inspect_rejects_bad_format() {
        assert!(
            run("inspect --topo mesh:4x4 --alg opt-arch --nodes 6 --bytes 64 --format xml")
                .is_err()
        );
    }

    #[test]
    fn compare_lists_all_algorithms() {
        let out = run("compare --topo bmin:32 --nodes 8 --bytes 1024 --trials 2").unwrap();
        assert!(out.contains("U-min"));
        assert!(out.contains("OPT-min"));
        assert!(out.contains("sequential"));
    }

    #[test]
    fn calibrate_fits_a_line() {
        let out = run("calibrate --topo mesh:8x8 --sizes 256,1024,4096").unwrap();
        assert!(out.contains("t_hold(m) ="), "{out}");
    }

    #[test]
    fn gather_command_reports_both_latencies() {
        let out = run("gather --topo mesh:8x8 --alg opt-arch --nodes 10 --bytes 1024").unwrap();
        assert!(out.contains("gather latency"), "{out}");
        assert!(out.contains("mirrored bound"), "{out}");
    }

    #[test]
    fn growth_curve_prints() {
        let out = run("growth --hold 20 --end 55 --until 200").unwrap();
        assert!(out.lines().count() > 5);
    }

    #[test]
    fn check_certifies_mesh_topology() {
        let out = run("check --topo mesh:8x8").unwrap();
        assert!(out.contains("info[NC0002]"), "{out}");
        assert!(out.contains("cannot deadlock"), "{out}");
        assert!(out.contains("info[NC0104]"), "{out}");
        assert!(out.contains("clean (no findings above info)"), "{out}");
    }

    #[test]
    fn check_flags_unvirtualized_torus_with_witness() {
        let e = run("check --topo torus:4x4:novc").unwrap_err();
        assert!(e.0.contains("error[NC0001]"), "{}", e.0);
        assert!(e.0.contains("channel dependency cycle"), "{}", e.0);
        assert!(e.0.contains("= channels: ch"), "{}", e.0);
        assert!(e.0.contains("virtual channels"), "{}", e.0);
        // The virtualized torus is fine.
        assert!(run("check --topo torus:4x4").is_ok());
    }

    #[test]
    fn check_certifies_opt_schedules_and_oracle_agreement() {
        let out = run("check --topo mesh:8x8 --alg opt-arch --nodes 16 --bytes 4096").unwrap();
        assert!(out.contains("info[NC0202]"), "{out}");
        assert!(out.contains("contention-free"), "{out}");
        assert!(out.contains("info[NC0203]"), "{out}");
        assert!(out.contains("0 blocked cycles"), "{out}");
    }

    #[test]
    fn check_counts_opt_tree_conflicts() {
        // Seed 0 on mesh-8x8 contends for OPT-tree (see netcheck's oracle
        // sweep); the check must count the overlaps and still agree with
        // the simulator.
        let e = run("check --topo mesh:8x8 --alg opt-tree --nodes 14 --bytes 1024 --seed 0")
            .unwrap_err();
        assert!(e.0.contains("error[NC0201]"), "{}", e.0);
        assert!(e.0.contains("conflicting"), "{}", e.0);
        assert!(e.0.contains("info[NC0203]"), "{}", e.0);
        assert!(!e.0.contains("NC0302"), "{}", e.0);
    }

    #[test]
    fn check_set_certifies_disjoint_staggered_workload() {
        let out = run(
            "check --topo mesh:16x16 --set --count 4 --nodes 8 --bytes 2048 \
             --gap 2000000 --disjoint --seed 3",
        )
        .unwrap();
        assert!(out.contains("info[NC0210]"), "{out}");
        assert!(out.contains("certified contention-free"), "{out}");
        assert!(out.contains("verdict 'clean'"), "{out}");
        assert!(out.contains("info[NC0203]"), "{out}");
        assert!(out.contains("0 blocked cycles"), "{out}");
    }

    #[test]
    fn check_set_flags_simultaneous_batch_with_witness() {
        let e = run(
            "check --topo mesh:16x16 --set --count 4 --nodes 24 --bytes 2048 \
             --gap 0 --disjoint --seed 0",
        )
        .unwrap_err();
        assert!(e.0.contains("error[NC0211]"), "{}", e.0);
        assert!(e.0.contains("contend for channel ch"), "{}", e.0);
        assert!(e.0.contains("= window: cycles ["), "{}", e.0);
        // The simulator saw real blocking, so the oracle still agrees.
        assert!(e.0.contains("info[NC0203]"), "{}", e.0);
        assert!(!e.0.contains("NC0302"), "{}", e.0);
    }

    #[test]
    fn check_set_rejects_overlapping_groups_as_uncertifiable() {
        // Without --disjoint, simultaneous workload groups share nodes;
        // such sets must be refused certification with NC0212.
        let e = run(
            "check --topo mesh:8x8 --set --count 6 --nodes 20 --bytes 2048 \
             --gap 0 --seed 1",
        )
        .unwrap_err();
        assert!(e.0.contains("error[NC0212]"), "{}", e.0);
        assert!(e.0.contains("cannot be certified"), "{}", e.0);
        assert!(!e.0.contains("NC0210"), "{}", e.0);
    }

    #[test]
    fn check_set_certificate_round_trips_through_the_file() {
        let path = std::env::temp_dir().join(format!("optmc_cert_{}.json", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&format!(
            "check --topo mesh:16x16 --set --count 3 --nodes 8 --bytes 2048 \
             --gap 2000000 --disjoint --seed 5 --cert-out {path_s}"
        ))
        .unwrap();
        assert!(out.contains("plan certificate written to"), "{out}");
        let cert =
            netcheck::PlanCertificate::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(cert.clean);
        assert_eq!(cert.multicasts.len(), 3);
        cert.verify().expect("independent verifier accepts");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_set_json_is_byte_stable() {
        let cmd = "check --topo mesh:16x16 --set --count 4 --nodes 8 --bytes 2048 \
             --gap 2000000 --disjoint --seed 3 --json";
        let (a, b) = (run(cmd).unwrap(), run(cmd).unwrap());
        assert_eq!(a, b);
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        let diags = v.get("diagnostics").unwrap().as_array().unwrap();
        let codes: Vec<&str> = diags
            .iter()
            .map(|d| d.get("code").unwrap().as_str().unwrap())
            .collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted, "diagnostics must be code-ordered");
    }

    #[test]
    fn check_set_validates_flags() {
        assert!(run("check --topo mesh:4x4 --set --nodes 8 --count 0").is_err());
        assert!(run("check --topo mesh:4x4 --set --nodes 1").is_err());
        // --disjoint needs k*count nodes available.
        assert!(run("check --topo mesh:4x4 --set --nodes 8 --count 3 --disjoint").is_err());
        assert!(run("check --topo mesh:4x4 --set --nodes 4 --gap 10 --mean-gap 5.0").is_err());
    }

    #[test]
    fn check_json_is_machine_readable() {
        let out = run("check --topo mesh:4x4 --json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v.get("target").unwrap().as_str().unwrap(), "mesh-4x4");
        assert!(v.get("diagnostics").unwrap().as_array().unwrap().len() >= 3);
    }

    #[test]
    fn help_and_unknown() {
        assert!(run("help").unwrap().contains("USAGE"));
        assert!(run("frobnicate").is_err());
    }

    #[test]
    fn run_validates_node_count() {
        assert!(run("run --topo mesh:4x4 --alg opt-arch --nodes 20 --bytes 64").is_err());
        assert!(run("run --topo mesh:4x4 --alg opt-arch --nodes 1 --bytes 64").is_err());
    }
}
