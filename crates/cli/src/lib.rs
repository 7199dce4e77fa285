//! Implementation of the `optmc` command-line tool.
//!
//! Everything lives in the library so the parsing and command logic are
//! unit-testable; `main.rs` is a thin shim.  Argument handling is
//! hand-rolled (`--flag value` pairs) to keep the dependency set to the
//! workspace crates.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod serve;
pub mod spec;
pub mod sweep;

use std::fmt;

/// CLI-level errors, all user-facing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Convenience constructor.
pub fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Write a [`telem::TelemetrySnapshot`] to `path` in the format the
/// extension picks: Prometheus text exposition for `.prom`, pretty JSON
/// otherwise.  Shared by `inspect --telemetry-out` and
/// `sweep report --telemetry-out`.
pub fn write_snapshot(path: &str, snap: &telem::TelemetrySnapshot) -> Result<(), CliError> {
    let text = if path.ends_with(".prom") {
        snap.to_prometheus()
    } else {
        snap.to_json()
    };
    std::fs::write(path, text).map_err(|e| err(format!("--telemetry-out {path}: {e}")))
}

/// Top-level usage text.
pub const USAGE: &str = "\
optmc — architecture-tuned optimal multicast (IPPS'97 reproduction)

USAGE:
  optmc tree      --hold H --end E --k K [--dot] [--src POS]
  optmc check     --topo SPEC [--alg ALG --nodes K --bytes B --seed S --src NODE] [--json]
  optmc check     --topo SPEC --set --nodes K [--alg ALG] [--count N] [--bytes B]
                  [--gap G | --mean-gap F] [--seed S] [--disjoint]
                  [--cert-out FILE] [--json]
  optmc run       --topo SPEC --alg ALG --nodes K --bytes B [--seed S] [--temporal] [--trace]
                  [--trace-limit N] [--shards N] [--counters] [--fingerprint]
  optmc inspect   --topo SPEC --alg ALG --nodes K --bytes B [--seed S] [--temporal]
                  [--trace-out FILE] [--format perfetto|jsonl|text] [--trace-limit N]
                  [--heatmap] [--heatmap-out FILE] [--telemetry-out FILE[.prom]]
                  [--plan-telemetry FILE]
  optmc compare   --topo SPEC --nodes K --bytes B [--trials N] [--seed S]
  optmc calibrate --topo SPEC [--sizes CSV]
  optmc gather    --topo SPEC --alg ALG --nodes K --bytes B [--seed S]
  optmc growth    --hold H --end E [--until T]
  optmc sweep     run|resume|report|status --spec FILE.json [--jobs N] [--budget-ms MS]
                  [--out DIR] [--quiet] [--progress] [--json] [--telemetry-out FILE[.prom]]
  optmc workload  --topo SPEC --nodes K --bytes B [--alg ALG] [--count N]
                  [--gap G | --mean-gap F] [--seed S]
  optmc plan      --topo SPEC (--members CSV | --nodes K [--seed S]) [--alg ALG]
                  [--bytes B] [--hold H --end E] [--certify] [--json]
  optmc serve     [--capacity N] [--certify] [--listen ADDR] [--quiet]
                  [--telemetry-out FILE[.prom]]

TOPO SPEC:
  mesh:16x16[:ports]   n-dimensional mesh, e.g. mesh:8x8, mesh:4x4x4, mesh:16x16:2
  torus:4x4[:novc]     n-dimensional torus; :novc drops the dateline virtual
                       channels (deadlock-prone — for exercising 'check')
  hypercube:D          binary D-cube
  bmin:N               bidirectional MIN on N=2^s nodes (turnaround routing)
  omega:N              unidirectional omega MIN on N=2^s nodes

ALG:
  opt-arch | u-arch | opt-tree | binomial | sequential

COMMON SIM FLAGS:
  Every simulating command also accepts --addr-bytes B, --buffer-flits F,
  --no-adaptive and --shards N.  --shards N (N > 1) partitions the flit
  engine across N worker threads with adaptive conservative-window sync
  (per-neighbor earliest-input-time promises); the results are
  bit-identical to the sequential engine, and runs the window bounds
  cannot cover (tiny messages, event-by-event traced runs) fall back to
  sequential — counting observers ('run --counters') shard fine.
  'run --fingerprint' prints the run's canonical SimResult JSON instead of
  the report (and, with --shards > 1, fails with the concrete fallback
  reason if the sharded engine fell back) — the substrate of the
  differential gate in scripts/check.sh.

CHECK:
  Static verification with rustc-style diagnostics: channel-dependency-graph
  deadlock analysis (Dally–Seitz) and routing lints (termination,
  minimality, discipline conformance) always; with --alg also contention
  certification of that schedule and a differential oracle run asserting
  the simulator agrees with the static verdict.  The certification replays
  the schedule under the engine's timing (deterministic routing) and
  counts every (send pair, channel) overlap of the per-channel occupancy
  windows — the same window scan --set runs, a single multicast being a
  set of one.  --nodes defaults to the whole machine.  Exits 1 on any
  error-level finding; --json emits the report as JSON (diagnostics sorted
  for byte-stable output).

  --set certifies a whole schedule *set*: --count multicasts built by the
  same generator as 'optmc workload' (--disjoint carves node-disjoint
  groups from one pool instead — the regime where a clean certificate is
  attainable), analyzed jointly.  Cross-multicast channel contention is an
  NC0211 error with the contended channel and cycle window as the witness;
  members sharing nodes while concurrently active are an NC0212 error (the
  replay cannot model their CPU serialization, so such sets are never
  certified).  The machine-checkable plan certificate (per-channel
  occupancy intervals, JSON) is re-verified by an independent sweep-line
  checker and written to --cert-out; a differential leg simulates the same
  set jointly and demands agreement (certified clean <=> zero blocked
  cycles for pairwise-independent members).

SWEEP:
  Parallel, resumable experiment campaigns.  --spec is a declarative JSON
  grid (topos × algorithms × ks × sizes, plus trials/seed and an optional
  figure mapping); completed cells checkpoint to a JSONL shard store under
  --out (default results/campaigns)/<name>, so a killed campaign resumes
  where it stopped and 'resume' re-runs nothing already recorded.  Panics
  and per-cell --budget-ms overruns land in a failure ledger instead of
  aborting the sweep.  'report' reduces the shards into the campaign
  summary and (with a figure mapping) the results/<id>.csv|json dataset —
  byte-identical to the sequential figure binaries — plus the failure
  ledger (count and first reasons) and, with --telemetry-out, a campaign
  telemetry snapshot (JSON, or Prometheus text for .prom paths).
  The pool streams live telemetry to heartbeat.jsonl in the shard store:
  'run --progress' renders it in place on stderr, and 'status' prints the
  latest heartbeat (progress, in-flight cells, cell-latency histogram,
  ETA; --json for the raw record) for a campaign running in another
  terminal — or a finished/killed one.

WORKLOAD:
  Open-loop concurrent-multicast workload: --count multicasts with random
  roots and groups arrive at seeded Poisson (--mean-gap, default) or
  fixed-rate (--gap) times; reports the joint latency distribution and the
  interference factor against each multicast's solo baseline.

PLAN / SERVE:
  'plan' answers one planning request from flags: the multicast chain on
  --topo for --members (source first) or a --seed'ed --nodes K placement,
  with (t_hold, t_end) derived from the calibrated architecture model for
  the message size (or forced with --hold/--end), the OPT DP's split
  schedule, and node-level sends.  --certify attaches a machine-checked
  contention certificate (machine-derived parameters only).  --json emits
  the same plan body a serve response carries.

  'serve' runs the sans-io planning engine as a service.  Default mode
  reads newline-delimited JSON requests on stdin — e.g.
  {\"id\": 7, \"topo\": \"mesh:8x8\", \"k\": 8, \"seed\": 1, \"bytes\": 2048}
  or {\"stats\": true} — and answers one JSON line per request on stdout,
  in order; a replayed stream produces byte-identical responses.  Computed
  plans land in a content-addressed cache (--capacity plans, deterministic
  LRU eviction), so repeated requests are answered without re-running the
  DP, and concurrent identical misses coalesce into a single computation.
  --listen ADDR serves the same protocol over TCP (many connections, one
  shared cache; responses carry request ids so clients may pipeline).
  --telemetry-out (stdin mode) writes the service snapshot — hit/miss/
  eviction counters plus wall-clock hit and miss latency histograms —
  which 'optmc inspect --plan-telemetry FILE' renders as text.

INSPECT:
  Runs one fully-observed multicast and prints the run report (latency
  histograms, phase breakdown, engine vitals, hot channels).  --format
  selects the trace export: 'perfetto' writes Chrome trace-event JSON for
  ui.perfetto.dev (one track per channel, one per node CPU, blocking as
  instant events), 'jsonl' writes one trace event per line (streamed to
  --trace-out without buffering), 'text' renders a channel timeline.
  Without --trace-out, perfetto/jsonl output replaces the report on stdout.
  --heatmap appends the per-channel contention heatmap (a shaded busy
  fraction per time window, from the engine's always-on accumulators);
  --heatmap-out writes it as JSON.  --telemetry-out writes the run's
  deterministic telemetry snapshot — JSON, or Prometheus text exposition
  when the path ends in .prom; both compose with every --format.
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_displays_message() {
        assert_eq!(err("boom").to_string(), "boom");
    }
}
