#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints (warnings are errors), tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q --workspace

# Static verification gate: the flagship schedules must certify deadlock-
# and contention-free (any error-level finding exits nonzero and fails the
# build via `set -e`).
echo "==> optmc check (OPT-mesh on mesh:16x16)"
cargo run --release -q -p optmc-cli --bin optmc -- \
    check --topo mesh:16x16 --alg opt-mesh --bytes 4096 --src 0

# OPT-min is certified from source 0 only: under deterministic routing
# the certificate still fails for 45 of bmin:128's 128 sources (ROADMAP).
echo "==> optmc check (OPT-min on bmin:128, source 0)"
cargo run --release -q -p optmc-cli --bin optmc -- \
    check --topo bmin:128 --alg opt-min --bytes 4096 --src 0

# Campaign smoke: a 4-cell sweep must run clean, and an immediate resume
# must be a pure no-op (0 executed, 4 skipped) — the checkpoint contract.
echo "==> optmc sweep (4-cell smoke campaign + no-op resume)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/smoke.json" <<'EOF'
{
    "name": "smoke",
    "topos": ["mesh:8x8"],
    "algorithms": ["u-arch", "opt-arch"],
    "ks": [8],
    "sizes": [512, 4096],
    "trials": 2
}
EOF
cargo run --release -q -p optmc-cli --bin optmc -- \
    sweep run --spec "$SMOKE_DIR/smoke.json" --jobs 2 --quiet \
    --out "$SMOKE_DIR/campaigns" \
    | grep -F "4 executed, 0 skipped, 0 failed" >/dev/null \
    || { echo "smoke campaign did not run all 4 cells" >&2; exit 1; }
cargo run --release -q -p optmc-cli --bin optmc -- \
    sweep resume --spec "$SMOKE_DIR/smoke.json" --quiet \
    --out "$SMOKE_DIR/campaigns" \
    | grep -F "0 executed, 4 skipped, 0 failed" >/dev/null \
    || { echo "smoke campaign resume re-ran completed cells" >&2; exit 1; }

# Telemetry determinism gate: two inspect runs of the same seed must emit
# byte-identical TelemetrySnapshot JSON (the snapshot holds cycle/event
# counts only, never wall-clock), and `sweep status` must read back the
# smoke campaign's heartbeat stream.
echo "==> telemetry snapshot is byte-identical across same-seed runs"
cargo run --release -q -p optmc-cli --bin optmc -- \
    inspect --topo mesh:16x16 --alg opt-arch --nodes 24 --bytes 4096 \
    --format text --heatmap --telemetry-out "$SMOKE_DIR/telem_a.json" >/dev/null
cargo run --release -q -p optmc-cli --bin optmc -- \
    inspect --topo mesh:16x16 --alg opt-arch --nodes 24 --bytes 4096 \
    --format text --heatmap --telemetry-out "$SMOKE_DIR/telem_b.json" >/dev/null
cmp "$SMOKE_DIR/telem_a.json" "$SMOKE_DIR/telem_b.json" \
    || { echo "telemetry snapshot is not deterministic for a fixed seed" >&2; exit 1; }

echo "==> sweep status reads the smoke campaign heartbeat"
cargo run --release -q -p optmc-cli --bin optmc -- \
    sweep status --spec "$SMOKE_DIR/smoke.json" --out "$SMOKE_DIR/campaigns" \
    | grep -F "progress       4/4 cells" >/dev/null \
    || { echo "sweep status did not report the finished smoke campaign" >&2; exit 1; }

# Hot-path allocation gate: the zero_alloc suite pins that steady-state
# event processing — including the counters-only observer — adds no
# per-event heap allocations.
echo "==> zero-allocation hot path (allocmeter, Null + counters observers)"
cargo test -q -p flitsim --test zero_alloc

# Observer-overhead gate: the counters-only sink must keep at least 0.95x
# the Null observer's throughput on the interleaved mesh16 pair.  The run
# also prints (but does not gate) the large-topology timings.  The exact
# simulator and plan-service sentinels are Tier-1 tests
# (crates/bench/tests/sentinels.rs, crates/plansvc/tests/sentinels.rs).
echo "==> bench_sim (counters obs >= 0.95x null; prints large-topology timings)"
cargo run --release -q -p optmc-bench --bin bench_sim

# Planning-service smoke: a scripted request batch served twice must answer
# byte-identically (replay determinism through the full stdin/stdout shell),
# with the repeats answered from the plan cache: request 5 spells request
# 1's seeded placement out as explicit members and must hit its entry, and
# request 6 (k = 1) must be refused.
echo "==> optmc serve answers a scripted batch deterministically"
cat > "$SMOKE_DIR/serve_batch.jsonl" <<'EOF'
{"id": 1, "topo": "mesh:8x8", "k": 8, "seed": 1, "bytes": 2048}
{"id": 2, "topo": "mesh:8x8", "k": 8, "seed": 1, "bytes": 2048}
{"id": 3, "topo": "bmin:64", "alg": "u-arch", "k": 6, "seed": 2, "bytes": 1024}
{"id": 4, "topo": "mesh:8x8", "k": 8, "seed": 1, "bytes": 2048}
{"id": 5, "topo": "mesh:8x8", "members": [32, 8, 39, 63, 61, 37, 31, 27], "bytes": 2048}
{"id": 6, "topo": "mesh:8x8", "k": 1}
{"id": 7, "stats": true}
EOF
cargo run --release -q -p optmc-cli --bin optmc -- \
    serve --quiet --telemetry-out "$SMOKE_DIR/plansvc_telem.json" \
    < "$SMOKE_DIR/serve_batch.jsonl" > "$SMOKE_DIR/serve_a.jsonl"
cargo run --release -q -p optmc-cli --bin optmc -- \
    serve --quiet < "$SMOKE_DIR/serve_batch.jsonl" > "$SMOKE_DIR/serve_b.jsonl"
cmp "$SMOKE_DIR/serve_a.jsonl" "$SMOKE_DIR/serve_b.jsonl" \
    || { echo "optmc serve responses are not replay-deterministic" >&2; exit 1; }
grep -F '"hits":3' "$SMOKE_DIR/serve_a.jsonl" >/dev/null \
    || { echo "optmc serve did not answer the repeats from the plan cache" >&2; exit 1; }
test -s "$SMOKE_DIR/plansvc_telem.json" \
    || { echo "optmc serve --telemetry-out wrote nothing" >&2; exit 1; }

# Edge shapes, certified: one k = 2 request on the smallest and the largest
# networks of each family (sides of 1 and 2, 20 dimensions, two NI ports,
# no virtual channels, 2^20 nodes) must each be answered, never refused or
# panicked on, and a replay must answer byte-identically.
echo "==> optmc serve --certify answers the edge shapes deterministically"
cat > "$SMOKE_DIR/edge_batch.jsonl" <<'EOF'
{"id": 1, "topo": "mesh:2", "k": 2, "seed": 1}
{"id": 2, "topo": "mesh:1x2", "k": 2, "seed": 1}
{"id": 3, "topo": "mesh:2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2", "k": 2, "seed": 1}
{"id": 4, "topo": "mesh:4x4:2", "k": 2, "seed": 1}
{"id": 5, "topo": "torus:2", "k": 2, "seed": 1}
{"id": 6, "topo": "torus:4x4:novc", "k": 2, "seed": 1}
{"id": 7, "topo": "bmin:2", "k": 2, "seed": 1}
{"id": 8, "topo": "omega:2", "k": 2, "seed": 1}
{"id": 9, "topo": "bmin:1048576", "k": 2, "seed": 1}
{"id": 10, "topo": "omega:1048576", "k": 2, "seed": 1}
{"id": 11, "topo": "mesh:1024x1024", "k": 2, "seed": 1}
EOF
cargo run --release -q -p optmc-cli --bin optmc -- \
    serve --certify --quiet < "$SMOKE_DIR/edge_batch.jsonl" > "$SMOKE_DIR/edge_a.jsonl"
cargo run --release -q -p optmc-cli --bin optmc -- \
    serve --certify --quiet < "$SMOKE_DIR/edge_batch.jsonl" > "$SMOKE_DIR/edge_b.jsonl"
cmp "$SMOKE_DIR/edge_a.jsonl" "$SMOKE_DIR/edge_b.jsonl" \
    || { echo "optmc serve edge-shape responses are not replay-deterministic" >&2; exit 1; }
test "$(grep -c '"ok":true' "$SMOKE_DIR/edge_a.jsonl")" -eq 11 \
    || { echo "optmc serve did not answer every edge shape" >&2; exit 1; }

# Figure determinism gate: the committed paper figures must regenerate
# byte-identical from a clean build — fig1's worked example (its whole
# stdout, contention verdicts included) and the fig2-fig4 datasets, fig4
# in both the adaptive and the --no-adaptive (ABL2) configuration.
echo "==> figure regeneration is byte-identical (fig1, fig2, fig3, fig4 + --no-adaptive)"
cargo run --release -q -p optmc-bench --bin fig1_example > "$SMOKE_DIR/fig1_example.txt"
cmp "$SMOKE_DIR/fig1_example.txt" results/fig1_example.txt \
    || { echo "fig1_example output diverged from results/fig1_example.txt" >&2; exit 1; }
cargo run --release -q -p optmc-bench --bin fig2_mesh_msgsize >/dev/null
cargo run --release -q -p optmc-bench --bin fig3_mesh_nodes >/dev/null
cargo run --release -q -p optmc-bench --bin fig4_bmin >/dev/null
cargo run --release -q -p optmc-bench --bin fig4_bmin -- --no-adaptive >/dev/null
git diff --exit-code -- \
    results/fig2.csv results/fig2.json results/fig3.csv results/fig3.json \
    results/fig4a.csv results/fig4a.json results/fig4b.csv results/fig4b.json \
    results/fig4a_noadapt.csv results/fig4a_noadapt.json \
    results/fig4b_noadapt.csv results/fig4b_noadapt.json \
    || { echo "figure regeneration diverged from committed results/" >&2; exit 1; }

# ---------------------------------------------------------------------------
# verify stage: concurrency soundness (loom model checking, Miri) and
# schedule-set certification.  Each leg degrades with a clear message when
# its tool is unavailable rather than failing the gate.

# Loom model checking: the in-tree bounded-preemption explorer (shims/loom)
# runs its own suite, then drives the campaign pool's two-lock
# checkpoint/heartbeat protocol through adversarial interleavings.  Built
# under --cfg loom in its own target dir so the cache never mixes with the
# normal build.
echo "==> verify: loom model checking (explorer suite, campaign pool model)"
export CARGO_TARGET_DIR=target/loom RUSTFLAGS="--cfg loom"
cargo test -q -p loom                      # the explorer's own suite
cargo test -q -p campaign --test loom      # pool checkpoint/heartbeat protocol
unset CARGO_TARGET_DIR RUSTFLAGS

# Miri: undefined-behaviour gate for allocmeter, the workspace's only
# unsafe crate (a counting global allocator).  Miri ships with nightly
# toolchains only; skip loudly when absent so offline/stable environments
# still pass.
echo "==> verify: cargo miri test -p allocmeter (UB gate for the one unsafe crate)"
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -q -p allocmeter
else
    echo "    miri unavailable on this toolchain — skipping (install with:"
    echo "    rustup +nightly component add miri). The allocmeter suite still"
    echo "    runs under the normal test gate above."
fi

# Schedule-set certification, end to end: a 16-multicast node-disjoint
# staggered workload must certify contention-free, emit a plan certificate,
# and the independent verifier plus the joint differential oracle must both
# agree (any error-level finding exits nonzero).
echo "==> verify: optmc check --set certifies a 16-multicast workload"
cargo run --release -q -p optmc-cli --bin optmc -- \
    check --topo mesh:16x16 --set --count 16 --nodes 8 --bytes 2048 \
    --gap 2000000 --disjoint --seed 1997 --cert-out "$SMOKE_DIR/plan_cert.json" \
    | grep -F "schedule set certified contention-free" >/dev/null \
    || { echo "16-multicast set failed certification" >&2; exit 1; }
test -s "$SMOKE_DIR/plan_cert.json" \
    || { echo "plan certificate was not written" >&2; exit 1; }

echo "All checks passed."
