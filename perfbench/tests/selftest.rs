//! Self-tests of the benchmark: tiny runs of every workload, corrupted
//! references, non-default seeds, the traced decomposition against the
//! wrappers it copies, and `BENCHMARK.json` against the metrics printed.

use std::path::PathBuf;

use campaign::{expand, CampaignSpec};
use flitsim::SimConfig;
use optmc::{random_placement, run_multicast, Algorithm};
use perfbench::decomposed;
use perfbench::{Options, Output, Refs, Tracer, END_TO_END, PER_LAYER, REFERENCE_SEED, WORKLOADS};
use plansvc::{compute_plan, PlanOptions, PlanRequest};
use topo::NodeId;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn refs() -> Refs {
    Refs::load(&root()).expect("references load")
}

fn opts(workload: &str, seed: u64, trace: bool, refs: Option<Refs>) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        root: root(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}")),
        refs,
    }
}

/// A tiny run (one input cycle, at least 100 ops) of every workload, at
/// the reference seed, untraced and traced: every named metric printed
/// with its unit, and no failures.
#[test]
fn tiny_runs_report_every_metric_and_pass_every_check() {
    for workload in WORKLOADS {
        for (trace, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let r = perfbench::run(&opts(workload, REFERENCE_SEED, trace, Some(refs()))).unwrap();
            assert_eq!(r.failed, 0, "{workload} trace={trace}: {:?}", r.failures);
            assert!(r.attempted >= perfbench::MIN_SLOTS, "{workload}");
            let json = r.to_json();
            for &(name, unit) in names {
                let v = r
                    .metric(name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload}: {name} missing from {json}"
                );
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if !trace {
                for (name, _) in END_TO_END {
                    assert!(r.metric(name).unwrap() > 0.0, "{workload}: {name} is 0");
                }
            }
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

/// A wrong reference digest or figure shows up as failed ops, not a crash.
#[test]
fn corrupted_references_count_as_failed_ops() {
    let mut bad = refs();
    let good = bad.digest("loaded_poisson", "3").expect("recorded");
    bad.set_digest("loaded_poisson", "3", good ^ 1);
    let r = perfbench::run(&opts("loaded_poisson", REFERENCE_SEED, false, Some(bad))).unwrap();
    assert_eq!((r.attempted, r.failed), (512, 1), "{:?}", r.failures);
    assert!(!r.correct());
    assert!(r.to_json().contains("\"correct\": false"));

    let mut bad = refs();
    let csv = bad
        .figure("fig2")
        .unwrap()
        .replacen("2490.0625", "2490.0626", 1);
    bad.set_figure("fig2", csv);
    let r = perfbench::run(&opts("paper_figures", REFERENCE_SEED, false, Some(bad))).unwrap();
    assert_eq!(r.failed, 1, "{:?}", r.failures);
    assert!(r.failures[0].contains("fig2"), "{:?}", r.failures);
}

/// Another seed changes every workload's inputs — none of its outputs
/// matches a reference recorded at the reference seed — yet every
/// invariant check still passes.
#[test]
fn other_seeds_change_the_inputs_and_keep_the_invariants() {
    for workload in WORKLOADS {
        let mut o = opts(workload, 7, false, None);
        let r = perfbench::run(&o).unwrap();
        assert_eq!(r.failed, 0, "{workload}: {:?}", r.failures);

        o.refs = Some(refs());
        let r = perfbench::run(&o).unwrap();
        assert!(
            r.failed >= r.attempted && r.failures[0].contains("reference"),
            "{workload}: seed 7 reproduced reference-seed outputs: {:?}",
            r.failures
        );
    }
}

/// The traced copies of `run_multicast`, `run_cell` and `compute_plan`
/// return exactly what the wrappers return.
#[test]
fn traced_decomposition_matches_the_wrappers() {
    let cfg = SimConfig::paragon_like();
    let mut tr = Tracer::new(true);
    tr.set_op(0);
    for (spec, k, bytes) in [
        ("mesh:16x16", 32, 4096),
        ("bmin:128", 16, 8192),
        ("mesh:6x6", 2, 0),
    ] {
        let topo = optmc::spec::parse_topology(spec).unwrap();
        let n = topo.graph().n_nodes();
        for alg in Algorithm::PAPER_SET {
            for seed in 0..3 {
                let parts = random_placement(n, k, seed);
                let want = run_multicast(topo.as_ref(), &cfg, alg, &parts, parts[0], bytes);
                let got = decomposed::run_multicast(
                    topo.as_ref(),
                    &cfg,
                    alg,
                    &parts,
                    parts[0],
                    bytes,
                    &mut tr,
                );
                Output::Multicast(Box::new(want))
                    .same_as(&Output::Multicast(Box::new(got)))
                    .unwrap();
            }
        }
    }

    let spec = CampaignSpec::load(&root().join("perfbench/specs/fig4b.json")).unwrap();
    for cell in expand(&spec).iter().step_by(5) {
        let want = campaign::pool::run_cell(cell).unwrap();
        let got = decomposed::run_cell(cell, &mut tr).unwrap();
        Output::Cell(want).same_as(&Output::Cell(got)).unwrap();
    }

    for (topo, members, certify, params) in [
        ("mesh:16x16", vec![0u32, 17, 34, 200, 99, 5], true, None),
        ("bmin:128", vec![3, 64, 9, 100, 27], true, None),
        (
            "bmin:512",
            vec![3, 64, 9, 100, 27, 511],
            false,
            Some((20, 90)),
        ),
        ("mesh:8x8", vec![1, 2, 3], true, Some((20, 90))),
    ] {
        let req = PlanRequest {
            topo: topo.to_string(),
            algorithm: Algorithm::OptArch,
            members: members.into_iter().map(NodeId).collect(),
            bytes: 4096,
            params,
        };
        let popts = PlanOptions { certify };
        assert_eq!(
            compute_plan(&req, &popts),
            decomposed::compute_plan(&req, &popts, &mut tr),
            "{topo}"
        );
    }
    let spans = tr.self_times().op_ns;
    for span in [
        "flitsim.run",
        "mtree.opt",
        "netcheck.certify",
        "topo.route_table",
    ] {
        assert!(spans.contains_key(span), "no {span} span recorded");
    }
}

/// `BENCHMARK.json` declares exactly the metrics the benchmark prints.
#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(serde_json::Value::as_array)
            .unwrap_or_else(|| panic!("no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(serde_json::Value::as_str)
                        .unwrap()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
        ms.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = v
        .get("workloads")
        .and_then(serde_json::Value::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(serde_json::Value::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
