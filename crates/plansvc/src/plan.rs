//! Pure plan computation: a [`PlanRequest`] in, a [`PlanBody`] out.
//!
//! This is the expensive step the cache and single-flight machinery exist
//! to amortize: build the architecture chain, derive (or accept) the
//! `(t_hold, t_end)` pair, run the OPT DP, and lay out the schedule.  It
//! is deterministic and free of any transport concern, so the engine can
//! hand it to whatever execution context the shell chooses.

use flitsim::SimConfig;
use mtree::Schedule;
use netcheck::certificate::{push_json_str, push_uint};
use netcheck::{analyze_set, PlanCertificate, ScheduleSet};
use optmc::runner::nominal_hops;
use optmc::McastSpec;
use pcm::Time;
use serde_json::Value;

use crate::request::PlanRequest;

/// Knobs the shell fixes for every plan it computes.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanOptions {
    /// Attach a verified [`PlanCertificate`] to each plan.
    pub certify: bool,
}

/// A computed plan: the schedule, its timing, and an optional certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBody {
    /// Topology spec string, echoed from the request.
    pub topo: String,
    /// Canonical algorithm id.
    pub algorithm: String,
    /// Participant count.
    pub k: usize,
    /// Message payload bytes.
    pub bytes: u64,
    /// `t_hold` the DP used.
    pub hold: Time,
    /// `t_end` the DP used.
    pub end: Time,
    /// Analytic (contention-free) multicast latency of the schedule.
    pub latency: Time,
    /// Tree depth in rounds.
    pub depth: usize,
    /// Participants in chain order (source at its chain position).
    pub chain: Vec<u32>,
    /// Node-level sends `(from, to, start, arrive)`, parent before child.
    pub sends: Vec<(u32, u32, Time, Time)>,
    /// The set certificate, when requested (its `clean` field is the
    /// Theorem 1/2 verdict for this single-member set).
    pub certificate: Option<PlanCertificate>,
}

impl PlanBody {
    /// The deterministic JSON form (insertion-ordered object).  The test
    /// oracle for [`PlanBody::render_json`], and the source of `optmc
    /// plan --json`'s pretty output.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("topo".to_string(), Value::Str(self.topo.clone())),
            ("algorithm".to_string(), Value::Str(self.algorithm.clone())),
            ("k".to_string(), Value::UInt(self.k as u64)),
            ("bytes".to_string(), Value::UInt(self.bytes)),
            ("hold".to_string(), Value::UInt(self.hold)),
            ("end".to_string(), Value::UInt(self.end)),
            ("latency".to_string(), Value::UInt(self.latency)),
            ("depth".to_string(), Value::UInt(self.depth as u64)),
            (
                "chain".to_string(),
                Value::Array(self.chain.iter().map(|&n| Value::UInt(n.into())).collect()),
            ),
            (
                "sends".to_string(),
                Value::Array(
                    self.sends
                        .iter()
                        .map(|&(from, to, start, arrive)| {
                            Value::Array(vec![
                                Value::UInt(from.into()),
                                Value::UInt(to.into()),
                                Value::UInt(start),
                                Value::UInt(arrive),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(cert) = &self.certificate {
            fields.push(("clean".to_string(), Value::Bool(cert.clean)));
            fields.push(("certificate".to_string(), serde_json::to_value(cert)));
        }
        Value::Object(fields)
    }

    /// The compact JSON of [`PlanBody::to_value`], written straight to
    /// bytes: exactly `serde_json::to_string(&self.to_value())`, without
    /// building the `Value` tree.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(self.json_capacity());
        self.write_json(&mut out);
        out
    }

    /// A size hint for [`PlanBody::render_json`], from the field counts,
    /// so that plans do not reallocate while being written; a certificate
    /// window takes about 70 bytes.
    pub(crate) fn json_capacity(&self) -> usize {
        let windows = self.certificate.as_ref().map_or(0, |c| c.windows.len());
        256 + 16 * self.chain.len() + 40 * self.sends.len() + 72 * windows
    }

    /// Append [`PlanBody::render_json`]'s bytes to `out`.  The engine
    /// writes them once, after the plan's key, into the response tail it
    /// caches and splices into every response for the plan.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"topo\":");
        push_json_str(out, &self.topo);
        out.push_str(",\"algorithm\":");
        push_json_str(out, &self.algorithm);
        for (key, v) in [
            (",\"k\":", self.k as u64),
            (",\"bytes\":", self.bytes),
            (",\"hold\":", self.hold),
            (",\"end\":", self.end),
            (",\"latency\":", self.latency),
            (",\"depth\":", self.depth as u64),
        ] {
            out.push_str(key);
            push_uint(out, v);
        }
        out.push_str(",\"chain\":[");
        for (i, &n) in self.chain.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_uint(out, n.into());
        }
        out.push_str("],\"sends\":[");
        for (i, &(from, to, start, arrive)) in self.sends.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            push_uint(out, from.into());
            out.push(',');
            push_uint(out, to.into());
            out.push(',');
            push_uint(out, start);
            out.push(',');
            push_uint(out, arrive);
            out.push(']');
        }
        out.push(']');
        if let Some(cert) = &self.certificate {
            out.push_str(",\"clean\":");
            out.push_str(if cert.clean { "true" } else { "false" });
            out.push_str(",\"certificate\":");
            cert.write_json_compact(out);
        }
        out.push('}');
    }
}

/// Compute the plan for one request.
///
/// # Errors
/// On an unparseable topology (the engine validates requests before they
/// get here, but the computation re-parses from the spec string), on a
/// certificate request combined with an explicit `(hold, end)` override
/// (the certificate replays the machine-derived pair, so certifying a
/// foreign pair would certify a different schedule), and on a routing
/// failure while replaying windows for the certificate.
pub fn compute_plan(req: &PlanRequest, opts: &PlanOptions) -> Result<PlanBody, String> {
    let topo = optmc::spec::parse_topology(&req.topo)?;
    let src = req.members[0];
    let k = req.members.len();
    let cfg = SimConfig::paragon_like();
    let hops = nominal_hops(&*topo, &req.members, src);
    let (hold, end) = match req.params {
        Some(pair) => pair,
        None => cfg.effective_pair_ports(hops, req.bytes, topo.graph().ports() as u64),
    };
    let chain = req.algorithm.chain(&*topo, &req.members, src);
    let splits = req.algorithm.splits(hold, end, k);
    let schedule = Schedule::build(k, chain.src_pos(), &splits, hold, end);
    let sends = schedule
        .sends
        .iter()
        .map(|s| (chain.node(s.from).0, chain.node(s.to).0, s.start, s.arrive))
        .collect();
    let certificate = if opts.certify {
        if req.params.is_some() {
            return Err(
                "cannot certify a plan with an explicit hold/end override (the certificate \
                 replays the machine-derived pair)"
                    .to_string(),
            );
        }
        let mut cert_cfg = cfg;
        cert_cfg.adaptive = false;
        let set = ScheduleSet {
            specs: vec![McastSpec {
                participants: req.members.clone(),
                src,
                bytes: req.bytes,
                start: 0,
            }],
            algorithm: req.algorithm,
        };
        let analysis = analyze_set(&*topo, &cert_cfg, &set).map_err(|e| e.to_string())?;
        Some(PlanCertificate::from_analysis(&*topo, &set, &analysis))
    } else {
        None
    };
    Ok(PlanBody {
        topo: req.topo.clone(),
        algorithm: req.algorithm.id().to_string(),
        k,
        bytes: req.bytes,
        hold,
        end,
        latency: schedule.latency(),
        depth: schedule.depth(),
        chain: chain.nodes().iter().map(|n| n.0).collect(),
        sends,
        certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optmc::Algorithm;
    use topo::NodeId;

    fn req(topo: &str, members: &[u32], bytes: u64) -> PlanRequest {
        PlanRequest {
            topo: topo.to_string(),
            algorithm: Algorithm::OptArch,
            members: members.iter().map(|&n| NodeId(n)).collect(),
            bytes,
            params: None,
        }
    }

    #[test]
    fn plans_are_deterministic_and_consistent() {
        let r = req("mesh:8x8", &[0, 9, 18, 27, 36, 45, 54, 63], 4096);
        let a = compute_plan(&r, &PlanOptions::default()).unwrap();
        let b = compute_plan(&r, &PlanOptions::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.k, 8);
        assert_eq!(a.sends.len(), 7, "k-1 sends reach everyone");
        assert_eq!(a.chain.len(), 8);
        assert!(a.latency > 0);
        assert!(a.hold <= a.end);
        // Every send's arrive is start + t_end.
        for &(_, _, start, arrive) in &a.sends {
            assert_eq!(arrive, start + a.end);
        }
    }

    #[test]
    fn certificates_attach_and_verify() {
        let r = req("mesh:8x8", &[0, 9, 18, 27], 1024);
        let body = compute_plan(&r, &PlanOptions { certify: true }).unwrap();
        let cert = body.certificate.expect("certificate requested");
        assert!(cert.clean, "OPT-mesh is contention-free (Theorem 1)");
        cert.verify().expect("certificate verifies independently");
    }

    #[test]
    fn render_json_matches_its_value_oracle() {
        let topos = [
            "mesh:16x16",
            "bmin:128",
            "torus:8x8",
            "omega:64",
            "mesh:32x32",
            "bmin:512",
        ];
        for topo in topos {
            let n = optmc::spec::parse_spec(topo).unwrap().nodes;
            for k in [2, 8, 16, 32, 64] {
                for seed in [3, 1997] {
                    let r = PlanRequest {
                        members: optmc::random_placement(n, k, seed),
                        ..req(topo, &[], 16384)
                    };
                    for certify in [false, true] {
                        let body = compute_plan(&r, &PlanOptions { certify }).unwrap();
                        assert_eq!(
                            body.render_json(),
                            serde_json::to_string(&body.to_value()).unwrap(),
                            "{topo} k={k} seed={seed} certify={certify}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn render_json_escapes_strings_like_the_value_render() {
        let mut body = PlanBody {
            topo: "q\"b\\s\u{1}\n\t\u{7f} é✓網".into(),
            algorithm: "opt-arch".into(),
            k: 2,
            bytes: u64::MAX,
            hold: 0,
            end: 10,
            latency: 10,
            depth: 1,
            chain: vec![7, 0],
            sends: vec![(7, 0, 0, 10)],
            certificate: None,
        };
        assert_eq!(
            body.render_json(),
            serde_json::to_string(&body.to_value()).unwrap()
        );
        let r = req("mesh:4x4", &[0, 5, 10], 512);
        let mut cert = compute_plan(&r, &PlanOptions { certify: true })
            .unwrap()
            .certificate;
        if let Some(c) = &mut cert {
            c.target = body.topo.clone();
        }
        body.certificate = cert;
        assert_eq!(
            body.render_json(),
            serde_json::to_string(&body.to_value()).unwrap()
        );
    }

    #[test]
    fn certify_rejects_param_overrides() {
        let mut r = req("mesh:4x4", &[0, 5, 10], 512);
        r.params = Some((10, 50));
        assert!(compute_plan(&r, &PlanOptions { certify: true }).is_err());
        assert!(compute_plan(&r, &PlanOptions::default()).is_ok());
    }

    #[test]
    fn explicit_params_drive_the_schedule() {
        let mut r = req("bmin:16", &[0, 3, 7, 12], 2048);
        r.params = Some((7, 31));
        let body = compute_plan(&r, &PlanOptions::default()).unwrap();
        assert_eq!((body.hold, body.end), (7, 31));
    }
}
