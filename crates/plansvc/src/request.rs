//! The planning-service wire protocol: newline-delimited JSON requests.
//!
//! One request line is a JSON object; [`parse_line`] turns it into a
//! [`ParsedLine`] without touching any transport.  Two shapes exist:
//!
//! * a **plan request** — `{"topo": "mesh:16x16", "alg": "opt-arch",
//!   "bytes": 4096, "members": [0, 17, 34]}` or, instead of explicit
//!   members, `{"k": 16, "seed": 7}` to draw a seeded random placement.
//!   Optional `"hold"`/`"end"` supply a calibrated parameter pair;
//!   omitted, the pair is derived from the simulated machine exactly as
//!   [`flitsim::SimConfig::effective_pair_ports`] would calibrate it.
//! * a **stats request** — `{"stats": true}` — answered from engine state.
//!
//! Any `"id"` member is echoed verbatim in the response, so pipelined
//! clients can match answers to questions.
//!
//! Seeded placements are expanded to concrete members *before* the request
//! is keyed, so `{"k": 8, "seed": 1}` and the equivalent explicit
//! `"members"` list share one cache entry.

use netcheck::certificate::push_uint;
use optmc::{random_placement, Algorithm};
use pcm::Time;
use serde_json::Value;
use topo::NodeId;

/// Default message size when a request omits `"bytes"`.
pub const DEFAULT_BYTES: u64 = 4096;

/// Default placement seed when a request gives `"k"` without `"seed"`.
pub const DEFAULT_SEED: u64 = 1997;

/// A fully-resolved plan request: every field concrete, ready to key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRequest {
    /// Topology spec string (`mesh:16x16`, `bmin:128`, …).
    pub topo: String,
    /// The algorithm hint (today: the algorithm used).
    pub algorithm: Algorithm,
    /// Participants, source first, all distinct and in range.
    pub members: Vec<NodeId>,
    /// Message payload bytes.
    pub bytes: u64,
    /// Calibrated `(t_hold, t_end)` override; `None` derives the pair
    /// from the simulated machine.
    pub params: Option<(Time, Time)>,
}

impl PlanRequest {
    /// The content-addressed cache key, via [`campaign::key::compose`]:
    /// injective over (topology, algorithm, members, bytes, params), so
    /// two requests share a cache entry exactly when their plans are
    /// interchangeable.
    pub fn key(&self) -> String {
        // Runs on every request, hits included: one buffer for the member
        // list, not a string per member.
        let mut members = String::with_capacity(1 + 8 * self.members.len());
        members.push('m');
        for (i, n) in self.members.iter().enumerate() {
            if i > 0 {
                members.push(',');
            }
            push_uint(&mut members, n.0.into());
        }
        let params = match self.params {
            None => "auto".to_string(),
            Some((hold, end)) => format!("h{hold}e{end}"),
        };
        campaign::key::compose([
            "plan",
            &self.topo,
            self.algorithm.id(),
            &format!("b{}", self.bytes),
            &members,
            &params,
        ])
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedLine {
    /// A plan request plus the `"id"` echo, if any.
    Plan(Box<PlanRequest>, Option<Value>),
    /// A stats request plus the `"id"` echo, if any.
    Stats(Option<Value>),
}

/// A request that could not be parsed: the message, plus the `"id"` echo
/// when the line was at least valid JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// The request's `"id"`, when one could be recovered.
    pub echo: Option<Value>,
}

fn bad(echo: &Option<Value>, message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
        echo: echo.clone(),
    }
}

fn u64_member(v: &Value, echo: &Option<Value>, name: &str) -> Result<u64, ParseError> {
    v.as_u64()
        .ok_or_else(|| bad(echo, format!("'{name}' must be a non-negative integer")))
}

/// Parse one request line (see the module docs for the grammar).
///
/// # Errors
/// Returns a [`ParseError`] carrying the `"id"` echo whenever the line is
/// syntactically JSON but semantically broken, so the shell can still
/// route the error to the right client.
pub fn parse_line(text: &str) -> Result<ParsedLine, ParseError> {
    let v: Value = serde_json::from_str(text).map_err(|e| bad(&None, format!("bad JSON: {e}")))?;
    if v.as_object().is_none() {
        return Err(bad(&None, "request must be a JSON object"));
    }
    let echo = v.get("id").cloned();
    if let Some(s) = v.get("stats") {
        return match s {
            Value::Bool(true) => Ok(ParsedLine::Stats(echo)),
            _ => Err(bad(&echo, "'stats' must be true")),
        };
    }
    let topo = v
        .get("topo")
        .and_then(Value::as_str)
        .ok_or_else(|| bad(&echo, "missing 'topo' (a topology spec string)"))?
        .to_string();
    let spec = optmc::spec::parse_spec(&topo).map_err(|e| bad(&echo, e))?;
    let algorithm = match v.get("alg") {
        None => Algorithm::OptArch,
        Some(a) => {
            let name = a
                .as_str()
                .ok_or_else(|| bad(&echo, "'alg' must be an algorithm name"))?;
            Algorithm::parse(name).map_err(|e| bad(&echo, e))?
        }
    };
    let bytes = match v.get("bytes") {
        None => DEFAULT_BYTES,
        Some(b) => {
            let b = u64_member(b, &echo, "bytes")?;
            if b == 0 {
                return Err(bad(&echo, "'bytes' must be at least 1"));
            }
            b
        }
    };
    let params = match (v.get("hold"), v.get("end")) {
        (None, None) => None,
        (Some(h), Some(e)) => {
            let hold = u64_member(h, &echo, "hold")?;
            let end = u64_member(e, &echo, "end")?;
            if hold == 0 || end < hold {
                return Err(bad(&echo, "'hold'/'end' must satisfy 1 <= hold <= end"));
            }
            Some((hold, end))
        }
        _ => return Err(bad(&echo, "'hold' and 'end' must be given together")),
    };
    let members = match (v.get("members"), v.get("k")) {
        (Some(_), Some(_)) => {
            return Err(bad(&echo, "give either 'members' or 'k', not both"));
        }
        (Some(m), None) => {
            let items = m
                .as_array()
                .ok_or_else(|| bad(&echo, "'members' must be an array of node ids"))?;
            let mut members = Vec::with_capacity(items.len());
            for item in items {
                let id = u64_member(item, &echo, "members")?;
                if id >= spec.nodes as u64 {
                    return Err(bad(
                        &echo,
                        format!("member {id} out of range for {topo} ({} nodes)", spec.nodes),
                    ));
                }
                members.push(NodeId(u32::try_from(id).expect("bounded by node count")));
            }
            let mut sorted: Vec<NodeId> = members.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != members.len() {
                return Err(bad(&echo, "'members' must be distinct"));
            }
            members
        }
        (None, Some(k)) => {
            let k = u64_member(k, &echo, "k")? as usize;
            if k > spec.nodes {
                return Err(bad(
                    &echo,
                    format!("k={k} out of range 2..={} for {topo}", spec.nodes),
                ));
            }
            let seed = match v.get("seed") {
                None => DEFAULT_SEED,
                Some(s) => u64_member(s, &echo, "seed")?,
            };
            random_placement(spec.nodes, k, seed)
        }
        (None, None) => {
            return Err(bad(
                &echo,
                "missing 'members' (or 'k' for a seeded placement)",
            ));
        }
    };
    if members.len() < 2 {
        return Err(bad(&echo, "a multicast needs at least 2 members"));
    }
    Ok(ParsedLine::Plan(
        Box::new(PlanRequest {
            topo,
            algorithm,
            members,
            bytes,
            params,
        }),
        echo,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_explicit_members() {
        let line =
            r#"{"id": 7, "topo": "mesh:4x4", "alg": "u-arch", "bytes": 512, "members": [3, 0, 9]}"#;
        let ParsedLine::Plan(req, echo) = parse_line(line).unwrap() else {
            panic!("expected a plan request");
        };
        assert_eq!(echo, Some(Value::UInt(7)));
        assert_eq!(req.topo, "mesh:4x4");
        assert_eq!(req.algorithm, Algorithm::UArch);
        assert_eq!(req.bytes, 512);
        assert_eq!(req.members, vec![NodeId(3), NodeId(0), NodeId(9)]);
        assert_eq!(req.params, None);
        assert_eq!(req.key(), "plan|mesh:4x4|u-arch|b512|m3,0,9|auto");
    }

    #[test]
    fn seeded_placement_matches_explicit_members() {
        let seeded = parse_line(r#"{"topo": "mesh:4x4", "k": 4, "seed": 9}"#).unwrap();
        let ParsedLine::Plan(req, _) = seeded else {
            panic!("expected a plan request");
        };
        let members: Vec<u64> = req.members.iter().map(|n| u64::from(n.0)).collect();
        let explicit = format!(
            r#"{{"topo": "mesh:4x4", "members": [{}]}}"#,
            members
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
        let ParsedLine::Plan(req2, _) = parse_line(&explicit).unwrap() else {
            panic!("expected a plan request");
        };
        assert_eq!(req.key(), req2.key(), "expansion happens before keying");
    }

    #[test]
    fn calibrated_params_enter_the_key() {
        let a = parse_line(r#"{"topo": "bmin:16", "k": 4, "hold": 10, "end": 90}"#).unwrap();
        let b = parse_line(r#"{"topo": "bmin:16", "k": 4}"#).unwrap();
        let (ParsedLine::Plan(ra, _), ParsedLine::Plan(rb, _)) = (a, b) else {
            panic!("expected plan requests");
        };
        assert_eq!(ra.params, Some((10, 90)));
        assert_ne!(ra.key(), rb.key());
    }

    #[test]
    fn stats_line_parses() {
        assert_eq!(
            parse_line(r#"{"stats": true, "id": "s1"}"#).unwrap(),
            ParsedLine::Stats(Some(Value::Str("s1".into())))
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, what) in [
            ("{", "bad JSON"),
            ("[1]", "not an object"),
            (r#"{"topo": "ring:8", "k": 4}"#, "unknown topology"),
            (r#"{"topo": "mesh:4x4"}"#, "no members"),
            (r#"{"topo": "mesh:4x4", "members": [1]}"#, "one member"),
            (r#"{"topo": "mesh:4x4", "members": [1, 1]}"#, "duplicate"),
            (
                r#"{"topo": "mesh:4x4", "members": [1, 99]}"#,
                "out of range",
            ),
            (r#"{"topo": "mesh:4x4", "k": 99}"#, "k too large"),
            (r#"{"topo": "mesh:4x4", "k": 4, "members": [1, 2]}"#, "both"),
            (r#"{"topo": "mesh:4x4", "k": 4, "bytes": 0}"#, "zero bytes"),
            (r#"{"topo": "mesh:4x4", "k": 4, "hold": 5}"#, "hold alone"),
            (
                r#"{"topo": "mesh:4x4", "k": 4, "hold": 9, "end": 3}"#,
                "end < hold",
            ),
            (r#"{"topo": "mesh:4x4", "k": 4, "alg": "magic"}"#, "bad alg"),
            (r#"{"stats": 1}"#, "stats not true"),
        ] {
            assert!(parse_line(line).is_err(), "{what}: {line}");
        }
    }

    #[test]
    fn parse_errors_keep_the_echo() {
        let err = parse_line(r#"{"id": 42, "topo": "ring:8", "k": 4}"#).unwrap_err();
        assert_eq!(err.echo, Some(Value::UInt(42)));
        let err = parse_line("not json").unwrap_err();
        assert_eq!(err.echo, None);
    }
}
