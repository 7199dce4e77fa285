//! Machine-checkable plan certificates for schedule sets.
//!
//! [`analyze_set`](crate::schedset::analyze_set) is the *prover*: it
//! replays every member and scans for overlaps.  A [`PlanCertificate`] is
//! the prover's output made auditable — the complete per-channel occupancy
//! interval population, each member's participants and activity envelope,
//! and the claimed verdict — serialized as JSON by `optmc check --set
//! --cert-out`.
//!
//! [`PlanCertificate::verify`] is the *independent verifier*: it trusts
//! nothing but the certificate body and re-derives the verdict by a
//! different algorithm (a sweep-line over sorted intervals, not the
//! prover's pairwise group scan; a direct pairwise independence check over
//! the recorded envelopes, not the replay).  A certificate passes only
//! when it is structurally sound *and* its claimed verdict matches the
//! re-derived one — so a bug in either the prover or the verifier shows up
//! as a verification failure rather than a silently wrong certification.

use serde::{Deserialize, Serialize};
use topo::Topology;

use pcm::Time;

use crate::schedset::{ScheduleSet, SetAnalysis};

/// Format version of the certificate JSON; bump on breaking changes.
pub const CERT_VERSION: u32 = 1;

/// One member's identity and activity envelope inside a certificate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CertMember {
    /// Source node id.
    pub src: u32,
    /// All participant node ids (source included).
    pub participants: Vec<u32>,
    /// Message payload bytes.
    pub bytes: u64,
    /// Start offset (global cycles).
    pub start: Time,
    /// First cycle the member occupies anything.
    pub active_from: Time,
    /// Conservative end of the member's activity (exclusive).
    pub active_until: Time,
}

/// One channel-occupancy interval inside a certificate (global cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CertWindow {
    /// Index of the owning member.
    pub mcast: usize,
    /// Send index within the member's schedule.
    pub send: usize,
    /// Channel id.
    pub channel: u32,
    /// Cycle the channel is acquired.
    pub acquire: Time,
    /// Cycle the channel is freed (exclusive).
    pub release: Time,
}

/// The auditable output of a schedule-set certification run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCertificate {
    /// Certificate format version ([`CERT_VERSION`]).
    pub version: u32,
    /// Topology the set was certified on (e.g. `mesh-16x16`).
    pub target: String,
    /// Multicast algorithm (Debug form, e.g. `OptArch`).
    pub algorithm: String,
    /// The members, in injection order.
    pub multicasts: Vec<CertMember>,
    /// Every channel-occupancy interval of every member, global times.
    pub windows: Vec<CertWindow>,
    /// The prover's verdict: contention-free and pairwise independent.
    pub clean: bool,
}

/// Append `v` in decimal, as JSON prints an unsigned integer, without
/// allocating.  Shared with the planning service's plan writer, which
/// embeds certificates, so both print numbers the same way.
pub fn push_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

/// Append `s` as a JSON string literal, escaped exactly as
/// `serde_json::to_string` escapes it (it is that writer).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push_str(&serde_json::to_string(s).expect("a string always serializes"));
}

/// Why a certificate failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The certificate is structurally broken (bad version, dangling
    /// member index, inverted interval, …).
    Malformed(String),
    /// Two intervals on one channel overlap although the certificate
    /// claims the set is clean.
    Overlap {
        /// The contended channel.
        channel: u32,
        /// Owner of the earlier interval (member, send).
        earlier: (usize, usize),
        /// Owner of the later interval (member, send).
        later: (usize, usize),
        /// Cycle at which the later interval starts inside the earlier.
        at: Time,
    },
    /// Two members share nodes while concurrently active although the
    /// certificate claims the set is clean.
    DependentMembers {
        /// The two member indices.
        members: (usize, usize),
        /// A shared node id.
        node: u32,
    },
    /// The claimed verdict does not match the re-derived one.
    VerdictMismatch {
        /// What the certificate claims.
        claimed: bool,
        /// What the verifier re-derived.
        derived: bool,
    },
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::Malformed(why) => write!(f, "malformed certificate: {why}"),
            CertError::Overlap {
                channel,
                earlier,
                later,
                at,
            } => write!(
                f,
                "certificate claims clean but ch{channel} is double-booked at cycle {at} \
                 (member {} send {} vs member {} send {})",
                earlier.0, earlier.1, later.0, later.1
            ),
            CertError::DependentMembers { members, node } => write!(
                f,
                "certificate claims clean but members {} and {} share node {node} \
                 while concurrently active",
                members.0, members.1
            ),
            CertError::VerdictMismatch { claimed, derived } => write!(
                f,
                "certificate verdict clean={claimed} but the windows re-derive clean={derived}"
            ),
        }
    }
}

impl PlanCertificate {
    /// Build a certificate from a prover run.
    pub fn from_analysis(topo: &dyn Topology, set: &ScheduleSet, analysis: &SetAnalysis) -> Self {
        let multicasts = set
            .specs
            .iter()
            .zip(&analysis.members)
            .map(|(spec, m)| CertMember {
                src: spec.src.0,
                participants: spec.participants.iter().map(|n| n.0).collect(),
                bytes: spec.bytes,
                start: spec.start,
                active_from: m.active_from,
                active_until: m.active_until,
            })
            .collect();
        let windows = analysis
            .members
            .iter()
            .flat_map(|m| {
                m.windows.iter().map(|w| CertWindow {
                    mcast: w.mcast,
                    send: w.send,
                    channel: w.channel.0,
                    acquire: w.acquire,
                    release: w.release,
                })
            })
            .collect();
        PlanCertificate {
            version: CERT_VERSION,
            target: topo.name(),
            algorithm: format!("{:?}", set.algorithm),
            multicasts,
            windows,
            clean: analysis.is_clean(),
        }
    }

    /// Serialize as pretty JSON (deterministic for a given certificate).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("certificate serializes");
        s.push('\n');
        s
    }

    /// Append the compact JSON form to `out`: exactly the bytes of
    /// `serde_json::to_string(self)`, written directly instead of through
    /// a `Value` tree.  The planning service splices this into every
    /// certified plan response, where the windows are most of the bytes.
    pub fn write_json_compact(&self, out: &mut String) {
        out.push_str("{\"version\":");
        push_uint(out, self.version.into());
        out.push_str(",\"target\":");
        push_json_str(out, &self.target);
        out.push_str(",\"algorithm\":");
        push_json_str(out, &self.algorithm);
        out.push_str(",\"multicasts\":[");
        for (i, m) in self.multicasts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"src\":");
            push_uint(out, m.src.into());
            out.push_str(",\"participants\":[");
            for (j, &p) in m.participants.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_uint(out, p.into());
            }
            out.push_str("],\"bytes\":");
            push_uint(out, m.bytes);
            out.push_str(",\"start\":");
            push_uint(out, m.start);
            out.push_str(",\"active_from\":");
            push_uint(out, m.active_from);
            out.push_str(",\"active_until\":");
            push_uint(out, m.active_until);
            out.push('}');
        }
        out.push_str("],\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"mcast\":");
            push_uint(out, w.mcast as u64);
            out.push_str(",\"send\":");
            push_uint(out, w.send as u64);
            out.push_str(",\"channel\":");
            push_uint(out, w.channel.into());
            out.push_str(",\"acquire\":");
            push_uint(out, w.acquire);
            out.push_str(",\"release\":");
            push_uint(out, w.release);
            out.push('}');
        }
        out.push_str("],\"clean\":");
        out.push_str(if self.clean { "true" } else { "false" });
        out.push('}');
    }

    /// Parse a certificate from JSON.
    ///
    /// # Errors
    /// [`CertError::Malformed`] when the text is not a certificate.
    pub fn from_json(text: &str) -> Result<Self, CertError> {
        serde_json::from_str(text)
            .map_err(|e| CertError::Malformed(format!("not a certificate: {e}")))
    }

    /// Re-derive the verdict from the certificate body alone and check it
    /// against the claim.  See the module docs for why the algorithms here
    /// deliberately differ from the prover's.
    ///
    /// # Errors
    /// The first [`CertError`] found; `Ok(())` means the certificate is
    /// structurally sound and its verdict is reproducible.
    pub fn verify(&self) -> Result<(), CertError> {
        if self.version != CERT_VERSION {
            return Err(CertError::Malformed(format!(
                "version {} (verifier understands {CERT_VERSION})",
                self.version
            )));
        }
        for (i, m) in self.multicasts.iter().enumerate() {
            if !m.participants.contains(&m.src) {
                return Err(CertError::Malformed(format!(
                    "member {i}: src {} not among its participants",
                    m.src
                )));
            }
            if m.active_from > m.active_until || m.active_from != m.start {
                return Err(CertError::Malformed(format!(
                    "member {i}: activity envelope [{}, {}) inconsistent with start {}",
                    m.active_from, m.active_until, m.start
                )));
            }
        }
        for w in &self.windows {
            if w.mcast >= self.multicasts.len() {
                return Err(CertError::Malformed(format!(
                    "window references member {} of {}",
                    w.mcast,
                    self.multicasts.len()
                )));
            }
            if w.acquire > w.release {
                return Err(CertError::Malformed(format!(
                    "inverted window [{}, {}) on ch{}",
                    w.acquire, w.release, w.channel
                )));
            }
            let m = &self.multicasts[w.mcast];
            if w.acquire < m.active_from || w.release > m.active_until {
                return Err(CertError::Malformed(format!(
                    "window [{}, {}) of member {} escapes its envelope [{}, {})",
                    w.acquire, w.release, w.mcast, m.active_from, m.active_until
                )));
            }
        }

        // Sweep-line occupancy check: within each channel, every interval
        // must start at or after the running maximum release.  Zero-length
        // intervals occupy nothing and are skipped.
        let mut sorted: Vec<&CertWindow> = self
            .windows
            .iter()
            .filter(|w| w.acquire < w.release)
            .collect();
        sorted.sort_by_key(|w| (w.channel, w.acquire, w.release));
        let mut overlap = None;
        let mut frontier: Option<(u32, Time, (usize, usize))> = None;
        for w in sorted {
            match frontier {
                Some((ch, max_release, owner)) if ch == w.channel => {
                    if w.acquire < max_release {
                        overlap = Some(CertError::Overlap {
                            channel: ch,
                            earlier: owner,
                            later: (w.mcast, w.send),
                            at: w.acquire,
                        });
                        break;
                    }
                    if w.release > max_release {
                        frontier = Some((ch, w.release, (w.mcast, w.send)));
                    }
                }
                _ => frontier = Some((w.channel, w.release, (w.mcast, w.send))),
            }
        }

        // Independence check over the recorded envelopes and participants.
        let mut dependent = None;
        'outer: for a in 0..self.multicasts.len() {
            for b in (a + 1)..self.multicasts.len() {
                let (ma, mb) = (&self.multicasts[a], &self.multicasts[b]);
                if ma.active_from >= mb.active_until || mb.active_from >= ma.active_until {
                    continue;
                }
                if let Some(&node) = ma.participants.iter().find(|n| mb.participants.contains(n)) {
                    dependent = Some(CertError::DependentMembers {
                        members: (a, b),
                        node,
                    });
                    break 'outer;
                }
            }
        }

        let derived = overlap.is_none() && dependent.is_none();
        if self.clean != derived {
            if let Some(e) = overlap {
                return Err(e);
            }
            if let Some(e) = dependent {
                return Err(e);
            }
            return Err(CertError::VerdictMismatch {
                claimed: self.clean,
                derived,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedset::analyze_set;
    use flitsim::SimConfig;
    use optmc::{random_placement, Algorithm, McastSpec};
    use topo::Mesh;

    fn det_cfg() -> SimConfig {
        let mut cfg = SimConfig::paragon_like();
        cfg.adaptive = false;
        cfg
    }

    fn certified_set(gap: Time, seed: u64) -> (ScheduleSet, PlanCertificate) {
        let m = Mesh::new(&[16, 16]);
        let pool = random_placement(256, 32, seed);
        let specs = pool
            .chunks(8)
            .enumerate()
            .map(|(i, c)| McastSpec {
                participants: c.to_vec(),
                src: c[0],
                bytes: 2048,
                start: i as Time * gap,
            })
            .collect();
        let set = ScheduleSet {
            specs,
            algorithm: Algorithm::OptArch,
        };
        let analysis = analyze_set(&m, &det_cfg(), &set).unwrap();
        let cert = PlanCertificate::from_analysis(&m, &set, &analysis);
        (set, cert)
    }

    #[test]
    fn clean_certificate_verifies_and_round_trips() {
        let (_, cert) = certified_set(1_000_000, 7);
        assert!(cert.clean);
        cert.verify().expect("prover-clean certificate must verify");
        let back = PlanCertificate::from_json(&cert.to_json()).unwrap();
        assert_eq!(back, cert);
        back.verify().unwrap();
    }

    #[test]
    fn compact_writer_matches_the_serde_render() {
        let written = |cert: &PlanCertificate| {
            let mut out = String::new();
            cert.write_json_compact(&mut out);
            out
        };
        for (gap, seed) in [(1_000_000, 7), (0, 3)] {
            let (_, cert) = certified_set(gap, seed);
            assert_eq!(written(&cert), serde_json::to_string(&cert).unwrap());
        }
        let mut odd = certified_set(1_000_000, 7).1;
        odd.target = "q\"b\\s\u{1}\n\té✓".into();
        odd.multicasts[0].bytes = u64::MAX;
        odd.windows[0].release = 0;
        odd.windows.truncate(1);
        odd.multicasts.truncate(1);
        assert_eq!(written(&odd), serde_json::to_string(&odd).unwrap());
        odd.windows.clear();
        odd.multicasts.clear();
        assert_eq!(written(&odd), serde_json::to_string(&odd).unwrap());
    }

    #[test]
    fn dirty_certificate_still_verifies_as_consistent() {
        // A simultaneous batch that conflicts: the certificate records
        // clean=false and the verifier re-derives the same verdict.
        for seed in 0..8u64 {
            let (_, cert) = certified_set(0, seed);
            cert.verify()
                .expect("prover verdict must always be reproducible");
            if !cert.clean {
                return;
            }
        }
        panic!("no simultaneous batch produced a dirty certificate");
    }

    #[test]
    fn forged_clean_claim_is_caught() {
        for seed in 0..8u64 {
            let (_, mut cert) = certified_set(0, seed);
            if !cert.clean {
                cert.clean = true; // forge the verdict
                let err = cert.verify().unwrap_err();
                assert!(
                    matches!(
                        err,
                        CertError::Overlap { .. } | CertError::DependentMembers { .. }
                    ),
                    "{err}"
                );
                return;
            }
        }
        panic!("no dirty certificate to forge");
    }

    #[test]
    fn tampered_window_is_caught() {
        let (_, mut cert) = certified_set(1_000_000, 7);
        // Stretch one window over its neighbor's: the sweep must see it.
        let w0 = cert.windows[0];
        cert.windows.push(CertWindow {
            mcast: w0.mcast,
            send: w0.send + 1,
            channel: w0.channel,
            acquire: w0.acquire,
            release: w0.release + 1,
        });
        let err = cert.verify().unwrap_err();
        assert!(
            matches!(err, CertError::Overlap { .. } | CertError::Malformed(_)),
            "{err}"
        );
    }

    #[test]
    fn structural_damage_is_malformed() {
        let (_, base) = certified_set(1_000_000, 7);

        let mut cert = base.clone();
        cert.version = 99;
        assert!(matches!(cert.verify(), Err(CertError::Malformed(_))));

        let mut cert = base.clone();
        cert.windows[0].mcast = 999;
        assert!(matches!(cert.verify(), Err(CertError::Malformed(_))));

        let mut cert = base.clone();
        let w = &mut cert.windows[0];
        (w.acquire, w.release) = (w.release + 10, w.acquire);
        assert!(matches!(cert.verify(), Err(CertError::Malformed(_))));

        let mut cert = base.clone();
        cert.multicasts[0].src = 9999; // src no longer a participant
        assert!(matches!(cert.verify(), Err(CertError::Malformed(_))));

        assert!(matches!(
            PlanCertificate::from_json("{not json"),
            Err(CertError::Malformed(_))
        ));
    }

    #[test]
    fn zero_length_windows_are_tolerated() {
        let (_, mut cert) = certified_set(1_000_000, 7);
        let w0 = cert.windows[0];
        cert.windows.push(CertWindow {
            mcast: w0.mcast,
            send: w0.send,
            channel: w0.channel,
            acquire: w0.acquire,
            release: w0.acquire, // empty: occupies nothing
        });
        cert.verify()
            .expect("zero-length window must not trip the sweep");
    }
}
