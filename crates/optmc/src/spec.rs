//! Topology specification strings (`mesh:16x16`, `bmin:128`, …).
//!
//! Parsing lives here — below the CLI — so the `campaign` crate's
//! declarative sweeps, the `plansvc` planning engine, and every `optmc`
//! subcommand accept exactly the same grammar.  [`parse_spec`] produces a
//! structured [`TopoSpec`] (kind, dimensions, node count) for callers that
//! need to reason about the architecture without instantiating it — the
//! CLI's routing-discipline mapping, the planning service's request
//! validation — and [`TopoSpec::build`] / [`parse_topology`] turn one into
//! a boxed [`Topology`].

use topo::{Bmin, Mesh, Omega, Topology, Torus, UpPolicy};

/// The topology family a spec names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// `mesh:AxB[xC…][:ports]` — k-ary n-dimensional mesh.
    Mesh,
    /// `torus:AxB[xC…][:novc]` — wrap-around mesh (dateline VCs unless `novc`).
    Torus,
    /// `hypercube:D` — binary D-cube (a `2x2x…` mesh).
    Hypercube,
    /// `bmin:N` — bidirectional multistage interconnection network.
    Bmin,
    /// `omega:N` — unidirectional omega network.
    Omega,
}

/// A parsed topology spec, structured but not yet instantiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoSpec {
    /// The topology family.
    pub kind: SpecKind,
    /// Per-dimension extents for direct networks (hypercubes report
    /// `[2; D]`); empty for the indirect `bmin`/`omega` families.
    pub dims: Vec<usize>,
    /// Total endpoint count.
    pub nodes: usize,
    /// Injection/consumption ports per node (meshes only; 1 elsewhere).
    pub ports: usize,
    /// Torus without dateline virtual channels (deliberately
    /// deadlock-prone, for exercising `optmc check`).
    pub novc: bool,
}

/// The largest network a spec may name: 2^20 endpoints, counting every NI
/// port of a multi-port mesh (the cap `hypercube:D` has always enforced).
/// Larger specs would otherwise reach a constructor's assertion or exhaust
/// memory instead of getting an error.
const MAX_NODES: usize = 1 << 20;

/// Node count of a `dims` network with `ports` NI ports per node, or an
/// error when it overflows or exceeds [`MAX_NODES`].
fn node_count(spec: &str, dims: &[usize], ports: usize) -> Result<usize, String> {
    let nodes = dims.iter().try_fold(1usize, |n, &m| n.checked_mul(m));
    match nodes {
        Some(n) if n.checked_mul(ports).is_some_and(|e| e <= MAX_NODES) => Ok(n),
        _ => Err(format!(
            "topology '{spec}' is too large (over {MAX_NODES} nodes x ports)"
        )),
    }
}

fn parse_dims(kind: &str, arg: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = arg.split('x').map(str::parse).collect();
    let dims = dims.map_err(|_| format!("bad {kind} dimensions '{arg}'"))?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(format!("bad {kind} dimensions '{arg}'"));
    }
    Ok(dims)
}

/// Parse a topology spec string into its structured form.
///
/// Grammar: `mesh:AxB[xC…][:ports]`, `torus:AxB[xC…][:novc]`,
/// `hypercube:D`, `bmin:N`, `omega:N` (`N` a power of two).  Torus sides
/// are at least 2, and no spec may exceed 2^20 nodes × ports.
pub fn parse_spec(spec: &str) -> Result<TopoSpec, String> {
    let mut parts = spec.split(':');
    let kind = parts.next().unwrap_or_default();
    let arg = parts
        .next()
        .ok_or_else(|| format!("topology '{spec}' needs an argument"))?;
    let extra = parts.next();
    if parts.next().is_some() {
        return Err(format!("topology '{spec}' has trailing fields"));
    }
    match kind {
        "mesh" => {
            let dims = parse_dims(kind, arg)?;
            let ports = match extra {
                None => 1,
                Some(p) => {
                    let p: usize = p.parse().map_err(|_| format!("bad port count '{p}'"))?;
                    if p == 0 {
                        return Err("bad port count '0'".into());
                    }
                    p
                }
            };
            Ok(TopoSpec {
                kind: SpecKind::Mesh,
                nodes: node_count(spec, &dims, ports)?,
                dims,
                ports,
                novc: false,
            })
        }
        "torus" => {
            let dims = parse_dims(kind, arg)?;
            if dims.contains(&1) {
                return Err(format!(
                    "bad torus dimensions '{arg}' (sides must be at least 2)"
                ));
            }
            let novc = match extra {
                Some("novc") => true,
                None => false,
                Some(other) => return Err(format!("bad torus option '{other}' (only 'novc')")),
            };
            Ok(TopoSpec {
                kind: SpecKind::Torus,
                nodes: node_count(spec, &dims, 1)?,
                dims,
                ports: 1,
                novc,
            })
        }
        "hypercube" => {
            if extra.is_some() {
                return Err(format!("topology '{spec}' has trailing fields"));
            }
            let d: usize = arg
                .parse()
                .map_err(|_| format!("bad cube dimension '{arg}'"))?;
            if !(1..=20).contains(&d) {
                return Err(format!("cube dimension {d} out of range 1..=20"));
            }
            Ok(TopoSpec {
                kind: SpecKind::Hypercube,
                dims: vec![2; d],
                nodes: 1 << d,
                ports: 1,
                novc: false,
            })
        }
        "bmin" | "omega" => {
            if extra.is_some() {
                return Err(format!("topology '{spec}' has trailing fields"));
            }
            let n: usize = arg.parse().map_err(|_| format!("bad node count '{arg}'"))?;
            if !n.is_power_of_two() || n < 2 {
                return Err(format!(
                    "{kind} node count must be a power of two >= 2, got {n}"
                ));
            }
            if n > MAX_NODES {
                return Err(format!("{kind} node count {n} exceeds {MAX_NODES}"));
            }
            Ok(TopoSpec {
                kind: if kind == "bmin" {
                    SpecKind::Bmin
                } else {
                    SpecKind::Omega
                },
                dims: Vec::new(),
                nodes: n,
                ports: 1,
                novc: false,
            })
        }
        other => Err(format!(
            "unknown topology '{other}' (expected mesh / torus / hypercube / bmin / omega)"
        )),
    }
}

impl TopoSpec {
    /// Instantiate the topology this spec describes.
    #[must_use]
    pub fn build(&self) -> Box<dyn Topology> {
        match self.kind {
            SpecKind::Mesh => Box::new(Mesh::with_ports(&self.dims, self.ports)),
            SpecKind::Torus if self.novc => Box::new(Torus::unvirtualized(&self.dims)),
            SpecKind::Torus => Box::new(Torus::new(&self.dims)),
            SpecKind::Hypercube => Box::new(Mesh::hypercube(self.dims.len())),
            SpecKind::Bmin => Box::new(Bmin::new(self.nodes.trailing_zeros(), UpPolicy::Straight)),
            SpecKind::Omega => Box::new(Omega::new(self.nodes.trailing_zeros())),
        }
    }
}

/// Parse a topology spec into a boxed topology (see [`parse_spec`] for
/// the grammar).
pub fn parse_topology(spec: &str) -> Result<Box<dyn Topology>, String> {
    Ok(parse_spec(spec)?.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_topology_kind() {
        assert_eq!(parse_topology("mesh:4x4").unwrap().graph().n_nodes(), 16);
        assert_eq!(parse_topology("mesh:2x3x4").unwrap().graph().n_nodes(), 24);
        assert_eq!(parse_topology("mesh:4x4:2").unwrap().graph().ports(), 2);
        assert_eq!(parse_topology("hypercube:5").unwrap().graph().n_nodes(), 32);
        assert_eq!(parse_topology("bmin:128").unwrap().graph().n_nodes(), 128);
        assert_eq!(parse_topology("omega:64").unwrap().graph().n_nodes(), 64);
        assert_eq!(parse_topology("torus:4x4").unwrap().name(), "torus-4x4");
        assert_eq!(
            parse_topology("torus:4x4:novc").unwrap().name(),
            "torus-4x4-novc"
        );
    }

    #[test]
    fn structured_specs_report_shape() {
        let m = parse_spec("mesh:4x6").unwrap();
        assert_eq!((m.kind, m.nodes, m.ports), (SpecKind::Mesh, 24, 1));
        assert_eq!(m.dims, vec![4, 6]);
        let h = parse_spec("hypercube:3").unwrap();
        assert_eq!(h.dims, vec![2, 2, 2]);
        assert_eq!(h.nodes, 8);
        let b = parse_spec("bmin:128").unwrap();
        assert_eq!((b.kind, b.nodes), (SpecKind::Bmin, 128));
        assert!(b.dims.is_empty());
        let t = parse_spec("torus:8x8:novc").unwrap();
        assert!(t.novc);
        // build() matches the one-shot path.
        assert_eq!(
            t.build().name(),
            parse_topology("torus:8x8:novc").unwrap().name()
        );
    }

    #[test]
    fn rejects_bad_specs() {
        for bad in [
            "mesh",
            "mesh:0x4",
            "mesh:ax4",
            "mesh:4x4:0",
            "bmin:100",
            "omega:1",
            "ring:8",
            "bmin:",
            "bmin:64:x",
            "torus:4x4:vc9",
            "mesh:4x4:2:9",
            "hypercube:3:x",
            // Specs whose construction would panic or exhaust memory.
            "torus:1x4",
            "bmin:2097152",
            "omega:2097152",
            "mesh:2048x1024",
            "mesh:4294967296x4294967296",
            "mesh:1024x1024:2",
        ] {
            assert!(parse_topology(bad).is_err(), "{bad} should fail");
        }
        // The cap itself is accepted (parsed, not built).
        assert_eq!(parse_spec("mesh:1024x1024").unwrap().nodes, MAX_NODES);
    }
}
