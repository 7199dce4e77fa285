//! Declarative campaign specifications and their expansion into cells.
//!
//! A campaign is the paper's evaluation grid written down: topology spec
//! strings × algorithms × participant counts × message sizes, with a trial
//! count and base seed.  [`expand`] flattens the grid into
//! content-addressed [`Cell`]s; a cell's key is a function of its contents
//! only, so the same cell gets the same key (and, through
//! [`optmc::trial_seed`], the same placements) in any campaign that
//! contains it, in any enumeration order.

use serde::{de_err, DeError, Deserialize, Value};

use optmc::spec::parse_topology;
use optmc::Algorithm;

/// Which grid dimension a figure plots on its x axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XAxis {
    /// Message size sweep (Figure 2 layout): one `k`, many `sizes`.
    Bytes,
    /// Participant-count sweep (Figure 3 layout): one size, many `ks`.
    Nodes,
}

/// How aggregation maps the campaign grid into one `results/<id>.*` figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSpec {
    /// Figure id — the `results/<id>.csv|json` filename stem.
    pub id: String,
    /// Title printed above the table.
    pub title: String,
    /// The swept dimension.
    pub x_axis: XAxis,
    /// X-axis label (defaults to "msg bytes" / "nodes" per axis).
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
}

/// A declarative experiment campaign (JSON-loadable).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name — names the shard-store directory.
    pub name: String,
    /// Base seed for every cell's placement-seed chain (default 1997).
    pub seed: u64,
    /// Placements per cell (default 16, the paper's §5 protocol).
    pub trials: usize,
    /// Topology spec strings (`mesh:16x16`, `bmin:128`, …).
    pub topos: Vec<String>,
    /// Algorithms, in series/plot order.
    pub algorithms: Vec<Algorithm>,
    /// Participant counts.
    pub ks: Vec<usize>,
    /// Message sizes in bytes.
    pub sizes: Vec<u64>,
    /// Optional per-cell wall-clock budget in milliseconds.
    pub budget_ms: Option<u64>,
    /// Optional figure mapping for the aggregation pass.
    pub figure: Option<FigureSpec>,
}

fn opt_field<'v>(fields: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn str_field(fields: &[(String, Value)], name: &str) -> Result<String, DeError> {
    opt_field(fields, name)
        .ok_or_else(|| de_err(format!("missing field '{name}'")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| de_err(format!("field '{name}' must be a string")))
}

fn u64_field(fields: &[(String, Value)], name: &str, default: u64) -> Result<u64, DeError> {
    match opt_field(fields, name) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| de_err(format!("field '{name}' must be a non-negative integer"))),
    }
}

fn list_field<T, F>(fields: &[(String, Value)], name: &str, parse: F) -> Result<Vec<T>, DeError>
where
    F: Fn(&Value) -> Result<T, DeError>,
{
    let v = opt_field(fields, name).ok_or_else(|| de_err(format!("missing field '{name}'")))?;
    let items = v
        .as_array()
        .ok_or_else(|| de_err(format!("field '{name}' must be an array")))?;
    if items.is_empty() {
        return Err(de_err(format!("field '{name}' must not be empty")));
    }
    items.iter().map(parse).collect()
}

impl Deserialize for FigureSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| de_err("figure spec must be an object"))?;
        let x_axis = match str_field(fields, "x")?.as_str() {
            "bytes" => XAxis::Bytes,
            "nodes" => XAxis::Nodes,
            other => {
                return Err(de_err(format!(
                    "figure 'x' must be bytes|nodes, got '{other}'"
                )))
            }
        };
        let default_x = match x_axis {
            XAxis::Bytes => "msg bytes",
            XAxis::Nodes => "nodes",
        };
        Ok(FigureSpec {
            id: str_field(fields, "id")?,
            title: str_field(fields, "title")?,
            x_axis,
            x_label: match opt_field(fields, "x_label") {
                Some(v) => v
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| de_err("'x_label' must be a string"))?,
                None => default_x.to_string(),
            },
            y_label: match opt_field(fields, "y_label") {
                Some(v) => v
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| de_err("'y_label' must be a string"))?,
                None => "multicast latency (cycles)".to_string(),
            },
        })
    }
}

impl Deserialize for CampaignSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| de_err("campaign spec must be an object"))?;
        let as_str = |v: &Value| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| de_err("expected a string"))
        };
        let as_usize = |v: &Value| {
            v.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| de_err("expected a non-negative integer"))
        };
        let as_u64 = |v: &Value| {
            v.as_u64()
                .ok_or_else(|| de_err("expected a non-negative integer"))
        };
        Ok(CampaignSpec {
            name: str_field(fields, "name")?,
            seed: u64_field(fields, "seed", 1997)?,
            trials: u64_field(fields, "trials", 16)? as usize,
            topos: list_field(fields, "topos", as_str)?,
            algorithms: list_field(fields, "algorithms", |v| {
                Algorithm::parse(&as_str(v)?).map_err(DeError)
            })?,
            ks: list_field(fields, "ks", as_usize)?,
            sizes: list_field(fields, "sizes", as_u64)?,
            budget_ms: match opt_field(fields, "budget_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| de_err("'budget_ms' must be a non-negative integer"))?,
                ),
            },
            figure: match opt_field(fields, "figure") {
                None | Some(Value::Null) => None,
                Some(v) => Some(FigureSpec::from_value(v)?),
            },
        })
    }
}

impl CampaignSpec {
    /// Parse a campaign spec from JSON text.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let spec: CampaignSpec =
            serde_json::from_str(text).map_err(|e| format!("campaign spec: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Load a campaign spec from a JSON file.
    pub fn load(path: &std::path::Path) -> Result<CampaignSpec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }

    /// Check the grid is well-formed: every topology parses, every `k`
    /// fits every topology, the trial count is positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.contains(['/', '\\']) {
            return Err(format!("bad campaign name '{}'", self.name));
        }
        if self.trials == 0 {
            return Err("trials must be at least 1".into());
        }
        for t in &self.topos {
            let topo = parse_topology(t)?;
            let n = topo.graph().n_nodes();
            for &k in &self.ks {
                if k < 2 || k > n {
                    return Err(format!("k={k} out of range 2..={n} for topology {t}"));
                }
            }
        }
        Ok(())
    }
}

/// One point of the campaign grid, carrying everything needed to run it in
/// isolation (and to re-derive its placement seeds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Topology spec string.
    pub topo: String,
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Participant count.
    pub k: usize,
    /// Message bytes.
    pub bytes: u64,
    /// Placements to run.
    pub trials: usize,
    /// Campaign base seed.
    pub seed: u64,
    /// Always 1 and read by nothing; not part of [`Cell::key`].  Kept only
    /// because the benchmark under `perfbench/` still reads it; delete it
    /// once the benchmark stops.
    pub shards: usize,
}

impl Cell {
    /// The content-addressed cell key: injective over the grid via
    /// [`crate::key::compose`] (numeric fields are tagged so they cannot
    /// shadow each other), identical across campaigns and enumeration
    /// orders, and byte-stable across releases.
    pub fn key(&self) -> String {
        crate::key::compose([
            self.topo.clone(),
            self.algorithm.id().to_string(),
            format!("k{}", self.k),
            format!("b{}", self.bytes),
            format!("t{}", self.trials),
            format!("s{}", self.seed),
        ])
    }
}

/// Expand a validated spec into cells, in grid order
/// (topo → algorithm → k → bytes).
pub fn expand(spec: &CampaignSpec) -> Vec<Cell> {
    let mut cells = Vec::new();
    for topo in &spec.topos {
        for &algorithm in &spec.algorithms {
            for &k in &spec.ks {
                for &bytes in &spec.sizes {
                    cells.push(Cell {
                        topo: topo.clone(),
                        algorithm,
                        k,
                        bytes,
                        trials: spec.trials,
                        seed: spec.seed,
                        shards: 1,
                    });
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_json() -> &'static str {
        r#"{
            "name": "demo",
            "topos": ["mesh:8x8"],
            "algorithms": ["u-arch", "opt-arch"],
            "ks": [8],
            "sizes": [512, 4096],
            "trials": 2,
            "figure": {"id": "demo", "title": "demo fig", "x": "bytes"}
        }"#
    }

    #[test]
    fn spec_parses_with_defaults() {
        let s = CampaignSpec::from_json(demo_json()).unwrap();
        assert_eq!(s.seed, 1997, "default seed");
        assert_eq!(s.trials, 2);
        assert_eq!(s.algorithms, vec![Algorithm::UArch, Algorithm::OptArch]);
        let f = s.figure.unwrap();
        assert_eq!(f.x_axis, XAxis::Bytes);
        assert_eq!(f.x_label, "msg bytes", "default axis label");
        assert_eq!(f.y_label, "multicast latency (cycles)");
    }

    #[test]
    fn spec_rejects_bad_grids() {
        for (patch, what) in [
            (r#""topos": ["ring:9"]"#, "unknown topology"),
            (r#""ks": [100]"#, "k exceeding the machine"),
            (r#""trials": 0"#, "zero trials"),
            (r#""algorithms": ["magic"]"#, "unknown algorithm"),
            (r#""sizes": []"#, "empty sizes"),
        ] {
            let json = demo_json()
                .split('\n')
                .map(|line| {
                    let key = patch.split(':').next().unwrap();
                    if line.trim_start().starts_with(key) {
                        format!("{patch},")
                    } else {
                        line.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            assert!(CampaignSpec::from_json(&json).is_err(), "{what}: {json}");
        }
    }

    #[test]
    fn expansion_is_grid_ordered_and_keys_are_stable() {
        let s = CampaignSpec::from_json(demo_json()).unwrap();
        let cells = expand(&s);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].key(), "mesh:8x8|u-arch|k8|b512|t2|s1997");
        assert_eq!(cells[3].key(), "mesh:8x8|opt-arch|k8|b4096|t2|s1997");
        // Content addressing: the same cell in a differently-shaped
        // campaign has the same key.
        let mut other = s.clone();
        other.name = "other".into();
        other.algorithms.reverse();
        other.sizes.push(65536);
        let other_keys: Vec<String> = expand(&other).iter().map(Cell::key).collect();
        for c in &cells {
            assert!(other_keys.contains(&c.key()));
        }
    }
}
