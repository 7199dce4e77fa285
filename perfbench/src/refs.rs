//! Recorded reference outputs.
//!
//! `perfbench/references.txt` holds one digest per workload input at
//! [`crate::REFERENCE_SEED`]; `results/fig2.csv` and `results/fig3.csv`
//! (committed, reproduced by `optmc sweep`) and `perfbench/ref/fig4a.csv`
//! and `fig4b.csv` (recorded here, because the committed
//! `results/fig4a.csv` and `fig4b.csv` are stale) are the figure
//! references.

use std::collections::HashMap;
use std::path::Path;

/// Figure ids and where their reference CSV lives, relative to the root.
pub const FIGURES: [(&str, &str); 4] = [
    ("fig2", "results/fig2.csv"),
    ("fig3", "results/fig3.csv"),
    ("fig4a", "perfbench/ref/fig4a.csv"),
    ("fig4b", "perfbench/ref/fig4b.csv"),
];

/// Reference digests and figure CSVs.
#[derive(Debug, Clone, Default)]
pub struct Refs {
    digests: HashMap<(String, String), u64>,
    figures: HashMap<String, String>,
}

impl Refs {
    /// Load `perfbench/references.txt` and the figure CSVs under `root`.
    ///
    /// # Errors
    /// When a file is missing or a line is malformed.
    pub fn load(root: &Path) -> Result<Refs, String> {
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
        };
        let mut refs = Refs::default();
        for (n, line) in read("perfbench/references.txt")?.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(' ').collect();
            let [workload, id, hex] = fields.as_slice() else {
                return Err(format!("references.txt:{}: expected 3 fields", n + 1));
            };
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("references.txt:{}: {e}", n + 1))?;
            refs.set_digest(workload, id, digest);
        }
        for (id, rel) in FIGURES {
            refs.figures.insert(id.to_string(), read(rel)?);
        }
        Ok(refs)
    }

    /// The digest recorded for `workload`'s input `id`.
    #[must_use]
    pub fn digest(&self, workload: &str, id: &str) -> Option<u64> {
        self.digests
            .get(&(workload.to_string(), id.to_string()))
            .copied()
    }

    /// Set (or replace) one digest.
    pub fn set_digest(&mut self, workload: &str, id: &str, digest: u64) {
        self.digests
            .insert((workload.to_string(), id.to_string()), digest);
    }

    /// The reference CSV of figure `id`.
    #[must_use]
    pub fn figure(&self, id: &str) -> Option<&str> {
        self.figures.get(id).map(String::as_str)
    }

    /// Set (or replace) one figure's reference CSV.
    pub fn set_figure(&mut self, id: &str, csv: String) {
        self.figures.insert(id.to_string(), csv);
    }
}
