//! `paper_figures`: the path `optmc sweep run` takes for Figs 2–4.  One
//! op is one `campaign::pool::run_cell` — topology and route table
//! rebuilt per cell, then 16 placements simulated — over the cells of
//! `specs/fig2.json`, `specs/fig3.json` and the same grids on `bmin:128`
//! (`perfbench/specs/fig4{a,b}.json`): 105 cells per pass.  The op that
//! completes a figure's cells also aggregates them through
//! `campaign::figure_from_records`.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use campaign::pool::run_cell;
use campaign::{expand, figure_from_records, CampaignSpec, Cell, CellRecord, Figure};
use optmc::Algorithm;

use super::check_ref;
use crate::decomposed;
use crate::output::{digest, Output};
use crate::refs::{Refs, FIGURES};
use crate::trace::Tracer;
use crate::Workload;

const NAME: &str = "paper_figures";
const SPECS: [&str; 4] = [
    "specs/fig2.json",
    "specs/fig3.json",
    "perfbench/specs/fig4a.json",
    "perfbench/specs/fig4b.json",
];

/// `Figure::write_csv` writes under the working directory; rendering
/// changes into a scratch directory, one run at a time.
static CWD: Mutex<()> = Mutex::new(());

/// One pass's records and the figures aggregated from them.
#[derive(Default)]
struct Pass {
    records: Vec<Vec<CellRecord>>,
    figures: Vec<Option<Figure>>,
}

impl Pass {
    fn reset(&mut self, n_specs: usize) {
        self.records = vec![Vec::new(); n_specs];
        self.figures = vec![None; n_specs];
    }
}

pub(crate) struct PaperFigures {
    seed: u64,
    root: PathBuf,
    scratch: PathBuf,
    refs: Option<Refs>,
    specs: Vec<CampaignSpec>,
    /// Every cell of every spec, spec by spec, with its spec index.
    cells: Vec<(usize, Cell)>,
    plain: Pass,
    traced: Pass,
}

impl PaperFigures {
    pub(crate) fn new(seed: u64, root: &Path, out_dir: &Path, refs: Option<Refs>) -> Self {
        PaperFigures {
            seed,
            root: root.to_path_buf(),
            scratch: out_dir.join(format!("figures-{}", std::process::id())),
            refs,
            specs: Vec::new(),
            cells: Vec::new(),
            plain: Pass::default(),
            traced: Pass::default(),
        }
    }

    /// File the cell's outcomes and, when the cell completes its figure,
    /// aggregate the figure.
    fn file(
        &self,
        pass: &mut Pass,
        c: usize,
        outcomes: &[optmc::TrialOutcome],
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let (s, cell) = &self.cells[c];
        pass.records[*s].push(CellRecord {
            key: cell.key(),
            topo: cell.topo.clone(),
            algorithm: cell.algorithm.id().to_string(),
            k: cell.k,
            bytes: cell.bytes,
            trials: cell.trials,
            seed: cell.seed,
            outcomes: outcomes.to_vec(),
            wall_ms: 0,
        });
        let last_of_spec = self.cells.get(c + 1).is_none_or(|(next, _)| next != s);
        if last_of_spec {
            let records = std::mem::take(&mut pass.records[*s]);
            let fig = tr.span("campaign.aggregate", |_| {
                figure_from_records(&self.specs[*s], &records)
            })?;
            pass.figures[*s] = Some(fig);
        }
        Ok(())
    }

    /// Each figure's CSV as `Figure::write_csv` writes it.
    fn render_csvs(&self, figures: &[Option<Figure>]) -> Result<Vec<(String, String)>, String> {
        let _guard = CWD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let back = std::env::current_dir().map_err(|e| e.to_string())?;
        std::fs::create_dir_all(&self.scratch).map_err(|e| e.to_string())?;
        std::env::set_current_dir(&self.scratch).map_err(|e| e.to_string())?;
        let csvs = figures
            .iter()
            .flatten()
            .map(|f| {
                let path = f.write_csv().map_err(|e| e.to_string())?;
                let csv = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                Ok((f.id.clone(), csv))
            })
            .collect();
        std::env::set_current_dir(back).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&self.scratch);
        csvs
    }
}

impl Workload for PaperFigures {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let (specs, cells) = tr.span("campaign.spec", |_| {
            let mut specs = Vec::new();
            let mut cells = Vec::new();
            for (s, rel) in SPECS.iter().enumerate() {
                let mut spec = CampaignSpec::load(&self.root.join(rel))?;
                spec.seed = self.seed;
                cells.extend(expand(&spec).into_iter().map(|c| (s, c)));
                specs.push(spec);
            }
            Ok::<_, String>((specs, cells))
        })?;
        self.plain.reset(specs.len());
        self.traced.reset(specs.len());
        self.specs = specs;
        self.cells = cells;
        Ok(())
    }

    fn teardown(&mut self) {
        self.specs = Vec::new();
        self.cells = Vec::new();
        self.plain = Pass::default();
        self.traced = Pass::default();
    }

    fn cycle_len(&self) -> usize {
        self.cells.len()
    }

    fn op(&mut self, i: u64) -> Result<Output, String> {
        let c = i as usize % self.cells.len();
        let outcomes = run_cell(&self.cells[c].1)?;
        let mut pass = std::mem::take(&mut self.plain);
        let filed = self.file(&mut pass, c, &outcomes, &mut Tracer::new(false));
        self.plain = pass;
        filed?;
        Ok(Output::Cell(outcomes))
    }

    fn op_traced(&mut self, i: u64, tr: &mut Tracer) -> Result<Output, String> {
        let c = i as usize % self.cells.len();
        let outcomes = decomposed::run_cell(&self.cells[c].1, tr)?;
        let mut pass = std::mem::take(&mut self.traced);
        let filed = self.file(&mut pass, c, &outcomes, tr);
        self.traced = pass;
        filed?;
        Ok(Output::Cell(outcomes))
    }

    fn check(&self, i: u64, out: &Output) -> Result<(), String> {
        let Output::Cell(trials) = out else {
            return Err("not a cell outcome".into());
        };
        let cell = &self.cells[i as usize % self.cells.len()].1;
        if trials.len() != cell.trials {
            return Err(format!("{} trials, want {}", trials.len(), cell.trials));
        }
        for (t, o) in trials.iter().enumerate() {
            if o.trial != t {
                return Err(format!("trial {t} is out of order"));
            }
            // Theorems 1 and 2: OPT-mesh and OPT-min never block.
            if cell.algorithm == Algorithm::OptArch && !o.contention_free {
                return Err(format!(
                    "{}: trial {t} blocked {} cycles",
                    cell.key(),
                    o.blocked
                ));
            }
        }
        check_ref(self.refs.as_ref(), NAME, &cell.key(), out)
    }

    fn finish(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.traced.figures.iter().all(Option::is_none)
            && self.traced.figures != self.plain.figures
        {
            failures.push("traced figures differ from the untraced ones".to_string());
        }
        let Some(refs) = &self.refs else {
            return failures;
        };
        match self.render_csvs(&self.plain.figures) {
            Err(e) => failures.push(format!("cannot render figure CSVs: {e}")),
            Ok(csvs) => {
                for (id, _) in FIGURES {
                    match csvs.iter().find(|(f, _)| f == id) {
                        None => failures.push(format!("{id}: no complete pass aggregated")),
                        Some((_, csv)) if Some(csv.as_str()) != refs.figure(id) => {
                            failures.push(format!("{id}: CSV differs from its reference"));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        failures
    }

    fn record(&mut self) -> Result<Vec<(String, u64)>, String> {
        let mut entries = Vec::new();
        for i in 0..self.cells.len() as u64 {
            let out = self.op(i)?;
            self.check(i, &out)?;
            entries.push((self.cells[i as usize].1.key(), digest(&out.canonical())));
        }
        // fig2/fig3 are the committed results; fig4a/fig4b are recorded.
        for (id, csv) in self.render_csvs(&self.plain.figures)? {
            if id.starts_with("fig4") {
                let path = self.root.join(format!("perfbench/ref/{id}.csv"));
                std::fs::write(&path, csv)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
        }
        Ok(entries)
    }
}
