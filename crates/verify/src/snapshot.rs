//! Tolerance-aware golden-snapshot checking for `results/*.csv`.
//!
//! The checked-in `results/*.csv` files are the golden record of every
//! figure and table the paper reproduction produces. [`run`] replays the
//! experiments in-process (via [`hotiron_bench::registry`]), renders each
//! artifact to CSV, and diffs it cell-by-cell against the committed golden
//! with per-column tolerances — replacing the old eyeball-and-commit flow.
//! `--bless` rewrites the goldens from the fresh run once a drift is
//! understood and intended.
//!
//! Comparison rules:
//!
//! * `# key = value` metadata lines are compared loosely: changes are
//!   reported as notes naming the changed keys, never failures (iteration
//!   counts and provenance may legitimately move under solver work). Host
//!   and timing keys (`threads`, `*.threads`, `*_seconds`) are not compared
//!   at all: they differ between machines on an unchanged tree.
//! * Labels, headers and shapes must match exactly.
//! * Numeric cells must satisfy `|candidate − golden| ≤ abs + rel·|golden|`
//!   with the per-column tolerances from [`tolerance_for`].

use crate::tol;
use hotiron_bench::registry;
use hotiron_bench::runner::{self, Artifact};
use hotiron_bench::Fidelity;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Absolute + relative tolerance for one column's cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute slack in the column's own units.
    pub abs: f64,
    /// Slack relative to the golden value's magnitude.
    pub rel: f64,
}

impl Tolerance {
    /// Whether `candidate` is within tolerance of `golden`.
    pub fn accepts(&self, golden: f64, candidate: f64) -> bool {
        (candidate - golden).abs() <= self.abs + self.rel * golden.abs()
    }
}

/// Per-column tolerance lookup. Defaults to
/// ([`tol::SNAPSHOT_ABS`], [`tol::SNAPSHOT_REL`]); add stem/column
/// overrides here when a column is legitimately noisier than the default.
pub fn tolerance_for(stem: &str, column: &str) -> Tolerance {
    let _ = (stem, column);
    Tolerance { abs: tol::SNAPSHOT_ABS, rel: tol::SNAPSHOT_REL }
}

/// One parsed CSV: optional `#` metadata, optional header, labeled numeric
/// rows (or unlabeled rows for raw grid files).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCsv {
    /// `# key = value` lines, in order.
    pub meta: Vec<(String, String)>,
    /// Header cells (label header first), when the file has one.
    pub header: Option<Vec<String>>,
    /// Row labels ("" for headerless grid files).
    pub labels: Vec<String>,
    /// Numeric cells per row.
    pub rows: Vec<Vec<f64>>,
}

/// Parses a results CSV (table-shaped or raw numeric grid).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_csv(text: &str) -> Result<ParsedCsv, String> {
    let mut meta = Vec::new();
    let mut lines = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix('#') {
            let (k, v) = rest.split_once('=').unwrap_or((rest, ""));
            meta.push((k.trim().to_owned(), v.trim().to_owned()));
        } else if !line.trim().is_empty() {
            lines.push(line);
        }
    }
    let Some(first) = lines.first() else {
        return Ok(ParsedCsv { meta, header: None, labels: Vec::new(), rows: Vec::new() });
    };
    // Headerless raw grid: every field of the first line is numeric.
    let headerless = split_fields(first).iter().all(|f| f.parse::<f64>().is_ok());
    let (header, body) =
        if headerless { (None, &lines[..]) } else { (Some(split_fields(first)), &lines[1..]) };
    let mut labels = Vec::with_capacity(body.len());
    let mut rows = Vec::with_capacity(body.len());
    for (n, line) in body.iter().enumerate() {
        let fields = split_fields(line);
        let (label, nums) = if header.is_some() {
            (fields[0].clone(), &fields[1..])
        } else {
            (String::new(), &fields[..])
        };
        let mut row = Vec::with_capacity(nums.len());
        for f in nums {
            row.push(
                f.parse::<f64>()
                    .map_err(|_| format!("non-numeric cell `{f}` in data row {}", n + 1))?,
            );
        }
        labels.push(label);
        rows.push(row);
    }
    Ok(ParsedCsv { meta, header, labels, rows })
}

/// Splits one CSV line honoring double-quoted fields with doubled quotes.
fn split_fields(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(ch) = chars.next() {
        match ch {
            '"' if quoted && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => quoted = !quoted,
            ',' if !quoted => out.push(std::mem::take(&mut cur)),
            _ => cur.push(ch),
        }
    }
    out.push(cur);
    out
}

/// Worst observed drift in one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDrift {
    /// Column name ("cells" for raw grids).
    pub column: String,
    /// Largest absolute deviation.
    pub worst_abs: f64,
    /// Largest relative deviation.
    pub worst_rel: f64,
    /// Label of the row holding the worst absolute deviation.
    pub at_row: String,
    /// All cells within tolerance.
    pub ok: bool,
}

/// Outcome of diffing one stem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every cell within tolerance.
    Match,
    /// At least one cell outside tolerance.
    Drift,
    /// Headers, labels or shape changed.
    ShapeChanged,
    /// No golden file to compare against.
    MissingGolden,
    /// The experiment itself failed to run.
    ExperimentFailed,
}

/// Full drift report for one `results/<stem>.csv`.
#[derive(Debug, Clone, PartialEq)]
pub struct StemReport {
    /// File stem (e.g. `fig11`).
    pub stem: String,
    /// Overall outcome.
    pub verdict: Verdict,
    /// Per-column drift, when comparable.
    pub columns: Vec<ColumnDrift>,
    /// Informational notes (metadata changes, shape details).
    pub notes: Vec<String>,
}

impl StemReport {
    fn failed(stem: &str, verdict: Verdict, note: String) -> Self {
        Self { stem: stem.to_owned(), verdict, columns: Vec::new(), notes: vec![note] }
    }

    /// Whether this stem passes the gate.
    pub fn ok(&self) -> bool {
        self.verdict == Verdict::Match
    }
}

/// Whether a metadata key describes the machine or the run rather than the
/// result: worker-thread counts and wall times differ between hosts, so
/// they are left out of the metadata comparison.
fn is_host_key(key: &str) -> bool {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    leaf == "threads" || leaf.ends_with("_seconds")
}

/// Metadata keys whose value differs between golden and candidate, or that
/// only one side has, in first-seen order; host keys are skipped.
fn changed_meta_keys(golden: &[(String, String)], cand: &[(String, String)]) -> Vec<String> {
    let value = |meta: &[(String, String)], key: &str| {
        meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let mut changed: Vec<String> = Vec::new();
    for (key, _) in golden.iter().chain(cand) {
        if !is_host_key(key) && !changed.contains(key) && value(golden, key) != value(cand, key) {
            changed.push(key.clone());
        }
    }
    changed
}

/// Diffs a candidate CSV against its golden text.
pub fn diff_csv(stem: &str, golden_text: &str, candidate_text: &str) -> StemReport {
    let golden = match parse_csv(golden_text) {
        Ok(p) => p,
        Err(e) => {
            return StemReport::failed(stem, Verdict::ShapeChanged, format!("golden: {e}"));
        }
    };
    let cand = match parse_csv(candidate_text) {
        Ok(p) => p,
        Err(e) => {
            return StemReport::failed(stem, Verdict::ShapeChanged, format!("candidate: {e}"));
        }
    };

    let mut notes = Vec::new();
    let changed = changed_meta_keys(&golden.meta, &cand.meta);
    if !changed.is_empty() {
        notes.push(format!("metadata changed ({}) — informational only", changed.join(", ")));
    }
    if golden.header != cand.header {
        return StemReport::failed(stem, Verdict::ShapeChanged, "column headers changed".into());
    }
    if golden.labels != cand.labels {
        return StemReport::failed(stem, Verdict::ShapeChanged, "row labels changed".into());
    }
    if golden.rows.len() != cand.rows.len()
        || golden.rows.iter().zip(&cand.rows).any(|(a, b)| a.len() != b.len())
    {
        return StemReport::failed(stem, Verdict::ShapeChanged, "row shape changed".into());
    }

    let columns_names: Vec<String> = match &golden.header {
        Some(h) => h[1..].to_vec(),
        None => vec!["cells".to_owned()],
    };
    let ncols = golden.rows.first().map_or(0, Vec::len);
    let mut columns = Vec::new();
    for j in 0..ncols {
        // Raw grids fold every cell into one logical "cells" column.
        let name = columns_names.get(j).unwrap_or(&columns_names[0]).clone();
        let tolerance = tolerance_for(stem, &name);
        let (mut worst_abs, mut worst_rel, mut at_row, mut ok) =
            (0.0f64, 0.0f64, String::new(), true);
        for (i, (g_row, c_row)) in golden.rows.iter().zip(&cand.rows).enumerate() {
            let (g, c) = (g_row[j], c_row[j]);
            let abs = (c - g).abs();
            if abs > worst_abs {
                worst_abs = abs;
                at_row = golden.labels[i].clone();
            }
            worst_rel = worst_rel.max(abs / g.abs().max(f64::MIN_POSITIVE));
            ok &= tolerance.accepts(g, c);
        }
        if let Some(existing) = columns.iter_mut().find(|c: &&mut ColumnDrift| c.column == name) {
            // Raw grids: merge per-physical-column stats into one entry.
            if worst_abs > existing.worst_abs {
                existing.worst_abs = worst_abs;
                existing.at_row = at_row;
            }
            existing.worst_rel = existing.worst_rel.max(worst_rel);
            existing.ok &= ok;
        } else {
            columns.push(ColumnDrift { column: name, worst_abs, worst_rel, at_row, ok });
        }
    }
    let verdict = if columns.iter().all(|c| c.ok) { Verdict::Match } else { Verdict::Drift };
    StemReport { stem: stem.to_owned(), verdict, columns, notes }
}

/// Options for a snapshot run.
#[derive(Debug, Clone)]
pub struct SnapshotOptions {
    /// Directory holding the golden CSVs (normally `results/`).
    pub results_dir: PathBuf,
    /// Experiments to replay (defaults to all of them).
    pub experiments: Vec<String>,
    /// Fidelity to replay at. The committed goldens are paper-fidelity, so
    /// only [`Fidelity::Paper`] candidates are comparable to them.
    pub fidelity: Fidelity,
    /// Rewrite the goldens from this run instead of failing on drift.
    pub bless: bool,
}

impl Default for SnapshotOptions {
    fn default() -> Self {
        Self {
            results_dir: PathBuf::from("results"),
            experiments: registry::EXPERIMENTS.iter().map(|s| (*s).to_owned()).collect(),
            fidelity: Fidelity::Paper,
            bless: false,
        }
    }
}

/// Summary of a snapshot run.
#[derive(Debug)]
pub struct SnapshotSummary {
    /// One report per produced file stem, in experiment order.
    pub reports: Vec<StemReport>,
    /// Whether this run rewrote the goldens.
    pub blessed: bool,
}

impl SnapshotSummary {
    /// Number of failing stems.
    pub fn failures(&self) -> usize {
        self.reports.iter().filter(|r| !r.ok()).count()
    }

    /// Aligned console drift table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Snapshot drift (candidate vs golden) ==");
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:>12} {:>12}  worst column @ row",
            "stem", "verdict", "worst abs", "worst rel"
        );
        for r in &self.reports {
            let (abs, rel, at) = worst_of(r);
            let _ = writeln!(
                out,
                "{:<14} {:<10} {:>12.3e} {:>12.3e}  {}",
                r.stem,
                verdict_label(r.verdict),
                abs,
                rel,
                at
            );
            for n in &r.notes {
                let _ = writeln!(out, "    note: {n}");
            }
        }
        let _ = writeln!(
            out,
            "{} stems checked, {} failing{}",
            self.reports.len(),
            self.failures(),
            if self.blessed { " (goldens re-blessed)" } else { "" }
        );
        out
    }

    /// GitHub-flavored markdown drift table for `GITHUB_STEP_SUMMARY`.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### Snapshot drift — `results/*.csv` vs regenerated\n");
        let _ = writeln!(out, "| stem | verdict | worst abs | worst rel | worst column @ row |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for r in &self.reports {
            let (abs, rel, at) = worst_of(r);
            let _ = writeln!(
                out,
                "| {} | {} | {:.3e} | {:.3e} | {} |",
                r.stem,
                verdict_label(r.verdict),
                abs,
                rel,
                at
            );
        }
        let _ = writeln!(
            out,
            "\n{} stems checked, **{} failing**",
            self.reports.len(),
            self.failures()
        );
        out
    }
}

fn verdict_label(v: Verdict) -> &'static str {
    match v {
        Verdict::Match => "match",
        Verdict::Drift => "DRIFT",
        Verdict::ShapeChanged => "SHAPE",
        Verdict::MissingGolden => "NO-GOLDEN",
        Verdict::ExperimentFailed => "FAILED",
    }
}

fn worst_of(r: &StemReport) -> (f64, f64, String) {
    let mut worst = (0.0f64, 0.0f64, "-".to_owned());
    for c in &r.columns {
        if c.worst_abs >= worst.0 {
            worst = (
                c.worst_abs,
                c.worst_rel,
                format!("{} @ {}", c.column, if c.at_row.is_empty() { "-" } else { &c.at_row }),
            );
        }
    }
    worst
}

/// Replays the selected experiments and diffs every artifact against the
/// goldens in `opts.results_dir`.
///
/// # Errors
///
/// Propagates I/O failures reading or (when blessing) writing goldens.
pub fn run(opts: &SnapshotOptions) -> std::io::Result<SnapshotSummary> {
    let results = runner::run_experiments(&opts.experiments, |name| {
        registry::run_experiment(name, opts.fidelity)
    });
    let mut reports = Vec::new();
    for r in &results {
        match &r.outcome {
            Err(msg) => reports.push(StemReport::failed(
                &r.name,
                Verdict::ExperimentFailed,
                msg.lines().next().unwrap_or("panic").to_owned(),
            )),
            Ok(artifacts) => {
                for (stem, artifact) in artifacts {
                    let candidate = match artifact {
                        Artifact::Table(t) => t.to_csv(),
                        Artifact::RawCsv(csv) => csv.clone(),
                    };
                    let golden_path = opts.results_dir.join(format!("{stem}.csv"));
                    if opts.bless {
                        std::fs::create_dir_all(&opts.results_dir)?;
                        std::fs::write(&golden_path, &candidate)?;
                    }
                    let report = match std::fs::read_to_string(&golden_path) {
                        Ok(golden) if !opts.bless => diff_csv(stem, &golden, &candidate),
                        Ok(_) => diff_csv(stem, &candidate, &candidate),
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => StemReport::failed(
                            stem,
                            Verdict::MissingGolden,
                            format!("no golden at {}", golden_path.display()),
                        ),
                        Err(e) => return Err(e),
                    };
                    reports.push(report);
                }
            }
        }
    }
    Ok(SnapshotSummary { reports, blessed: opts.bless })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "# experiment = demo\nunit,a,b\nx,1.5,2\n\"y,z\",3.25,-4\n";

    #[test]
    fn parses_meta_header_and_quoted_labels() {
        let p = parse_csv(TABLE).expect("parses");
        assert_eq!(p.meta, vec![("experiment".into(), "demo".into())]);
        assert_eq!(p.header.as_deref(), Some(&["unit".into(), "a".into(), "b".into()][..]));
        assert_eq!(p.labels, vec!["x", "y,z"]);
        assert_eq!(p.rows, vec![vec![1.5, 2.0], vec![3.25, -4.0]]);
    }

    #[test]
    fn parses_headerless_grid() {
        let p = parse_csv("1.0,2.0\n3.0,4.0\n").expect("parses");
        assert!(p.header.is_none());
        assert_eq!(p.rows.len(), 2);
    }

    #[test]
    fn identical_files_match() {
        let r = diff_csv("demo", TABLE, TABLE);
        assert_eq!(r.verdict, Verdict::Match);
        assert!(r.columns.iter().all(|c| c.worst_abs == 0.0));
    }

    #[test]
    fn corrupted_value_beyond_tolerance_drifts() {
        let corrupted = TABLE.replace("3.25", "3.35");
        let r = diff_csv("demo", TABLE, &corrupted);
        assert_eq!(r.verdict, Verdict::Drift);
        let col = r.columns.iter().find(|c| c.column == "a").expect("column a");
        assert!(!col.ok);
        assert!((col.worst_abs - 0.1).abs() < 1e-12);
        assert_eq!(col.at_row, "y,z");
    }

    #[test]
    fn drift_within_tolerance_matches() {
        let nudged = TABLE.replace("3.25", "3.2500000001");
        assert_eq!(diff_csv("demo", TABLE, &nudged).verdict, Verdict::Match);
    }

    #[test]
    fn metadata_changes_are_notes_not_failures() {
        let cand = TABLE.replace("demo", "demo2");
        let r = diff_csv("demo", TABLE, &cand);
        assert_eq!(r.verdict, Verdict::Match);
        assert!(r.notes.iter().any(|n| n.contains("metadata")));
    }

    #[test]
    fn host_metadata_is_not_compared_and_changed_keys_are_named() {
        let golden = "# threads = 1\n# air.threads = 1\n# air.factor_seconds = 0.25\n\
                      # air.factor_nnz = 161328\n# oil.solver = ldlt\nunit,a\nx,1\n";
        let other_host = golden
            .replace("# threads = 1", "# threads = 2")
            .replace("air.threads = 1", "air.threads = 2")
            .replace("0.25", "0.5");
        let r = diff_csv("demo", golden, &other_host);
        assert_eq!(r.verdict, Verdict::Match);
        assert!(r.notes.is_empty(), "host keys are not compared: {:?}", r.notes);

        let drifted = other_host.replace("161328", "980874").replace("# oil.solver = ldlt\n", "");
        let r = diff_csv("demo", golden, &drifted);
        assert_eq!(r.verdict, Verdict::Match);
        assert_eq!(
            r.notes,
            ["metadata changed (air.factor_nnz, oil.solver) — informational only"],
            "only the result keys are named"
        );
    }

    #[test]
    fn shape_changes_fail() {
        let cand = TABLE.replace("x,1.5,2\n", "");
        assert_eq!(diff_csv("demo", TABLE, &cand).verdict, Verdict::ShapeChanged);
        let relabeled = TABLE.replace("x,", "w,");
        assert_eq!(diff_csv("demo", TABLE, &relabeled).verdict, Verdict::ShapeChanged);
    }

    #[test]
    fn summary_renders_both_forms() {
        let corrupted = TABLE.replace("2\n", "9\n");
        let summary = SnapshotSummary {
            reports: vec![diff_csv("good", TABLE, TABLE), diff_csv("bad", TABLE, &corrupted)],
            blessed: false,
        };
        assert_eq!(summary.failures(), 1);
        let console = summary.render();
        assert!(console.contains("good") && console.contains("DRIFT"), "{console}");
        let md = summary.render_markdown();
        assert!(md.contains("| bad | DRIFT |"), "{md}");
    }
}
