//! Markdown tables and JSON result files for the experiment binaries.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use serde::Serialize;

/// A simple Markdown table builder.
///
/// # Examples
///
/// ```
/// let mut t = snia_bench::Table::new(vec!["size", "loss"]);
/// t.row(vec!["36".into(), "10.5".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| size | loss |"));
/// assert!(md.contains("| 36 | 10.5 |"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(s, "| {} |", r.join(" | "));
        }
        s
    }

    /// Prints the table to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n## {title}\n");
        print!("{}", self.to_markdown());
    }
}

static RESULTS_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Relocates `results/` for the rest of the process (`SNIA_RESULTS_DIR`,
/// applied by [`crate::start`]); only the first call counts.
pub(crate) fn set_results_dir(dir: PathBuf) {
    let _ = RESULTS_DIR.set(dir);
}

/// The `results/` directory (the workspace's, unless relocated by
/// `SNIA_RESULTS_DIR`), created if needed.
pub fn results_dir() -> PathBuf {
    let dir = RESULTS_DIR
        .get()
        .cloned()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// Serialises an experiment result to `results/<name>.json`.
///
/// # Panics
///
/// Panics if the file cannot be written (experiments should fail loudly).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialisable result");
    fs::write(&path, json).expect("cannot write result file");
    println!("\n[results written to {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        let md = t.to_markdown();
        assert_eq!(md.lines().count(), 4);
        assert!(md.lines().nth(1).unwrap().contains("---"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn write_json_creates_file() {
        // The only test that writes results, so relocating them for the
        // whole test process is safe.
        let dir = std::env::temp_dir().join(format!("snia_results_test_{}", std::process::id()));
        set_results_dir(dir.clone());
        write_json("unit_test", &serde_json::json!({"x": 1}));
        let p = dir.join("unit_test.json");
        assert_eq!(fs::read_to_string(&p).unwrap(), "{\n  \"x\": 1\n}");
        fs::remove_dir_all(dir).ok();
    }
}
