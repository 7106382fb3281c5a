//! Plain-text table rendering, CSV output and the `BENCH_*.json`
//! artifact writer for the figure harness.

use crate::json::{self, Value};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A simple column-aligned table that can also be saved as CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "── {} ", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes the table as CSV to `dir/<name>.csv`.
    pub fn save_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }
}

/// The measuring host: what a reader needs to judge whether two
/// artifacts are comparable. `git_rev` is `"unknown"` outside a checkout.
pub fn host() -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel = spnet_core::PARALLEL_ENABLED;
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok());
    Value::obj([
        ("cores", cores.into()),
        ("threads", if parallel { cores } else { 1 }.into()),
        ("parallel", parallel.into()),
        (
            "rsa_bits",
            spnet_core::owner::SetupConfig::default().rsa_bits.into(),
        ),
        (
            "git_rev",
            rev.as_deref().map_or("unknown", str::trim).into(),
        ),
    ])
}

/// The tail of every `figures` experiment that commits an artifact:
/// prints the tables, stamps `record` with [`host`] after its schema
/// tag, and writes it to `BENCH_<name>.json` in the current directory.
pub fn publish(
    name: &str,
    mut record: Value,
    tables: Vec<(String, Table)>,
) -> Vec<(String, Table)> {
    for (_, t) in &tables {
        t.print();
    }
    if let Value::Obj(fields) = &mut record {
        fields.insert(1.min(fields.len()), ("host".into(), host()));
    }
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, json::write(&record)) {
        Ok(()) => eprintln!("[{name}] wrote {path}"),
        Err(e) => eprintln!("[{name}] could not write {path}: {e}"),
    }
    tables
}

/// Formats a float with sensible precision for table cells.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["method", "KB"]);
        t.row(vec!["DIJ".into(), "728".into()]);
        t.row(vec!["FULL".into(), "1.9".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("DIJ"));
        assert_eq!(s.lines().count(), 3 + 2);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("spnet_bench_test");
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.save_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1234.5), "1234");
        assert_eq!(fmt_f(56.78), "56.8");
        assert_eq!(fmt_f(1.2345), "1.234");
    }
}
