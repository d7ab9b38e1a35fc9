//! Text-table reports mirroring the paper's figures.

use fdip_telemetry::{Json, RunManifest, ToJson, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::fmt;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (e.g. "Fig. 7 — PFC vs BTB size").
    pub title: String,
    /// Column headers; the first column is the row label.
    pub columns: Vec<String>,
    /// Rows: label + one cell per remaining column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of cells (must match the column count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Convenience: formats `f64` cells with 2 decimals after a label.
    pub fn row_f(&mut self, label: &str, values: &[f64]) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.2}")));
        self.row(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

/// One experiment's output: tables for humans, metrics for tests and
/// `EXPERIMENTS.md`.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Experiment id (`fig7`, `tab3`, …).
    pub id: String,
    /// Human-readable tables.
    pub tables: Vec<Table>,
    /// Named scalar results (e.g. `fdp_speedup_pct`).
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Creates an empty report for an experiment id.
    pub fn new(id: &str) -> Self {
        Report {
            id: id.to_string(),
            ..Report::default()
        }
    }

    /// Records a named scalar metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Reads a named scalar metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

impl ToJson for Table {
    /// Serializes as `{title, columns, rows}` with rows as string
    /// arrays (cells keep their display formatting).
    fn to_json(&self) -> Json {
        Json::obj()
            .with("title", self.title.as_str())
            .with("columns", self.columns.clone())
            .with(
                "rows",
                Json::Arr(self.rows.iter().map(|r| Json::from(r.clone())).collect()),
            )
    }
}

impl ToJson for Report {
    /// Serializes as `{id, metrics, tables}`; `metrics` maps metric
    /// names to numbers, `tables` mirrors the printed tables.
    fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (k, v) in &self.metrics {
            metrics.set(k, *v);
        }
        Json::obj()
            .with("id", self.id.as_str())
            .with("metrics", metrics)
            .with(
                "tables",
                Json::Arr(self.tables.iter().map(ToJson::to_json).collect()),
            )
    }
}

/// The `fdip-experiments --json` document: the run manifest plus every
/// report, in selection order.
pub fn experiments_json(manifest: &RunManifest, reports: &[Report]) -> Json {
    Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with("manifest", manifest.to_json())
        .with(
            "experiments",
            Json::Arr(reports.iter().map(ToJson::to_json).collect()),
        )
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tables {
            writeln!(f, "{t}")?;
        }
        if !self.metrics.is_empty() {
            writeln!(f, "metrics:")?;
            for (k, v) in &self.metrics {
                writeln!(f, "  {k} = {v:.4}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats_aligned() {
        let mut t = Table::new("T", &["cfg", "speedup"]);
        t.row_f("baseline", &[1.0]);
        t.row_f("fdp", &[1.41]);
        let s = t.to_string();
        assert!(s.contains("== T =="));
        assert!(s.contains("1.41"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn report_json_carries_metrics_and_tables() {
        let mut r = Report::new("fig7");
        r.metric("fdp_speedup_pct", 14.1);
        let mut t = Table::new("T", &["cfg", "speedup"]);
        t.row_f("fdp", &[14.1]);
        r.tables.push(t);
        let j = r.to_json();
        assert_eq!(j.get("id").and_then(Json::as_str), Some("fig7"));
        let m = j.get("metrics").unwrap();
        assert_eq!(m.get("fdp_speedup_pct").and_then(Json::as_f64), Some(14.1));
        let tables = j.get("tables").and_then(Json::as_arr).unwrap();
        assert_eq!(tables[0].get("title").and_then(Json::as_str), Some("T"));
        let round = Json::parse(&j.to_string()).unwrap();
        assert_eq!(round, j);
    }

    #[test]
    fn report_metrics_round_trip() {
        let mut r = Report::new("fig7");
        r.metric("x", 1.5);
        assert_eq!(r.get("x"), Some(1.5));
        assert_eq!(r.get("y"), None);
        assert!(r.to_string().contains("x = 1.5000"));
    }
}
