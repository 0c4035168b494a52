//! Plain-text table/series rendering for figure outputs.
//!
//! Everything prints as aligned monospace tables (the paper's tables) or
//! `x y1 y2 …` series blocks (the paper's figures), and every run is also
//! mirrored to `bench_out/<name>.txt` when the `BENCH_OUT` environment
//! variable or default output directory is writable. Figures that record
//! [`metric`](Report::metric) values additionally emit a machine-readable
//! `bench_out/BENCH_<name>.json` (see README "`BENCH_*.json` format").

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A rendered report that prints to stdout and mirrors to `bench_out/`.
pub struct Report {
    name: &'static str,
    title: String,
    body: String,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Starts a report for `name` (e.g. `"fig9"`).
    pub fn new(name: &'static str, title: &str) -> Self {
        let mut body = String::new();
        let _ = writeln!(body, "== {name}: {title}");
        Self {
            name,
            title: title.to_string(),
            body,
            metrics: Vec::new(),
        }
    }

    /// Records one machine-readable metric (a timing in seconds, an op
    /// count, a byte count …) for the `BENCH_<name>.json` mirror. Keys
    /// should be snake_case with a unit suffix (`_s`, `_ops`, `_bytes`).
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.push((key.to_string(), value));
    }

    /// Adds a blank-line-separated section heading.
    pub fn section(&mut self, heading: &str) {
        let _ = writeln!(self.body, "\n-- {heading}");
    }

    /// Adds one raw line.
    pub fn line(&mut self, line: impl AsRef<str>) {
        let _ = writeln!(self.body, "{}", line.as_ref());
    }

    /// Adds an aligned table: `headers` then rows.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut header_line = String::new();
        for (h, w) in headers.iter().zip(&widths) {
            let _ = write!(header_line, "{h:>w$}  ", w = w);
        }
        self.line(header_line.trim_end());
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(*w) + "  ")
            .collect::<String>();
        self.line(rule.trim_end());
        for row in rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            self.line(line.trim_end());
        }
    }

    /// Finishes: prints to stdout, writes `bench_out/<name>.txt`, and —
    /// when metrics were recorded — `bench_out/BENCH_<name>.json`.
    pub fn finish(self) {
        println!("{}", self.body);
        let dir = std::env::var("BENCH_OUT").unwrap_or_else(|_| "bench_out".to_string());
        let dir = PathBuf::from(dir);
        if fs::create_dir_all(&dir).is_ok() {
            let _ = fs::write(dir.join(format!("{}.txt", self.name)), &self.body);
            if !self.metrics.is_empty() {
                let _ = fs::write(
                    dir.join(format!("BENCH_{}.json", self.name)),
                    self.metrics_json(),
                );
            }
        }
    }

    /// Renders the recorded metrics as a small self-contained JSON
    /// object (no external serializer: the workspace builds offline).
    fn metrics_json(&self) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        fn number(v: f64) -> String {
            if !v.is_finite() {
                "null".to_string()
            } else if v == v.trunc() && v.abs() < 1e15 {
                format!("{}", v as i64)
            } else {
                format!("{v}")
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"name\": \"{}\",", escape(self.name));
        let _ = writeln!(out, "  \"title\": \"{}\",", escape(&self.title));
        let _ = writeln!(out, "  \"metrics\": {{");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": {}{}", escape(key), number(*value), comma);
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Formats seconds with sensible units.
pub fn secs(v: f64) -> String {
    if v >= 3_600.0 {
        format!("{:.1} h", v / 3_600.0)
    } else if v >= 60.0 {
        format!("{:.1} min", v / 60.0)
    } else if v >= 1.0 {
        format!("{v:.2} s")
    } else if v >= 1e-3 {
        format!("{:.2} ms", v * 1e3)
    } else {
        format!("{:.2} µs", v * 1e6)
    }
}

/// Formats byte counts.
pub fn bytes(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} GB", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} MB", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} KB", v / 1e3)
    } else {
        format!("{v:.0} B")
    }
}

/// Formats a dollar amount.
pub fn usd(v: f64) -> String {
    if v >= 1e6 {
        format!("${:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("${:.1}K", v / 1e3)
    } else {
        format!("${v:.0}")
    }
}

/// Formats a count with thousands separators.
pub fn count(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}
