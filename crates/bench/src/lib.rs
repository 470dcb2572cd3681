//! # l25gc-bench — benchmarks and the figure/table reproducer
//!
//! Two kinds of targets:
//!
//! - **Criterion benches** (`cargo bench`): real wall-clock measurements
//!   of the algorithmic components — the Fig 6 serialization comparison,
//!   the Fig 11 PDR classifier sweep, the §5.3 update latencies, and the
//!   ONVM substrate (SPSC ring, mempool, dual-key session table).
//! - **`cargo run -p l25gc-bench --bin reproduce --release -- all`**:
//!   regenerates every figure/table of the paper's evaluation (the
//!   simulated experiments plus the measured ones) and prints them as
//!   tables; EXPERIMENTS.md records a run next to the paper's values.
//!
//! This module hosts the small output helpers the binary shares
//! (table formatting, exit-2-on-unwritable file writes), the [`spec`]
//! module (the CLI declared once: flag, subcommand and experiment
//! registries, [`spec::Args::parse`] and `--help` derived from them),
//! the [`run`] module (what each experiment and subcommand does), plus
//! the [`manifest`] layer: machine-readable
//! [`manifest::RunManifest`] records of a capacity run and the
//! histogram-error-aware [`manifest::compare`] that turns two of them
//! into a pass/fail regression gate.

pub mod manifest;
pub mod run;
pub mod spec;

pub use manifest::{compare, MetricRow, RunManifest};
pub(crate) use manifest::{deployment_name, policy_name, SaturationRow};

/// Formats a table with a header row and aligned columns.
pub(crate) fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}"));
        padded.collect::<Vec<_>>().join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
    let body: String = rows.iter().map(|row| line(row)).collect();
    format!("\n== {title} ==\n{}{rule}\n{body}", line(&header))
}

/// One table column: its header, and how a row renders its cell.
pub(crate) type Column<'a, T> = (&'a str, fn(&T) -> String);

/// Prints one table: a row per item of `rows`, a cell per column.
pub(crate) fn print_table<T>(
    title: &str,
    rows: impl IntoIterator<Item = T>,
    columns: &[Column<'_, T>],
) {
    let header: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let cells: Vec<Vec<String>> = rows
        .into_iter()
        .map(|row| columns.iter().map(|c| (c.1)(&row)).collect())
        .collect();
    print!("{}", render_table(title, &header, &cells));
}

/// Writes an output file. Every `--*-out` path goes through here: an
/// unwritable path is a usage error — one `reproduce: <path>: <os
/// error>` line on stderr and exit code 2 — not a panic.
pub(crate) fn write_or_exit(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("reproduce: {path}: {e}");
        std::process::exit(2);
    }
}

/// Formats a float with a sensible number of digits.
pub(crate) fn f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("long-name"));
        let lines: Vec<&str> = t.lines().filter(|l| !l.is_empty()).collect();
        assert!(lines.len() >= 4);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(123.456), "123");
        assert_eq!(f(12.345), "12.35");
        assert_eq!(f(0.1234), "0.123");
    }
}
