//! Minimal fixed-width table rendering and results persistence.

use std::path::{Path, PathBuf};
use udm_core::Result;

/// A table cell for a count kept on an `f64` axis (the `q` of the
/// cluster sweeps): the whole number when `x` holds one exactly, else
/// `x` as it is, never a silently truncated value.
pub fn count_cell(x: f64) -> String {
    // 2⁵³: every whole number up to it is exact in an f64.
    const EXACT: f64 = 9_007_199_254_740_992.0;
    if (0.0..=EXACT).contains(&x) && x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x}")
    }
}

/// Renders a fixed-width text table: one header row plus data rows.
///
/// Column widths adapt to the widest cell; numeric alignment is left to
/// the caller's formatting.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    line(&mut out, &rule);
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Whether `UDM_BENCH_QUICK` is set: the criterion benches then shrink
/// their matrices and sampling to a smoke run.
pub fn quick_mode() -> bool {
    std::env::var_os("UDM_BENCH_QUICK").is_some()
}

/// The repository's `results/` directory, resolved from this crate's
/// manifest so that binaries and benches write there from any working
/// directory (cargo runs benches from the package directory).
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// Writes `content` to `<repo>/results/<file_name>`, creating the
/// directory if needed, and returns the path written.
pub fn write_results_file(file_name: &str, content: &str) -> Result<PathBuf> {
    write_into(Path::new(RESULTS_DIR), file_name, content)
}

fn write_into(dir: &Path, file_name: &str, content: &str) -> Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_cells_print_whole_numbers_and_keep_the_rest() {
        assert_eq!(count_cell(140.0), "140");
        assert_eq!(count_cell(0.0), "0");
        assert_eq!(count_cell(2.5), "2.5");
        assert_eq!(count_cell(-3.0), "-3");
        assert_eq!(count_cell(1e300), format!("{}", 1e300));
    }

    #[test]
    fn renders_aligned_columns() {
        let t = render_table(
            &["x", "value"],
            &[
                vec!["1".into(), "0.5".into()],
                vec!["10".into(), "0.25".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("x "));
        assert!(lines[1].starts_with("--"));
        // all lines equal width
        let w = lines[0].len();
        for l in &lines[1..] {
            assert_eq!(l.len(), w, "{t}");
        }
    }

    #[test]
    fn wide_cells_stretch_columns() {
        let t = render_table(&["a"], &[vec!["longcell".into()]]);
        assert!(t.lines().next().unwrap().len() >= "longcell".len());
    }

    #[test]
    fn writes_results_file() {
        let dir = Path::new(RESULTS_DIR);
        assert!(dir.ends_with("results"));
        assert!(dir.join("../Cargo.lock").is_file(), "{RESULTS_DIR}");
        let tmp = std::env::temp_dir().join(format!("udm_table_test_{}", std::process::id()));
        let path = write_into(&tmp.join("results"), "unit_test.txt", "hello\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello\n");
        std::fs::remove_dir_all(&tmp).ok();
    }
}
