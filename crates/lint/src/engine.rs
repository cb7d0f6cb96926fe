//! The check pipeline: walk the tree, lex, run rules, apply waivers.
//!
//! Three passes:
//!
//! 1. **Per file** — lex, build the [`FileContext`] (crate, test and
//!    `fast-math` regions), run the per-file rules.
//! 2. **Cross-file** — the UDM008 fast-math isolation pass.
//! 3. **Waivers** — inline waiver filtering, with unused-waiver tracking
//!    so stale allows get burned down.

use crate::context::FileContext;
use crate::lexer::{lex, Lexed};
use crate::rules::{run_file_rules, udm008_fast_math_isolation, Diagnostic, ALL_RULES};
use crate::waivers::{apply_waivers, inline_waivers};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "node_modules", "fixtures"];

/// Result of a full `check` run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Unwaived diagnostics, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Total diagnostics silenced by waivers.
    pub waived: usize,
    /// Per-rule `(raw hits, waived)` counts.
    pub per_rule: BTreeMap<&'static str, (usize, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Inline `// udm-lint: allow(..)` comments that matched nothing.
    pub unused_waivers: Vec<String>,
}

/// Recursively collects `.rs` files under `root`, skipping build output,
/// vendored shims and lint fixtures.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// True when `root` looks like the workspace (has a `Cargo.toml` with a
/// `[workspace]` table). Anything else — e.g. the fixture corpus — is
/// linted in fixture mode, where every rule applies to every file.
pub fn is_workspace_root(root: &Path) -> bool {
    std::fs::read_to_string(root.join("Cargo.toml"))
        .map(|t| t.contains("[workspace]"))
        .unwrap_or(false)
}

/// Runs the full check over `root`.
pub fn check(root: &Path) -> Result<CheckReport, String> {
    let fixture_mode = !is_workspace_root(root);
    let files = collect_rust_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut report = CheckReport {
        per_rule: ALL_RULES.iter().map(|&r| (r, (0, 0))).collect(),
        files_scanned: files.len(),
        ..CheckReport::default()
    };

    // Pass 1: per-file rules.
    let mut analyses: Vec<(Lexed, FileContext, Vec<Diagnostic>)> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let lexed = lex(&src);
        let ctx = FileContext::new(&rel, &lexed, fixture_mode);
        let diags = run_file_rules(&lexed, &ctx);
        analyses.push((lexed, ctx, diags));
    }

    // Pass 2: cross-file UDM008.
    let files: Vec<(&Lexed, &FileContext)> = analyses.iter().map(|(l, c, _)| (l, c)).collect();
    let udm008 = udm008_fast_math_isolation(&files);
    for d in udm008 {
        if let Some(a) = analyses.iter_mut().find(|a| a.1.rel_path == d.path) {
            a.2.push(d);
        }
    }

    // Pass 3: waivers, with unused tracking.
    for (lexed, ctx, diags) in analyses {
        for d in &diags {
            report.per_rule.entry(d.rule).or_insert((0, 0)).0 += 1;
        }
        let waivers = inline_waivers(&lexed);
        let outcome = apply_waivers(diags, &waivers);
        report.waived += outcome.waived;
        for (i, w) in waivers.iter().enumerate() {
            if !outcome.used.contains(&i) {
                let line = w.lines.first().copied().unwrap_or(0);
                report.unused_waivers.push(format!(
                    "{}:{line}: allow({})",
                    ctx.rel_path,
                    w.rules.join(", ")
                ));
            }
        }
        report.diagnostics.extend(outcome.remaining);
    }

    // Per-rule waived counts = hits minus surviving diagnostics.
    for (rule, counts) in report.per_rule.iter_mut() {
        let surviving = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == *rule)
            .count();
        counts.1 = counts.0 - surviving;
    }
    report
        .diagnostics
        .sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    report.unused_waivers.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap()
            .to_path_buf()
    }

    fn fixture_report() -> CheckReport {
        check(&Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")).unwrap()
    }

    #[test]
    fn workspace_detection() {
        let root = workspace_root();
        assert!(is_workspace_root(&root));
        assert!(!is_workspace_root(&root.join("crates/lint")));
    }

    #[test]
    fn fixture_corpus_trips_every_rule() {
        let report = fixture_report();
        for rule in ALL_RULES {
            assert!(
                report.diagnostics.iter().any(|d| d.rule == rule),
                "fixture corpus missing {rule}"
            );
        }
        // The clean fixture contributes nothing.
        assert!(!report.diagnostics.iter().any(|d| d.path.contains("clean")));
    }

    #[test]
    fn fixture_diagnostics_have_expected_lines() {
        let report = fixture_report();
        let udm005: Vec<usize> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "UDM005" && d.path == "udm005.rs")
            .map(|d| d.line)
            .collect();
        // Line 19 is the recovered-estimator entry point.
        assert_eq!(udm005, vec![8, 19], "{report:?}");
    }

    #[test]
    fn inline_waiver_in_fixture_is_honoured() {
        let report = fixture_report();
        assert!(report.waived >= 1);
        // The waived line in udm002.rs must not be reported.
        assert!(report
            .diagnostics
            .iter()
            .filter(|d| d.path == "udm002.rs")
            .all(|d| d.line != 10));
        assert!(report.unused_waivers.is_empty(), "{report:?}");
    }

    #[test]
    fn lexer_spans_reconstruct_every_workspace_file() {
        let files = collect_rust_files(&workspace_root()).unwrap();
        assert!(files.len() > 50, "workspace walk found too few files");
        for path in files {
            let src = std::fs::read_to_string(&path).unwrap();
            let lexed = lex(&src);
            for t in &lexed.toks {
                assert_eq!(
                    &src[t.start..t.end],
                    t.text,
                    "span drift in {} at byte {}",
                    path.display(),
                    t.start
                );
            }
            for c in &lexed.comments {
                assert!(
                    src.contains(&c.text),
                    "comment text drift in {}",
                    path.display()
                );
            }
        }
    }
}
