//! Command-line entry point for the workspace linter.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
udm-lint: workspace invariant linter (rules UDM002, UDM003, UDM005, UDM008, UDM009)

USAGE:
  udm-lint check [--root PATH]
  udm-lint help

check prints every unwaived diagnostic, then per-rule hit/waiver
statistics. It exits 0 when no unwaived diagnostic and no unused
waiver remains, 1 otherwise, and 2 on a usage or I/O error.
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("check") => match parse_root(&argv[1..]) {
            Ok(root) => run_check(&root),
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None | Some("help" | "--help" | "-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_root(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [] => Ok(PathBuf::from(".")),
        [flag, path] if flag == "--root" => Ok(PathBuf::from(path)),
        [flag] if flag == "--root" => Err("--root needs a path".into()),
        [other, ..] => Err(format!("unknown argument {other:?}")),
    }
}

fn run_check(root: &std::path::Path) -> ExitCode {
    let report = match udm_lint::check(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &report.diagnostics {
        println!("{}:{}: {} {}", d.path, d.line, d.rule, d.message);
    }
    println!("--- stats ---");
    println!("files scanned: {}", report.files_scanned);
    for (rule, (hits, waived)) in &report.per_rule {
        println!(
            "{rule}: {hits} hit(s), {waived} waived, {} reported",
            hits - waived
        );
    }
    println!("total waived: {}", report.waived);
    for w in &report.unused_waivers {
        eprintln!("udm-lint: unused waiver: {w}");
    }
    if report.diagnostics.is_empty() && report.unused_waivers.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "udm-lint: {} unwaived diagnostic(s), {} unused waiver(s)",
            report.diagnostics.len(),
            report.unused_waivers.len()
        );
        ExitCode::FAILURE
    }
}
