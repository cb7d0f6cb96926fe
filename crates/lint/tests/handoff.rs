//! The rules handed to clippy stay switched on: every library crate
//! denies the panicking constructs (formerly UDM001), every hot-path
//! module denies `as` conversions (formerly UDM004), and every crate
//! opts into the workspace lint table that denies undocumented `unsafe`
//! blocks (formerly UDM010).

use std::path::{Path, PathBuf};
use udm_lint::context::LIBRARY_CRATES;

/// Per-query kernel and micro-cluster math modules (crate/file-stem).
const HOT_PATH_MODULES: [&str; 9] = [
    "kde/error_kernel",
    "kde/estimator",
    "kde/columns",
    "kde/chunked",
    "kde/fastexp",
    "kde/kernel",
    "microcluster/density",
    "microcluster/feature",
    "microcluster/distance",
];

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn library_crates_deny_panicking_constructs() {
    for krate in LIBRARY_CRATES {
        let lib = read(&crates_dir().join(krate).join("src/lib.rs"));
        let attr = lib
            .split("#![cfg_attr(")
            .skip(1)
            .map(|rest| rest.split(")]").next().unwrap_or(""))
            .find(|a| a.trim_start().starts_with("not(test),") && a.contains("deny("))
            .unwrap_or_else(|| panic!("crates/{krate}/src/lib.rs has no non-test deny"));
        for lint in [
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::todo",
            "clippy::unimplemented",
        ] {
            assert!(
                attr.contains(lint),
                "crates/{krate}/src/lib.rs does not deny {lint}"
            );
        }
    }
}

#[test]
fn hot_path_modules_deny_as_conversions() {
    for module in HOT_PATH_MODULES {
        let (krate, stem) = module.split_once('/').unwrap();
        let src = read(&crates_dir().join(krate).join(format!("src/{stem}.rs")));
        assert!(
            src.contains("#![cfg_attr(not(test), deny(clippy::as_conversions))]"),
            "{module} does not deny clippy::as_conversions"
        );
    }
}

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    let root = read(&crates_dir().parent().unwrap().join("Cargo.toml"));
    assert!(root.contains("[workspace.lints.clippy]\nundocumented_unsafe_blocks = \"deny\""));
    for entry in std::fs::read_dir(crates_dir()).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if manifest.exists() {
            assert!(
                read(&manifest).contains("[lints]\nworkspace = true"),
                "{} does not opt into [workspace.lints]",
                manifest.display()
            );
        }
    }
}
