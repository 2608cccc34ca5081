//! CLI for `dft-lint`.
//!
//! ```text
//! cargo run -p dft-lint -- --workspace --deny-all        # CI gate
//! cargo run -p dft-lint -- --json path/to/file.rs        # machine output
//! ```
//!
//! Exit codes: 0 clean, 1 diagnostics emitted (with `--deny-all`, any
//! diagnostic; without it, only `L000` directive errors fail), 2 usage or
//! I/O error.

use dft_lint::{
    diagnostics_to_json, find_workspace_root, lint_source, lint_workspace, Diagnostic, FileCtx,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: dft-lint [--workspace] [--deny-all] [--json] [--summary] [FILES...]\n\
    --workspace  lint every project src/ file under the enclosing workspace\n\
    --deny-all   exit nonzero on any diagnostic (default: only on L000 directive errors)\n\
    --json       emit diagnostics as a JSON array instead of human-readable lines\n\
    --summary    print per-lint violation counts after the diagnostics";

fn lint_one_path(path: &Path) -> Result<Vec<Diagnostic>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // Infer the crate from a `crates/<name>/` path component when present;
    // fixtures override this via their own `dftlint:fixture` directive.
    let comps: Vec<String> = path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let crate_name = comps
        .iter()
        .position(|c| c == "crates")
        .and_then(|i| comps.get(i + 1).cloned())
        .unwrap_or_else(|| "unknown".to_string());
    let ctx = FileCtx {
        crate_name,
        display: path.display().to_string(),
    };
    Ok(lint_source(&ctx, &src))
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut deny_all = false;
    let mut json = false;
    let mut summary = false;
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny-all" => deny_all = true,
            "--json" => json = true,
            "--summary" => summary = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("dft-lint: unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            other => files.push(PathBuf::from(other)),
        }
    }
    if !workspace && files.is_empty() {
        eprintln!("dft-lint: nothing to lint\n{USAGE}");
        return ExitCode::from(2);
    }

    let mut diags = Vec::new();
    if workspace {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let Some(root) = find_workspace_root(&cwd) else {
            eprintln!("dft-lint: no enclosing [workspace] Cargo.toml found");
            return ExitCode::from(2);
        };
        match lint_workspace(&root) {
            Ok(d) => diags.extend(d),
            Err(e) => {
                eprintln!("dft-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for path in &files {
        match lint_one_path(path) {
            Ok(d) => diags.extend(d),
            Err(e) => {
                eprintln!("dft-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if json {
        println!("{}", diagnostics_to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if !diags.is_empty() {
            eprintln!("dft-lint: {} diagnostic(s)", diags.len());
        }
    }
    if summary {
        // every bucket, zeros included: a burn-down regression is visible
        // in the CI log at a glance
        println!("dft-lint summary:");
        let mut total = 0usize;
        for id in std::iter::once(&"L000").chain(dft_lint::LINT_IDS) {
            let n = diags.iter().filter(|d| d.id == *id).count();
            total += n;
            println!("  {id}: {n}");
        }
        println!("  total: {total}");
    }

    let fails = if deny_all {
        !diags.is_empty()
    } else {
        diags.iter().any(|d| d.id == "L000")
    };
    if fails {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
