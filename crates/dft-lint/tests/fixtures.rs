//! Golden-file tests for the lint engine: every `tests/fixtures/<name>.rs`
//! sample is linted and its diagnostics compared against
//! `tests/fixtures/<name>.expected` (one `LINE:COL ID MESSAGE` per line;
//! an empty file means the fixture must lint clean).
//!
//! Regenerate goldens after an intentional change with
//! `UPDATE_EXPECTED=1 cargo test -p dft-lint --test fixtures`.

use dft_lint::{lint_source, Diagnostic, FileCtx};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    paths
}

fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| format!("{}:{} {} {}\n", d.line, d.col, d.id, d.message))
        .collect()
}

fn lint_fixture(path: &Path) -> Vec<Diagnostic> {
    let src = fs::read_to_string(path).expect("read fixture");
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    // the context is a placeholder: every fixture pins its real crate/file
    // via its own `dftlint:fixture(...)` directive
    let ctx = FileCtx {
        crate_name: "fixture".into(),
        display: name,
    };
    lint_source(&ctx, &src)
}

#[test]
fn fixtures_match_expected_diagnostics() {
    let paths = fixture_paths();
    assert!(
        paths.len() >= 8,
        "expected the full fixture set, found {}",
        paths.len()
    );
    let update = std::env::var_os("UPDATE_EXPECTED").is_some();
    for path in &paths {
        let got = render(&lint_fixture(path));
        let expected_path = path.with_extension("expected");
        if update {
            fs::write(&expected_path, &got).expect("write golden");
            continue;
        }
        let want = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "missing golden {} — run with UPDATE_EXPECTED=1 to create it",
                expected_path.display()
            )
        });
        assert_eq!(
            got,
            want,
            "diagnostics for {} diverge from the golden file",
            path.display()
        );
    }
}

/// Every lint ID is exercised by at least one fixture diagnostic.
#[test]
fn fixture_set_covers_every_lint_id() {
    let mut seen: Vec<&'static str> = Vec::new();
    for path in fixture_paths() {
        for d in lint_fixture(&path) {
            if !seen.contains(&d.id) {
                seen.push(d.id);
            }
        }
    }
    for id in [
        "L000", "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L009",
    ] {
        assert!(seen.contains(&id), "no fixture exercises {id}");
    }
}

/// A missing or empty `reason` leaves the violation live and adds L000.
#[test]
fn malformed_suppressions_do_not_suppress() {
    let diags = lint_fixture(&fixtures_dir().join("suppression_errors.rs"));
    let l000 = diags.iter().filter(|d| d.id == "L000").count();
    let l001 = diags.iter().filter(|d| d.id == "L001").count();
    assert!(l000 >= 4, "directive errors undercounted: {diags:?}");
    assert_eq!(l001, 3, "a malformed allow must not suppress: {diags:?}");
}

/// The CLI exits nonzero (with `--deny-all`) on every violating fixture
/// and zero on the clean one, printing `file:line:col` diagnostics.
#[test]
fn cli_exit_codes_and_output() {
    let bin = env!("CARGO_BIN_EXE_dft-lint");
    for path in fixture_paths() {
        let has_diags = !lint_fixture(&path).is_empty();
        let out = std::process::Command::new(bin)
            .arg("--deny-all")
            .arg(&path)
            .output()
            .expect("run dft-lint");
        assert_eq!(
            out.status.success(),
            !has_diags,
            "wrong exit status for {}",
            path.display()
        );
        if has_diags {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let name = path.file_name().unwrap().to_string_lossy();
            assert!(
                stdout.lines().all(|l| l.contains(name.as_ref())),
                "diagnostic lines must carry the file path: {stdout}"
            );
        }
    }
}

/// JSON output is well-formed enough for CI consumers: one object per
/// diagnostic with the five fields.
#[test]
fn cli_json_output() {
    let bin = env!("CARGO_BIN_EXE_dft-lint");
    let out = std::process::Command::new(bin)
        .arg("--json")
        .arg(fixtures_dir().join("l001_unwrap.rs"))
        .output()
        .expect("run dft-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "{stdout}"
    );
    for key in [
        "\"file\":",
        "\"line\":",
        "\"col\":",
        "\"id\":\"L001\"",
        "\"message\":",
    ] {
        assert!(trimmed.contains(key), "missing {key} in {stdout}");
    }
}

/// The shipped tree itself is lint-clean — the same gate CI enforces.
#[test]
fn workspace_is_lint_clean() {
    let root = dft_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let diags = dft_lint::lint_workspace(&root).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "workspace has {} lint violation(s):\n{}",
        diags.len(),
        render(&diags)
    );
}
