//! Source-file size guard.
//!
//! The original `system.rs` grew into a 1700-line god-object before it
//! was split into the engine/policy/fabric layering; this test keeps
//! that from happening again. No source file under `crates/*/src` or
//! `src/` may exceed [`LIMIT`] lines. Files already over the limit when
//! the guard landed are pinned in [`ALLOWLIST`] with their size at that
//! time — an allowlisted file may shrink (tighten the pin when it
//! does), but it may never grow.

use std::fs;
use std::path::{Path, PathBuf};

/// Maximum lines for any Rust source file in the workspace.
const LIMIT: usize = 1010;

/// Files over [`LIMIT`] when the guard landed, pinned at that size.
/// Entries may only shrink or disappear; never raise a pin.
const ALLOWLIST: &[(&str, usize)] = &[];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_outgrows_the_limit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("src"), &mut sources);
    let Ok(crates) = fs::read_dir(root.join("crates")) else {
        panic!("crates/ directory missing");
    };
    for krate in crates.flatten() {
        rust_sources(&krate.path().join("src"), &mut sources);
    }
    assert!(!sources.is_empty(), "guard found no source files");

    let mut violations = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).expect("source file is readable");
        let lines = text.lines().count();
        let rel = path
            .strip_prefix(root)
            .expect("source lives under the workspace root")
            .to_string_lossy()
            .replace('\\', "/");
        let cap = ALLOWLIST
            .iter()
            .find(|(name, _)| *name == rel)
            .map_or(LIMIT, |(_, pinned)| *pinned);
        if lines > cap {
            violations.push(format!(
                "{rel}: {lines} lines (cap {cap}) — split it; see crates/core's \
                 engine/policy/fabric layering for the pattern"
            ));
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));

    // Stale pins are errors too: once a file shrinks under the global
    // limit (or is deleted), its allowlist entry must go.
    for (name, pinned) in ALLOWLIST {
        assert!(
            *pinned > LIMIT,
            "{name} is pinned at {pinned}, inside the global limit — drop the entry"
        );
        let path = root.join(name);
        let lines = fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("allowlisted file {name} no longer exists — drop the entry"))
            .lines()
            .count();
        assert_eq!(
            lines, *pinned,
            "{name} shrank to {lines} lines — tighten its pin (it may only shrink)"
        );
    }
}
