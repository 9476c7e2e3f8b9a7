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
const LIMIT: usize = 950;

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

/// `path` relative to the workspace root, `/`-separated.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).expect("under the workspace root");
    rel.to_string_lossy().replace('\\', "/")
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
        let rel = relative(root, path);
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

/// Uncalled `pub` items that stay, each with the reason. Shrink-only:
/// an entry whose item is gone, or has gained a caller, fails as stale.
const UNCALLED_ALLOWLIST: &[(&str, &str, &str)] = &[(
    "crates/core/src/system.rs",
    "bank_access_counts",
    "examples/thermal_activity.rs draws it; ROADMAP item 5's `table3-activity` exhibit adopts it",
)];

/// The text of `path` that counts as a caller: comments, `use`
/// declarations and `#[cfg(test)] mod` items are dropped. With `defs`,
/// the name in each `pub fn|struct|enum|trait|const|static|type NAME`
/// is recorded there and dropped too: a definition is not its own caller.
fn calling_text(path: &Path, mut defs: Option<&mut Vec<(usize, String)>>) -> String {
    const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "static", "type"];
    let text = fs::read_to_string(path).expect("source file is readable");
    let mut out = String::new();
    // A skipped item ends with the `;` or `}` that returns to depth 0.
    let (mut skipping, mut depth, mut cfg_test) = (false, 0i32, false);
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("");
        let trimmed = line.trim_start();
        if !skipping {
            let test_mod = cfg_test && trimmed.starts_with("mod ");
            cfg_test =
                trimmed.starts_with("#[cfg(test)]") || (cfg_test && trimmed.starts_with("#["));
            skipping = test_mod || trimmed.starts_with("use ") || trimmed.starts_with("pub use ");
        }
        if skipping {
            for c in line.chars() {
                depth += i32::from(c == '{') - i32::from(c == '}');
                skipping &= depth != 0 || (c != ';' && c != '}');
            }
            continue;
        }
        let mut line = line.to_string();
        if let (Some(defs), Some(rest)) = (defs.as_deref_mut(), trimmed.strip_prefix("pub ")) {
            let const_fn = rest.strip_prefix("const ").filter(|r| r.starts_with("fn "));
            let rest = const_fn.unwrap_or(rest);
            let mut words = rest.split(|c: char| !c.is_alphanumeric() && c != '_');
            if words.next().is_some_and(|kind| KINDS.contains(&kind)) {
                if let Some(name) = words.next().filter(|n| !n.is_empty()) {
                    defs.push((i + 1, name.to_string()));
                    line = line.replacen(&format!(" {name}"), " ", 1);
                }
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// ROADMAP item 5, mechanically: a `pub` item stays only if something
/// that matters calls it.
///
/// *Definitions* are `pub fn|struct|enum|trait|const|static|type` items
/// in non-test code under `crates/*/src`. *Callers* are non-test code
/// under `crates/*/src` and `src/`, `examples/nimbench/src`, and the
/// integration tests under `tests/` and `crates/*/tests/`. Comments
/// (doc-tests included), `use` declarations, `#[cfg(test)]` modules
/// (in-file, or a `*_tests.rs` file) and `examples/*.rs` do not count.
/// An item whose name no caller mentions must go, or be listed in
/// [`UNCALLED_ALLOWLIST`] with the reason it stays.
///
/// Blind spots: matching is by word, so it never flags a live item but
/// misses a dead one that shares its name with a live one (`new`,
/// `len`); enum variants, fields and macro-generated items are not
/// definitions; and it finds roots, not what only a dead root calls —
/// delete, re-run, repeat to a fixed point.
#[test]
fn every_pub_item_has_a_caller_that_matters() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut defining, mut calling) = (Vec::new(), Vec::new());
    let crates = fs::read_dir(root.join("crates")).expect("crates/ exists");
    for krate in crates.flatten() {
        rust_sources(&krate.path().join("src"), &mut defining);
        rust_sources(&krate.path().join("tests"), &mut calling);
    }
    defining.retain(|p| {
        !p.file_stem()
            .is_some_and(|s| s.to_string_lossy().ends_with("_tests"))
    });
    for dir in ["src", "tests", "examples/nimbench/src"] {
        rust_sources(&root.join(dir), &mut calling);
    }
    // This file names the items it lets stay; that is not a call.
    calling.retain(|p| !p.ends_with(file!()));
    assert!(
        !defining.is_empty() && !calling.is_empty(),
        "guard found no source files"
    );

    let (mut defs, mut text) = (Vec::new(), String::new());
    for path in &defining {
        let rel = relative(root, path);
        let mut here = Vec::new();
        text.push_str(&calling_text(path, Some(&mut here)));
        defs.extend(
            here.into_iter()
                .map(|(line, name)| (rel.clone(), line, name)),
        );
    }
    for path in &calling {
        text.push_str(&calling_text(path, None));
    }
    let called: std::collections::HashSet<&str> = text
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .collect();
    defs.retain(|(_, _, name)| !called.contains(name.as_str()));

    let fresh: Vec<String> = defs
        .iter()
        .filter(|(rel, _, name)| {
            !UNCALLED_ALLOWLIST
                .iter()
                .any(|(p, n, _)| p == rel && n == name)
        })
        .map(|(rel, line, name)| format!("{rel}:{line}: `{name}` has no caller that matters"))
        .collect();
    assert!(
        fresh.is_empty(),
        "delete these, or list them in UNCALLED_ALLOWLIST with the reason they stay:\n{}",
        fresh.join("\n")
    );
    for (rel, name, _) in UNCALLED_ALLOWLIST {
        assert!(
            defs.iter().any(|(r, _, n)| r == rel && n == name),
            "`{name}` in {rel} is gone or has a caller now — drop its UNCALLED_ALLOWLIST entry"
        );
    }
}
