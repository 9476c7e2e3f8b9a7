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
const LIMIT: usize = 900;

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

/// The workspace's non-test sources: `crates/*/src` without the
/// `*_tests.rs` files, then `src/`, `tests/` and `crates/*/tests`
/// without this file (it names the items it lets stay; that is not a
/// call).
fn workspace_sources(root: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let (mut library, mut rest) = (Vec::new(), Vec::new());
    let crates = fs::read_dir(root.join("crates")).expect("crates/ exists");
    for krate in crates.flatten() {
        rust_sources(&krate.path().join("src"), &mut library);
        rust_sources(&krate.path().join("tests"), &mut rest);
    }
    library.retain(|p| {
        !p.file_stem()
            .is_some_and(|s| s.to_string_lossy().ends_with("_tests"))
    });
    for dir in ["src", "tests"] {
        rust_sources(&root.join(dir), &mut rest);
    }
    rest.retain(|p| !p.ends_with(file!()));
    (library, rest)
}

/// Lines of library and binary code that can panic, under ROADMAP item
/// 9(a)'s counting rule: a line counts when it holds `unwrap()`,
/// `expect(` or `panic!`, in non-test code under `crates/*/src` and
/// `src/` as [`calling_text`] reads it (comments, `use` declarations,
/// `#[cfg(test)] mod` items and `*_tests.rs` files aside). Pinned
/// exactly, like [`ALLOWLIST`]: a new site fails the guard, and so does
/// a removed one until the pin is lowered to match.
const PANIC_SITES: usize = 51;

#[test]
fn panic_sites_match_the_pinned_count() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut sources, _) = workspace_sources(root);
    rust_sources(&root.join("src"), &mut sources);
    sources.retain(|p| {
        !p.file_stem()
            .is_some_and(|s| s.to_string_lossy().ends_with("_tests"))
    });
    let mut sites = Vec::new();
    for path in &sources {
        let rel = relative(root, path);
        for line in calling_text(path, None).lines() {
            if ["unwrap()", "expect(", "panic!"]
                .iter()
                .any(|w| line.contains(w))
            {
                sites.push(format!("{rel}: {}", line.trim()));
            }
        }
    }
    assert_eq!(
        sites.len(),
        PANIC_SITES,
        "{} panic sites against the pinned {PANIC_SITES} — a new one needs a typed \
         error or a reason; a removed one lowers the pin:\n{}",
        sites.len(),
        sites.join("\n")
    );
}

/// ROADMAP item 5, mechanically: a `pub` item stays only if something
/// that matters calls it.
///
/// *Definitions* are `pub fn|struct|enum|trait|const|static|type` items
/// in non-test code under `crates/*/src`. `pub(crate)` items are not
/// definitions here: each library crate denies `dead_code`, so rustc
/// judges them. *Callers* are non-test code under `crates/*/src` and
/// `src/`, `examples/*.rs`, `examples/nimbench/src`, and the
/// integration tests under `tests/` and `crates/*/tests/`. Comments
/// (doc-tests included), `use` declarations and `#[cfg(test)]` modules
/// (in-file, or a `*_tests.rs` file) do not count. An item whose name
/// no caller mentions must go.
///
/// Blind spots: matching is by word, so it never flags a live item but
/// misses a dead one that shares its name with a live one (`new`,
/// `len`); enum variants, fields and macro-generated items are not
/// definitions; and it finds roots, not what only a dead root calls —
/// delete, re-run, repeat to a fixed point.
#[test]
fn every_pub_item_has_a_caller_that_matters() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (defining, mut calling) = workspace_sources(root);
    rust_sources(&root.join("examples/nimbench/src"), &mut calling);
    let examples = fs::read_dir(root.join("examples")).expect("examples/ exists");
    calling.extend(
        examples
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs")),
    );
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

    let uncalled: Vec<String> = defs
        .iter()
        .map(|(rel, line, name)| format!("{rel}:{line}: `{name}` has no caller that matters"))
        .collect();
    assert!(
        uncalled.is_empty(),
        "delete these:\n{}",
        uncalled.join("\n")
    );
}

/// The marker every frozen definition sits under.
const FROZEN_MARK: &str = "// nimbench-frozen:";

/// Names with no implementation behind them, kept only because the
/// frozen `examples/nimbench` compiles against them: the file that
/// defines each, and the name. An entry is added only when a deletion
/// leaves behind a name the frozen benchmark compiles against; otherwise
/// the list only shrinks — ROADMAP item 1 Step A deletes the shims with
/// the benchmark code that names them. `resume_from` itself is live;
/// what is frozen is its second parameter, so leaning on it means
/// passing anything but `None`.
const FROZEN_FOR_NIMBENCH: &[(&str, &str)] = &[
    ("crates/noc/src/network/mod.rs", "new_sharded"),
    ("crates/noc/src/network/mod.rs", "advance_window"),
    ("crates/noc/src/network/mod.rs", "window_stats"),
    ("crates/noc/src/network/mod.rs", "window_spawn_min"),
    ("crates/noc/src/network/mod.rs", "next_event_at"),
    ("crates/noc/src/network/mod.rs", "VerticalMode"),
    ("crates/topology/src/topology.rs", "ShardPlan"),
    ("crates/topology/src/topology.rs", "MeshTopology"),
    ("crates/core/src/builder.rs", "shards"),
    ("crates/core/src/builder.rs", "horizon_skipping"),
    ("crates/core/src/snapshot.rs", "resume_from"),
    ("crates/coherence/src/directory.rs", "WritePolicy"),
];

/// Whether `text` spells `name` as a whole word.
fn names(text: &str, name: &str) -> bool {
    text.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|word| word == name)
}

/// The residue stays residue: every entry of [`FROZEN_FOR_NIMBENCH`] is
/// still named by nimbench (else it is stale — delete the shim), sits
/// under a [`FROZEN_MARK`] comment in its file, and is named by no
/// non-test workspace code outside that file; and every marker comment
/// has an entry.
#[test]
fn frozen_names_are_only_what_nimbench_compiles_against() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut nimbench = Vec::new();
    rust_sources(&root.join("examples/nimbench/src"), &mut nimbench);
    let nimbench: String = nimbench.iter().map(|p| calling_text(p, None)).collect();
    let (mut workspace, rest) = workspace_sources(root);
    workspace.extend(rest);

    let mut marked = Vec::new();
    for path in &workspace {
        let rel = relative(root, path);
        let text = fs::read_to_string(path).expect("source file is readable");
        let mut lines = text.lines().map(str::trim_start);
        while let Some(line) = lines.next() {
            if !line.starts_with(FROZEN_MARK) {
                continue;
            }
            // The marked item: the first line below that is not an attribute.
            let item = lines.find(|l| !l.starts_with("#[")).unwrap_or("");
            let entry = FROZEN_FOR_NIMBENCH
                .iter()
                .find(|(p, name)| *p == rel && names(item, name));
            let (_, name) = entry.unwrap_or_else(|| {
                panic!("{rel}: `{item}` is marked frozen but has no FROZEN_FOR_NIMBENCH entry")
            });
            marked.push(*name);
        }
        // Leaning: a mention outside the defining file that is not
        // itself a definition (`ShardPlan::shards`), string literals
        // (the CLI's retired-flag row) aside.
        for line in calling_text(path, None).lines() {
            let code: String = line.split('"').step_by(2).collect();
            for (defined_in, name) in FROZEN_FOR_NIMBENCH {
                let leans = match *name {
                    "resume_from" => code.contains("resume_from(") && !code.contains(", None)"),
                    name => names(&code, name),
                };
                let defines = code.contains(&format!("fn {name}("));
                assert!(
                    *defined_in == rel || defines || !leans,
                    "{rel} leans on `{name}`, which only the frozen benchmark may name:\n{line}"
                );
            }
        }
    }
    for (rel, name) in FROZEN_FOR_NIMBENCH {
        assert!(
            names(&nimbench, name),
            "examples/nimbench no longer names `{name}` — delete it from {rel} and from this list"
        );
        assert!(
            marked.contains(name),
            "{rel}: `{name}` is listed but sits under no `{FROZEN_MARK}` comment"
        );
    }
}

/// Every back-ticked token ending in `.rs` in the three documents is
/// the path, or the tail of the path, of a file in the repository — so
/// a deletion cannot leave the documents pointing at what is gone.
#[test]
fn docs_name_only_files_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor"] {
        rust_sources(&root.join(dir), &mut files);
    }
    let files: Vec<String> = files
        .iter()
        .map(|p| relative(root, p))
        .filter(|p| !p.contains("/target/"))
        .collect();
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root.join(doc)).expect("the document exists");
        // Odd-numbered pieces of a split on '`' are the back-ticked spans.
        for token in text.split('`').skip(1).step_by(2) {
            let resolves = |f: &String| {
                f.strip_suffix(token)
                    .is_some_and(|head| head.is_empty() || head.ends_with('/'))
            };
            if token.ends_with(".rs") && !token.contains(' ') && !files.iter().any(resolves) {
                missing.push(format!("{doc}: `{token}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "these name no file in the repository:\n{}",
        missing.join("\n")
    );
}
