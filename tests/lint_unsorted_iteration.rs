//! Determinism guard: no unsorted hash-container iteration on simulator
//! state.
//!
//! The simulator's hash maps (`simkit::FastMap`/`FastSet`, and any std
//! `HashMap`/`HashSet`) make NO iteration-order promise, and with the
//! std default hasher the order even varies per process. Iterating one
//! directly in a path that touches simulated state (flush order, message
//! order, ...) silently breaks run-to-run determinism — the property the
//! whole harness is built on (serial == parallel, bit-identical).
//!
//! This test scans the simulator crates' sources for direct iteration
//! over hash-typed struct fields (field names are collected per crate
//! directory, so an `impl` in one file is checked against a struct
//! declared in another) and fails unless the site either sorts
//! the collected keys within the next few lines or carries an explicit
//! `// lint: order-insensitive` marker (for sites whose effect provably
//! does not depend on order).
//!
//! A textual lint is deliberately low-tech: it has no false negatives
//! for the patterns it knows (`.iter()`, `.keys()`, `.values()`,
//! `.iter_mut()`, `.values_mut()`, `.drain(`, `for .. in &self.field`)
//! and the rare false positive is silenced with the marker comment.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose sources are scanned (the ones holding simulated state).
/// simkit is included for the kernel's own state: the fault engine, lock
/// table and metrics registry feed bit-deterministic results, so any
/// hash-order iteration there is just as corrupting as in the simulator.
/// workloads holds the cluster driver and every "fold in node order"
/// merge of the harnesses.
const SCANNED: &[&str] = &[
    "crates/memsim/src",
    "crates/bufferpool/src",
    "crates/core/src",
    "crates/simkit/src",
    "crates/workloads/src",
];

/// Iteration methods that surface hash order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
];

/// How many following lines may contain the `sort` that fixes the order.
const SORT_WINDOW: usize = 3;

const MARKER: &str = "lint: order-insensitive";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Field names declared with a hash-container type in `src`, e.g.
/// `map: FastMap<PageId, u32>,` -> `map`, added to `fields`.
fn hash_fields(src: &str, fields: &mut Vec<String>) {
    for line in src.lines() {
        let line = line.trim_start();
        let line = line.strip_prefix("pub ").unwrap_or(line);
        let line = match line.strip_prefix("pub(") {
            Some(rest) => rest.split_once(") ").map_or(line, |(_, l)| l),
            None => line,
        };
        let Some((name, ty)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') || name.is_empty() {
            continue;
        }
        let ty = ty.trim_start();
        let is_hash = ["FastMap<", "FastSet<", "HashMap<", "HashSet<"]
            .iter()
            .any(|h| ty.starts_with(h) || ty.contains(&format!("::{h}")));
        if is_hash {
            fields.push(name.to_string());
        }
    }
}

/// Byte offset where test code starts (lint only covers non-test code).
fn test_code_start(src: &str) -> usize {
    src.find("#[cfg(test)]").unwrap_or(src.len())
}

/// Lint every file under `dir` against the hash-typed field names
/// declared *anywhere* under it: a struct and the `impl` block that
/// iterates its map need not share a file.
fn check_dir(dir: &Path, violations: &mut String) -> usize {
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    files.sort();
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("readable source file"))
        .collect();
    let mut fields = Vec::new();
    for src in &sources {
        hash_fields(src, &mut fields);
    }
    fields.sort();
    fields.dedup();
    for (path, src) in files.iter().zip(&sources) {
        check_file(path, src, &fields, violations);
    }
    files.len()
}

fn check_file(path: &Path, src: &str, fields: &[String], violations: &mut String) {
    let code = &src[..test_code_start(src)];
    let lines: Vec<&str> = code.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let hit = fields.iter().any(|f| {
            ITER_METHODS
                .iter()
                .any(|m| line.contains(&format!(".{f}{m}")))
                || line.contains(&format!("in &self.{f}"))
                || line.contains(&format!("in &mut self.{f}"))
                || line.contains(&format!("in self.{f}"))
        });
        if !hit {
            continue;
        }
        // Sorted shortly after (collect-then-sort idiom), or explicitly
        // marked order-insensitive nearby?
        let window = &lines[i.saturating_sub(1)..(i + 1 + SORT_WINDOW).min(lines.len())];
        let ok = window
            .iter()
            .any(|l| l.contains("sort") || l.contains(MARKER));
        if !ok {
            let _ = writeln!(
                violations,
                "{}:{}: unsorted hash iteration: {}",
                path.display(),
                i + 1,
                line.trim()
            );
        }
    }
}

#[test]
fn no_unsorted_hash_iteration_in_simulator_state() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = String::new();
    let mut files = 0;
    for dir in SCANNED {
        files += check_dir(&root.join(dir), &mut violations);
    }
    assert!(
        files >= 10,
        "lint scanned suspiciously few files ({files}) — moved sources?"
    );
    assert!(
        violations.is_empty(),
        "hash-container iteration without a sort within {SORT_WINDOW} lines \
         (sort the collected keys, or add `// {MARKER}` if order provably \
         cannot affect simulated state):\n{violations}"
    );
}

#[test]
fn lint_catches_a_seeded_violation() {
    // The lint must actually fire on the pattern it claims to catch —
    // also when the struct and the iterating `impl` sit in different
    // files of one crate directory, `pub(super)` field or not.
    let decl = "struct S {\n    pub(super) map: FastMap<u64, u32>,\n}\n";
    let walk = "impl S { fn f(&self) { for v in self.map.values() { drop(v); } } }\n";
    for (name, files) in [
        ("one_file", vec![("seeded.rs", format!("{decl}{walk}"))]),
        (
            "two_files",
            vec![
                ("decl.rs", decl.to_string()),
                ("seeded.rs", walk.to_string()),
            ],
        ),
    ] {
        let dir = std::env::temp_dir().join(format!("lint_unsorted_seed_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        for (file, src) in &files {
            std::fs::write(dir.join(file), src).unwrap();
        }
        let mut violations = String::new();
        check_dir(&dir, &mut violations);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            violations.contains("seeded.rs:") && violations.contains("self.map.values()"),
            "{name}: lint failed to flag a direct map iteration: {violations:?}"
        );
    }
}
