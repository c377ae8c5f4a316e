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
//! over hash-typed struct fields and fails unless the site either sorts
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
/// simkit is included for the telemetry/alerting pipeline: window rows,
/// alert logs and health maps feed bit-deterministic reports, so any
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
/// `map: FastMap<PageId, u32>,` -> `map`.
fn hash_fields(src: &str) -> Vec<String> {
    let mut fields = Vec::new();
    for line in src.lines() {
        let line = line.trim_start();
        let line = line.strip_prefix("pub ").unwrap_or(line);
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
    fields.sort();
    fields.dedup();
    fields
}

/// Byte offset where test code starts (lint only covers non-test code).
fn test_code_start(src: &str) -> usize {
    src.find("#[cfg(test)]").unwrap_or(src.len())
}

fn check_file(path: &Path, violations: &mut String) {
    let src = std::fs::read_to_string(path).expect("readable source file");
    let fields = hash_fields(&src);
    if fields.is_empty() {
        return;
    }
    let code = &src[..test_code_start(&src)];
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
    let mut files = Vec::new();
    for dir in SCANNED {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    assert!(
        files.len() >= 10,
        "lint scanned suspiciously few files ({}) — moved sources?",
        files.len()
    );
    let mut violations = String::new();
    for f in &files {
        check_file(f, &mut violations);
    }
    assert!(
        violations.is_empty(),
        "hash-container iteration without a sort within {SORT_WINDOW} lines \
         (sort the collected keys, or add `// {MARKER}` if order provably \
         cannot affect simulated state):\n{violations}"
    );
}

#[test]
fn lint_catches_a_seeded_violation() {
    // The lint must actually fire on the pattern it claims to catch.
    let src = "struct S {\n    map: FastMap<u64, u32>,\n}\n\
               impl S { fn f(&self) { for v in self.map.values() { drop(v); } } }\n";
    let dir = std::env::temp_dir().join("lint_unsorted_seed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seeded.rs");
    std::fs::write(&path, src).unwrap();
    let mut violations = String::new();
    check_file(&path, &mut violations);
    std::fs::remove_file(&path).ok();
    assert!(
        violations.contains("seeded.rs:4"),
        "lint failed to flag a direct map iteration: {violations:?}"
    );
}
