//! Robustness guard: no `.unwrap(` / `panic!(` on the fabric and
//! storage fault paths.
//!
//! The fault-injection layer (`simkit::faults`) makes a host crash, a
//! torn WAL flush and a partial `clflush` *normal* outcomes on these
//! paths: the crash unwinds from `simkit::faults` with its own typed
//! payload, which the harness catches and recovers from. A stray
//! `unwrap`/`panic!` there is not that crash: it carries no such
//! payload, so it fails the run instead of reading as a recoverable
//! crash.
//!
//! Scope: all of `crates/memsim/src` (RDMA + CXL fabric models), the
//! storage primitives `wal.rs` / `pagestore.rs`, and the cluster
//! control plane `manager.rs` / `fusion/` (lease allocation, the
//! page-address RPC and slot recycling sit under every node of a
//! sharing cluster, so a panic there takes all of them down). Only
//! non-test code is linted (`#[cfg(test)]` and below is free to
//! unwrap). `.expect(` is allowed — it documents an invariant.
//! A deliberate panic — a check whose message a test pins — carries a
//! `// lint: fault-path panic` marker.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directories and single files whose non-test code must stay
/// panic-free on the fault paths.
const SCANNED: &[&str] = &[
    "crates/memsim/src",
    "crates/storage/src/wal.rs",
    "crates/storage/src/pagestore.rs",
    "crates/core/src/manager.rs",
    "crates/core/src/fusion",
];

const FORBIDDEN: &[&str] = &[".unwrap(", "panic!("];

const MARKER: &str = "lint: fault-path panic";

fn rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).expect("readable source dir") {
            rust_files(&entry.expect("dir entry").path(), out);
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
}

/// Byte offset where test code starts (lint only covers non-test code).
fn test_code_start(src: &str) -> usize {
    src.find("#[cfg(test)]").unwrap_or(src.len())
}

fn check_file(path: &Path, violations: &mut String) {
    let src = std::fs::read_to_string(path).expect("readable source file");
    let code = &src[..test_code_start(&src)];
    for (i, line) in code.lines().enumerate() {
        // Doc comments may show panicking idioms without executing them.
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if FORBIDDEN.iter().any(|p| line.contains(p)) && !line.contains(MARKER) {
            let _ = writeln!(
                violations,
                "{}:{}: panic on a fault path: {}",
                path.display(),
                i + 1,
                line.trim()
            );
        }
    }
}

#[test]
fn no_unwrap_or_panic_on_fabric_and_storage_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for p in SCANNED {
        rust_files(&root.join(p), &mut files);
    }
    files.sort();
    assert!(
        files.len() >= 5,
        "lint scanned suspiciously few files ({}) — moved sources?",
        files.len()
    );
    let mut violations = String::new();
    for f in &files {
        check_file(f, &mut violations);
    }
    assert!(
        violations.is_empty(),
        "fault paths must not abort (state the invariant with `.expect(`, \
         or add `// {MARKER}` on a deliberate check whose panic a test \
         pins):\n{violations}"
    );
}

#[test]
fn lint_catches_a_seeded_violation() {
    // The lint must actually fire on the patterns it claims to catch.
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
               fn g() { panic!(\"boom\"); }\n\
               fn h(x: Option<u8>) -> u8 { x.expect(\"allowed\") }\n\
               fn k() { panic!(\"ok\"); } // lint: fault-path panic\n";
    let dir = std::env::temp_dir().join("lint_no_unwrap_seed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seeded.rs");
    std::fs::write(&path, src).unwrap();
    let mut violations = String::new();
    check_file(&path, &mut violations);
    std::fs::remove_file(&path).ok();
    assert!(
        violations.contains("seeded.rs:1") && violations.contains("seeded.rs:2"),
        "lint missed a violation: {violations:?}"
    );
    assert!(
        !violations.contains("seeded.rs:3") && !violations.contains("seeded.rs:4"),
        "lint flagged an allowed pattern: {violations:?}"
    );
}
