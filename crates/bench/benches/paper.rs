//! `cargo bench -p bench --bench paper -- <id>...` prints the named
//! entries of `bench::figures`, in order; no id prints all of them.
//! Arguments starting with `--` are ignored (cargo appends `--bench`).
//! An entry that panics does not stop the ones after it; the run then
//! exits 101, naming the entries that failed.

use bench::figures;
use std::panic::catch_unwind;

fn main() {
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    match figures::select(&ids) {
        Ok(entries) => {
            let failed: Vec<&str> = entries
                .iter()
                .filter(|e| catch_unwind(e.print).is_err())
                .map(|e| e.id)
                .collect();
            if !failed.is_empty() {
                eprintln!("failed: {}", failed.join(" "));
                std::process::exit(101);
            }
        }
        Err(unknown) => {
            let valid: Vec<&str> = figures::ALL.iter().map(|e| e.id).collect();
            eprintln!("unknown id `{unknown}`; valid ids: {}", valid.join(" "));
            std::process::exit(2);
        }
    }
}
