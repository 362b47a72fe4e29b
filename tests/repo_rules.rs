//! Repository rules that hold over the source tree, checked by reading
//! files only: tier-1 fails on every violation CI would catch. Each test is
//! the rule of the CI step it names, with the same verdict; CI runs it as
//! `cargo test -q -p confbench --test repo_rules <name>`.

use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root: this package lives at `crates/confbench`.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, as paths relative to the root with `/`
/// separators, sorted.
fn rust_files(dir: &str) -> Vec<String> {
    fn walk(root: &Path, rel: &str, out: &mut Vec<String>) {
        let Ok(entries) = fs::read_dir(root.join(rel)) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = format!("{rel}/{name}");
            match entry.file_type() {
                Ok(kind) if kind.is_dir() => walk(root, &path, out),
                Ok(kind) if kind.is_file() && name.ends_with(".rs") => out.push(path),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    walk(&root(), dir, &mut files);
    files.sort();
    files
}

/// The lines of a file, split at each `\n` only, as grep and awk split them.
fn lines(rel: &str) -> Vec<String> {
    let text = fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    text.split('\n').map(str::to_owned).collect()
}

/// The lines of a file that count as non-test code, numbered from 1: those
/// above its first line that names `#[cfg(test)]`. Files under a `tests/`
/// directory have none.
fn non_test_lines(rel: &str) -> Vec<(usize, String)> {
    if rel.contains("/tests/") {
        return Vec::new();
    }
    lines(rel)
        .into_iter()
        .enumerate()
        .take_while(|(_, line)| !line.contains("#[cfg(test)]"))
        .map(|(at, line)| (at + 1, line))
        .collect()
}

/// Whether `line` names a std lock: `std::sync::` followed by `Mutex`,
/// `RwLock` or `Condvar`, directly or inside its braces before the first
/// `}`; or `PoisonError` anywhere.
fn names_a_std_lock(line: &str) -> bool {
    const LOCKS: [&str; 3] = ["Mutex", "RwLock", "Condvar"];
    if line.contains("PoisonError") {
        return true;
    }
    line.match_indices("std::sync::").any(|(at, path)| {
        let rest = &line[at + path.len()..];
        match rest.strip_prefix('{') {
            Some(braced) => {
                let inside = braced.split('}').next().unwrap_or("");
                LOCKS.iter().any(|lock| inside.contains(lock))
            }
            None => LOCKS.iter().any(|lock| rest.starts_with(lock)),
        }
    })
}

/// CI step "One lock vocabulary": non-test code under `crates/` locks and
/// waits through `parking_lot` (the `third_party` stand-in), never through
/// `std::sync::{Mutex, RwLock, Condvar}` or `PoisonError`.
#[test]
fn one_lock_vocabulary() {
    let found: Vec<String> = rust_files("crates")
        .iter()
        .flat_map(|rel| {
            non_test_lines(rel)
                .into_iter()
                .filter(|(_, line)| names_a_std_lock(line))
                .map(move |(at, line)| format!("{rel}:{at}: {line}"))
        })
        .collect();
    assert!(found.is_empty(), "std locks in non-test code:\n{}", found.join("\n"));
}

/// Whether `line` is an `allow` attribute that names `unsafe_code`:
/// `#[allow(` or `#![allow(` after leading ASCII whitespace, with
/// `unsafe_code` first in the list or after a space or comma, before the
/// first `)`.
fn allows_unsafe_code(line: &str) -> bool {
    let line = line.trim_start_matches([' ', '\t', '\n', '\x0b', '\x0c', '\r']);
    let Some(list) = line.strip_prefix("#[allow(").or_else(|| line.strip_prefix("#![allow("))
    else {
        return false;
    };
    let list = list.split(')').next().unwrap_or("");
    list.starts_with("unsafe_code")
        || list.contains(" unsafe_code")
        || list.contains(",unsafe_code")
}

/// CI step "Unsafe code in two modules": every library root forbids unsafe
/// code, but httpd's and crypto's, which deny it; and exactly two modules
/// opt back in, `httpd/src/poll.rs` (epoll and eventfd over FFI) and
/// `crypto/src/sha256/ni.rs` (the SHA-NI kernel). Attributes count, not
/// comments that name them.
#[test]
fn unsafe_code_in_two_modules() {
    let mut wrong = Vec::new();
    let Ok(crates) = fs::read_dir(root().join("crates")) else { panic!("no crates/ directory") };
    let mut roots: Vec<String> = crates
        .flatten()
        .map(|entry| format!("crates/{}/src/lib.rs", entry.file_name().to_string_lossy()))
        .filter(|rel| root().join(rel).is_file())
        .collect();
    roots.sort();
    for rel in &roots {
        let want = match rel.as_str() {
            "crates/httpd/src/lib.rs" | "crates/crypto/src/lib.rs" => "#![deny(unsafe_code)]",
            _ => "#![forbid(unsafe_code)]",
        };
        if !lines(rel).iter().any(|line| line == want) {
            wrong.push(format!("{rel}: expected {want}"));
        }
    }
    let allowed: Vec<String> = rust_files("crates")
        .into_iter()
        .filter(|rel| lines(rel).iter().any(|line| allows_unsafe_code(line)))
        .collect();
    if allowed != ["crates/crypto/src/sha256/ni.rs", "crates/httpd/src/poll.rs"] {
        wrong.push(format!("allow(unsafe_code) outside the two modules: {allowed:?}"));
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn the_patterns_match_what_the_steps_matched() {
    for hit in [
        "use std::sync::Mutex;",
        "use std::sync::{Arc, Mutex};",
        "let m = std::sync::RwLock::new(0);",
        "std::sync::{atomic::AtomicU64, Condvar}",
        "std::sync::MutexGuard",
        "Err(PoisonError { .. })",
    ] {
        assert!(names_a_std_lock(hit), "{hit}");
    }
    for miss in [
        "use std::sync::Arc;",
        "use std::sync::{atomic::{AtomicU64}, Mutex};",
        "use std::sync::{Arc}; // Mutex",
        "use parking_lot::Mutex;",
        "std::sync::mpsc::channel",
    ] {
        assert!(!names_a_std_lock(miss), "{miss}");
    }
    for hit in
        ["#[allow(unsafe_code)]", "  #![allow(dead_code, unsafe_code)]", "#[allow(x,unsafe_code)]"]
    {
        assert!(allows_unsafe_code(hit), "{hit}");
    }
    for miss in [
        "// #[allow(unsafe_code)]",
        "#[allow(dead_code)] // unsafe_code",
        "#[allow(not_unsafe_code)]",
        "#[cfg_attr(x, allow(unsafe_code))]",
    ] {
        assert!(!allows_unsafe_code(miss), "{miss}");
    }
}
