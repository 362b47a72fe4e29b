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

/// The file `rel`, or every file under the directory `rel` (symbolic links
/// inside it not followed, as `grep -r` does), as paths relative to the
/// root with `/` separators, sorted. A missing path has none.
fn files(rel: &str) -> Vec<String> {
    fn walk(root: &Path, rel: &str, out: &mut Vec<String>) {
        let Ok(entries) = fs::read_dir(root.join(rel)) else { return };
        for entry in entries.flatten() {
            let path = format!("{rel}/{}", entry.file_name().to_string_lossy());
            match entry.file_type() {
                Ok(kind) if kind.is_dir() => walk(root, &path, out),
                Ok(kind) if kind.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    if root().join(rel).is_file() {
        return vec![rel.to_owned()];
    }
    let mut files = Vec::new();
    walk(&root(), rel, &mut files);
    files.sort();
    files
}

/// Every `.rs` file under `dir`, as [`files`] lists them.
fn rust_files(dir: &str) -> Vec<String> {
    files(dir).into_iter().filter(|rel| rel.ends_with(".rs")).collect()
}

/// The `Cargo.toml` of every package directory under `crates/`, sorted.
fn manifests() -> Vec<String> {
    let Ok(crates) = fs::read_dir(root().join("crates")) else { panic!("no crates/ directory") };
    let mut manifests: Vec<String> = crates
        .flatten()
        .map(|entry| format!("crates/{}/Cargo.toml", entry.file_name().to_string_lossy()))
        .filter(|rel| root().join(rel).is_file())
        .collect();
    manifests.sort();
    manifests
}

/// The text of a file.
fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The lines of a file, split at each `\n` only, as grep and awk split them.
fn lines(rel: &str) -> Vec<String> {
    read(rel).split('\n').map(str::to_owned).collect()
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

/// CI step "No ambient configuration": nothing under `crates/` reads the
/// environment; flags go to a config struct, and it to the component. The
/// one exception is a test budget, `CONFBENCH_FUZZ_ITERS`, which
/// `crypto/src/fuzz.rs` reads for the fuzz sweeps. Every line of every
/// `.rs` file counts, tests and comments included.
#[test]
fn no_ambient_configuration() {
    let found: Vec<String> = rust_files("crates")
        .iter()
        .filter(|rel| *rel != "crates/crypto/src/fuzz.rs")
        .flat_map(|rel| {
            lines(rel)
                .into_iter()
                .enumerate()
                .filter(|(_, line)| line.contains("env::var"))
                .map(move |(at, line)| format!("{rel}:{}:{line}", at + 1))
        })
        .collect();
    assert!(found.is_empty(), "environment reads under crates/:\n{}", found.join("\n"));
}

/// The packages a manifest declares under `[dependencies]` and
/// `[dev-dependencies]`: each line of those sections that starts with a
/// lowercase ASCII letter, up to its first space, `.` or `=`.
fn declared_dependencies(manifest: &str) -> Vec<String> {
    let mut on = false;
    let mut deps = Vec::new();
    for line in manifest.split('\n') {
        if line.starts_with('[') {
            on = line.starts_with("[dependencies]") || line.starts_with("[dev-dependencies]");
        } else if on && line.starts_with(|c: char| c.is_ascii_lowercase()) {
            deps.extend(line.split([' ', '.', '=']).next().map(str::to_owned));
        }
    }
    deps
}

/// The files a manifest in `dir` attaches from outside its package, by a
/// line that starts `path = "../../`.
fn attached_paths(dir: &str, manifest: &str) -> Vec<String> {
    manifest
        .split('\n')
        .filter_map(|line| line.strip_prefix("path = \"")?.split_once('"'))
        .filter(|(path, _)| path.starts_with("../../"))
        .map(|(path, _)| format!("{dir}/{path}"))
        .collect()
}

/// Whether `word` occurs in `text` with no letter, digit or `_` on either
/// side, as `grep -w` matches it.
fn names_word(text: &str, word: &str) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        !text[..at].chars().next_back().is_some_and(is_word)
            && !text[at + word.len()..].chars().next().is_some_and(is_word)
    })
}

/// CI step "No unused dependency edges": every crate a package declares is
/// named, as a word with `-` written `_`, in its sources: any file under
/// its `src/` and `tests/`, or a root test or example its manifest
/// attaches by path.
#[test]
fn no_unused_dependency_edges() {
    let mut unused = Vec::new();
    for manifest in manifests() {
        let dir = manifest.trim_end_matches("/Cargo.toml");
        let text = read(&manifest);
        let mut sources = files(&format!("{dir}/src"));
        sources.extend(files(&format!("{dir}/tests")));
        for path in attached_paths(dir, &text) {
            sources.extend(files(&path));
        }
        let texts: Vec<String> = sources
            .iter()
            .filter_map(|rel| fs::read(root().join(rel)).ok())
            .map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
            .collect();
        for dep in declared_dependencies(&text) {
            let word = dep.replace('-', "_");
            if !texts.iter().any(|text| names_word(text, &word)) {
                unused.push(format!("{manifest}: {dep} is declared but never named"));
            }
        }
    }
    assert!(unused.is_empty(), "{}", unused.join("\n"));
}

/// A line's code: the line up to its first `//`, as the steps' awk
/// `sub(/\/\/.*/, "", code)` cut it (a `//` inside a string literal cuts
/// there too).
fn code(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at])
}

/// Whether `text` holds, at a word boundary, `keyword` (`struct ` or
/// `enum `), a name of ASCII letters, digits and `_`, and then text that
/// `rest` accepts: the awk pattern `(^|[^A-Za-z0-9_])struct [A-Za-z0-9_]+`
/// and what follows it. Every place the pattern can start is tried.
fn item_then(text: &str, keyword: &str, rest: impl Fn(&str) -> bool) -> bool {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(keyword).any(|(at, keyword)| {
        if text[..at].chars().next_back().is_some_and(is_word) {
            return false;
        }
        let after = &text[at + keyword.len()..];
        let name = after.len() - after.trim_start_matches(is_word).len();
        // What follows the name may also take name characters, but the
        // patterns after it never stop at one: the whole name will do.
        name > 0 && rest(&after[name..])
    })
}

/// The header of a struct or enum whose fields or variants follow on the
/// next lines: `struct Name` or `enum Name`, then no `;` or `{` up to a `{`
/// that only whitespace follows (`[^;{]*\{[[:space:]]*$`).
fn opens_a_type(code: &str) -> bool {
    ["struct ", "enum "].into_iter().any(|keyword| {
        item_then(code, keyword, |rest| {
            rest.find(['{', ';']).is_some_and(|at| {
                rest[at..].starts_with('{')
                    && rest[at + 1..].chars().all(|c| c == ' ' || ('\t'..='\r').contains(&c))
            })
        })
    })
}

/// A tuple struct's header: `struct Name`, then no `;` or `{` up to a `(`
/// (`[^;{]*\(`).
fn opens_a_tuple_struct(code: &str) -> bool {
    item_then(code, "struct ", |rest| {
        rest.find(['(', ';', '{']).is_some_and(|at| rest[at..].starts_with('('))
    })
}

/// The non-test lines of the `.rs` files under `dirs` where a type holds
/// `word`: the lines of a named struct or enum below its header, up to a
/// line that starts with `}`, and a tuple struct's header line. Comments do
/// not count.
fn types_holding(dirs: &[&str], word: &str) -> Vec<String> {
    let mut found = Vec::new();
    for rel in dirs.iter().flat_map(|dir| rust_files(dir)) {
        let mut in_type = false;
        for (at, line) in non_test_lines(&rel) {
            let code = code(&line);
            if opens_a_type(code) {
                in_type = true;
                continue;
            }
            if in_type
                && code.trim_start_matches([' ', '\t', '\x0b', '\x0c', '\r']).starts_with('}')
            {
                in_type = false;
            }
            if (in_type || opens_a_tuple_struct(code)) && code.contains(word) {
                found.push(format!("{rel}:{at}: {line}"));
            }
        }
    }
    found
}

/// CI step "Finished cells keep no span tree": no non-test struct or enum
/// under `crates/sched` or `crates/fleet` holds a `TraceSpan`. A finished
/// job keeps its span tree packed into one allocation
/// (`confbench_types::PackedTrace`).
#[test]
fn finished_cells_keep_no_span_tree() {
    let found = types_holding(&["crates/sched", "crates/fleet"], "TraceSpan");
    assert!(found.is_empty(), "span trees kept whole:\n{}", found.join("\n"));
}

/// CI step "A placed cell is recorded once": no non-test struct or enum
/// under `crates/fleet/src` holds a `CampaignCell`. A placed cell's one
/// record is its job on its shard (`confbench_sched::Scheduler`); the
/// fleet keeps only each campaign's partitions and the counts of cells
/// that have no live job.
#[test]
fn a_placed_cell_is_recorded_once() {
    let found = types_holding(&["crates/fleet/src"], "CampaignCell");
    assert!(found.is_empty(), "cells the fleet records itself:\n{}", found.join("\n"));
}

/// CI step "One router per server role": non-test code under `crates/`
/// builds a `Router` in three places only, the daemon
/// (`fleet/src/rest.rs`), the host agent (`confbench/src/host.rs`) and the
/// reactor figure (`bench/src/c10k.rs`). Everything else adds its routes to
/// one of those, as `Gateway::add_routes` does. Comments do not count.
#[test]
fn one_router_per_server_role() {
    const ROLES: [&str; 3] =
        ["crates/fleet/src/rest.rs", "crates/confbench/src/host.rs", "crates/bench/src/c10k.rs"];
    let found: Vec<String> = rust_files("crates")
        .iter()
        .filter(|rel| !ROLES.contains(&rel.as_str()))
        .flat_map(|rel| {
            non_test_lines(rel)
                .into_iter()
                .filter(|(_, line)| code(line).contains("Router::new()"))
                .map(move |(at, line)| format!("{rel}:{at}: {line}"))
        })
        .collect();
    assert!(found.is_empty(), "routers outside the three roles:\n{}", found.join("\n"));
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
    let manifest = "[package]\nname = \"x\"\n[dependencies]\nserde.workspace = true\n\
                    confbench-types = { path = \"../types\" }\n# comment\n\
                    [dependencies.extra]\nversion = \"1\"\n[dev-dependencies]\n\
                    serde_json = \"1\"\n[[test]]\nname = \"t\"\npath = \"../../tests/t.rs\"\n\
                    path = \"src/main.rs\"\n";
    assert_eq!(declared_dependencies(manifest), ["serde", "confbench-types", "serde_json"]);
    assert_eq!(attached_paths("crates/x", manifest), ["crates/x/../../tests/t.rs"]);
    for hit in ["use confbench_types::Op;", "confbench_types", "(confbench_types)"] {
        assert!(names_word(hit, "confbench_types"), "{hit}");
    }
    for miss in
        ["confbench_types_x", "my_confbench_types::Op", "confbench-types", "éconfbench_types"]
    {
        assert!(!names_word(miss, "confbench_types"), "{miss}");
    }
    for hit in [
        "struct JobRecord {",
        "pub(crate) struct Aged<V> {  ",
        "    struct A where T: Copy {\t",
        "x:struct B {",
        "enum Progress {",
        "pub(crate) enum E<T> where T: Copy {",
    ] {
        assert!(opens_a_type(hit), "{hit}");
    }
    for miss in [
        "struct Unit;",
        "struct Open { a: u8 }",
        "mystruct Job {",
        "struct  Job {",
        "struct Job; {",
        "struct é {",
        "struct Pair(u8, u8);",
        "enum Unit;",
        "enum Open { A }",
        "myenum E {",
    ] {
        assert!(!opens_a_type(miss), "{miss}");
    }
    for hit in ["struct Packed(Box<[u8]>);", "pub struct Id(pub String);", "struct T<A>(A)"] {
        assert!(opens_a_tuple_struct(hit), "{hit}");
    }
    for miss in ["struct Job { f: fn(u8) }", "struct Unit; fn f()", "let x = mystruct A(1);"] {
        assert!(!opens_a_tuple_struct(miss), "{miss}");
    }
    assert_eq!(code("let r = Router::new(); // Router::new()"), "let r = Router::new(); ");
    assert_eq!(code("// Router::new()"), "");
}
