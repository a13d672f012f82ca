//! The public surface is one something calls: every `pub fn` / `pub const` of
//! every crate is named, by identifier, outside that crate's library source
//! (`src/` less `src/bin/`) or sits in [`ALLOW`] with its reason. Types are
//! exempt: a name cannot judge one reachable through a public field or signature.
//!
//! The `unsafe` inventory is checked the same way: every file that writes
//! `unsafe` in code sits in [`UNSAFE`] with its reason.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// `(crate directory, item, why it is public though nothing outside names it)`.
const ALLOW: &[(&str, &str, &str)] = &[
    ("crates/core", "total_copies", "reference cost model; compat's own tests sum it"),
    ("crates/shims/proptest", "from_name", "named by `proptest!`'s expansion, as `$crate::`"),
    ("crates/trace", "adopt_counter", "named by `instruments!`'s expansion in every subsystem"),
    ("crates/trace", "adopt_histogram", "named by `instruments!`'s expansion in every subsystem"),
];

/// `(file, why it needs unsafe)`: a foreign call, an interface only unsafe
/// code can implement, or a measured gain.
const UNSAFE: &[(&str, &str)] = &[
    ("crates/runtime/tests/counting_alloc/mod.rs", "implements `GlobalAlloc`"),
    ("crates/bench/src/sample.rs", "`ptrace` and `waitpid` FFI"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let (path, name) = (entry.path(), entry.file_name());
        if path.is_dir() && name != "target" && name != "out" {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(file!()) {
            out.push(path);
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// The identifiers `text` declares `pub fn` or `pub const`.
fn declared(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter_map(|line| {
        let mut w = words(line.trim_start().strip_prefix("pub ")?);
        match (w.next()?, w.next()?) {
            ("fn", name) => Some(name),
            ("const", "fn") => w.next(),
            ("const", name) => Some(name),
            _ => None,
        }
    })
}

#[test]
fn every_pub_fn_and_const_is_named_outside_its_crate_or_allowlisted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut files, mut crates) = (Vec::new(), vec![root.to_path_buf()]);
    for top in ["crates", "src", "tests", "examples", "benchmark"] {
        rust_files(&root.join(top), &mut files);
    }
    for dir in ["crates", "crates/shims"] {
        let members = std::fs::read_dir(root.join(dir)).expect("workspace layout").flatten();
        crates.extend(members.map(|e| e.path()).filter(|p| p.join("src/lib.rs").exists()));
    }
    // A file's home is the crate whose library source it is, if any.
    let lib =
        |k: &PathBuf, p: &Path| p.starts_with(k.join("src")) && !p.starts_with(k.join("src/bin"));
    let home = |p: &PathBuf| crates.iter().position(|k| lib(k, p));
    let texts: Vec<(String, Option<usize>, &PathBuf)> =
        files.iter().map(|p| (std::fs::read_to_string(p).expect("utf-8"), home(p), p)).collect();
    let mut homes: HashMap<&str, BTreeSet<Option<usize>>> = HashMap::new();
    for (text, home, _) in &texts {
        words(text).for_each(|w| _ = homes.entry(w).or_default().insert(*home));
    }
    let (mut unnamed, mut excused) = (Vec::new(), BTreeSet::new());
    for (text, home, path) in &texts {
        let Some(k) = *home else { continue };
        let dir = crates[k].strip_prefix(root).expect("under the root").to_str().expect("utf-8");
        for name in declared(text).filter(|n| homes[n].iter().all(|h| *h == Some(k))) {
            match ALLOW.iter().find(|(d, n, _)| (*d, *n) == (dir, name)) {
                Some(entry) => _ = excused.insert(entry),
                None => unnamed.push(format!("{}: `{name}`", path.display())),
            }
        }
    }
    assert!(unnamed.is_empty(), "narrow to pub(crate), then delete what is dead: {unnamed:#?}");
    let stale: Vec<_> = ALLOW.iter().filter(|e| e.2.is_empty() || !excused.contains(e)).collect();
    assert!(stale.is_empty(), "allowlisted, yet named elsewhere, narrowed or gone: {stale:?}");
}

#[test]
fn every_file_that_writes_unsafe_is_inventoried() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in ["crates", "src", "tests"] {
        rust_files(&root.join(top), &mut files);
    }
    // A line's code is what precedes its comment, if any.
    let code = |line: &str| line.split("//").next().unwrap_or(line).to_owned();
    let mut found = BTreeSet::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("utf-8");
        if text.lines().any(|line| words(&code(line)).any(|w| w == "unsafe")) {
            found.insert(path.strip_prefix(root).expect("under the root").to_path_buf());
        }
    }
    let listed: BTreeSet<PathBuf> = UNSAFE.iter().map(|(file, _)| PathBuf::from(file)).collect();
    let unlisted: Vec<_> = found.difference(&listed).collect();
    assert!(unlisted.is_empty(), "`unsafe` with no reason in UNSAFE: {unlisted:?}");
    let stale: Vec<_> = listed.difference(&found).collect();
    assert!(stale.is_empty(), "in UNSAFE, yet no `unsafe` there: {stale:?}");
}
