//! The committed artifacts, judged by the same evaluator as a live run:
//! every bound a `BENCH_*.json` records beside a row must hold for that
//! row, no artifact may carry a wall-clock absolute, and the two divide
//! `report`'s experiments between them. And the documents, held to what they
//! share with the artifacts and the code: EXPERIMENTS.md's rendered blocks
//! are the artifacts', DESIGN.md's module and experiment names exist and
//! index every experiment.

use flexrpc_bench::rows::{self, Rel};
use std::collections::BTreeMap;

/// The repository root.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");

/// The committed artifacts, by their paths from the root.
const ARTIFACTS: [&str; 2] = ["BENCH_exact.json", "BENCH_paper.json"];

/// A committed file, by its path from the root.
fn committed(path: &str) -> String {
    std::fs::read_to_string(format!("{ROOT}{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Reads the `figures` object of an artifact written by `rows::to_json`:
/// one `"name": {` line opens a section, each `"row": number` line inside
/// it is an entry.
fn figures(path: &str) -> BTreeMap<String, BTreeMap<String, f64>> {
    let text = committed(path);
    let mut sections: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut current = None;
    for line in text.lines().skip_while(|l| !l.contains("\"figures\"")).skip(1) {
        let Some((key, value)) = line.trim().trim_end_matches(',').split_once("\": ") else {
            if line.starts_with("  }") {
                break; // End of `figures`.
            }
            continue;
        };
        let key = key.trim_start_matches('"').to_string();
        if value == "{" {
            current = Some(key);
        } else {
            let section = current.clone().expect("rows sit inside a section");
            let value = value.parse().unwrap_or_else(|_| panic!("{path}: {key} = {value}"));
            let duplicate = sections.entry(section).or_default().insert(key.clone(), value);
            assert!(duplicate.is_none(), "{path}: `{key}` appears twice");
        }
    }
    sections
}

/// The experiments `report` lists on its usage line, in report order.
fn experiments() -> Vec<String> {
    let usage = std::process::Command::new(env!("CARGO_BIN_EXE_report")).arg("?").output();
    let usage = String::from_utf8(usage.expect("report runs").stderr).expect("utf-8");
    let listed = usage.lines().find_map(|l| l.strip_prefix("experiments: ")).expect("usage line");
    listed.split(' ').map(String::from).collect()
}

/// The two artifacts divide `report`'s experiments between them: each
/// experiment is a section of exactly one, and neither holds a section
/// `report` no longer runs.
#[test]
fn the_artifacts_hold_every_experiment_once() {
    let mut held: Vec<String> =
        ARTIFACTS.iter().flat_map(|path| figures(path).into_keys()).collect();
    held.sort_unstable();
    let mut listed = experiments();
    listed.sort_unstable();
    assert_eq!(held, listed, "artifact sections vs `report`'s experiments");
}

#[test]
fn committed_artifacts_satisfy_every_bound_they_record() {
    for path in ARTIFACTS {
        let sections = figures(path);
        let mut bounds = 0;
        for (name, stored) in &sections {
            assert_eq!(rows::check(stored), Vec::<String>::new(), "{path}: {name}");
            bounds += stored.keys().filter(|k| Rel::of_bound(k).is_some()).count();
            for row in stored.keys() {
                let wall = ["-calls-per-sec", "-ns-per-call", "-mbps", "-lookups-per-sec"];
                assert!(!wall.iter().any(|w| row.contains(w)), "{path}: wall row `{row}`");
            }
        }
        assert!(bounds > 0, "{path} records no bound at all");
    }
}

/// Every number EXPERIMENTS.md shares with an artifact sits in a block
/// `report --json` wrote there: splicing the committed artifacts in again
/// must change nothing, and no block names a section no artifact holds.
#[test]
fn experiments_md_blocks_are_the_committed_artifacts_rendered() {
    let doc = committed("EXPERIMENTS.md");
    let artifacts = ARTIFACTS.map(|path| (path, figures(path)));
    let orphans: Vec<&str> = doc
        .lines()
        .filter_map(|line| line.strip_prefix("<!-- report:")?.strip_suffix(" -->"))
        .filter(|name| !artifacts.iter().any(|(_, sections)| sections.contains_key(*name)))
        .collect();
    assert!(orphans.is_empty(), "EXPERIMENTS.md renders blocks no artifact holds: {orphans:?}");
    for (path, sections) in &artifacts {
        let blocks = sections.iter().map(|(name, stored)| (name.as_str(), stored));
        let rendered = rows::splice_blocks(&doc, blocks).unwrap_or_else(|e| panic!("{path}: {e}"));
        let stale = doc.lines().zip(rendered.lines()).find(|(have, want)| have != want);
        if let Some((have, want)) = stale {
            panic!("EXPERIMENTS.md differs from {path}:\n  document: {have}\n  artifact: {want}");
        }
        assert_eq!(doc.len(), rendered.len(), "EXPERIMENTS.md: a block of {path} lost its tail");
    }
}

/// DESIGN.md §2 (inventory) and §4 (experiment index) name modules and
/// experiments; each name must exist. A path is a backticked
/// `crate::module[::…]` in lower case (`stream::{credit, sender}` names two):
/// `crates/<crate>/src/<module>.rs` or `<module>/mod.rs` must be a file, and
/// `lib` is the crate root. An experiment is a backticked `report <name>`,
/// which `report` itself must list.
#[test]
fn design_md_module_and_experiment_names_resolve() {
    let doc = committed("DESIGN.md");
    let section = |from: &str, to: &str| {
        let start = doc.find(from).unwrap_or_else(|| panic!("DESIGN.md has no `{from}`"));
        &doc[start..start + doc[start..].find(to).unwrap_or_else(|| panic!("no `{to}`"))]
    };
    let text = [section("\n## 2.", "\n## 3."), section("\n## 4.", "\n## 5.")].concat();
    let experiments = experiments();

    let lower = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c == '_');
    let (mut modules, mut named, mut missing) = (0, Vec::new(), Vec::new());
    for span in text.split('`').skip(1).step_by(2) {
        if let Some(name) = span.strip_prefix("report ") {
            let name = name.split(' ').next().expect("split yields one");
            if !experiments.iter().any(|e| e == name) {
                missing.push(format!("`report {name}` is not one of: {experiments:?}"));
            }
            named.push(name);
        }
        let Some((krate, rest)) = span.split_once("::").filter(|(k, _)| lower(k)) else { continue };
        let rest = rest.split("::").next().expect("split yields one");
        for module in rest.trim_matches(['{', '}']).split(',').map(str::trim).filter(|m| lower(m)) {
            let src = format!("crates/{krate}/src");
            let file = if module == "lib" { "lib.rs".into() } else { format!("{module}.rs") };
            let found = [format!("{ROOT}{src}/{file}"), format!("{ROOT}{src}/{module}/mod.rs")];
            if !found.iter().any(|f| std::path::Path::new(f).is_file()) {
                missing.push(format!("`{krate}::{module}` has no file {src}/{file}"));
            }
            modules += 1;
        }
    }
    assert!(missing.is_empty(), "DESIGN.md §2 / §4 name what does not exist: {missing:#?}");
    let unindexed: Vec<&String> =
        experiments.iter().filter(|e| !named.contains(&e.as_str())).collect();
    assert!(unindexed.is_empty(), "DESIGN.md §4 indexes no `report` for: {unindexed:?}");
    assert!(modules >= 20, "the scan read the tables: {modules} module paths");
}
