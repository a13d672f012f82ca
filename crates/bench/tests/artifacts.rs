//! The committed artifacts, judged by the same evaluator as a live run:
//! every bound a `BENCH_*.json` records beside a row must hold for that
//! row, and no artifact may carry a wall-clock absolute.

use flexrpc_bench::rows::{self, Rel};
use std::collections::BTreeMap;

/// Reads the `figures` object of an artifact written by `rows::to_json`:
/// one `"name": {` line opens a section, each `"row": number` line inside
/// it is an entry.
fn figures(path: &str) -> BTreeMap<String, BTreeMap<String, f64>> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let text = std::fs::read_to_string(format!("{root}{path}")).expect("artifact is committed");
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

#[test]
fn committed_artifacts_satisfy_every_bound_they_record() {
    for (path, experiments) in [("BENCH_exact.json", 6), ("BENCH_paper.json", 10)] {
        let sections = figures(path);
        assert_eq!(sections.len(), experiments, "{path}: {:?}", sections.keys());
        let mut bounds = 0;
        for (name, stored) in &sections {
            assert_eq!(rows::check(stored), Vec::<String>::new(), "{path}: {name}");
            let is_bound = |k: &&String| {
                k.rsplit_once('.').is_some_and(|(_, key)| Rel::from_key(key).is_some())
            };
            bounds += stored.keys().filter(is_bound).count();
            for row in stored.keys() {
                let wall = ["-calls-per-sec", "-ns-per-call", "-mbps", "-lookups-per-sec"];
                assert!(!wall.iter().any(|w| row.contains(w)), "{path}: wall row `{row}`");
            }
        }
        assert!(bounds > 0, "{path} records no bound at all");
    }
}
