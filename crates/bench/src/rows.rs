//! Result rows: the one declaration the printer, the JSON artifact and the
//! gate evaluator all derive from.
//!
//! An experiment returns [`Row`]s. Each row is declared once — name,
//! value, [`Kind`], and any `(relation, bound)` gates — and everything
//! downstream reads that declaration: [`print()`] shows it, [`entries`]
//! flattens it to what an artifact stores (a gate becomes the row
//! `<subject>.<relation>` holding the bound, written beside its subject),
//! [`check`] evaluates every bound entry against its subject entry,
//! [`to_json`] serializes the entries and [`splice_blocks`] renders them as
//! the markdown tables EXPERIMENTS.md carries.
//! Because the evaluator and the renderer work on the stored form, the same
//! functions judge and render a run in progress and a committed
//! `BENCH_*.json` (`tests/artifacts.rs`).

use flexrpc_trace::MetricsSnapshot;
use std::collections::{BTreeMap, BTreeSet};

/// What a value is, which decides where it may go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A counter, a copy schedule, sim-clock nanoseconds, a byte-identical
    /// replay: the same number on every run and every machine.
    Exact,
    /// An ordering or ratio taken from alternating paired rounds: varies in
    /// the last digits, keeps its side of a bound.
    Shape,
    /// A wall-clock absolute. Printed for the reader, never written to an
    /// artifact and never gated — `benchmark/` owns those numbers.
    Wall,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Shape => "shape",
            Kind::Wall => "wall",
        }
    }
}

/// How a gated row must stand to its bound: `value REL bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
}

impl Rel {
    const ALL: [Rel; 5] = [Rel::Lt, Rel::Le, Rel::Eq, Rel::Ge, Rel::Gt];

    /// The suffix a bound entry carries after its subject's name.
    pub fn key(self) -> &'static str {
        match self {
            Rel::Lt => "lt",
            Rel::Le => "le",
            Rel::Eq => "eq",
            Rel::Ge => "ge",
            Rel::Gt => "gt",
        }
    }

    /// Splits a bound entry's name, `<subject>.<relation>`, into its two
    /// halves; `None` for a name that is a row's own.
    pub fn of_bound(name: &str) -> Option<(&str, Rel)> {
        let (subject, key) = name.rsplit_once('.')?;
        Some((subject, Rel::ALL.into_iter().find(|r| r.key() == key)?))
    }

    fn symbol(self) -> &'static str {
        match self {
            Rel::Lt => "<",
            Rel::Le => "<=",
            Rel::Eq => "==",
            Rel::Ge => ">=",
            Rel::Gt => ">",
        }
    }

    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Rel::Lt => value < bound,
            Rel::Le => value <= bound,
            Rel::Eq => value == bound,
            Rel::Ge => value >= bound,
            Rel::Gt => value > bound,
        }
    }
}

/// One reported value, declared once.
#[derive(Debug, Clone)]
pub struct Row {
    name: String,
    value: f64,
    kind: Kind,
    gates: Vec<(Rel, f64)>,
}

impl Row {
    fn new(name: impl Into<String>, value: f64, kind: Kind) -> Row {
        Row { name: name.into(), value, kind, gates: Vec::new() }
    }

    pub fn exact(name: impl Into<String>, value: impl Into<f64>) -> Row {
        Row::new(name, value.into(), Kind::Exact)
    }

    /// An exact count. Counts here stay far below 2^53, where `f64` is
    /// still exact.
    pub fn count(name: impl Into<String>, value: u64) -> Row {
        Row::new(name, value as f64, Kind::Exact)
    }

    /// An exact yes/no (a byte-identical replay, contents intact), stored
    /// as 1 or 0.
    pub fn flag(name: impl Into<String>, value: bool) -> Row {
        Row::count(name, value as u64)
    }

    pub fn shape(name: impl Into<String>, value: f64) -> Row {
        Row::new(name, value, Kind::Shape)
    }

    pub fn wall(name: impl Into<String>, value: f64) -> Row {
        Row::new(name, value, Kind::Wall)
    }

    /// Declares that `value rel bound` must hold.
    ///
    /// # Panics
    /// On a [`Kind::Wall`] row: a wall-clock absolute is never gated.
    pub fn gate(mut self, rel: Rel, bound: impl Into<f64>) -> Row {
        assert!(self.kind != Kind::Wall, "wall row `{}` cannot carry a gate", self.name);
        self.gates.push((rel, bound.into()));
        self
    }

    /// [`Row::gate`] against a count.
    pub fn gate_count(self, rel: Rel, bound: u64) -> Row {
        self.gate(rel, bound as f64)
    }
}

/// Prints one experiment's rows: name, value, kind, declared bounds.
pub fn print(rows: &[Row]) {
    // Exact values print in full; measured ones to three places.
    let show = |kind: Kind, v: f64| match kind {
        Kind::Exact => format!("{v}"),
        _ if v.fract() == 0.0 => format!("{v}"),
        _ => format!("{v:.3}"),
    };
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
    for row in rows {
        let bounds: String = row
            .gates
            .iter()
            .map(|(rel, bound)| format!("  {} {}", rel.symbol(), show(row.kind, *bound)))
            .collect();
        let value = show(row.kind, row.value);
        println!("  {:width$}  {value:>16}  {}{bounds}", row.name, row.kind.label());
    }
}

/// Flattens rows to what an artifact stores: every exact and shape row
/// under its name, every gate as `<name>.<relation>` holding its bound.
/// Wall rows are left out. A name that appears twice is an error.
pub fn entries(rows: &[Row]) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let mut seen = BTreeSet::new();
    for row in rows {
        let bounds =
            row.gates.iter().map(|(rel, bound)| (format!("{}.{}", row.name, rel.key()), *bound));
        for (name, value) in std::iter::once((row.name.clone(), row.value)).chain(bounds) {
            if !seen.insert(name.clone()) {
                return Err(format!("row `{name}` is declared twice"));
            }
            // A wall row holds its name against reuse but is not stored.
            if row.kind != Kind::Wall {
                out.insert(name, value);
            }
        }
    }
    Ok(out)
}

/// The gate evaluator: every `<subject>.<relation>` entry is a bound its
/// subject entry must satisfy. Returns one message per violation — a
/// subject on the wrong side of its bound, a bound naming no subject, a
/// value that is not a finite number.
pub fn check(entries: &BTreeMap<String, f64>) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, &value) in entries {
        if !value.is_finite() {
            failures.push(format!("`{name}` is {value}, not a finite number"));
            continue;
        }
        let Some((subject, rel)) = Rel::of_bound(name) else {
            continue;
        };
        match entries.get(subject) {
            None => failures.push(format!("bound `{name}` names no row `{subject}`")),
            Some(&v) if !rel.holds(v, value) => {
                failures.push(format!("`{subject}` = {v} is not {} {value}", rel.symbol()));
            }
            Some(_) => {}
        }
    }
    failures
}

/// Renders one artifact section as a markdown table: a line per stored row,
/// its bounds beside it. Whole numbers print in full, measured ones to four
/// places.
fn to_markdown(stored: &BTreeMap<String, f64>) -> String {
    let show = |v: f64| if v.fract() == 0.0 { format!("{v}") } else { format!("{v:.4}") };
    let mut out = String::from("| row | value | gate |\n|---|---|---|\n");
    for (name, &value) in stored.iter().filter(|(name, _)| Rel::of_bound(name).is_none()) {
        let bound = |rel: Rel| Some((rel, *stored.get(&format!("{name}.{}", rel.key()))?));
        let gates: Vec<String> = Rel::ALL
            .into_iter()
            .filter_map(bound)
            .map(|(rel, b)| format!("{} {}", rel.symbol(), show(b)))
            .collect();
        out.push_str(&format!("| `{name}` | {} | {} |\n", show(value), gates.join(", ")));
    }
    out
}

/// Replaces, in `doc`, what stands between `<!-- report:NAME -->` and
/// `<!-- /report:NAME -->` with section NAME rendered as a table, for every
/// section given. The one way a block gets into a document — `report
/// --json` calls it as it writes an artifact — and so also the check that a
/// document agrees with an artifact: splicing the artifact in changes
/// nothing. A section whose markers are missing is an error.
pub fn splice_blocks<'a>(
    doc: &str,
    sections: impl IntoIterator<Item = (&'a str, &'a BTreeMap<String, f64>)>,
) -> Result<String, String> {
    let mut doc = doc.to_string();
    for (name, stored) in sections {
        let (open, close) =
            (format!("<!-- report:{name} -->\n"), format!("<!-- /report:{name} -->"));
        let start = doc.find(&open).map(|at| at + open.len());
        let end = start.and_then(|start| Some(start + doc[start..].find(&close)?));
        let (Some(start), Some(end)) = (start, end) else {
            return Err(format!("no block `{}` … `{close}`", open.trim_end()));
        };
        doc.replace_range(start..end, &to_markdown(stored));
    }
    Ok(doc)
}

/// Serializes artifact sections (experiment name → its [`entries`]) and
/// the metrics the experiments populated as pretty-printed JSON. Names are
/// plain ASCII labels and values finite (a non-finite one fails [`check`],
/// and a failed check is never written), so escaping needs only the basics.
pub fn to_json(
    sections: &BTreeMap<&str, BTreeMap<String, f64>>,
    metrics: &MetricsSnapshot,
) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
    }
    fn object(out: &mut String, indent: &str, members: impl Iterator<Item = (String, String)>) {
        out.push('{');
        for (i, (key, value)) in members.enumerate() {
            let comma = if i > 0 { "," } else { "" };
            out.push_str(&format!("{comma}\n{indent}  \"{}\": {value}", esc(&key)));
        }
        out.push_str(&format!("\n{indent}}}"));
    }
    // Schema 3: a gate is stored as `<row>.<relation>` beside its row;
    // wall-clock absolutes are no longer stored at all.
    let mut out = String::from("{\n  \"schema\": 3,\n  \"figures\": ");
    object(
        &mut out,
        "  ",
        sections.iter().map(|(name, rows)| {
            let mut section = String::new();
            object(&mut section, "    ", rows.iter().map(|(k, v)| (k.clone(), v.to_string())));
            (name.to_string(), section)
        }),
    );
    if !metrics.counters.is_empty() || !metrics.histograms.is_empty() {
        out.push_str(",\n  \"metrics\": {\n    \"counters\": ");
        object(
            &mut out,
            "    ",
            metrics.counters.iter().map(|(name, value)| (name.clone(), value.to_string())),
        );
        out.push_str(",\n    \"histograms\": ");
        object(
            &mut out,
            "    ",
            metrics.histograms.iter().map(|(name, h)| {
                let buckets: Vec<String> =
                    h.buckets.iter().map(|(lo, n)| format!("[{lo}, {n}]")).collect();
                let body = format!(
                    "{{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}",
                    h.count,
                    h.sum,
                    buckets.join(", ")
                );
                (name.clone(), body)
            }),
        );
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failures(rows: &[Row]) -> Vec<String> {
        check(&entries(rows).expect("distinct names"))
    }

    #[test]
    fn each_relation_judges_below_at_and_above_its_bound() {
        // (relation, holds below the bound, at it, above it)
        let table = [
            (Rel::Lt, true, false, false),
            (Rel::Le, true, true, false),
            (Rel::Eq, false, true, false),
            (Rel::Ge, false, true, true),
            (Rel::Gt, false, false, true),
        ];
        for (rel, below, at, above) in table {
            for (value, expect) in [(9.0, below), (10.0, at), (11.0, above)] {
                let failed = failures(&[Row::shape("subject", value).gate(rel, 10.0)]);
                assert_eq!(failed.is_empty(), expect, "{value} {rel:?} 10: {failed:?}");
            }
        }
    }

    #[test]
    fn every_gate_on_a_row_is_evaluated() {
        let row = |v: f64| Row::exact("recovery-ns", v).gate(Rel::Gt, 0.0).gate(Rel::Le, 50.0);
        assert!(failures(&[row(20.0)]).is_empty());
        assert_eq!(failures(&[row(0.0)]).len(), 1);
        assert_eq!(failures(&[row(51.0)]).len(), 1);
    }

    #[test]
    fn a_bound_naming_a_missing_subject_fails() {
        let mut stored = entries(&[Row::count("lost", 0).gate_count(Rel::Eq, 0)]).expect("ok");
        assert!(check(&stored).is_empty());
        stored.remove("lost");
        let failed = check(&stored);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("lost.eq") && failed[0].contains("names no row"));
    }

    #[test]
    fn duplicate_row_names_are_rejected() {
        let twice = [Row::count("hits", 1), Row::shape("hits", 2.0)];
        assert!(entries(&twice).expect_err("duplicate").contains("hits"));
        // A wall row takes its name too, though it is never stored.
        let wall = [Row::wall("ns", 1.0), Row::count("ns", 1)];
        assert!(entries(&wall).is_err());
        // A row may not squat on another row's bound entry either.
        let squat = [Row::count("lost", 0).gate_count(Rel::Eq, 0), Row::count("lost.eq", 3)];
        assert!(entries(&squat).is_err());
    }

    #[test]
    fn wall_rows_are_never_stored_and_never_gated() {
        let stored = entries(&[Row::wall("w1-calls-per-sec", 1e6), Row::count("inline", 8)])
            .expect("distinct");
        assert_eq!(stored.keys().collect::<Vec<_>>(), ["inline"]);
        let gated = std::panic::catch_unwind(|| Row::wall("ns", 1.0).gate(Rel::Lt, 2.0));
        assert!(gated.is_err(), "gating a wall row is a programming error");
    }

    #[test]
    fn a_non_finite_value_fails_the_check() {
        assert_eq!(failures(&[Row::shape("ratio", f64::INFINITY)]).len(), 1);
        assert_eq!(failures(&[Row::shape("ratio", f64::NAN)]).len(), 1);
    }

    #[test]
    fn dotted_names_that_are_not_bounds_are_plain_rows() {
        assert!(failures(&[Row::shape("0.5x-shed-rate", 0.0)]).is_empty());
        assert!(failures(&[Row::shape("2.0x-shed-rate", 0.5).gate(Rel::Gt, 0.0)]).is_empty());
    }

    #[test]
    fn markdown_blocks_show_bounds_beside_their_rows_and_splice_between_markers() {
        let rows = [
            Row::count("b-shed", 0).gate_count(Rel::Eq, 0),
            Row::shape("2.0x-shed-rate", 0.58217).gate(Rel::Gt, 0.0).gate(Rel::Le, 1.0),
            Row::wall("p99-us", 3.5),
        ];
        let stored = entries(&rows).expect("distinct");
        let block = "| row | value | gate |\n|---|---|---|\n\
                     | `2.0x-shed-rate` | 0.5822 | <= 1, > 0 |\n| `b-shed` | 0 | == 0 |\n";
        assert_eq!(to_markdown(&stored), block);

        let doc = "before\n<!-- report:qos -->\nstale\n<!-- /report:qos -->\nafter\n";
        let spliced = splice_blocks(doc, [("qos", &stored)]).expect("markers present");
        assert_eq!(
            spliced,
            format!("before\n<!-- report:qos -->\n{block}<!-- /report:qos -->\nafter\n")
        );
        assert_eq!(splice_blocks(&spliced, [("qos", &stored)]).as_deref(), Ok(&*spliced));
        assert!(splice_blocks(doc, [("shed", &stored)])
            .expect_err("no markers")
            .contains("report:shed"));
    }

    #[test]
    fn json_writes_bounds_beside_their_subjects() {
        let rows = [Row::count("b-shed", 0).gate_count(Rel::Eq, 0), Row::wall("p99-us", 3.5)];
        let sections = BTreeMap::from([("qos", entries(&rows).expect("distinct"))]);
        let json = to_json(&sections, &MetricsSnapshot::default());
        assert_eq!(
            json,
            "{\n  \"schema\": 3,\n  \"figures\": {\n    \"qos\": {\n      \"b-shed\": 0,\n      \
             \"b-shed.eq\": 0\n    }\n  }\n}\n"
        );
    }
}
