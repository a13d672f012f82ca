//! `run.sh compare A.json B.json`: `BENCHMARK.json`'s bounds applied row by
//! row — one row per workload × end-to-end metric, `B` against base `A`.
//!
//! A row is `regressed` when `B` is worse than `A` by more than the
//! metric's bound, and `unresolved` (not "unchanged") when either run's
//! own round-to-round spread on that workload was wider than the bound, so
//! the two numbers cannot be told apart. Count metrics repeat exactly and
//! are never unresolved.

use crate::json::Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better).
pub fn worsening(base: f64, new: f64, lower_is_better: bool) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    if lower_is_better {
        new / base - 1.0
    } else {
        1.0 - new / base
    }
}

pub fn verdict(worse: f64, bound: f64, timing: bool, spread: f64) -> Verdict {
    if timing && spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(result: &Json, section: &str, name: &str) -> Option<f64> {
    result.get(section)?.get(name)?.get("value")?.as_f64()
}

/// Prints the table; `Ok(true)` when no row regressed.
pub fn run(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let (a, b, spec) = (load(a)?, load(b)?, load(spec)?);
    let end_to_end =
        spec.get("end_to_end").and_then(Json::as_arr).ok_or("the spec has no end_to_end list")?;
    let results_a = a.get("results").and_then(Json::as_obj).ok_or("A has no results")?;
    let results_b = b.get("results").and_then(Json::as_obj).ok_or("B has no results")?;
    println!(
        "{:<18} {:<20} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut regressed = 0;
    for (workload, result_a) in results_a {
        let Some(result_b) = results_b.get(workload) else { continue };
        let spread = [result_a, result_b]
            .iter()
            .filter_map(|r| metric(r, "extra", "bench.round_spread_frac"))
            .fold(0.0, f64::max);
        for row in end_to_end {
            let name = row.get("name").and_then(Json::as_str).ok_or("a metric lacks a name")?;
            let unit = row.get("unit").and_then(Json::as_str).unwrap_or("");
            let bound = row.get("bound").and_then(Json::as_f64).ok_or("a metric lacks a bound")?;
            let lower = row.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(va), Some(vb)) =
                (metric(result_a, "metrics", name), metric(result_b, "metrics", name))
            else {
                return Err(format!("{workload} lacks `{name}` in one of the files"));
            };
            let timing = !matches!(unit, "count" | "B" | "MB");
            let v = verdict(worsening(va, vb, lower), bound, timing, spread);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{workload:<18} {name:<20} {va:>16.4} {vb:>16.4} {:>8.4} {bound:>6}  {}",
                vb / va,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if failed(result_b) > failed(result_a) || failed(result_b).is_nan() {
            regressed += 1;
            println!(
                "{workload:<18} failed ops rose from {} to {}",
                failed(result_a),
                failed(result_b)
            );
        }
    }
    println!("{regressed} row(s) regressed");
    Ok(regressed == 0)
}
