//! The result-file tooling: JSON, the bounds check, the quiet-chunk
//! estimator, and `BENCHMARK.json` against the code.

use flexrpc_benchmark::compare::{verdict, worsening, Verdict};
use flexrpc_benchmark::json::Json;
use flexrpc_benchmark::layers::PER_LAYER;
use flexrpc_benchmark::measure::{quiet_medians, Paired, END_TO_END};
use flexrpc_benchmark::reference::NOMINAL_NS_PER_ITER;
use flexrpc_benchmark::{cli, workloads};

#[test]
fn json_round_trips_what_the_benchmark_writes() {
    let value = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(1_234_567.0)),
        ("tiny", Json::Num(0.000_000_123)),
        ("name", Json::Str("a \"quoted\"\\ name\n".into())),
        ("list", Json::Arr(vec![Json::Null, Json::Num(-1.5)])),
    ]);
    let text = value.render();
    assert!(!text.contains('e'.to_ascii_uppercase()), "no exponent notation: {text}");
    assert_eq!(Json::parse(&text).expect("parses"), value);
    assert_eq!(Json::Num(f64::NAN).render(), "null");
    assert!(Json::parse("{\"a\": 1} trailing").is_err());
    assert!(Json::parse("{\"a\": }").is_err());
}

#[test]
fn bounds_apply_in_the_metrics_own_direction() {
    // Lower is better: 110 against 100 is 10 % worse.
    assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
    assert!(worsening(100.0, 90.0, true) < 0.0);
    // Higher is better: 90 against 100 is 10 % worse.
    assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    assert_eq!(verdict(0.12, 0.10, true, 0.02), Verdict::Regressed);
    assert_eq!(verdict(0.08, 0.10, true, 0.02), Verdict::Ok);
    // A run whose own rounds spread wider than the bound resolves nothing,
    // whichever way the medians fell.
    assert_eq!(verdict(0.12, 0.10, true, 0.30), Verdict::Unresolved);
    assert_eq!(verdict(-0.05, 0.10, true, 0.30), Verdict::Unresolved);
    // Counts repeat exactly and are never unresolved.
    assert_eq!(verdict(0.02, 0.01, false, 0.30), Verdict::Regressed);
}

#[test]
fn the_estimator_keeps_quiet_chunks_and_cancels_their_drift() {
    // A workload that costs 2 reference iterations per op. Three quarters
    // of the chunks ran while the machine was 1.5–2.5× slow *and* hit the
    // workload harder than the reference; the quiet quarter drifts ±4 %.
    let mut chunks = Vec::new();
    for i in 0..400 {
        let (speed, penalty) = if i % 4 == 0 {
            (1.0 + 0.04 * ((i % 7) as f64 - 3.0) / 3.0, 1.0)
        } else {
            (1.5 + (i % 11) as f64 / 10.0, 1.3)
        };
        let reference = NOMINAL_NS_PER_ITER * speed;
        chunks.push(Paired {
            before: reference,
            after: reference,
            values: [2.0 * reference * penalty],
        });
    }
    let [ns_per_op] = quiet_medians(&chunks);
    assert!((ns_per_op - 2.0 * NOMINAL_NS_PER_ITER).abs() < 1e-9, "{ns_per_op}");
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|row| {
                let field = |f: &str| row.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    };
    assert_eq!(names("end_to_end"), owned(END_TO_END));
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    assert_eq!(names("per_layer"), owned(&per_layer));
    let workload_names: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workload_names, workloads::NAMES);
    assert_eq!(spec.get("run_seconds").and_then(Json::as_f64), Some(cli::DEFAULT_SECONDS));
    for row in spec.get("end_to_end").and_then(Json::as_arr).expect("end_to_end") {
        let bound = row.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} outside (0, 0.25]");
    }
}
