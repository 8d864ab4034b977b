//! `BENCHMARK.json` at the repository root lists exactly the workloads
//! and metrics the command prints, with the same units and bounds.

use perfbench::inputs::Workload;
use perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `"name"` values inside one top-level array of the file.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let rest = &json[at..];
    let array = &rest[..rest.find(']').expect("the array closes")];
    array
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("the name closes").to_string())
        .collect()
}

#[test]
fn workloads_match_the_harness() {
    let json = benchmark_json();
    let listed = names_in(&json, "workloads");
    let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, built);
    for name in &listed {
        assert!(valid_name(name), "{name}");
        assert_eq!(Workload::parse(name).map(|w| w.name()), Some(name.as_str()));
    }
}

#[test]
fn metrics_match_the_harness() {
    let json = benchmark_json();
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    assert_eq!(names_in(&json, "per_layer"), layers);
    for d in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            d.name,
            d.unit,
            d.better,
            d.bound.expect("end-to-end metrics carry a bound")
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for d in &PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name, d.unit, d.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
