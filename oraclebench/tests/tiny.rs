//! Every workload at a tiny size: every metric `BENCHMARK.json` names is
//! reported with its unit, no verdict fails, and inputs follow the seed.

use std::collections::BTreeMap;

use cerberus_wire::json::Json;
use oraclebench::inputs::fingerprint;
use oraclebench::trace::Tracer;
use oraclebench::{prepare, run, Options, Report, Scale, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.4,
        trace,
        scale: Scale::tiny(),
    }
}

/// `name → unit` for one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let document = Json::parse(&text).expect("BENCHMARK.json is JSON");
    document
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|metric| {
            let field = |key| metric.get(key).and_then(Json::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `name → unit` as printed on the result line.
fn printed(report: &Report) -> BTreeMap<String, String> {
    let line = Json::parse(&report.json_line()).expect("the result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(line.get(key).is_some(), "result line lacks {key}");
    }
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, metric)| {
            assert!(
                matches!(metric.get("value"), Some(Json::Float(_))),
                "{name} has no numeric value"
            );
            let unit = metric.get("unit").and_then(Json::as_str).unwrap();
            (name.clone(), unit.to_owned())
        })
        .collect()
}

fn assert_clean(report: &Report) {
    assert!(
        report.correct && report.failed == 0,
        "failures: {:?}",
        report.failures
    );
    assert!(report.attempted > 0);
    assert!(report.notes.iter().any(|n| n.contains("failed_share: 0 ")));
}

#[test]
fn every_workload_reports_every_end_to_end_metric_without_failures() {
    let expected = declared("end_to_end");
    for workload in Workload::ALL {
        let report = run(&tiny(workload, 7, false)).expect("tiny run");
        assert_clean(&report);
        assert_eq!(printed(&report), expected, "{}", workload.name());
        for metric in &report.metrics {
            assert!(metric.value > 0.0, "{} is {}", metric.name, metric.value);
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    let expected = declared("per_layer");
    for workload in Workload::ALL {
        let options = tiny(workload, 7, true);
        let report = run(&options).expect("tiny traced run");
        assert_clean(&report);
        assert_eq!(printed(&report), expected, "{}", workload.name());
        assert!(report.metric("exec.runs").unwrap() > 0.0);
        assert!(oraclebench::trace_path(&options).exists());
    }
}

#[test]
fn the_seed_alone_decides_the_inputs() {
    let off = Tracer::new(false);
    let inputs = |workload, seed| {
        let prepared = prepare(&tiny(workload, seed, false), &off).expect("inputs");
        (fingerprint(&prepared.inputs), prepared.due_s)
    };
    for workload in Workload::ALL {
        assert_eq!(
            inputs(workload, 3),
            inputs(workload, 3),
            "{}",
            workload.name()
        );
    }
    for workload in [Workload::Fuzz, Workload::Service] {
        assert_ne!(
            inputs(workload, 3),
            inputs(workload, 4),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn the_workload_record_matches_benchmark_json() {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).expect("readable");
        Json::parse(&text).expect("JSON")
    };
    let benchmark = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let record = read(concat!(env!("CARGO_MANIFEST_DIR"), "/workloads.json"));
    // The record also keeps a workload left out of BENCHMARK.json, with the
    // reason it was left out.
    let names = |document: &Json, dropped: bool| -> Vec<String> {
        document
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter(|w| w.get("dropped").is_some() == dropped)
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    };
    assert_eq!(names(&benchmark, false), names(&record, false));
    for name in names(&record, true) {
        assert!(Workload::by_name(&name).is_some(), "{name}");
    }
    let per_layer = declared("per_layer");
    let mapped: Vec<String> = record
        .get("layer_map")
        .and_then(Json::as_array)
        .expect("layer_map")
        .iter()
        .flat_map(|row| row.get("layers").and_then(Json::as_array).unwrap().to_vec())
        .map(|layer| layer.as_str().unwrap().to_owned())
        .collect();
    let mut sorted = mapped.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), mapped.len(), "a layer is mapped twice");
    assert_eq!(sorted, per_layer.keys().cloned().collect::<Vec<_>>());
}
