//! The benchmark's smoke check, at reduced size: on the default seed and
//! on the held-out seed, every workload of `BENCHMARK.json` reports every
//! metric the file names, with its unit, and no operation fails.

use serde::Content;
use std::process::Command;

/// Seed reserved for confirming claims; see README.md.
const HELD_OUT_SEED: u64 = 4242;

fn spec() -> Content {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(c: &'a Content, key: &str) -> &'a [Content] {
    match c.get(key) {
        Some(Content::Seq(v)) => v,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(c: &'a Content, key: &str) -> &'a str {
    match c.get(key) {
        Some(Content::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn number(c: &Content) -> f64 {
    match c {
        Content::F64(v) => *v,
        Content::U64(v) => *v as f64,
        Content::I64(v) => *v as f64,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn every_workload_reports_every_named_metric_without_failures() {
    let spec = spec();
    for workload in list(&spec, "workloads") {
        let workload = text(workload, "name");
        for seed in [1, HELD_OUT_SEED] {
            for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
                let run = format!("{workload} seed {seed} trace {trace}");
                let out = Command::new(env!("CARGO_BIN_EXE_mapro-benchmark"))
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", "1", "--trace", trace, "--smoke"])
                    .output()
                    .expect("the benchmark binary runs");
                assert!(out.status.success(), "{run}: exit {:?}", out.status);
                let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
                let last = stdout.lines().last().expect("a result line");
                let result = serde_json::parse(last).expect("the result line is JSON");
                assert!(
                    matches!(result.get("correct"), Some(Content::Bool(true))),
                    "{run}: {stdout}"
                );
                assert_eq!(
                    number(result.get("failed").expect("failed")),
                    0.0,
                    "{run}: failed_share must be 0"
                );
                assert!(
                    number(result.get("attempted").expect("attempted")) >= 1.0,
                    "{run}"
                );
                let Some(Content::Map(metrics)) = result.get("metrics") else {
                    panic!("{run}: metrics is not an object");
                };
                let named = list(&spec, key);
                assert_eq!(
                    metrics.len(),
                    named.len(),
                    "{run}: exactly the {key} metrics"
                );
                for m in named {
                    let name = text(m, "name");
                    let got = result
                        .get("metrics")
                        .and_then(|ms| ms.get(name))
                        .unwrap_or_else(|| panic!("{run}: {name} missing"));
                    assert_eq!(text(got, "unit"), text(m, "unit"), "{run}: unit of {name}");
                    let value = number(got.get("value").expect("value"));
                    assert!(value.is_finite(), "{run}: {name} = {value}");
                    if key == "end_to_end" {
                        assert!(value > 0.0, "{run}: {name} must never be 0");
                    }
                }
            }
        }
    }
}
