//! Debug-scale checks of the benchmark itself: every workload runs a
//! few steps and prints exactly the metrics `BENCHMARK.json` declares,
//! the correctness gate rejects mismatched releases, and the code
//! passes the workspace lint rules.

use perfbench::gate;
use perfbench::json::{self, Value};
use perfbench::metrics::{result_json, MetricDef, END_TO_END, PER_LAYER};
use perfbench::run::{self, Options};
use perfbench::workload::{self, Scale, WorkloadSpec, WORKLOADS};
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Value {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(bench: &Value, key: &str) -> Vec<(String, String, String)> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let bench = benchmark_json();
    let Value::Obj(top) = &bench else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(declared(&bench, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), catalogue(&PER_LAYER));
    for m in bench.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let workloads = bench.get("workloads").and_then(Value::as_array).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let mut expected = WORKLOADS.to_vec();
    expected.sort_unstable();
    let mut got = names.clone();
    got.sort_unstable();
    assert_eq!(got, expected);
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        let why = w.get("why").and_then(Value::as_str).unwrap();
        let spec = WorkloadSpec::get(name, Scale::Full).unwrap();
        assert_eq!(
            why,
            spec.why.split_whitespace().collect::<Vec<_>>().join(" ")
        );
        assert!(why.len() <= 200, "{name}: why is {} characters", why.len());
    }
}

fn smoke_run(workload: &str, trace: bool) -> run::Outcome {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    run::run(&Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Smoke,
        out_dir,
    })
    .expect("smoke run")
}

#[test]
fn every_workload_emits_the_declared_metrics_and_passes_the_gate() {
    let bench = benchmark_json();
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = smoke_run(workload, trace);
            assert!(out.correct, "{workload} trace={trace}: {:#?}", out.notes);
            assert!(out.gate.passed(), "{workload}: {:?}", out.gate.failures);
            assert!(out.gate.eval_loss.is_finite());
            let line = result_json(out.correct, out.attempted, out.failed, &out.metrics);
            let parsed = json::parse(&line).expect("result line is JSON");
            let Value::Obj(top) = &parsed else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Value::Obj(metrics)) = parsed.get("metrics") else {
                panic!("metrics object")
            };
            let want = declared(&bench, key);
            assert_eq!(metrics.len(), want.len(), "{workload} {key}");
            for (name, unit, _) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(m
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite));
            }
            if trace {
                let store = out.metrics.get("store.misses_per_step").unwrap();
                if workload == "rmc2-stored-ckpt" {
                    assert!(store > 0.0, "stored workload pages");
                    assert!(out.metrics.get("core.ckpt_bytes").unwrap() > 0.0);
                    assert!(out.trace_file.as_ref().is_some_and(|p| p.exists()));
                } else {
                    assert_eq!(store, 0.0, "{workload} is in memory");
                }
            } else {
                assert!(out.metrics.get("setup_s").unwrap() > 0.0);
            }
        }
    }
}

#[test]
fn gate_rejects_mismatched_released_models() {
    let spec = WorkloadSpec::get("mlperf-lazydp", Scale::Smoke).unwrap();
    let release = |steps: usize| {
        let mut job = workload::lazy_reference(&spec, 3);
        job.train(steps).unwrap();
        let _ = job.release();
        job.model
    };
    let a = release(2);
    let same = release(2);
    let longer = release(3);
    assert_eq!(gate::compare_models(&a, &same), Ok(()));
    let err = gate::compare_models(&a, &longer).unwrap_err();
    assert!(err.contains("differ"), "{err}");
    let mut poisoned = same.clone();
    poisoned.tables[0].row_mut(0)[0] = f32::NAN;
    let err = gate::compare_models(&a, &poisoned).unwrap_err();
    assert!(err.contains("non-finite"), "{err}");
}

#[test]
fn benchmark_code_passes_the_workspace_lint() {
    // The benchmark is the bench layer, so it is linted under the
    // rules that apply to `crates/bench/` (wall clock and registry
    // reads allowed; threads, float reductions and the rest not).
    let src = manifest_dir().join("src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&src)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    let mut violations = Vec::new();
    for f in &files {
        let rel = format!(
            "crates/bench/src/{}",
            f.file_name().unwrap().to_string_lossy()
        );
        let text = std::fs::read_to_string(f).unwrap();
        violations.extend(lazydp_lint::rules::check_source(&rel, &text));
    }
    assert!(violations.is_empty(), "{violations:#?}");
}
