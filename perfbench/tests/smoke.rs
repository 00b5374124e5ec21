//! Smoke test of the benchmark itself: every workload at a small size,
//! with every correctness check on, plain and traced, on two seeds. Each
//! run must pass its checks, fail no operation, and print exactly the
//! metrics `BENCHMARK.json` lists for its mode.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve-kernel", "serve-cheap", "ingest-recover"];

/// The metric names `BENCHMARK.json` lists in one section, in order.
fn listed(section: &str) -> Vec<String> {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &spec[start..];
    let body = &body[..body[1..]
        .find("\"per_layer\"")
        .map_or(body.len(), |i| i + 1)];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect()
}

/// Run one smoke invocation and return its last line of output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let store = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{seed}-{}", u8::from(trace)));
    let out = Command::new(env!("CARGO_BIN_EXE_selest-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .arg("--store")
        .arg(&store)
        .arg("--smoke")
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!store.exists(), "the run must remove its store");
    stdout.lines().last().expect("a result line").to_owned()
}

fn check(workload: &str, seed: u64) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let line = run(workload, seed, trace);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(line.contains("\"failed\": 0, "), "{line}");
        let printed: Vec<&str> = line
            .split("\": {\"value\": ")
            .map(|head| &head[head.rfind('"').expect("metric name") + 1..])
            .collect();
        let printed = &printed[..printed.len() - 1];
        assert_eq!(printed, listed(section), "{workload} {section} metrics");
    }
}

#[test]
fn every_workload_passes_its_checks_on_two_seeds() {
    for workload in WORKLOADS {
        for seed in [1, 2] {
            check(workload, seed);
        }
    }
}

#[test]
fn metric_sections_are_listed() {
    assert_eq!(listed("end_to_end").len(), 11);
    assert!(listed("per_layer").contains(&"kernel.batch_us".to_owned()));
}
