//! Smoke test of the benchmark itself, in short runs: every workload
//! runs in both modes, every correctness check runs and
//! passes, and every metric `BENCHMARK.json` names is printed with the
//! unit it declares.
//!
//! ```text
//! cargo test --release --offline --manifest-path kopbench/Cargo.toml
//! ```

use std::process::Command;

const WORKLOADS: &[&str] = &["tx", "fwd", "fleet-churn", "tx-traced"];

/// `(name, unit)` pairs of one metric list in BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to kopbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} list"));
    let list = &text[start..];
    let list = &list[..list.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    list.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_kopbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for &workload in WORKLOADS {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let stdout = run(workload, trace);
            let checks = stdout
                .lines()
                .find_map(|l| l.strip_prefix("checks run="))
                .expect("checks line");
            let (ran, failed) = checks.split_once(" failed=").expect("checks counts");
            assert!(
                ran.parse::<u32>().expect("count") > 5,
                "{workload}: {checks}"
            );
            assert_eq!(failed, "0", "{workload} trace={trace}:\n{stdout}");

            let result = stdout.lines().last().expect("result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{result}"
            );
            for (name, unit) in declared(section) {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
                let rest = &result[at + needle.len()..];
                let body = &rest[..rest.find('}').expect("metric closes")];
                let (value, got) = body.split_once(", \"unit\": \"").expect("unit field");
                let value: f64 = value.parse().expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(
                    got.trim_end_matches('"'),
                    unit,
                    "{workload}: unit of {name}"
                );
            }
            if trace == 0 {
                for name in ["pkt_ns", "base_pkt_ns", "setup_s", "rss_mib"] {
                    let needle = format!("\"{name}\": {{\"value\": 0,");
                    assert!(!result.contains(&needle), "{workload}: {name} is 0");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seconds", "1"][..],
        &["--workload", "tx", "--trace", "2"][..],
        &["--workload", "tx", "--bogus"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kopbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
