//! The benchmark's own test: every workload at its smoke size, untraced
//! and traced, with every output check on. Run with
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: &str, names: &[&str]) {
    let line = run(workload, trace);
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    assert!(line.contains("\"failed\": 0,"), "{line}");
    assert!(
        !line.contains("null"),
        "a metric could not be computed: {line}"
    );
    for name in names {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {line}"
        );
    }
}

const END_TO_END: &[&str] = &[
    "throughput_evps",
    "ack_p50_us",
    "recover_s",
    "store_bytes_per_event",
    "cpu_us_per_event",
    "peak_rss_mb",
    "setup_s",
];

const SOME_LAYERS: &[&str] = &[
    "net.request_encode_ns",
    "runtime.jobs_per_fsync",
    "stage.execute.share",
    "persist.jobs_replayed",
    "lifecycle.evictions_per_kjob",
    "rules.rules_checked_per_event",
    "calculus.memo_hit_ratio",
    "lang.trigger_parse_us",
    "telemetry.overhead",
];

#[test]
fn stock_ingest_smoke() {
    check("stock_ingest", "0", END_TO_END);
    check("stock_ingest", "1", SOME_LAYERS);
}

#[test]
fn rule_heavy_smoke() {
    check("rule_heavy", "0", END_TO_END);
    check("rule_heavy", "1", SOME_LAYERS);
}

#[test]
fn cold_tenants_smoke() {
    check("cold_tenants", "0", END_TO_END);
    check("cold_tenants", "1", SOME_LAYERS);
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
}
