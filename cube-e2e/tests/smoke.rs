//! Runs all three workloads at 1/100 scale, untraced and traced, against
//! a freshly built `cube` binary, and checks that every output was
//! correct and every metric was reported.
//!
//! The binary comes from `$CUBE_BIN` when set; otherwise this test
//! builds the repository's `cube-cli` into its own target directory.

use cube_e2e::json::{self, Value};
use cube_e2e::layers::PER_LAYER;
use cube_e2e::run::END_TO_END;
use std::path::{Path, PathBuf};
use std::process::Command;

fn cube_binary() -> PathBuf {
    if let Some(bin) = std::env::var_os("CUBE_BIN") {
        return PathBuf::from(bin);
    }
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cube-build");
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "cube-cli",
        ])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building cube failed");
    target.join("release/cube")
}

/// The JSON result lines of a run, one per workload.
fn run(cube: &Path, out: &Path, trace: &str) -> Vec<Value> {
    let output = Command::new(env!("CARGO_BIN_EXE_cube-e2e"))
        .args(["run", "--smoke", "--trace", trace, "--seed", "7"])
        .arg("--cube")
        .arg(cube)
        .arg("--out")
        .arg(out)
        .output()
        .expect("cube-e2e runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "cube-e2e failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| json::parse(l).expect("result lines are JSON"))
        .collect()
}

fn assert_results(results: &[Value], names: &[(&str, &str)]) {
    assert_eq!(results.len(), 3, "one result per workload");
    for r in results {
        assert_eq!(r.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(r.get("failed").and_then(Value::num), Some(0.0));
        assert!(r.get("attempted").and_then(Value::num).unwrap_or(0.0) >= 1.0);
        let metrics = r.get("metrics").and_then(Value::obj).expect("metrics");
        let got: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        for (name, unit) in names {
            let m = &metrics[*name];
            assert_eq!(m.get("unit").and_then(Value::str), Some(*unit));
            assert!(m
                .get("value")
                .and_then(Value::num)
                .is_some_and(f64::is_finite));
        }
    }
}

#[test]
fn all_three_workloads_at_smoke_scale() {
    let cube = cube_binary();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", std::process::id()));

    let untraced = run(&cube, &out, "0");
    assert_results(&untraced, &END_TO_END);
    for r in &untraced {
        let metrics = r.get("metrics").expect("metrics");
        for (name, _) in END_TO_END {
            let v = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Value::num);
            assert!(v.is_some_and(|v| v > 0.0), "{name} is never 0");
        }
    }

    let traced = run(&cube, &out, "1");
    assert_results(&traced, &PER_LAYER);
    for r in &traced {
        let unattributed = r
            .get("metrics")
            .and_then(|m| m.get("trace.unattributed_frac"))
            .and_then(|m| m.get("value"))
            .and_then(Value::num)
            .expect("reported");
        assert!((0.0..0.25).contains(&unattributed), "{unattributed}");
    }
    let label = out.join("default");
    for w in ["eval-miss", "eval-hit", "ingest-eval"] {
        assert!(label.join(format!("{w}-s7.json")).is_file());
        assert!(label.join(format!("{w}-s7-trace.json")).is_file());
        let spans = std::fs::read_to_string(label.join(format!("trace-{w}.jsonl"))).expect("spans");
        assert!(spans.lines().all(|l| json::parse(l).is_ok()));
    }
    let leftovers: Vec<_> = std::fs::read_dir(&label)
        .expect("listing")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("work-"))
        .collect();
    assert!(leftovers.is_empty(), "work directories are removed");
    let _ = std::fs::remove_dir_all(out);
}
