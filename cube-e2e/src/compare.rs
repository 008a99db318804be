//! `cube-e2e compare A… -- B…`: compares two sets of result files.
//!
//! For each workload and metric it prints each set's median and
//! quartiles, and flags a metric whose median in B is worse than in A by
//! more than the bound `BENCHMARK.json` gives it. Two sets of runs of one
//! commit must show no flag; that is the benchmark's repeatability test.

use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// `(lower is better, bound)` per end-to-end metric.
fn bounds(bench: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", bench.display()))?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").map_or(&[][..], Value::arr) {
        let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Value::str),
            m.get("better").and_then(Value::str),
            m.get("bound").and_then(Value::num),
        ) else {
            return Err(format!("{}: malformed end_to_end entry", bench.display()));
        };
        out.insert(name.to_string(), (better == "lower", bound));
    }
    Ok(out)
}

/// Workload (with `[traced]` for traced runs) → metric → values.
type Sets = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(files: &[PathBuf]) -> Result<Sets, String> {
    let mut sets = Sets::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Value::str)
            .ok_or(format!("{}: no workload", f.display()))?;
        let traced = doc.get("trace") == Some(&Value::Bool(true));
        let key = if traced {
            format!("{workload} [traced]")
        } else {
            workload.to_string()
        };
        let metrics = doc.get("metrics").and_then(Value::obj);
        for (name, m) in metrics.into_iter().flatten() {
            if let Some(v) = m.get("value").and_then(Value::num) {
                sets.entry(key.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(sets)
}

fn summary(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some([q1, q2, q3]) => format!(
            "{q2:>11.4} [{q1:.4}, {q3:.4}] spread {:>5.1}%",
            stats::spread(values).unwrap_or(0.0) * 100.0
        ),
        None => format!("{:>11.4} (n={})", stats::median(values), values.len()),
    }
}

/// Prints the comparison; returns the report and whether every
/// end-to-end metric stayed within its bound.
pub fn compare(a: &[PathBuf], b: &[PathBuf], bench: &Path) -> Result<(String, bool), String> {
    let bounds = bounds(bench)?;
    let (sa, sb) = (load(a)?, load(b)?);
    let mut report = String::new();
    let mut all_within = true;
    for (workload, ma) in &sa {
        let Some(mb) = sb.get(workload) else { continue };
        let _ = writeln!(
            report,
            "{workload}  (A: {} runs, B: {} runs)",
            ma.values().map(Vec::len).max().unwrap_or(0),
            mb.values().map(Vec::len).max().unwrap_or(0)
        );
        for (name, va) in ma {
            let Some(vb) = mb.get(name) else { continue };
            let (a_med, b_med) = (stats::median(va), stats::median(vb));
            let change = if a_med != 0.0 {
                (b_med - a_med) / a_med.abs()
            } else {
                0.0
            };
            let verdict = match bounds.get(name) {
                Some(&(lower, bound)) => {
                    let worse = if lower { change } else { -change };
                    if worse > bound {
                        all_within = false;
                        format!("WORSE beyond bound {bound}")
                    } else {
                        format!("within bound {bound}")
                    }
                }
                None => String::new(),
            };
            let _ = writeln!(
                report,
                "  {name:<26} A {}  B {}  {:>+7.2}%  {verdict}",
                summary(va),
                summary(vb),
                change * 100.0
            );
        }
    }
    Ok((report, all_within))
}
