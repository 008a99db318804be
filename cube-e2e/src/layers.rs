//! Per-layer metrics, derived from a traced run's spans.
//!
//! Every workload reports every metric; a layer the workload's timed
//! operations never cross reads 0 with 0 samples. Times are medians per
//! call unless the name says otherwise.

use crate::run::Metric;
use crate::stats;
use crate::trace::{unattributed_frac, Span};
use std::collections::HashMap;

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("client.connect_us", "us"),
    ("client.ttfb_ms", "ms"),
    ("client.body_ms", "ms"),
    ("client.response_bytes", "bytes"),
    ("http.read_request_us", "us"),
    ("http.write_response_ms", "ms"),
    ("serve.result_lookup_us", "us"),
    ("serve.body_copy_ms", "ms"),
    ("serve.result_hit_frac", "ratio"),
    ("serve.plan_hit_frac", "ratio"),
    ("repo.open_us", "us"),
    ("repo.severity_ms", "ms"),
    ("repo.cold_operands_per_op", "count"),
    ("repo.ingest_ms", "ms"),
    ("repo.content_id_us", "us"),
    ("repo.commit_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("algebra.parse_us", "us"),
    ("algebra.check_us", "us"),
    ("algebra.plan_ms", "ms"),
    ("algebra.kernel_ms", "ms"),
    ("algebra.fused_frac", "ratio"),
    ("algebra.kernel_bytes_in", "MB"),
    ("algebra.kernel_gb_s", "GB/s"),
    ("algebra.values_out", "count"),
    ("xml.parse_ms", "ms"),
    ("xml.parse_mb_s", "MB/s"),
    ("xml.encode_ms", "ms"),
    ("xml.encode_mb_s", "MB/s"),
    ("xml.footer_us", "us"),
    ("pool.threads", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// A value, its sample count, and a note.
type Reading = (f64, usize, String);

struct Spans<'a> {
    by_name: HashMap<&'static str, Vec<&'a Span>>,
}

impl<'a> Spans<'a> {
    fn named(&self, name: &str) -> &[&'a Span] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration, in ns per `per_ns`, of the spans called `name`
    /// that pass `keep`.
    fn p50_where(&self, name: &str, per_ns: f64, keep: impl Fn(&Span) -> bool) -> Reading {
        let d: Vec<f64> = self
            .named(name)
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.dur_ns() as f64 / per_ns)
            .collect();
        (stats::median(&d), d.len(), String::new())
    }

    fn p50(&self, name: &str, per_ns: f64) -> Reading {
        self.p50_where(name, per_ns, |_| true)
    }

    /// Share of the spans called `name` whose 0/1 attribute `flag` is 1.
    fn frac(&self, name: &str, flag: &str) -> Reading {
        let with: Vec<u64> = self
            .named(name)
            .iter()
            .filter_map(|s| s.attr(flag))
            .collect();
        let set = with.iter().filter(|&&v| v == 1).count();
        let n = with.len();
        (set as f64 / n.max(1) as f64, n, format!("{set} of {n}"))
    }

    /// Mean of attribute `attr` over the spans called `name`.
    fn mean(&self, name: &str, attr: &str) -> Reading {
        let v: Vec<f64> = self
            .named(name)
            .iter()
            .filter_map(|s| s.attr(attr))
            .map(|v| v as f64)
            .collect();
        (stats::mean(&v), v.len(), String::new())
    }

    /// Σ `attr` ÷ Σ duration over the spans called `name`, in bytes/ns
    /// (GB/s).
    fn rate(&self, name: &str, attr: &str) -> Reading {
        let spans = self.named(name);
        let bytes: u64 = spans.iter().filter_map(|s| s.attr(attr)).sum();
        let ns: u64 = spans.iter().map(|s| s.dur_ns()).sum();
        let rate = if ns == 0 {
            0.0
        } else {
            bytes as f64 / ns as f64
        };
        (rate, spans.len(), String::new())
    }

    /// Per upload: the ingest call minus its parts timed apart after it.
    fn commit_ms(&self) -> Reading {
        let part = |name: &str| -> HashMap<u64, u64> {
            self.named(name)
                .iter()
                .map(|s| (s.req, s.dur_ns()))
                .collect()
        };
        let parts = [
            part("xml.parse"),
            part("store.encode"),
            part("repo.content_id"),
        ];
        let commit: Vec<f64> = self
            .named("repo.ingest")
            .iter()
            .filter_map(|s| {
                let split = parts.iter().map(|p| p.get(&s.req)).sum::<Option<u64>>()?;
                Some((s.dur_ns() as f64 - split as f64) / 1e6)
            })
            .collect();
        (stats::median(&commit), commit.len(), String::new())
    }
}

fn scaled((v, n, note): Reading, by: f64) -> Reading {
    (v * by, n, note)
}

/// Computes every per-layer metric from `spans`. `untraced_p50_ms` is
/// the untraced phase's `p50_ms`; `traced_p50_ms` is the same median
/// over the traced phase's operations.
pub fn per_layer(spans: &[Span], untraced_p50_ms: f64, traced_p50_ms: f64) -> Vec<Metric> {
    let mut by_name: HashMap<&'static str, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s);
    }
    let sp = Spans { by_name };
    let (us, ms) = (1e3, 1e6);
    let root = "request";
    let cold = |s: &Span| s.attr("cold") == Some(1);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples, note) = match name {
                "client.connect_us" => sp.p50("client.connect", us),
                "client.response_bytes" => sp.mean("client.body", "bytes"),
                "serve.result_hit_frac" => sp.frac("serve.result_lookup", "hit"),
                "serve.plan_hit_frac" => sp.frac("algebra.plan", "cache_hit"),
                "repo.open_us" => sp.p50("repo.open", us),
                "repo.severity_ms" => sp.p50_where("repo.severity", ms, cold),
                "repo.cold_operands_per_op" => {
                    let evals = sp.named("algebra.check").len();
                    let n = sp.named("repo.severity").iter().filter(|s| cold(s)).count();
                    (
                        n as f64 / evals.max(1) as f64,
                        evals,
                        format!("{n} cold loads"),
                    )
                }
                "repo.commit_ms" => sp.commit_ms(),
                "algebra.plan_ms" => sp.p50("algebra.plan", ms),
                "algebra.fused_frac" => sp.frac("algebra.kernel", "fused"),
                "algebra.kernel_bytes_in" => scaled(sp.mean("algebra.kernel", "bytes_in"), 1e-6),
                "algebra.kernel_gb_s" => sp.rate("algebra.kernel", "bytes_in"),
                "algebra.values_out" => sp.mean("algebra.kernel", "values_out"),
                "xml.parse_mb_s" => scaled(sp.rate("xml.parse", "bytes"), 1e3),
                "xml.encode_mb_s" => scaled(sp.rate("xml.encode", "bytes"), 1e3),
                "pool.threads" => (rayon::current_num_threads() as f64, 1, String::new()),
                "trace.unattributed_frac" => (
                    unattributed_frac(spans, root),
                    sp.named(root).len(),
                    format!("of {root} wall time"),
                ),
                "trace.overhead_frac" => {
                    let v = if untraced_p50_ms > 0.0 {
                        traced_p50_ms / untraced_p50_ms - 1.0
                    } else {
                        0.0
                    };
                    (
                        v,
                        sp.named(root).len(),
                        "traced p50 against the untraced p50_ms".into(),
                    )
                }
                // The rest are medians of the span named like the metric.
                _ => {
                    let span = name
                        .strip_suffix(&format!("_{unit}"))
                        .expect("the remaining metrics are named <span>_<unit>");
                    sp.p50(span, if unit == "us" { us } else { ms })
                }
            };
            Metric {
                name,
                unit,
                value,
                samples,
                note,
            }
        })
        .collect()
}
