//! Printing a run's metrics and recording them as a result file.

use crate::json;
use crate::run::{Metric, Options, Outcome, Workload};
use crate::sys;
use std::fmt::Write as _;
use std::path::Path;

/// The context recorded beside every result.
pub struct Context {
    /// Logical CPUs.
    pub nproc: usize,
    /// The benchmark process's pool size.
    pub pool_threads: usize,
    /// Filesystem of the work directory.
    pub fs_type: String,
    /// The commit under test.
    pub commit: String,
}

impl Context {
    /// Reads the context of a run writing under `out`.
    pub fn read(out: &Path) -> Self {
        Context {
            nproc: sys::nproc(),
            pool_threads: rayon::current_num_threads(),
            fs_type: sys::fs_type(out),
            commit: sys::git_commit(),
        }
    }
}

/// One line per metric: name, value, unit, sample count, note.
pub fn lines(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = writeln!(
            s,
            "  {:<28} {:>14.4} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    s
}

fn metrics_json(metrics: &[Metric], samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let extra = if samples {
                format!(
                    ",\"samples\":{},\"note\":{}",
                    m.samples,
                    json::string(&m.note)
                )
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{extra}}}",
                json::string(m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The one-line result the benchmark prints last.
pub fn result_line(out: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics_json(&out.metrics, false)
    )
}

/// The result file: the result, every sample count and note, and the
/// context the numbers were measured in.
pub fn result_file(opts: &Options, ctx: &Context, w: Workload, out: &Outcome) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"clients\":{},\
         \"nproc\":{},\"pool_threads\":{},\"fs_type\":{},\"commit\":{},\
         \"attempted\":{},\"failed\":{},\"correct\":{},\"problems\":[{}],\
         \"metrics\":{},\"extra\":{},\"windows\":[{}]}}\n",
        json::string(w.name()),
        opts.seed,
        opts.trace,
        json::number(opts.seconds),
        w.clients(),
        ctx.nproc,
        ctx.pool_threads,
        json::string(&ctx.fs_type),
        json::string(&ctx.commit),
        out.attempted,
        out.failed,
        out.correct(),
        out.problems
            .iter()
            .map(|p| json::string(p))
            .collect::<Vec<_>>()
            .join(","),
        metrics_json(&out.metrics, true),
        metrics_json(&out.extra, true),
        out.windows
            .iter()
            .map(|w| format!(
                "{{\"ops\":{},\"secs\":{},\"cpu_ms\":{}}}",
                w.ops,
                json::number(w.secs),
                json::number(w.cpu_ms)
            ))
            .collect::<Vec<_>>()
            .join(","),
    )
}
