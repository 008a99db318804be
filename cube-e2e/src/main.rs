//! The `cube-e2e` command.
//!
//! ```text
//! cube-e2e run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!              [--smoke] [--cube PATH] [--out DIR] [--label NAME]
//! cube-e2e compare A.json… -- B.json… [--bench BENCHMARK.json]
//! ```
//!
//! `run` prints every metric with its unit and sample count, writes a
//! result file (and, traced, the spans) under `OUT/LABEL/`, and ends
//! with one JSON line. It exits 1 when an output was wrong and 2 when
//! the run could not be carried out.

use cube_e2e::gen::{FULL, SMOKE};
use cube_e2e::run::{Options, Workload, CUBE_ENV, DEFAULT_SEED, SETUPS};
use cube_e2e::{compare, report, serve, trace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: cube-e2e run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--smoke] [--cube PATH] [--out DIR] [--label NAME]\n       \
                     cube-e2e compare A.json... -- B.json... [--bench BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cube-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or(format!("{flag} needs a value"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, None, false);
    let (mut smoke, mut cube, mut out, mut label) =
        (false, None, PathBuf::from("target/e2e"), None);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match it.peek().copied().map(String::as_str) {
                    Some(v @ ("0" | "1")) => {
                        it.next();
                        v == "1"
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            "--cube" => cube = Some(PathBuf::from(value(&mut it, flag)?)),
            "--out" => out = PathBuf::from(value(&mut it, flag)?),
            "--label" => label = Some(value(&mut it, flag)?.clone()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    // Measure the program's defaults, in this process's pool as well as
    // in the `cube serve` processes (which start without these variables).
    for var in CUBE_ENV {
        std::env::remove_var(var);
    }
    let cube = match cube {
        Some(c) => c,
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("cube"),
    };
    if !cube.is_file() {
        return Err(format!(
            "no cube binary at {}; pass --cube PATH",
            cube.display()
        ));
    }
    let dir = out.join(label.as_deref().unwrap_or("default"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let opts = Options {
        seed,
        seconds: seconds.unwrap_or(if smoke { 0.6 } else { 30.0 }),
        trace,
        scale: if smoke { SMOKE } else { FULL },
        setups: if smoke { 2 } else { SETUPS },
        cube,
    };
    let ctx = report::Context::read(&dir);
    let workloads = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    for w in workloads {
        let work = dir.join(format!("work-{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let outcome = serve::run(&opts, w, &work);
        let _ = std::fs::remove_dir_all(&work);
        let outcome = outcome.map_err(|e| format!("{}: {e}", w.name()))?;

        println!(
            "cube-e2e {} seed={} seconds={} trace={} clients={} nproc={} pool.threads={} fs={} commit={}",
            w.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            w.clients(),
            ctx.nproc,
            ctx.pool_threads,
            ctx.fs_type,
            ctx.commit
        );
        print!("{}", report::lines(&outcome.metrics));
        if !outcome.extra.is_empty() {
            println!("  also:");
            print!("{}", report::lines(&outcome.extra));
        }
        println!(
            "  attempted {}, failed {}{}",
            outcome.attempted,
            outcome.failed,
            if outcome.correct() { "" } else { ", INCORRECT" }
        );
        for p in &outcome.problems {
            println!("  problem: {p}");
        }
        let stem = format!(
            "{}-s{}{}",
            w.name(),
            opts.seed,
            if opts.trace { "-trace" } else { "" }
        );
        let file = dir.join(format!("{stem}.json"));
        std::fs::write(&file, report::result_file(&opts, &ctx, w, &outcome))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        if opts.trace {
            let spans = dir.join(format!("trace-{}.jsonl", w.name()));
            trace::write_jsonl(&spans, &outcome.spans)
                .map_err(|e| format!("{}: {e}", spans.display()))?;
            println!("  spans: {}", spans.display());
        }
        println!("  result: {}", file.display());
        println!("{}", report::result_line(&outcome));
        all_correct &= outcome.correct();
    }
    Ok(all_correct)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut bench = PathBuf::from("BENCHMARK.json");
    let (mut a, mut b, mut second) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => second = true,
            "--bench" => bench = PathBuf::from(value(&mut it, arg)?),
            path if second => b.push(PathBuf::from(path)),
            path => a.push(PathBuf::from(path)),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err(USAGE.to_string());
    }
    let (text, within) = compare::compare(&a, &b, &bench)?;
    print!("{text}");
    println!(
        "{}",
        if within {
            "every end-to-end metric within its bound"
        } else {
            "some end-to-end metric worse beyond its bound"
        }
    );
    Ok(within)
}
