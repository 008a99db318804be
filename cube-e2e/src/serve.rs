//! The `cube serve` workloads: `eval-miss`, `eval-hit` and `ingest-eval`.
//!
//! The untraced phase drives a `cube serve` subprocess started with
//! default flags. The traced phase replays the same request streams
//! against an in-process server state ([`cube_serve::start`]'s `Shared`)
//! whose request handling this module performs itself, one layer call
//! at a time, so each call can be timed from outside the program.

use crate::client::{self, Marks, Reply};
use crate::gen::{self, Corpus, Uploads};
use crate::run::{
    closed_loop, end_to_end, Metric, Options, Outcome, Phase, Window, Workload, CUBE_ENV,
    WARMUP_SHARE,
};
use crate::stats;
use crate::sys;
use crate::trace::{Recorder, Span};
use cube_algebra::{
    check, parse_expr, BatchOperand, BatchPlan, MergeOptions, OperandFacts, PlanTables,
};
use cube_serve::cache::lock_recover;
use cube_serve::http::{read_request, write_response, Deadline, Request, Response};
use cube_serve::{api, ServeConfig, ServeError, Shared};
use cube_store::ColumnarExperiment;
use cube_xml::footer::{crc32, footer_line};
use rayon::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// CRC-32 and length of a reply, as byte checks compare them.
type Crc = (u32, usize);

/// Byte-checked share of replies, per mille, by workload.
const MISS_SAMPLE: u64 = 100;
const HIT_SAMPLE: u64 = 10;
const INGEST_SAMPLE: u64 = 100;

/// Outcome of one primary operation.
#[derive(Debug)]
struct OpResult {
    /// Request index, or upload key for `ingest-eval`.
    key: u64,
    /// Connect to last byte (for `ingest-eval`, of the upload and the
    /// evaluation together).
    latency_ns: u64,
    /// `ingest-eval`: the upload's own latency.
    put_ns: u64,
    /// Why the operation failed, if it did.
    error: Option<String>,
    /// CRC-32 and length of a reply in the byte-checked sample.
    checked: Option<Crc>,
    /// `ingest-eval`: the id the repository gave the upload.
    new_id: Option<String>,
}

impl OpResult {
    fn failed(key: u64, error: String) -> Self {
        OpResult {
            key,
            latency_ns: 0,
            put_ns: 0,
            error: Some(error),
            checked: None,
            new_id: None,
        }
    }
}

/// What every client of a phase shares.
struct Ctx<'a> {
    workload: Workload,
    addr: SocketAddr,
    corpus: &'a Corpus,
    uploads: &'a Uploads,
    /// The next operation's index.
    next: AtomicU64,
}

/// Uploads per `ingest-eval` client: client `c` sends the uploads keyed
/// `c·CLIENT_UPLOADS + k` for `k = 0, 1, …`.
const CLIENT_UPLOADS: u64 = 10_000_000;

/// One client's state, carried from phase to phase.
struct Client {
    c: usize,
    rec: Option<Recorder>,
    /// `ingest-eval`: the next upload, and the ids of the three before
    /// it on the current server, newest first.
    k: u64,
    recent: Vec<String>,
}

impl Client {
    fn new(c: usize, rec: Option<Recorder>) -> Self {
        Client {
            c,
            rec,
            k: 3,
            recent: Vec::new(),
        }
    }

    /// The key of this client's upload `k`.
    fn key(&self, k: u64) -> u64 {
        self.c as u64 * CLIENT_UPLOADS + k
    }
}

/// One set of clients for `workload`.
fn clients(workload: Workload, rec: impl Fn() -> Option<Recorder>) -> Vec<Client> {
    (0..workload.clients())
        .map(|c| Client::new(c, rec()))
        .collect()
}

fn snippet(body: &[u8]) -> String {
    String::from_utf8_lossy(&body[..body.len().min(160)]).into_owned()
}

/// Checks status, `X-Cache` and `Content-Length` of a reply.
fn expect(reply: &Reply, status: u16, cache: Option<&str>) -> Result<(), String> {
    if reply.status != status {
        return Err(format!(
            "status {} (expected {status}): {}",
            reply.status,
            snippet(&reply.body)
        ));
    }
    if cache.is_some() && reply.x_cache.as_deref() != cache {
        return Err(format!("x-cache {:?} (expected {cache:?})", reply.x_cache));
    }
    if !reply.length_ok() {
        return Err(format!(
            "content-length {:?} but {} bytes received",
            reply.content_length,
            reply.body.len()
        ));
    }
    Ok(())
}

/// Sends one request, recording the client-side spans when tracing.
fn exchange(
    ctx: &Ctx,
    rec: &mut Option<Recorder>,
    method: &str,
    path: &str,
    req: u64,
    body: &[u8],
) -> Result<(Reply, Marks), String> {
    let out = client::send(ctx.addr, method, path, Some(req), body);
    if let (Some(rec), Ok((reply, m))) = (rec.as_mut(), &out) {
        let [s, c, w, f, d] =
            [m.start, m.connected, m.written, m.first_byte, m.done].map(|t| rec.ns(t));
        rec.open_at("client.request", req, s);
        rec.add("client.connect", req, s, c, false);
        rec.add("client.write", req, c, w, false);
        rec.add("client.ttfb", req, w, f, false);
        rec.add("client.body", req, f, d, false)
            .with("bytes", reply.body.len() as u64);
        rec.close_at(d);
    }
    out
}

/// Sends an `/eval` and checks its reply; the reply's CRC is taken only
/// after the exchange's timer has stopped. Returns when the exchange
/// began and ended, for latencies that span several exchanges.
fn eval_op(
    ctx: &Ctx,
    st: &mut Client,
    n: u64,
    expr: &str,
    cache: &str,
    check: bool,
) -> (OpResult, Option<Marks>) {
    match exchange(ctx, &mut st.rec, "POST", "/eval", n, expr.as_bytes()) {
        Err(e) => (OpResult::failed(n, e), None),
        Ok((reply, m)) => {
            let error = expect(&reply, 200, Some(cache)).err();
            let result = OpResult {
                key: n,
                latency_ns: m.total().as_nanos() as u64,
                put_ns: 0,
                checked: (check && error.is_none()).then(|| crc(&reply.body)),
                error,
                new_id: None,
            };
            (result, Some(m))
        }
    }
}

fn ingest_op(ctx: &Ctx, st: &mut Client, n: u64) -> OpResult {
    let k = st.key(st.k);
    st.k += 1;
    let body = ctx.uploads.body(k);
    let (put, pm) = match exchange(ctx, &mut st.rec, "PUT", "/experiments", 2 * n, &body) {
        Ok(x) => x,
        Err(e) => return OpResult::failed(k, format!("upload: {e}")),
    };
    if let Err(e) = expect(&put, 201, None) {
        return OpResult::failed(k, format!("upload: {e}"));
    }
    let Some(new) = client::reply_id(&put.body) else {
        return OpResult::failed(k, format!("upload reply has no id: {}", snippet(&put.body)));
    };
    let expr = gen::upload_expr([&new, &st.recent[0], &st.recent[1], &st.recent[2]]);
    st.recent.insert(0, new.clone());
    st.recent.truncate(3);
    let check = gen::sampled(ctx.corpus.seed, 3, k, INGEST_SAMPLE);
    let (mut out, em) = eval_op(ctx, st, 2 * n + 1, &expr, "miss", check);
    out.key = k;
    if let Some(em) = em {
        out.latency_ns = (em.done - pm.start).as_nanos() as u64;
    }
    out.put_ns = pm.total().as_nanos() as u64;
    out.new_id = Some(new);
    out
}

fn op(ctx: &Ctx, st: &mut Client) -> OpResult {
    let n = ctx.next.fetch_add(1, Ordering::Relaxed);
    let seed = ctx.corpus.seed;
    match ctx.workload {
        Workload::EvalMiss => {
            let expr = ctx.corpus.miss_expr(n);
            eval_op(
                ctx,
                st,
                n,
                &expr,
                "miss",
                gen::sampled(seed, 1, n, MISS_SAMPLE),
            )
            .0
        }
        Workload::EvalHit => {
            let expr = &ctx.corpus.hit_exprs[ctx.corpus.hit_index(n)];
            eval_op(
                ctx,
                st,
                n,
                expr,
                "hit",
                gen::sampled(seed, 2, n, HIT_SAMPLE),
            )
            .0
        }
        Workload::IngestEval => ingest_op(ctx, st, n),
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    client::send(addr, method, path, None, body)
        .map(|(reply, _)| reply)
        .map_err(|e| format!("{method} {path}: {e}"))
}

/// Set-up: ingest the corpus, load every object's severity through
/// `/experiments/{id}/stats`, send each hit expression once, and for
/// `ingest-eval` upload the three uploads before each client's next
/// one, which its first evaluation reads. Returns the CRC-32 and length
/// of each hit expression's first (miss) reply.
fn setup(ctx: &Ctx, clients: &mut [Client]) -> Result<Vec<Crc>, String> {
    let (corpus, addr) = (ctx.corpus, ctx.addr);
    for o in &corpus.objects {
        let reply = request(addr, "PUT", "/experiments", &o.xml)?;
        expect(&reply, 201, None).map_err(|e| format!("ingest: {e}"))?;
        let id = client::reply_id(&reply.body);
        if id.as_deref() != Some(o.id.as_str()) {
            return Err(format!("ingest answered id {id:?}, expected {}", o.id));
        }
    }
    for o in &corpus.objects {
        let reply = request(addr, "GET", &format!("/experiments/{}/stats", o.id), b"")?;
        expect(&reply, 200, None).map_err(|e| format!("stats: {e}"))?;
    }
    let mut hit_replies = Vec::new();
    for expr in &corpus.hit_exprs {
        let reply = request(addr, "POST", "/eval", expr.as_bytes())?;
        expect(&reply, 200, Some("miss")).map_err(|e| format!("set-up eval: {e}"))?;
        hit_replies.push(crc(&reply.body));
    }
    for st in clients
        .iter_mut()
        .filter(|_| ctx.workload == Workload::IngestEval)
    {
        st.recent.clear();
        for k in st.k - 3..st.k {
            let reply = request(addr, "PUT", "/experiments", &ctx.uploads.body(st.key(k)))?;
            expect(&reply, 201, None).map_err(|e| format!("pre-upload: {e}"))?;
            let id = client::reply_id(&reply.body).ok_or("pre-upload has no id")?;
            st.recent.insert(0, id);
        }
    }
    Ok(hit_replies)
}

/// A `cube serve` subprocess, killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn(cube: &Path, repo: &Path) -> Result<Self, String> {
        let mut cmd = Command::new(cube);
        cmd.arg("serve")
            .arg("--repo")
            .arg(repo)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for var in CUBE_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cube.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("cube serve did not report its address: {line:?}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Result-cache hits and misses from the server's `/stats`.
fn result_cache(addr: SocketAddr) -> Result<(f64, f64), String> {
    let reply = request(addr, "GET", "/stats", b"")?;
    let v = crate::json::parse(&String::from_utf8_lossy(&reply.body))?;
    let rc = v.get("result_cache").ok_or("/stats has no result_cache")?;
    let num = |k: &str| {
        rc.get(k)
            .and_then(|x| x.num())
            .ok_or(format!("/stats has no {k}"))
    };
    Ok((num("hits")?, num("misses")?))
}

/// The untraced phase's measurements.
#[derive(Default)]
struct Measured {
    /// Set-up times, seconds.
    setup_s: Vec<f64>,
    /// CRC-32 and length of every set-up's hit replies.
    hit_replies: Vec<Crc>,
    /// The first failed warm-up operation, if any.
    warmup_error: Option<String>,
    /// Every timed operation's outcome.
    results: Vec<OpResult>,
    /// The timed phases' windows. Their CPU time is the server's plus
    /// this process's (the clients'): loopback TCP work is charged to
    /// either side depending on scheduling, so only the sum is steady.
    windows: Vec<Window>,
    /// Each server's peak RSS, KiB.
    peak_rss_kib: Vec<f64>,
    /// Result-cache hits and misses during the timed phases.
    cache: (f64, f64),
}

/// Runs the untraced phase: `setups` fresh `cube serve` subprocesses in
/// turn, each set up, warmed up and timed for its share of `seconds`.
/// On a shared host two servers started alike seconds apart measured
/// 8.2 and 10.4 ms of CPU per `ingest-eval` iteration; pooling several
/// servers spread over the run lessens the weight of any one.
fn untraced(
    opts: &Options,
    ctx: &mut Ctx,
    work: &Path,
    setups: usize,
    seconds: f64,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut states = clients(ctx.workload, || None);
    let cycle = ctx.workload.cycle();
    let share = seconds / setups as f64;
    let me = std::process::id();
    for i in 0..setups {
        let repo = work.join(format!("repo-{i}"));
        let t0 = Instant::now();
        let server = Server::spawn(&opts.cube, &repo)?;
        ctx.addr = server.addr;
        let ctx = &*ctx;
        m.hit_replies.extend(setup(ctx, &mut states)?);
        m.setup_s.push(t0.elapsed().as_secs_f64());
        let warmup = closed_loop(
            &mut states,
            share * WARMUP_SHARE,
            cycle,
            || 0.0,
            |st| op(ctx, st),
        );
        m.warmup_error = m.warmup_error.or(first_error(&warmup.results));
        let cpu = || {
            let read = |pid| sys::cpu_ms(pid).unwrap_or(f64::NAN);
            read(server.pid()) + read(me)
        };
        let (h0, m0) = result_cache(server.addr)?;
        let timed = closed_loop(&mut states, share, cycle, cpu, |st| op(ctx, st));
        let (h1, m1) = result_cache(server.addr)?;
        if timed.windows.iter().any(|w| !w.cpu_ms.is_finite()) {
            return Err("cannot read the CPU time of the server or the clients".into());
        }
        let rss = sys::peak_rss_kib(server.pid()).ok_or("cannot read the server's VmHWM")?;
        drop(server);
        let _ = std::fs::remove_dir_all(&repo);
        let Phase { results, windows } = timed;
        m.results.extend(results);
        m.windows.extend(windows);
        m.peak_rss_kib.push(rss as f64);
        m.cache = (m.cache.0 + h1 - h0, m.cache.1 + m1 - m0);
    }
    Ok(m)
}

/// The first failure among warm-up operations, which are not timed but
/// must succeed all the same.
fn first_error(warmup: &[OpResult]) -> Option<String> {
    warmup.iter().find_map(|r| {
        r.error
            .as_ref()
            .map(|e| format!("warm-up operation {}: {e}", r.key))
    })
}

/// CRC-32 and length of `bytes`.
fn crc(bytes: &[u8]) -> Crc {
    (crc32(bytes), bytes.len())
}

/// The library's answer to byte-checked operation `r`: the CRC-32 and
/// length its reply must have, and for an upload the id it must have
/// been given.
fn reference(ctx: &Ctx, hit_refs: &[Crc], r: &OpResult) -> Result<(Crc, Option<String>), String> {
    let corpus = ctx.corpus;
    match ctx.workload {
        Workload::EvalHit => Ok((hit_refs[corpus.hit_index(r.key)], None)),
        Workload::EvalMiss => {
            let bytes = gen::reference(&corpus.miss_expr(r.key), |id| corpus.by_id(id))?;
            Ok((crc(&bytes), None))
        }
        Workload::IngestEval => {
            let exps: Vec<_> = (0..4).map(|j| ctx.uploads.experiment(r.key - j)).collect();
            let id = cube_serve::content_id(&cube_store::write_store(&exps[0]));
            let names = ["u0", "u1", "u2", "u3"];
            let bytes = gen::reference(&gen::upload_expr(names), |n| {
                names.iter().position(|x| *x == n).map(|j| &exps[j])
            })?;
            Ok((crc(&bytes), Some(id)))
        }
    }
}

/// Compares the set-ups' hit replies and the byte-checked replies with
/// the library's answers, computed on the pool. Returns the keys of
/// mismatched operations, and problems found outside any one operation.
fn verify(ctx: &Ctx, hit_replies: &[Crc], results: &[OpResult]) -> (Vec<u64>, Vec<String>) {
    let corpus = ctx.corpus;
    let mut problems = Vec::new();
    let hit_refs: Vec<Crc> = corpus
        .hit_exprs
        .par_iter()
        .with_min_len(1)
        .map(|e| gen::reference(e, |id| corpus.by_id(id)).map_or((0, 0), |b| crc(&b)))
        .collect();
    for (i, (got, want)) in hit_replies.iter().zip(hit_refs.iter().cycle()).enumerate() {
        if got != want {
            problems.push(format!(
                "set-up reply {i} to a hit expression differs from the library's answer"
            ));
        }
    }
    let checked: Vec<&OpResult> = results.iter().filter(|r| r.checked.is_some()).collect();
    let wants: Vec<_> = checked
        .par_iter()
        .with_min_len(1)
        .map(|r| reference(ctx, &hit_refs, r))
        .collect();
    let mut bad = Vec::new();
    for (r, want) in checked.into_iter().zip(wants) {
        match want {
            Ok((want, id)) => {
                if id.is_some() && r.new_id != id {
                    problems.push(format!(
                        "upload {} got id {:?}, expected {id:?}",
                        r.key, r.new_id
                    ));
                }
                if r.checked != Some(want) {
                    bad.push(r.key);
                }
            }
            Err(e) => problems.push(format!("reference for {}: {e}", r.key)),
        }
    }
    (bad, problems)
}

/// Tallies attempts and failures into `out` and returns the operations
/// that succeeded.
fn tally<'a>(out: &mut Outcome, results: &'a [OpResult], bad: &[u64]) -> Vec<&'a OpResult> {
    out.attempted += results.len() as u64;
    let mut ok = Vec::new();
    for r in results {
        if let Some(e) = &r.error {
            out.failed += 1;
            if out.problems.len() < 5 {
                out.problems.push(format!("operation {}: {e}", r.key));
            }
        } else if bad.contains(&r.key) {
            out.failed += 1;
            out.problems.push(format!(
                "operation {}: reply differs from the library's answer",
                r.key
            ));
        } else {
            ok.push(r);
        }
    }
    ok
}

/// Runs one workload.
pub fn run(opts: &Options, workload: Workload, work: &Path) -> Result<Outcome, String> {
    let corpus = Corpus::generate(opts.seed, opts.scale);
    let uploads = Uploads::new(opts.seed, opts.scale);
    let mut ctx = Ctx {
        workload,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        corpus: &corpus,
        uploads: &uploads,
        next: AtomicU64::new(0),
    };
    // A traced run measures for the same time in all: half untraced,
    // for the reference numbers, and half traced.
    let (setups, seconds) = if opts.trace {
        (1, opts.seconds / 2.0)
    } else {
        (opts.setups, opts.seconds)
    };
    let m = untraced(opts, &mut ctx, work, setups, seconds)?;
    let mut out = Outcome::default();
    let (bad, problems) = verify(&ctx, &m.hit_replies, &m.results);
    out.problems.extend(problems);
    out.problems.extend(m.warmup_error.clone());
    let ok = tally(&mut out, &m.results, &bad);
    let (hits, misses) = m.cache;
    let evals = m.results.len() as f64;
    let cache_ok = match workload {
        Workload::EvalHit => hits == evals && misses == 0.0,
        _ => hits == 0.0,
    };
    if !cache_ok {
        out.problems.push(format!(
            "result cache counted {hits} hits and {misses} misses over {evals} evaluations"
        ));
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let lat: Vec<f64> = ok.iter().map(|r| ms(r.latency_ns)).collect();
    let n = lat.len();
    let untraced_p50 = stats::median(&lat);
    out.metrics = end_to_end(&m.setup_s, &lat, &m.windows, &m.peak_rss_kib);
    out.windows = m.windows;
    out.extra.push(
        Metric::new(
            "result_hit_frac",
            "ratio",
            hits / (hits + misses).max(1.0),
            evals as usize,
        )
        .note(format!("{hits} hits, {misses} misses, from /stats")),
    );
    if workload == Workload::IngestEval {
        let put = stats::sorted(&ok.iter().map(|r| ms(r.put_ns)).collect::<Vec<_>>());
        out.extra
            .push(Metric::new("put_p50_ms", "ms", stats::median(&put), n));
        out.extra.push(
            Metric::new("put_p95_ms", "ms", stats::percentile(&put, 95.0), n)
                .note(format!("{} beyond", stats::beyond(n, 95.0))),
        );
    }

    if opts.trace {
        let untraced_crcs: HashMap<u64, Crc> = ok
            .iter()
            .filter_map(|r| r.checked.map(|c| (r.key, c)))
            .collect();
        let mut traced = Outcome::default();
        let Replayed {
            results,
            spans,
            hit_replies,
        } = replay(&mut ctx, &work.join("replay"), seconds)?;
        let (bad, problems) = verify(&ctx, &hit_replies, &results);
        traced.problems.extend(problems);
        let traced_ok = tally(&mut traced, &results, &bad);
        let traced_p50 = stats::median(
            &traced_ok
                .iter()
                .map(|r| ms(r.latency_ns))
                .collect::<Vec<_>>(),
        );
        for r in &results {
            if let (Some(got), Some(want)) = (r.checked, untraced_crcs.get(&r.key)) {
                if got != *want {
                    traced.problems.push(format!(
                        "traced reply {} differs from the untraced one",
                        r.key
                    ));
                }
            }
        }
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        out.problems.extend(traced.problems);
        out.metrics = crate::layers::per_layer(&spans, untraced_p50, traced_p50);
        out.spans = spans;
    }
    Ok(out)
}

/// What the traced phase produced.
struct Replayed {
    /// The timed operations' outcomes.
    results: Vec<OpResult>,
    /// The spans of the timed operations.
    spans: Vec<Span>,
    /// The set-up's hit replies.
    hit_replies: Vec<Crc>,
}

/// The traced phase: the same set-up and request stream, served by
/// this process over `cube_serve`'s own state with each layer call
/// timed.
fn replay(ctx: &mut Ctx, repo: &Path, seconds: f64) -> Result<Replayed, String> {
    let epoch = Instant::now();
    let server = Replay::start(repo, ctx.workload.clients(), epoch)?;
    ctx.addr = server.addr;
    ctx.next = AtomicU64::new(0);
    let ctx = &*ctx;
    let mut states = clients(ctx.workload, || Some(Recorder::new(epoch)));
    let prepared = setup(ctx, &mut states);
    let (mut warmup, mut results) = (Vec::new(), Vec::new());
    let mut first_timed = 0;
    if prepared.is_ok() {
        let cycle = ctx.workload.cycle();
        let run = |states: &mut [Client], secs| {
            closed_loop(states, secs, cycle, || 0.0, |st| op(ctx, st)).results
        };
        warmup = run(&mut states, seconds * WARMUP_SHARE);
        first_timed = ctx.next.load(Ordering::SeqCst);
        results = run(&mut states, seconds);
    }
    let mut spans = server.stop();
    let hit_replies = prepared?;
    if let Some(e) = first_error(&warmup) {
        return Err(e);
    }
    for st in states {
        spans.extend(st.rec.map(Recorder::into_spans).unwrap_or_default());
    }
    // Keep the timed phase's spans: request ids count up from the first
    // timed operation (two requests per `ingest-eval` iteration).
    let per_op = if ctx.workload == Workload::IngestEval {
        2
    } else {
        1
    };
    spans.retain(|s| s.req >= first_timed * per_op);
    let _ = std::fs::remove_dir_all(repo);
    Ok(Replayed {
        results,
        spans,
        hit_replies,
    })
}

/// The in-process server of the traced phase: `cube_serve`'s state,
/// and one handler thread per client accepting on this benchmark's own
/// listener. The listener `cube_serve::start` opens stays unused.
struct Replay {
    server: cube_serve::RunningServer,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handlers: Vec<std::thread::JoinHandle<Vec<Span>>>,
}

impl Replay {
    fn start(repo: &Path, handlers: usize, epoch: Instant) -> Result<Self, String> {
        let server = cube_serve::start(ServeConfig::default(), repo).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers = (0..handlers)
            .map(|_| {
                let listener = listener.try_clone().map_err(|e| e.to_string())?;
                let shared = Arc::clone(server.shared());
                let stop = Arc::clone(&stop);
                Ok(std::thread::spawn(move || {
                    let mut rec = Recorder::new(epoch);
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(mut stream) = stream {
                            serve_traced(&shared, &mut stream, &mut rec);
                        }
                    }
                    rec.into_spans()
                }))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Replay {
            server,
            addr,
            stop,
            handlers,
        })
    }

    /// Stops the handlers (each wakes on one last connection) and the
    /// server, and returns the handlers' spans.
    fn stop(self) -> Vec<Span> {
        self.stop.store(true, Ordering::SeqCst);
        for _ in &self.handlers {
            let _ = TcpStream::connect(self.addr);
        }
        let spans = self
            .handlers
            .into_iter()
            .flat_map(|h| h.join().expect("handler threads do not panic"))
            .collect();
        self.server.shutdown();
        self.server.join();
        spans
    }
}

/// Serves one connection as `cube serve`'s worker does, timing each
/// layer call. Requests without an `x-request-id` (the set-up's) go to
/// the program's own handler untimed.
fn serve_traced(shared: &Shared, stream: &mut TcpStream, rec: &mut Recorder) {
    let config = &shared.config;
    let timeout = Some(Duration::from_millis(config.socket_timeout_ms));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let total = Deadline::after_ms(config.request_deadline_ms);
    let head = Deadline::after_ms(config.header_deadline_ms);
    let t0 = rec.now();
    let Ok(req) = read_request(stream, config.max_body, &head, &total) else {
        return;
    };
    let t1 = rec.now();
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let Some(n) = req.header("x-request-id").and_then(|v| v.parse().ok()) else {
        let _ = write_response(stream, &api::handle(shared, &req, &total));
        return;
    };
    rec.open_at("request", n, t0);
    rec.add("http.read_request", n, t0, t1, false)
        .with("bytes", req.body.len() as u64);
    let response = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/eval") => replay_eval(shared, &req, &total, rec, n),
        ("PUT", "/experiments") => replay_ingest(shared, &req, rec, n),
        _ => Ok(api::handle(shared, &req, &total)),
    }
    .unwrap_or_else(|e| api::error_response(&e));
    let t2 = rec.now();
    let _ = write_response(stream, &response);
    let t3 = rec.now();
    rec.add("http.write_response", n, t2, t3, false)
        .with("bytes", response.body.len() as u64);
    rec.close_at(t3);
    if req.method == "PUT" && response.status == 201 {
        split_ingest(shared, &req.body, rec, n);
    }
}

/// `api::eval`'s success path, stage by stage.
fn replay_eval(
    shared: &Shared,
    req: &Request,
    deadline: &Deadline,
    rec: &mut Recorder,
    n: u64,
) -> Result<Response, ServeError> {
    shared.evals.fetch_add(1, Ordering::Relaxed);
    let (parsed, key) = rec.time("algebra.parse", n, || {
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| ServeError::bad_request("bad_encoding", "request body is not UTF-8"))?;
        let parsed = parse_expr(text.trim())?;
        let key = parsed.canonical();
        Ok::<_, ServeError>((parsed, key))
    })?;

    rec.open("serve.result_lookup", n);
    let cached = lock_recover(&shared.results).get(&key);
    rec.close().with("hit", u64::from(cached.is_some()));
    if let Some(bytes) = cached {
        let body = rec.time("serve.body_copy", n, || bytes.as_ref().clone());
        return Ok(Response::bytes(200, "application/cube+xml", body).with_header("x-cache", "hit"));
    }

    let mut handles: Vec<Arc<ColumnarExperiment>> = Vec::with_capacity(parsed.operands.len());
    for id in &parsed.operands {
        handles.push(rec.time("repo.open", n, || shared.repo.open_within(id, deadline))?);
    }
    let report = rec.time("algebra.check", n, || {
        let facts: Vec<OperandFacts<'_>> = parsed
            .operands
            .iter()
            .zip(&handles)
            .map(|(id, h)| OperandFacts::known(id.clone(), h.metadata()))
            .collect();
        check(&parsed, &facts)
    });
    if report.num_errors() > 0 {
        return Err(ServeError::with_status(422, "A000", "static check failed"));
    }
    for (id, handle) in parsed.operands.iter().zip(&handles) {
        let cold = !handle.is_loaded();
        rec.open("repo.severity", n);
        let loaded = shared.repo.ensure_severity(id, handle, deadline);
        rec.close().with("cold", u64::from(cold));
        loaded?;
    }

    let ops: Vec<&dyn BatchOperand> = handles
        .iter()
        .map(|h| h.as_ref() as &dyn BatchOperand)
        .collect();
    rec.open("algebra.plan", n);
    let plan_key = parsed.operands.join(",");
    let cached = lock_recover(&shared.plans)
        .get(&plan_key)
        .and_then(|tables| BatchPlan::from_tables(&ops, tables).ok());
    let hit = cached.is_some();
    let plan = match cached {
        Some(plan) => Ok(plan),
        None => {
            let tables = Arc::new(PlanTables::build(&ops, MergeOptions::default()));
            lock_recover(&shared.plans).insert(plan_key, Arc::clone(&tables));
            BatchPlan::from_tables(&ops, tables)
        }
    };
    rec.close().with("cache_hit", u64::from(hit));
    let plan = plan?;

    rec.open("algebra.kernel", n);
    let fused = plan.fusible(&parsed.expr);
    let exp = plan.eval(&parsed.expr);
    let (nm, nc, nt) = plan.shape();
    rec.close()
        .with("fused", u64::from(fused))
        .with("bytes_in", (ops.len() * nm * nc * nt * 8) as u64)
        .with("values_out", (nm * nc * nt) as u64);
    let exp = exp?;

    rec.open("xml.encode", n);
    let mut bytes = cube_xml::write_experiment(&exp).into_bytes();
    rec.close().with("bytes", bytes.len() as u64);
    rec.time("xml.footer", n, || {
        let line = footer_line(crc32(&bytes), bytes.len() as u64);
        bytes.extend_from_slice(line.as_bytes());
    });
    let bytes = Arc::new(bytes);
    rec.time("serve.result_insert", n, || {
        lock_recover(&shared.results).insert(key, Arc::clone(&bytes))
    });
    let body = rec.time("serve.body_copy", n, || bytes.as_ref().clone());
    Ok(Response::bytes(200, "application/cube+xml", body).with_header("x-cache", "miss"))
}

/// `api::ingest`, with the repository call timed.
fn replay_ingest(
    shared: &Shared,
    req: &Request,
    rec: &mut Recorder,
    n: u64,
) -> Result<Response, ServeError> {
    let outcome = rec.time("repo.ingest", n, || shared.repo.ingest(&req.body))?;
    Ok(Response::json(
        if outcome.created { 201 } else { 200 },
        format!(
            "{{\"id\":\"{}\",\"created\":{},\"label\":{}}}",
            outcome.id,
            outcome.created,
            cube_serve::json::json_string(&outcome.label)
        ),
    ))
}

/// After an upload's reply is sent, times the parts of ingest that
/// `Repository::ingest` performs in one call — parse, canonical encode,
/// content id — on the same bytes, as root spans outside the request.
fn split_ingest(shared: &Shared, body: &[u8], rec: &mut Recorder, n: u64) {
    let Ok(text) = std::str::from_utf8(body) else {
        return;
    };
    let t0 = rec.now();
    let Ok(exp) = cube_xml::CubeReader::with_limits(text, shared.config.read_limits()).read()
    else {
        return;
    };
    let t1 = rec.now();
    let canonical = cube_store::write_store(&exp);
    let t2 = rec.now();
    std::hint::black_box(cube_serve::content_id(&canonical));
    let t3 = rec.now();
    rec.add("xml.parse", n, t0, t1, true)
        .with("bytes", body.len() as u64);
    rec.add("store.encode", n, t1, t2, true)
        .with("bytes", canonical.len() as u64);
    rec.add("repo.content_id", n, t2, t3, true);
}
