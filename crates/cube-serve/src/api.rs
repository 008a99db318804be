//! Route table and request handlers.
//!
//! | Method | Path                       | Body            | Returns |
//! |--------|----------------------------|-----------------|---------|
//! | PUT    | `/experiments`             | `.cube`/`.cubec`| JSON id |
//! | GET    | `/experiments/{id}/stats`  | —               | JSON    |
//! | GET    | `/experiments/{id}/lint`   | —               | JSON    |
//! | POST   | `/check`                   | expr text/JSON  | JSON    |
//! | POST   | `/eval`                    | expr text/JSON  | `.cube` |
//! | GET    | `/stats`                   | —               | JSON    |
//! | GET    | `/healthz`                 | —               | JSON    |
//!
//! `/eval` responses are byte-identical to the files `cube stats` /
//! `cube diff` write, because both come from one encoder,
//! [`cube_xml::write_experiment_to`]: the CUBE body and its checksum
//! footer in one pass. That identity is what the CI serve gate diffs,
//! and it holds on cache hits too — the `X-Cache` header says which
//! path produced the bytes.
//!
//! Every `/eval` that misses the result cache runs one sequence of
//! stages: open the operands metadata-only (the lazy `.cubec` path, no
//! severity pages read) within the request deadline; pre-flight them
//! through the static checker ([`cube_algebra::check()`]), which
//! rejects a statically invalid expression with its `A0xx` code and
//! full diagnostics array before any evaluation work or cache
//! insertion; load their severity; restrict the expression to the
//! operands that loaded ([`cube_algebra::Expr::restrict`]); check the
//! deadline; plan, evaluate and encode. Only the ending differs. With
//! every operand loaded, the plan and result caches are used and the
//! answer is `200`. With operands omitted under `?keep_going=1`, the
//! plan is built fresh, nothing is cached and the answer is the `206`
//! envelope. An expired deadline at any stage is `504`, never an
//! omitted operand.
//!
//! `/check` reads its body and opens its operands exactly as `/eval`
//! does, and returns the full report (diagnostics, rewrite, cost
//! estimate) in the same JSON shape `cube check --format json` prints.

use crate::cache::lock_recover;
use crate::error::ServeError;
use crate::http::{Deadline, Request, Response};
use crate::json::{extract_string_field, json_string, lint_diagnostics};
use crate::server::Shared;
use cube_algebra::{
    check, parse_expr, render_expr, BatchOperand, BatchPlan, MergeOptions, OperandFacts,
    ParsedExpr, PlanTables,
};
use cube_model::Provenance;
use cube_store::ColumnarExperiment;
use cube_xml::{encoded_len_hint, write_experiment_to};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Dispatches one request, converting every failure into its JSON
/// error body. Never panics the worker: unknown routes are 404, wrong
/// methods 405. `deadline` is the request's remaining time budget;
/// handlers doing repository work check it at phase boundaries and
/// surface expiry as `504 deadline_exceeded`.
pub fn handle(shared: &Shared, req: &Request, deadline: &Deadline) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let result = match (req.method.as_str(), segments.as_slice()) {
        ("PUT", ["experiments"]) => ingest(shared, req),
        ("GET", ["experiments", id, "stats"]) => experiment_stats(shared, id, deadline),
        ("GET", ["experiments", id, "lint"]) => experiment_lint(shared, id),
        ("POST", ["check"]) => check_endpoint(shared, req, deadline),
        ("POST", ["eval"]) => eval(shared, req, deadline),
        ("GET", ["stats"]) => Ok(server_stats(shared)),
        ("GET", ["healthz"]) => Ok(healthz(shared)),
        (_, ["experiments"])
        | (_, ["check"])
        | (_, ["eval"])
        | (_, ["experiments", _, "stats" | "lint"]) => Err(ServeError::with_status(
            405,
            "method_not_allowed",
            format!("{} is not supported on {path}", req.method),
        )),
        _ => Err(ServeError::not_found(
            "no_such_route",
            format!("no route for {path}"),
        )),
    };
    result.unwrap_or_else(|e| error_response(&e))
}

/// Renders a [`ServeError`] as its JSON wire form. Errors carrying
/// checker details gain a `"diagnostics"` array of `A0xx` findings.
pub fn error_response(e: &ServeError) -> Response {
    let mut body = format!(
        "{{\"error\":{},\"code\":{}",
        json_string(&e.message),
        json_string(&e.code)
    );
    if let Some(details) = &e.details {
        let _ = write!(body, ",\"diagnostics\":{details}");
    }
    body.push('}');
    Response::json(e.status, body)
}

fn ingest(shared: &Shared, req: &Request) -> Result<Response, ServeError> {
    let outcome = shared.repo.ingest(&req.body)?;
    let status = if outcome.created { 201 } else { 200 };
    Ok(Response::json(
        status,
        format!(
            "{{\"id\":\"{}\",\"created\":{},\"label\":{}}}",
            outcome.id,
            outcome.created,
            json_string(&outcome.label)
        ),
    ))
}

fn provenance_kind(p: &Provenance) -> &'static str {
    match p {
        Provenance::Original { .. } => "original",
        Provenance::Derived { .. } => "derived",
        Provenance::Recovered { .. } => "recovered",
    }
}

fn experiment_stats(
    shared: &Shared,
    id: &str,
    deadline: &Deadline,
) -> Result<Response, ServeError> {
    let handle = shared.repo.open_within(id, deadline)?;
    shared.repo.ensure_severity(id, &handle, deadline)?;
    let md = handle.metadata();
    let values = handle.severity()?;
    let nonzero = values.iter().filter(|v| **v != 0.0).count();
    Ok(Response::json(
        200,
        format!(
            "{{\"id\":\"{id}\",\"label\":{},\"kind\":\"{}\",\
             \"metrics\":{},\"modules\":{},\"regions\":{},\"call_sites\":{},\
             \"call_nodes\":{},\"machines\":{},\"nodes\":{},\"processes\":{},\
             \"threads\":{},\"values\":{},\"nonzero\":{}}}",
            json_string(&handle.provenance().label()),
            provenance_kind(handle.provenance()),
            md.num_metrics(),
            md.modules().len(),
            md.regions().len(),
            md.call_sites().len(),
            md.num_call_nodes(),
            md.machines().len(),
            md.nodes().len(),
            md.processes().len(),
            md.num_threads(),
            values.len(),
            nonzero,
        ),
    ))
}

fn experiment_lint(shared: &Shared, id: &str) -> Result<Response, ServeError> {
    let path = shared.repo.locate(id)?;
    let report = cube_store::lint_file(&path);
    Ok(Response::json(
        200,
        format!(
            "{{\"id\":\"{id}\",\"diagnostics\":{},\"errors\":{},\"warnings\":{},\"ok\":{}}}",
            lint_diagnostics(&report),
            report.num_errors(),
            report.num_warnings(),
            !report.has_errors()
        ),
    ))
}

fn server_stats(shared: &Shared) -> Response {
    let (result_hits, result_misses, result_entries) = {
        let c = lock_recover(&shared.results);
        (c.hits(), c.misses(), c.len())
    };
    let (plan_hits, plan_misses, plan_entries) = {
        let c = lock_recover(&shared.plans);
        (c.hits(), c.misses(), c.len())
    };
    let faults = crate::faults::counters();
    Response::json(
        200,
        format!(
            "{{\"experiments\":{},\"requests\":{},\"evals\":{},\"rejected\":{},\
             \"result_cache\":{{\"hits\":{result_hits},\"misses\":{result_misses},\"entries\":{result_entries}}},\
             \"plan_cache\":{{\"hits\":{plan_hits},\"misses\":{plan_misses},\"entries\":{plan_entries}}},\
             \"deadline_expirations\":{},\"degraded_evals\":{},\"panics\":{},\"retries\":{},\
             \"read_failures\":{},\"quarantined\":{},\"swept_temp_files\":{},\
             \"faults\":{{\"io_errors\":{},\"torn_reads\":{},\"checksum_flips\":{},\"latencies\":{}}}}}",
            shared.repo.count(),
            shared.requests.load(Ordering::Relaxed),
            shared.evals.load(Ordering::Relaxed),
            shared.rejected.load(Ordering::Relaxed),
            shared.deadline_expirations.load(Ordering::Relaxed),
            shared.degraded_evals.load(Ordering::Relaxed),
            shared.panics.load(Ordering::Relaxed),
            shared.repo.retries_performed.load(Ordering::Relaxed),
            shared.repo.read_failures.load(Ordering::Relaxed),
            shared.repo.open_breakers(),
            shared.repo.swept_temp_files(),
            faults.io_errors,
            faults.torn_reads,
            faults.checksum_flips,
            faults.latencies,
        ),
    )
}

/// `GET /healthz`: liveness plus a coarse degradation signal. The
/// server reports `degraded` while any object id is quarantined by the
/// circuit breaker — it is still serving, but some operands answer
/// `503` (or are omitted under `keep_going`). `ok` stays `true` either
/// way: the process is alive and making progress.
fn healthz(shared: &Shared) -> Response {
    let quarantined = shared.repo.open_breakers();
    Response::json(
        200,
        format!(
            "{{\"ok\":true,\"status\":\"{}\",\"quarantined\":{quarantined},\
             \"read_failures\":{},\"deadline_expirations\":{}}}",
            if quarantined > 0 { "degraded" } else { "ok" },
            shared.repo.read_failures.load(Ordering::Relaxed),
            shared.deadline_expirations.load(Ordering::Relaxed),
        ),
    )
}

/// The expression text and optional `bind` field of an `/eval` or
/// `/check` body: either a flat JSON object with an `expr` field, or
/// the expression itself as plain text. `/eval` ignores `bind`.
fn read_body(req: &Request) -> Result<(String, Option<String>), ServeError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ServeError::bad_request("bad_encoding", "request body is not UTF-8"))?;
    let trimmed = text.trim();
    if trimmed.starts_with('{') {
        let expr = extract_string_field(trimmed, "expr").ok_or_else(|| {
            ServeError::bad_request("missing_expr", "JSON body has no string \"expr\" field")
        })?;
        Ok((expr, extract_string_field(trimmed, "bind")))
    } else if trimmed.is_empty() {
        Err(ServeError::bad_request(
            "missing_expr",
            "empty body; send an expression or {\"expr\": \"...\"}",
        ))
    } else {
        Ok((trimmed.to_string(), None))
    }
}

/// One operand's open, or why it failed.
type Opened = Result<Arc<ColumnarExperiment>, ServeError>;

/// Opens each id metadata-only within the request deadline, keeping
/// per-operand outcomes so that a failure can become an `A001` fact or
/// an omitted operand. An expired deadline is the answer instead.
fn open_each<'a>(
    shared: &Shared,
    ids: impl Iterator<Item = &'a str>,
    deadline: &Deadline,
) -> Result<Vec<Opened>, ServeError> {
    check_deadline(deadline, "resolving operands")?;
    ids.map(|id| match shared.repo.open_within(id, deadline) {
        Err(e) if e.status == 504 => Err(e),
        opened => Ok(opened),
    })
    .collect()
}

/// Operand facts for the checker, borrowing metadata from the opened
/// handles. Only metadata is consulted — severity pages stay unread.
fn facts_of<'a>(names: &[String], opened: &'a [Opened]) -> Vec<OperandFacts<'a>> {
    names
        .iter()
        .zip(opened)
        .map(|(name, res)| match res {
            Ok(handle) => OperandFacts::known(name.clone(), handle.metadata()),
            Err(e) => OperandFacts::unknown(name.clone(), e.message.clone()),
        })
        .collect()
}

/// Mandatory `/eval` pre-flight: statically checks the expression
/// against metadata-only operand facts and converts a failing report
/// into the structured wire error — status 404 when an operand does
/// not resolve, 422 for other static errors, with the full `A0xx`
/// diagnostics array attached. Runs before any plan construction,
/// evaluation, or cache insertion.
fn preflight(parsed: &ParsedExpr, opened: &[Opened]) -> Result<(), ServeError> {
    let report = check(parsed, &facts_of(&parsed.operands, opened));
    if report.num_errors() == 0 {
        return Ok(());
    }
    let unresolved = report.diagnostics.iter().any(|d| d.code == "A001");
    let (code, message) = report.first_error().map_or_else(
        || ("A000", "static check failed".to_string()),
        |d| (d.code, format!("static check failed: {}", d.message)),
    );
    Err(
        ServeError::with_status(if unresolved { 404 } else { 422 }, code, message)
            .with_details(report.diagnostics_json()),
    )
}

/// Fails with `504 deadline_exceeded` if the request budget is gone.
fn check_deadline(deadline: &Deadline, phase: &str) -> Result<(), ServeError> {
    if deadline.expired() {
        Err(ServeError::deadline(phase))
    } else {
        Ok(())
    }
}

/// Whether the request's query string sets `name` truthily
/// (`?name=1`, `?name=true`, or bare `?name`).
fn query_flag(req: &Request, name: &str) -> bool {
    let Some(query) = req.path.split_once('?').map(|(_, q)| q) else {
        return false;
    };
    query.split('&').any(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        k == name && matches!(v, "" | "1" | "true")
    })
}

/// The plan over `ops`. With a `key`, its tables come from and go to
/// the plan cache; without one they are built fresh and dropped.
fn plan_for<'a>(
    shared: &Shared,
    key: Option<String>,
    ops: &[&'a dyn BatchOperand],
) -> Result<BatchPlan<'a>, ServeError> {
    let cached = key
        .as_ref()
        .and_then(|k| lock_recover(&shared.plans).get(k));
    // Content ids key the cache, so cached tables can only mismatch if
    // an object was replaced underneath us; rebuild in that case.
    if let Some(Ok(plan)) = cached.map(|tables| BatchPlan::from_tables(ops, tables)) {
        return Ok(plan);
    }
    let tables = Arc::new(PlanTables::build(ops, MergeOptions::default()));
    if let Some(key) = key {
        lock_recover(&shared.plans).insert(key, Arc::clone(&tables));
    }
    BatchPlan::from_tables(ops, tables).map_err(ServeError::from)
}

fn eval(shared: &Shared, req: &Request, deadline: &Deadline) -> Result<Response, ServeError> {
    shared.evals.fetch_add(1, Ordering::Relaxed);
    let keep_going = query_flag(req, "keep_going");
    let parsed = parse_expr(&read_body(req)?.0)?;
    let key = parsed.canonical();
    if let Some(bytes) = lock_recover(&shared.results).get(&key) {
        return Ok(
            Response::bytes(200, "application/cube+xml", bytes).with_header("x-cache", "hit")
        );
    }
    let opened = open_each(shared, parsed.operands.iter().map(String::as_str), deadline)?;
    // Static resolution failures (bad/unknown ids) go through the
    // checker so the client gets the full A0xx diagnostics. Transient
    // availability failures (503) are not static facts: when they are
    // the only failures, the checker is skipped and plan-level
    // validation covers the survivors.
    let any_static = opened.iter().any(|r| matches!(r, Err(e) if e.status < 500));
    if any_static || opened.iter().all(Result::is_ok) {
        preflight(&parsed, &opened)?;
    }
    // Guarded severity loads — the second disk boundary an /eval
    // crosses. A failure here or at the open omits the operand.
    let mut alive = Vec::with_capacity(opened.len());
    let (mut handles, mut omitted) = (Vec::new(), Vec::new());
    for (index, (id, res)) in parsed.operands.iter().zip(opened).enumerate() {
        let loaded = res.and_then(|h| shared.repo.ensure_severity(id, &h, deadline).map(|()| h));
        alive.push(loaded.is_ok());
        match loaded {
            Ok(handle) => handles.push(handle),
            Err(e) if e.status == 504 => return Err(e),
            Err(e) => omitted.push((index, id, e)),
        }
    }
    let expr = match omitted.first() {
        // Restricted to every operand, the expression is itself.
        None => parsed.expr.clone(),
        Some((_, _, e)) if !keep_going => return Err(e.clone()),
        Some((_, _, e)) => parsed.expr.restrict(&alive).ok_or_else(|| {
            let mut e = e.clone();
            e.message = format!(
                "{} (operand is structurally required; keep_going cannot omit it)",
                e.message
            );
            e
        })?,
    };
    check_deadline(deadline, "evaluating the expression")?;
    let ops: Vec<&dyn BatchOperand> = handles
        .iter()
        .map(|h| h.as_ref() as &dyn BatchOperand)
        .collect();
    // A degraded plan is built fresh, not cached: its operand set is an
    // accident of which reads failed, not a stable key.
    let plan = plan_for(
        shared,
        omitted.is_empty().then(|| parsed.operands.join(",")),
        &ops,
    )?;
    let exp = plan.eval(&expr)?;
    let mut bytes = write_experiment_to(&exp, Vec::with_capacity(encoded_len_hint(&exp)))?;
    if omitted.is_empty() {
        // The hint over-reserves so the encoder never grows the buffer;
        // the cache holds the body at its exact size.
        bytes.shrink_to_fit();
        let bytes = Arc::new(bytes);
        lock_recover(&shared.results).insert(key, Arc::clone(&bytes));
        return Ok(
            Response::bytes(200, "application/cube+xml", bytes).with_header("x-cache", "miss")
        );
    }
    // Degraded: a JSON envelope, not raw CUBE bytes — the omission
    // report is part of the answer — and never cached, because the
    // result does not correspond to the canonical expression.
    shared.degraded_evals.fetch_add(1, Ordering::Relaxed);
    let names: Vec<String> = parsed
        .operands
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|(name, _)| name.clone())
        .collect();
    let mut body = format!(
        "{{\"status\":\"degraded\",\"expr\":{},\"used\":{},\"omitted_operands\":[",
        json_string(&render_expr(&expr, &names)),
        handles.len(),
    );
    for (k, (index, id, e)) in omitted.iter().enumerate() {
        if k > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"index\":{index},\"id\":{},\"code\":{},\"reason\":{}}}",
            json_string(id),
            json_string(&e.code),
            json_string(&e.message)
        );
    }
    let _ = write!(
        body,
        "],\"result\":{}}}",
        json_string(&String::from_utf8_lossy(&bytes))
    );
    Ok(Response::json(206, body).with_header("x-cache", "degraded"))
}

/// Parses the optional flat `bind` field (`"A=id,B=id"`) of a
/// `/check` body into (name, id) pairs.
fn parse_bindings(bind: Option<&str>) -> Result<Vec<(String, String)>, ServeError> {
    bind.unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((name, id)) => Ok((name.trim().to_string(), id.trim().to_string())),
            None => Err(ServeError::bad_request(
                "bad_bind",
                format!("binding '{pair}' is not of the form name=id"),
            )),
        })
        .collect()
}

/// `POST /check`: the static checker as an endpoint. The body is the
/// expression as plain text, or a flat JSON object with `expr` and an
/// optional `bind` field mapping expression names to repository ids
/// (`"A=<id>,B=<id>"`); without a binding each operand name must be a
/// repository id itself, exactly as `/eval` resolves them. Operands
/// open as `/eval` opens them, within the request deadline (`504` when
/// it expires). Returns the full report — the same JSON
/// `cube check --format json` prints — with status 200 even when
/// diagnostics contain errors.
fn check_endpoint(
    shared: &Shared,
    req: &Request,
    deadline: &Deadline,
) -> Result<Response, ServeError> {
    let (text, bind) = read_body(req)?;
    let parsed = parse_expr(&text)?;
    let bindings = parse_bindings(bind.as_deref())?;
    let ids = parsed.operands.iter().map(|name| {
        bindings
            .iter()
            .find(|(n, _)| n == name)
            .map_or(name.as_str(), |(_, id)| id.as_str())
    });
    let opened = open_each(shared, ids, deadline)?;
    let mut facts = facts_of(&parsed.operands, &opened);
    // Bindings that name no operand of the expression are dead operands
    // (A005). They need no metadata and are not opened, just as unused
    // file arguments are facts without metadata on the CLI.
    facts.extend(
        bindings
            .into_iter()
            .filter(|(name, _)| !parsed.operands.contains(name))
            .map(|(name, _)| OperandFacts {
                name,
                metadata: None,
                note: None,
            }),
    );
    Ok(Response::json(200, check(&parsed, &facts).to_json(&text)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{start, ServeConfig};
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    #[test]
    fn a_miss_and_a_hit_send_the_cached_allocation() {
        let mut b = ExperimentBuilder::new("shared body");
        let t = b.def_metric("time", Unit::Seconds, "total time", None);
        let m = b.def_module("main.c", "/src/main.c");
        let r = b.def_region("main", m, RegionKind::Function, 1, 9);
        let cs = b.def_call_site("main.c", 1, r);
        let root = b.def_call_node(cs, None);
        for (i, &th) in single_threaded_system(&mut b, 4).iter().enumerate() {
            b.set_severity(t, root, th, 1.25 + i as f64);
        }
        let exp = b.build().unwrap();

        let dir =
            std::env::temp_dir().join(format!("cube-serve-api-shared-{}", std::process::id()));
        let server = start(ServeConfig::default(), &dir).unwrap();
        let shared = server.shared();
        let id = shared
            .repo
            .ingest(&cube_store::write_store(&exp))
            .unwrap()
            .id;
        let expr = format!("scale({id},2)");
        let req = Request {
            method: "POST".into(),
            path: "/eval".into(),
            headers: Vec::new(),
            body: expr.clone().into_bytes(),
        };
        let miss = handle(shared, &req, &Deadline::none());
        let hit = handle(shared, &req, &Deadline::none());
        assert_eq!((miss.status, hit.status), (200, 200));
        assert_eq!(miss.extra, [("x-cache", "miss".to_string())]);
        assert_eq!(hit.extra, [("x-cache", "hit".to_string())]);
        let key = parse_expr(&expr).unwrap().canonical();
        let cached = lock_recover(&shared.results).get(&key).unwrap();
        assert!(Arc::ptr_eq(&miss.body, &cached), "the miss copied its body");
        assert!(
            Arc::ptr_eq(&hit.body, &cached),
            "the hit copied the cached body"
        );
        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }
}
