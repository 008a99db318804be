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
//! `cube diff` write: the CUBE body followed by the checksum footer
//! line. That identity is what the CI serve gate diffs, and it holds
//! on cache hits too — the `X-Cache` header says which path produced
//! the bytes.
//!
//! Every `/eval` runs the static checker ([`cube_algebra::check()`]) as
//! a mandatory pre-flight after the cache lookup: operands are opened
//! metadata-only (the lazy `.cubec` path — no severity pages are read)
//! and a statically-invalid expression is rejected with its `A0xx`
//! code and full diagnostics array *before* any evaluation work or
//! cache insertion. `/check` exposes the same analysis directly,
//! returning the full report (diagnostics, rewrite, cost estimate) in
//! the same JSON shape `cube check --format json` prints.

use crate::cache::lock_recover;
use crate::error::ServeError;
use crate::http::{Deadline, Request, Response};
use crate::json::{extract_string_field, json_string};
use crate::server::Shared;
use cube_algebra::{
    check, parse_expr, render_expr, BatchOperand, BatchPlan, MergeOptions, OperandFacts,
    ParsedExpr, PlanTables,
};
use cube_model::Provenance;
use cube_store::ColumnarExperiment;
use cube_xml::footer::{crc32, footer_line};
use cube_xml::write_experiment;
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
        ("POST", ["check"]) => check_endpoint(shared, req),
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
    let mut s = format!("{{\"id\":\"{id}\",\"diagnostics\":[");
    for (i, d) in report.diagnostics().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"code\":\"{}\",\"level\":\"{}\",\"location\":{},\"message\":{}}}",
            d.code,
            d.level(),
            json_string(&d.location.to_string()),
            json_string(&d.message)
        );
    }
    let _ = write!(
        s,
        "],\"errors\":{},\"warnings\":{},\"ok\":{}}}",
        report.num_errors(),
        report.num_warnings(),
        !report.has_errors()
    );
    Ok(Response::json(200, s))
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
             \"deadline_expirations\":{},\"degraded_evals\":{},\"retries\":{},\"read_failures\":{},\
             \"quarantined\":{},\"swept_temp_files\":{},\
             \"faults\":{{\"io_errors\":{},\"torn_reads\":{},\"checksum_flips\":{},\"latencies\":{}}}}}",
            shared.repo.count(),
            shared.requests.load(Ordering::Relaxed),
            shared.evals.load(Ordering::Relaxed),
            shared.rejected.load(Ordering::Relaxed),
            shared.deadline_expirations.load(Ordering::Relaxed),
            shared.degraded_evals.load(Ordering::Relaxed),
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

/// The expression text from a `/eval` body: either a flat JSON object
/// with an `expr` field, or the expression itself as plain text.
fn body_expr(req: &Request) -> Result<String, ServeError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ServeError::bad_request("bad_encoding", "request body is not UTF-8"))?;
    let trimmed = text.trim();
    if trimmed.starts_with('{') {
        extract_string_field(trimmed, "expr").ok_or_else(|| {
            ServeError::bad_request("missing_expr", "JSON body has no string \"expr\" field")
        })
    } else if trimmed.is_empty() {
        Err(ServeError::bad_request(
            "missing_expr",
            "empty body; send an expression or {\"expr\": \"...\"}",
        ))
    } else {
        Ok(trimmed.to_string())
    }
}

/// Renders a derived experiment exactly as `write_experiment_file`
/// commits it to disk: the CUBE body followed by the checksum footer.
fn render_cube_bytes(exp: &cube_model::Experiment) -> Vec<u8> {
    let body = write_experiment(exp);
    let mut bytes = body.into_bytes();
    let line = footer_line(crc32(&bytes), bytes.len() as u64);
    bytes.extend_from_slice(line.as_bytes());
    bytes
}

fn plan_for<'a>(
    shared: &Shared,
    parsed: &ParsedExpr,
    ops: &[&'a dyn BatchOperand],
) -> Result<BatchPlan<'a>, ServeError> {
    let plan_key = parsed.operands.join(",");
    if let Some(tables) = lock_recover(&shared.plans).get(&plan_key) {
        // Content ids key the cache, so cached tables can only mismatch
        // if an object was replaced underneath us; rebuild in that case.
        if let Ok(plan) = BatchPlan::from_tables(ops, tables) {
            return Ok(plan);
        }
    }
    let tables = Arc::new(PlanTables::build(ops, MergeOptions::default()));
    lock_recover(&shared.plans).insert(plan_key, Arc::clone(&tables));
    BatchPlan::from_tables(ops, tables).map_err(ServeError::from)
}

/// Opens each operand id metadata-only, keeping per-operand outcomes
/// so resolution failures become `A001` facts instead of aborting the
/// whole request before the checker can report them all.
fn open_operands(
    shared: &Shared,
    pairs: &[(String, String)],
) -> Vec<(String, Result<Arc<ColumnarExperiment>, ServeError>)> {
    pairs
        .iter()
        .map(|(name, id)| (name.clone(), shared.repo.open(id)))
        .collect()
}

/// Operand facts for the checker, borrowing metadata from the opened
/// handles. Only metadata is consulted — severity pages stay unread.
fn facts_of(
    opened: &[(String, Result<Arc<ColumnarExperiment>, ServeError>)],
) -> Vec<OperandFacts<'_>> {
    opened
        .iter()
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
fn preflight(
    parsed: &ParsedExpr,
    opened: &[(String, Result<Arc<ColumnarExperiment>, ServeError>)],
) -> Result<(), ServeError> {
    let facts = facts_of(opened);
    let report = check(parsed, &facts);
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

/// Answers a degraded `/eval`: evaluates the expression restricted to
/// the surviving operands ([`cube_algebra::Expr::restrict`], the rule
/// the CLI's `--keep-going` applies) and reports the omitted ones. A
/// structurally required operand that failed is the error instead.
/// `206` with a JSON envelope (not raw CUBE bytes — the
/// `omitted_operands` report is part of the answer); never cached,
/// because the result does not correspond to the canonical expression.
fn degraded_response(
    shared: &Shared,
    parsed: &ParsedExpr,
    handles: Vec<Option<Arc<ColumnarExperiment>>>,
    failures: &[(usize, String, ServeError)],
) -> Result<Response, ServeError> {
    let alive: Vec<bool> = handles.iter().map(Option::is_some).collect();
    let Some(degraded) = parsed.expr.restrict(&alive) else {
        let (_, _, e) = &failures[0];
        let mut e = e.clone();
        e.message = format!(
            "{} (operand is structurally required; keep_going cannot omit it)",
            e.message
        );
        return Err(e);
    };
    let (survivors, names): (Vec<Arc<ColumnarExperiment>>, Vec<String>) = handles
        .into_iter()
        .zip(&parsed.operands)
        .filter_map(|(slot, name)| Some((slot?, name.clone())))
        .unzip();
    let ops: Vec<&dyn BatchOperand> = survivors
        .iter()
        .map(|h| h.as_ref() as &dyn BatchOperand)
        .collect();
    // Degraded plans are built fresh, not cached: their operand set is
    // an accident of which reads failed, not a stable key.
    let tables = Arc::new(PlanTables::build(&ops, MergeOptions::default()));
    let plan = BatchPlan::from_tables(&ops, tables)?;
    let exp = plan.eval(&degraded)?;
    let bytes = render_cube_bytes(&exp);
    shared.degraded_evals.fetch_add(1, Ordering::Relaxed);

    let mut body = format!(
        "{{\"status\":\"degraded\",\"expr\":{},\"used\":{},\"omitted_operands\":[",
        json_string(&render_expr(&degraded, &names)),
        survivors.len(),
    );
    for (k, (index, id, e)) in failures.iter().enumerate() {
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

fn eval(shared: &Shared, req: &Request, deadline: &Deadline) -> Result<Response, ServeError> {
    shared.evals.fetch_add(1, Ordering::Relaxed);
    let keep_going = query_flag(req, "keep_going");
    let text = body_expr(req)?;
    let parsed = parse_expr(&text)?;
    let key = parsed.canonical();
    if let Some(bytes) = lock_recover(&shared.results).get(&key) {
        return Ok(
            Response::bytes(200, "application/cube+xml", bytes.as_ref().clone())
                .with_header("x-cache", "hit"),
        );
    }
    check_deadline(deadline, "resolving operands")?;
    let pairs: Vec<(String, String)> = parsed
        .operands
        .iter()
        .map(|id| (id.clone(), id.clone()))
        .collect();
    let opened: Vec<(String, Result<Arc<ColumnarExperiment>, ServeError>)> = pairs
        .iter()
        .map(|(name, id)| (name.clone(), shared.repo.open_within(id, deadline)))
        .collect();
    // Static resolution failures (bad/unknown ids) go through the
    // checker so the client gets the full A0xx diagnostics; transient
    // availability failures (503/504) are *not* static facts and take
    // the retry/degrade path below instead — when some operands are
    // unavailable the checker is skipped and plan-level validation
    // covers the survivors.
    let any_static = opened
        .iter()
        .any(|(_, r)| matches!(r, Err(e) if e.status < 500));
    if any_static || opened.iter().all(|(_, r)| r.is_ok()) {
        preflight(&parsed, &opened)?;
    }

    // Guarded severity loads — the second disk boundary an /eval
    // crosses. Failures here and open failures above both feed the
    // degraded path when the client opted in.
    let mut handles: Vec<Option<Arc<ColumnarExperiment>>> = Vec::with_capacity(opened.len());
    let mut failures: Vec<(usize, String, ServeError)> = Vec::new();
    for (index, (id, res)) in opened.into_iter().enumerate() {
        match res {
            Ok(handle) => match shared.repo.ensure_severity(&id, &handle, deadline) {
                Ok(()) => handles.push(Some(handle)),
                Err(e) if e.status == 504 => return Err(e),
                Err(e) => {
                    handles.push(None);
                    failures.push((index, id, e));
                }
            },
            Err(e) => {
                handles.push(None);
                failures.push((index, id, e));
            }
        }
    }
    if !failures.is_empty() {
        if !keep_going {
            let (_, _, e) = failures.swap_remove(0);
            return Err(e);
        }
        return degraded_response(shared, &parsed, handles, &failures);
    }

    check_deadline(deadline, "evaluating the expression")?;
    let handles: Vec<Arc<ColumnarExperiment>> = handles.into_iter().flatten().collect();
    let ops: Vec<&dyn BatchOperand> = handles
        .iter()
        .map(|h| h.as_ref() as &dyn BatchOperand)
        .collect();
    let plan = plan_for(shared, &parsed, &ops)?;
    let exp = plan.eval(&parsed.expr)?;
    let bytes = Arc::new(render_cube_bytes(&exp));
    lock_recover(&shared.results).insert(key, Arc::clone(&bytes));
    Ok(
        Response::bytes(200, "application/cube+xml", bytes.as_ref().clone())
            .with_header("x-cache", "miss"),
    )
}

/// Parses the optional flat `bind` field (`"A=id,B=id"`) of a
/// `/check` body into (name, id) pairs.
fn parse_bindings(bind: Option<&str>) -> Result<Vec<(String, String)>, ServeError> {
    let Some(bind) = bind else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for pair in bind.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let Some((name, id)) = pair.split_once('=') else {
            return Err(ServeError::bad_request(
                "bad_bind",
                format!("binding '{pair}' is not of the form name=id"),
            ));
        };
        out.push((name.trim().to_string(), id.trim().to_string()));
    }
    Ok(out)
}

/// `POST /check`: the static checker as an endpoint. The body is the
/// expression as plain text, or a flat JSON object with `expr` and an
/// optional `bind` field mapping expression names to repository ids
/// (`"A=<id>,B=<id>"`); without a binding each operand name must be a
/// repository id itself, exactly as `/eval` resolves them. Returns the
/// full report — the same JSON `cube check --format json` prints —
/// with status 200 even when diagnostics contain errors; only a body
/// that fails to parse is a 4xx.
fn check_endpoint(shared: &Shared, req: &Request) -> Result<Response, ServeError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ServeError::bad_request("bad_encoding", "request body is not UTF-8"))?;
    let trimmed = text.trim();
    let (expr_text, bind) = if trimmed.starts_with('{') {
        let expr = extract_string_field(trimmed, "expr").ok_or_else(|| {
            ServeError::bad_request("missing_expr", "JSON body has no string \"expr\" field")
        })?;
        (expr, extract_string_field(trimmed, "bind"))
    } else if trimmed.is_empty() {
        return Err(ServeError::bad_request(
            "missing_expr",
            "empty body; send an expression or {\"expr\":\"...\",\"bind\":\"name=id,...\"}",
        ));
    } else {
        (trimmed.to_string(), None)
    };
    let parsed = parse_expr(&expr_text)?;
    let bindings = parse_bindings(bind.as_deref())?;
    let mut pairs: Vec<(String, String)> = parsed
        .operands
        .iter()
        .map(|name| {
            let id = bindings
                .iter()
                .find(|(n, _)| n == name)
                .map_or(name.as_str(), |(_, id)| id.as_str());
            (name.clone(), id.to_string())
        })
        .collect();
    // Bindings that name no operand of the expression still become
    // facts, so the checker reports them as dead operands (A005) —
    // the same behavior as unused file arguments on the CLI.
    for (name, id) in &bindings {
        if !parsed.operands.contains(name) {
            pairs.push((name.clone(), id.clone()));
        }
    }
    let opened = open_operands(shared, &pairs);
    let facts = facts_of(&opened);
    let report = check(&parsed, &facts);
    Ok(Response::json(200, report.to_json(&expr_text)))
}
