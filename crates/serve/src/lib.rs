//! `pnp-serve`: a supervised verification service for `.pnp`
//! specifications.
//!
//! The daemon accepts verification jobs over a from-scratch HTTP/1.1
//! layer ([`http`]), runs them on supervised worker threads
//! ([`supervisor`]), and keeps every failure mode inside the envelope
//! the paper's robustness story promises: overload is shed with a retry
//! hint, panics and watchdog kills become checkpoint-backed retries,
//! wedged workers are abandoned and replaced, and SIGTERM drains
//! gracefully with the queue persisted for the next start.
//!
//! Endpoints (one request per connection, `Connection: close`):
//!
//! | Method | Path | Meaning |
//! |---|---|---|
//! | `GET` | `/health` | liveness + counters |
//! | `POST` | `/jobs` | submit a `.pnp` body → `202` with the job id |
//! | `GET` | `/jobs/{id}` | phase + attempts; `?wait=ms` long-polls until settled |
//! | `GET` | `/jobs/{id}/result` | `200` full result when done, `202` otherwise |
//! | `POST` | `/jobs/{id}/cancel` | cooperative cancellation |
//!
//! Submissions take query parameters `budget` (`states=N,time=MS,…`),
//! `threads`, `visited` (`exact|compact|bitstate[:MB]|disk`),
//! `spill_at` (memory budget in MB past which the search spills to
//! disk), `deadline_ms` (per-attempt watchdog), `job_deadline_ms`
//! (end-to-end budget — expiry yields an honest INCONCLUSIVE),
//! `max_attempts`, and `chaos` (fault injection for the soak tests).
#![warn(missing_docs)]

pub mod chaosgen;
pub mod cluster;
pub mod http;
pub mod job;
pub mod json;
pub mod membership;
pub mod netchaos;
pub mod queue;
pub mod supervisor;
pub mod transport;

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pnp_kernel::TerminationFlag;

use cluster::{Coordinator, WorkerGateway};
use http::{read_request, respond, respond_json, Limits, Request};
use job::{JobConfig, JobId, JobRequest};
use json::Obj;
use supervisor::Supervisor;

/// One daemon process's roles: every node runs the single-node job API
/// over its supervisor; cluster nodes additionally mount the
/// `/cluster/*` endpoints for their coordinator or worker side.
pub struct Node {
    /// The local job supervisor (always present — a coordinator uses it
    /// only for health, a worker for everything).
    pub supervisor: Arc<Supervisor>,
    /// Present when this node coordinates a cluster.
    pub coordinator: Option<Arc<Coordinator>>,
    /// Present when this node serves cluster work dispatched by a
    /// coordinator.
    pub gateway: Option<Arc<WorkerGateway>>,
}

impl Node {
    /// A plain single-node daemon.
    pub fn single(supervisor: Arc<Supervisor>) -> Node {
        Node {
            supervisor,
            coordinator: None,
            gateway: None,
        }
    }
}

/// Accepts connections until `term` is raised, then drains the
/// supervisor and returns. Each request is handled on a short-lived
/// thread; request reading is bounded by [`Limits`], whose
/// `max_connections` also caps concurrent handler threads (excess
/// connections are shed with a pressure-derived `Retry-After`).
///
/// # Errors
///
/// Returns the error when the listener cannot be polled.
pub fn serve(
    listener: TcpListener,
    supervisor: Arc<Supervisor>,
    term: TerminationFlag,
) -> std::io::Result<()> {
    serve_node(listener, Arc::new(Node::single(supervisor)), term)
}

/// [`serve`] for a node that may also carry cluster roles.
///
/// # Errors
///
/// Returns the error when the listener cannot be polled.
pub fn serve_node(
    listener: TcpListener,
    node: Arc<Node>,
    term: TerminationFlag,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let limits = Limits::default();
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        if term.is_raised() {
            node.supervisor.drain();
            if let Some(coordinator) = &node.coordinator {
                coordinator.drain();
            }
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                if live.load(Ordering::Relaxed) >= limits.max_connections {
                    // All handler slots are busy, which correlates with
                    // queue pressure — reuse the queue's scaled hint
                    // rather than a flat "1" so a hot daemon spreads its
                    // retry storm.
                    let retry_after = node.supervisor.retry_after_hint();
                    let mut stream = stream;
                    let _ = respond_json(
                        &mut stream,
                        503,
                        "Service Unavailable",
                        &[("Retry-After", retry_after.as_secs().max(1).to_string())],
                        &Obj::new()
                            .str("error", "overloaded")
                            .str("reason", "connections")
                            .bool("retryable", true)
                            .num("retry_after_ms", retry_after.as_millis() as u64)
                            .build(),
                    );
                    continue;
                }
                live.fetch_add(1, Ordering::Relaxed);
                let live = Arc::clone(&live);
                let node = Arc::clone(&node);
                std::thread::spawn(move || {
                    let mut stream = stream;
                    handle_connection(&mut stream, &node);
                    live.fetch_sub(1, Ordering::Relaxed);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(stream: &mut TcpStream, node: &Node) {
    match read_request(stream, &Limits::default()) {
        Ok(request) => route(stream, node, &request),
        Err(error) => {
            if let Some((status, reason, message)) = error.status() {
                let _ = respond_json(
                    stream,
                    status,
                    reason,
                    &[],
                    &Obj::new().str("error", &message).build(),
                );
            }
        }
    }
}

fn route(stream: &mut TcpStream, node: &Node, request: &Request) {
    let supervisor = &*node.supervisor;
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    if segments.first() == Some(&"cluster") {
        return cluster_route(stream, node, request);
    }
    if let Some(coordinator) = &node.coordinator {
        // A coordinator fronts the whole cluster: the plain job API
        // shards across workers instead of touching the local queue.
        return coordinator_route(stream, coordinator, request);
    }
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => {
            let _ = respond_json(stream, 200, "OK", &[], &supervisor.health_json());
        }
        ("POST", ["jobs"]) => submit(stream, supervisor, request),
        ("GET", ["jobs", id]) => match JobId::parse(id) {
            Some(id) => {
                // `wait=ms` long-polls: park the request until the job
                // settles or the (capped) window elapses, then answer
                // with the usual status body either way.
                if let Some(wait_ms) = request
                    .query("wait")
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|ms| *ms > 0)
                {
                    supervisor.wait_done(id, Duration::from_millis(wait_ms.min(60_000)));
                }
                match supervisor.status_json(id) {
                    Some(json) => {
                        let _ = respond_json(stream, 200, "OK", &[], &json);
                    }
                    None => not_found(stream),
                }
            }
            None => not_found(stream),
        },
        ("GET", ["jobs", id, "result"]) => {
            match JobId::parse(id).and_then(|id| supervisor.result_json(id)) {
                Some((json, true)) => {
                    let _ = respond_json(stream, 200, "OK", &[], &json);
                }
                Some((json, false)) => {
                    let _ = respond_json(stream, 202, "Accepted", &[], &json);
                }
                None => not_found(stream),
            }
        }
        ("POST", ["jobs", id, "cancel"]) => {
            match JobId::parse(id).map(|id| (id, supervisor.cancel(id))) {
                Some((id, Some(cancelled))) => {
                    let _ = respond_json(
                        stream,
                        200,
                        "OK",
                        &[],
                        &Obj::new()
                            .str("id", &id.to_string())
                            .bool("cancelled", cancelled)
                            .build(),
                    );
                }
                _ => not_found(stream),
            }
        }
        _ => not_found(stream),
    }
}

/// Converts an HTTP-layer request into the transport-agnostic wire form
/// the cluster handlers (which also run over [`pnp_net::SimNet`]) take.
fn to_wire(request: &Request) -> pnp_net::WireRequest {
    let mut target = request.path.clone();
    let mut sep = '?';
    for (key, value) in &request.query {
        target.push(sep);
        sep = '&';
        target.push_str(&pnp_net::percent_encode(key));
        target.push('=');
        target.push_str(&pnp_net::percent_encode(value));
    }
    pnp_net::WireRequest {
        method: request.method.clone(),
        target,
        body: request.body.clone(),
    }
}

fn respond_wire(stream: &mut TcpStream, response: &pnp_net::WireResponse) {
    let reason = match response.status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Status",
    };
    let headers: Vec<(&str, String)> = response
        .retry_after
        .map(|secs| ("Retry-After", secs.to_string()))
        .into_iter()
        .collect();
    // The body must go out verbatim: `/cluster/snapshot` and a 200
    // `/cluster/poll` carry binary payloads that a lossy UTF-8 round
    // trip would corrupt.
    let content_type = if response.body.first() == Some(&b'{') {
        "application/json"
    } else {
        "application/octet-stream"
    };
    let _ = respond(
        stream,
        response.status,
        reason,
        content_type,
        &headers,
        &response.body,
    );
}

fn cluster_route(stream: &mut TcpStream, node: &Node, request: &Request) {
    let wire = to_wire(request);
    let response = if let Some(coordinator) = &node.coordinator {
        coordinator.handle(&wire, cluster::wall_ms())
    } else if let Some(gateway) = &node.gateway {
        gateway.handle(&wire)
    } else {
        return not_found(stream);
    };
    respond_wire(stream, &response);
}

fn coordinator_route(stream: &mut TcpStream, coordinator: &Coordinator, request: &Request) {
    let response = coordinator.handle(&to_wire(request), cluster::wall_ms());
    respond_wire(stream, &response);
}

fn not_found(stream: &mut TcpStream) {
    let _ = respond_json(
        stream,
        404,
        "Not Found",
        &[],
        &Obj::new().str("error", "not_found").build(),
    );
}

/// Parses the submission query parameters into a [`JobConfig`] resolved
/// against `base`.
///
/// # Errors
///
/// Returns the first parameter error, verbatim, for a `400` answer.
pub fn parse_job_config(
    request: &Request,
    base: pnp_kernel::SearchConfig,
) -> Result<JobConfig, String> {
    job::resolve_job_config(&|key| request.query(key).map(str::to_string), base)
}

fn submit(stream: &mut TcpStream, supervisor: &Supervisor, request: &Request) {
    let bad_request = |stream: &mut TcpStream, message: &str| {
        let _ = respond_json(
            stream,
            400,
            "Bad Request",
            &[],
            &Obj::new().str("error", message).build(),
        );
    };
    let source = match String::from_utf8(request.body.clone()) {
        Ok(source) if !source.trim().is_empty() => source,
        Ok(_) => return bad_request(stream, "empty body: POST the .pnp source"),
        Err(_) => return bad_request(stream, "body is not UTF-8"),
    };
    let mut config = match parse_job_config(request, supervisor.default_search()) {
        Ok(config) => config,
        Err(message) => return bad_request(stream, &message),
    };
    if let Some(budget) = config.job_deadline {
        // Single-node end-to-end deadline: clamp the kernel time budget
        // so expiry surfaces as an honest INCONCLUSIVE with partial
        // stats, and cap the watchdog just past it as a backstop.
        config.config.clamp_time(budget);
        let watchdog = budget + Duration::from_millis(100);
        config.deadline = Some(config.deadline.map_or(watchdog, |d| d.min(watchdog)));
    }
    let mut job_request = JobRequest::new(source, config);
    job_request.idem = request.query("idem").map(str::to_string);
    match supervisor.submit(job_request) {
        Ok(id) => {
            let _ = respond_json(
                stream,
                202,
                "Accepted",
                &[],
                &Obj::new()
                    .str("id", &id.to_string())
                    .str("status_url", &format!("/jobs/{id}"))
                    .str("result_url", &format!("/jobs/{id}/result"))
                    .build(),
            );
        }
        Err(shed) => {
            let secs = shed.retry_after.as_secs().max(1);
            let _ = respond_json(
                stream,
                503,
                "Service Unavailable",
                &[("Retry-After", secs.to_string())],
                &Obj::new()
                    .str("error", "overloaded")
                    .str("reason", shed.reason)
                    .bool("retryable", true)
                    .num("retry_after_ms", shed.retry_after.as_millis() as u64)
                    .num("queue_depth", shed.queue_depth as u64)
                    .build(),
            );
        }
    }
}
