//! The threaded server: acceptor, bounded admission queue, worker
//! pool, and graceful shutdown.
//!
//! One `std::thread` acceptor blocks in `accept` on the listener and
//! admits each connection into a bounded queue the moment it arrives;
//! `workers` long-lived threads drain it. When the queue is full the
//! *acceptor* answers 429 immediately — overload sheds load in
//! microseconds instead of stacking latency, and a client can always
//! distinguish "busy" from "hung". It then drains what the rejected
//! client is still sending (`http::drain`) for at most 250 ms and
//! 1 MiB in total, so a client that trickles bytes after its 429
//! delays the next admission by no more than that. A worker drains
//! the same way after answering a request it refused while reading it
//! (`400`, `413`, or a `504` in the read), so that the close does not
//! reset the connection under the answer. Inside a worker,
//! evaluation fans out over the shared `rayon` pool, whose
//! length-driven splitting keeps every response byte-identical at any
//! thread count — which is also what makes the result cache sound
//! (docs/SERVE.md). A handler that panics is caught at the connection:
//! the client gets `500 internal`, `/stats` counts it under `panics`,
//! and the worker serves on.
//!
//! Shutdown is cooperative: [`RunningServer::shutdown`] sets the stop
//! flag and then wakes the blocked acceptor with one loopback
//! connection to the bound port (to `127.0.0.1` or `::1` when the
//! server listens on all interfaces). The acceptor drops whatever it
//! accepts once the flag is set, closes the queue and exits; workers
//! drain every already-admitted connection before exiting, so an
//! accepted request is never dropped on the floor. Signals do not
//! reach the acceptor: `cube serve` turns SIGTERM / SIGINT (see
//! [`install_signal_handlers`]) into a call to `shutdown`.

use crate::api;
use crate::cache::{lock_recover, LruCache};
use crate::error::ServeError;
use crate::faults::FaultPlan;
use crate::http::{drain, read_request, write_response, Deadline, HttpError};
use crate::repo::Repository;
use cube_algebra::PlanTables;
use cube_xml::ReadLimits;
use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long the acceptor pauses after a failed `accept` (`EMFILE`,
/// `ENFILE`, ...), so an error that persists cannot spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Bound on the loopback connect that wakes the acceptor at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Everything `cube serve` can tune.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1`.
    pub addr: String,
    /// Port to bind; `0` picks an ephemeral port.
    pub port: u16,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admitted-but-unserved connections the queue holds before the
    /// acceptor starts answering 429.
    pub queue_depth: usize,
    /// Entries in the derived-result byte cache (0 disables).
    pub result_cache: usize,
    /// Entries in the plan-table cache (0 disables).
    pub plan_cache: usize,
    /// Entries in the open-handle cache (0 disables).
    pub handle_cache: usize,
    /// Maximum request-body size in bytes; also caps the parse limits
    /// applied to uploaded documents.
    pub max_body: usize,
    /// Total per-request deadline in milliseconds (read + handle);
    /// expiry answers `504 deadline_exceeded`. `0` disables.
    pub request_deadline_ms: u64,
    /// Header-read deadline in milliseconds — the slow-loris cap: a
    /// peer trickling header bytes is cut off when it expires. `0`
    /// disables (the total deadline still applies).
    pub header_deadline_ms: u64,
    /// Per-socket read/write timeout in milliseconds, the coarse
    /// transport-level backstop beneath the deadlines. `0` disables.
    pub socket_timeout_ms: u64,
    /// Attempts per repository read before a transient failure is
    /// treated as persistent (1 = no retry).
    pub read_retries: u32,
    /// Base of the exponential retry backoff, in milliseconds; jitter
    /// is added deterministically (see `faults::jitter_ms`).
    pub backoff_base_ms: u64,
    /// Consecutive read failures after which the circuit breaker
    /// quarantines an object id. `0` disables the breaker.
    pub breaker_threshold: u32,
    /// Fault-injection spec (`CUBE_FAULTS` grammar, docs/FAULTS.md);
    /// `None` means no faults and a zero-cost read path.
    pub faults: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            queue_depth: 64,
            result_cache: 64,
            plan_cache: 16,
            handle_cache: 64,
            max_body: 256 << 20,
            request_deadline_ms: 30_000,
            header_deadline_ms: 5_000,
            socket_timeout_ms: 30_000,
            read_retries: 3,
            backoff_base_ms: 5,
            breaker_threshold: 3,
            faults: None,
        }
    }
}

impl ServeConfig {
    /// The per-request [`ReadLimits`] this configuration implies:
    /// defaults, tightened so no parsed document may exceed the body
    /// cap.
    pub fn read_limits(&self) -> ReadLimits {
        let mut limits = ReadLimits::default();
        limits.max_input_bytes = limits.max_input_bytes.min(self.max_body);
        limits
    }
}

struct Queue {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

/// State shared by the acceptor, the workers, and the API handlers.
pub struct Shared {
    /// The experiment repository.
    pub repo: Repository,
    /// The configuration the server was started with.
    pub config: ServeConfig,
    /// Derived-result bytes keyed by canonical expression.
    pub results: Mutex<LruCache<String, Arc<Vec<u8>>>>,
    /// Plan tables keyed by the ordered operand-id list.
    pub plans: Mutex<LruCache<String, Arc<PlanTables>>>,
    /// Requests fully read and dispatched.
    pub requests: AtomicU64,
    /// `/eval` requests dispatched.
    pub evals: AtomicU64,
    /// Connections answered 429 at admission.
    pub rejected: AtomicU64,
    /// Requests answered `504 deadline_exceeded`.
    pub deadline_expirations: AtomicU64,
    /// `/eval` requests answered degraded (206 with omitted operands).
    pub degraded_evals: AtomicU64,
    /// Requests whose handler panicked (answered `500 internal`).
    pub panics: AtomicU64,
    queue: Mutex<Queue>,
    ready: Condvar,
    stop: AtomicBool,
}

impl Shared {
    fn new(repo: Repository, config: ServeConfig) -> Self {
        Self {
            repo,
            results: Mutex::new(LruCache::new(config.result_cache)),
            plans: Mutex::new(LruCache::new(config.plan_cache)),
            requests: AtomicU64::new(0),
            evals: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_expirations: AtomicU64::new(0),
            degraded_evals: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            queue: Mutex::new(Queue {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            config,
        }
    }
}

/// A started server: its bound address plus the handles needed to stop
/// it. Dropping without [`RunningServer::join`] still signals the
/// threads to stop; `join` additionally waits for the drain.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    faults_active: bool,
}

/// Binds, spawns the acceptor and workers, and returns immediately.
/// `root` is the repository directory (created if needed).
pub fn start(config: ServeConfig, root: &Path) -> Result<RunningServer, ServeError> {
    let faults_active = match &config.faults {
        Some(spec) => {
            let plan = FaultPlan::parse(spec)
                .map_err(|e| ServeError::bad_request("bad_faults", format!("CUBE_FAULTS: {e}")))?;
            crate::faults::activate(plan)
        }
        None => false,
    };
    let mut repo = Repository::open_or_init(root, config.read_limits(), config.handle_cache)?;
    repo.set_resilience(
        config.read_retries,
        config.backoff_base_ms,
        config.breaker_threshold,
    );
    let listener = TcpListener::bind((config.addr.as_str(), config.port))?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared::new(repo, config));

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cube-serve-accept".to_string())
            .spawn(move || accept_loop(&shared, &listener))
            .map_err(|e| ServeError::internal(format!("spawning acceptor: {e}")))?
    };
    let workers = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("cube-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| ServeError::internal(format!("spawning worker {i}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(RunningServer {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
        faults_active,
    })
}

impl RunningServer {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for tests and stats reporting.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Asks the acceptor and workers to stop. Already-admitted
    /// connections are still served; new ones are no longer accepted.
    ///
    /// The acceptor is blocked in `accept`, so after setting the stop
    /// flag this connects once to the bound port to wake it. Once
    /// [`RunningServer::join`] has reaped the acceptor, the listener is
    /// closed and there is nothing left to wake.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if self.acceptor.is_some() {
            let _ = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
        }
    }

    /// Waits for the acceptor to stop and the workers to drain the
    /// queue. Call [`RunningServer::shutdown`] first; `join` alone
    /// would wait forever.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.shutdown();
        if self.faults_active {
            // This server owned the fault schedule; make the hook
            // inert again so later servers in the same process (other
            // tests in the binary) see a clean read path.
            crate::faults::deactivate();
        }
    }
}

/// The address that reaches a listener bound to `bound`: itself, or
/// the loopback address of the same family when it is bound to all
/// interfaces (`0.0.0.0`, `::`), which cannot be connected to.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        // After `stop`, whatever was accepted — the shutdown wake, or a
        // client that raced it — is dropped (closed) unserved.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => admit(shared, stream),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
    let mut queue = lock_recover(&shared.queue);
    queue.closed = true;
    drop(queue);
    shared.ready.notify_all();
}

fn admit(shared: &Shared, mut stream: TcpStream) {
    if shared.config.socket_timeout_ms > 0 {
        let t = Duration::from_millis(shared.config.socket_timeout_ms);
        let _ = stream.set_read_timeout(Some(t));
        let _ = stream.set_write_timeout(Some(t));
    }
    let mut queue = lock_recover(&shared.queue);
    if queue.conns.len() >= shared.config.queue_depth {
        drop(queue);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        // Retry-After tells a well-behaved client how long to back off
        // before re-sending; the contract is documented in
        // docs/SERVE.md ("Overload and the client retry contract").
        let resp = api::error_response(&ServeError::with_status(
            429,
            "queue_full",
            format!(
                "admission queue is full ({} waiting); retry",
                shared.config.queue_depth
            ),
        ))
        .with_header("retry-after", "1");
        let _ = write_response(&mut stream, &resp);
        // The client may still be mid-send; drain it, within a bound,
        // so that the close does not discard the 429 in flight.
        drain(&stream);
        return;
    }
    queue.conns.push_back(stream);
    drop(queue);
    shared.ready.notify_one();
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(conn) = queue.conns.pop_front() {
                    break Some(conn);
                }
                if queue.closed {
                    break None;
                }
                queue = shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match conn {
            Some(mut stream) => serve_connection(shared, &mut stream),
            None => break,
        }
    }
}

fn serve_connection(shared: &Shared, stream: &mut TcpStream) {
    // The total budget starts when a worker picks the connection up,
    // so queue wait does not eat into it; the header budget is the
    // tighter slow-loris cap.
    let total = Deadline::after_ms(shared.config.request_deadline_ms);
    let head = Deadline::after_ms(shared.config.header_deadline_ms);
    // A panic in the read or the handler is answered `500` here and the
    // worker serves on; the shared locks recover from any poison it
    // leaves (`lock_recover`).
    let read_and_handle = AssertUnwindSafe(|| {
        let request = read_request(stream, shared.config.max_body, &head, &total)?;
        shared.requests.fetch_add(1, Ordering::Relaxed);
        Ok(api::handle(shared, &request, &total))
    });
    let result = catch_unwind(read_and_handle);
    // A request refused while it was read may still be arriving.
    let refused = matches!(result, Ok(Err(_)));
    let response = match result {
        Ok(Ok(response)) => response,
        Err(_) => {
            // The panic hook has already reported the panic itself.
            shared.panics.fetch_add(1, Ordering::Relaxed);
            eprintln!("cube serve: a request handler panicked; answered 500");
            api::error_response(&ServeError::internal("the request handler panicked"))
        }
        Ok(Err(HttpError::Closed)) => return,
        Ok(Err(HttpError::Malformed(message))) => {
            api::error_response(&ServeError::bad_request("bad_http", message))
        }
        Ok(Err(HttpError::BodyTooLarge { declared, limit })) => {
            api::error_response(&ServeError::with_status(
                413,
                "body_too_large",
                format!("declared body of {declared} bytes exceeds the {limit}-byte cap"),
            ))
        }
        Ok(Err(HttpError::Io(e))) => {
            // Read timeout or reset mid-request: answer if the peer is
            // still there, otherwise the write fails harmlessly.
            api::error_response(&ServeError::bad_request(
                "read_failed",
                format!("could not read request: {e}"),
            ))
        }
        Ok(Err(HttpError::Deadline(phase))) => api::error_response(&ServeError::deadline(phase)),
    };
    if response.status == 504 {
        shared.deadline_expirations.fetch_add(1, Ordering::Relaxed);
    }
    let _ = write_response(stream, &response);
    if refused {
        // Drain the rest, within a bound, so that the close does not
        // reset the connection and discard the answer in flight.
        drain(stream);
    }
}

static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM and SIGINT handlers that flip the flag
/// [`signaled`] reads. Process-global; `cube serve` installs them once
/// before serving and is the only caller. The handlers only set the
/// flag: the acceptor, blocked in `accept`, never looks at it, so the
/// caller must turn the flag into [`RunningServer::shutdown`]. `std`
/// already links libc, so the raw `signal(2)` binding adds no
/// dependency.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// True once SIGTERM or SIGINT has been delivered. A signal alone stops
/// nothing: the server's threads do not read this flag. `cube serve`
/// polls it and calls [`RunningServer::shutdown`] to begin the graceful
/// drain.
pub fn signaled() -> bool {
    SIGNALED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cube-serve-server-{tag}-{}", std::process::id()))
    }

    #[test]
    fn wake_addr_maps_all_interfaces_to_loopback_of_the_same_family() {
        let wake = |bound: &str| wake_addr(bound.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:4711"), "127.0.0.1:4711");
        assert_eq!(wake("[::]:4711"), "[::1]:4711");
        assert_eq!(wake("127.0.0.1:4711"), "127.0.0.1:4711");
        assert_eq!(wake("192.0.2.7:4711"), "192.0.2.7:4711");
        assert_eq!(wake("[2001:db8::7]:4711"), "[2001:db8::7]:4711");
    }

    /// Runs `f` on a helper thread and reports whether it returned
    /// within 2 s, so that a lost wake fails a test instead of hanging
    /// it. A helper that is still blocked is left detached.
    fn returns_promptly(f: impl FnOnce() + Send + 'static) -> bool {
        let (done, finished) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        let waited = finished.recv_timeout(Duration::from_secs(2));
        if waited == Err(mpsc::RecvTimeoutError::Timeout) {
            return false;
        }
        helper.join().expect("the helper thread panicked");
        true
    }

    #[test]
    fn an_idle_server_shuts_down_and_joins_promptly() {
        let root = temp_root("idle");
        let server = start(ServeConfig::default(), &root).unwrap();
        assert!(
            returns_promptly(move || {
                server.shutdown();
                server.join();
            }),
            "shutdown then join did not return within 2 s"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn shutdown_after_the_acceptor_is_joined_connects_nowhere() {
        let root = temp_root("joined");
        let mut server = start(ServeConfig::default(), &root).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        let acceptor = server.acceptor.take().unwrap();
        assert!(
            returns_promptly(move || acceptor.join().unwrap()),
            "the acceptor did not exit within 2 s of shutdown"
        );
        // The acceptor has closed the listener; a probe takes its port
        // and would see any further wake.
        let probe = TcpListener::bind(addr).unwrap();
        probe.set_nonblocking(true).unwrap();
        drop(server);
        let err = probe
            .accept()
            .expect_err("Drop connected to the port again");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        std::fs::remove_dir_all(&root).ok();
    }
}
