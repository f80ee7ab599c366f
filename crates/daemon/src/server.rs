//! The `locusd` daemon: tuning as a long-running service.
//!
//! One [`Daemon`] owns a TCP listener, a shared [`ShardedStore`], and a
//! scoped worker pool. Each accepted connection gets a reader thread
//! that parses newline-delimited requests ([`crate::protocol`]);
//! cheap operations (`ping`, `stats`, `compact`) are answered inline,
//! while tuning work (`tune`, `suggest`, `debug-panic`) is enqueued on
//! the [`FairScheduler`] and executed by the worker pool — round-robin
//! across connections, so no client can starve its siblings.
//!
//! **Fault isolation** is OTP-flavored: every scheduled request runs
//! under [`std::panic::catch_unwind`] at the session boundary. A
//! panicking request is reported to *its* client as a structured
//! `panic` error; the worker, the daemon, and every sibling request
//! keep running. The layers below cooperate: the store's stripe locks
//! recover from poisoning, and the scheduler's lock does too, so one
//! crashed request cannot wedge shared state.
//!
//! **Determinism**: a daemon tune request runs the exact same
//! [`LocusSystem::run`] driver a library caller uses, with the same
//! seeded search modules — so results are bit-identical to direct
//! calls (pinned by `tests/daemon_service.rs`), and `f64` payloads
//! cross the wire as exact bit patterns.
//!
//! **Observability**: with a trace log configured, every tune request
//! runs under its own [`Tracer`], and its drained events are stamped
//! with the request id ([`locus_trace::tag_events`]) before being
//! appended to the shared JSONL log — `locus-report --request <id>`
//! replays any single request out of the interleaved service history.

use std::collections::HashMap;
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use locus_core::{suggest_with_sharded_store, LocusSystem, StoreHandle, TuneRequest};
use locus_corpus::registry::{all_programs, CorpusEntry};
use locus_machine::profiles::all_profiles;
use locus_machine::{Machine, MachineConfig};
use locus_search::{
    AnnealTuner, BanditTuner, ExhaustiveSearch, MctsTuner, PortfolioSearch, RandomSearch,
    SearchModule, TraceSampler,
};
use locus_srcir::region::{extract_region, find_regions};
use locus_store::{ShardedStore, DEFAULT_SHARDS};
use locus_trace::{tag_events, to_jsonl, Tracer};

use crate::protocol::{codes, Op, Request, Response, MAX_LINE};
use crate::sched::FairScheduler;

/// How long blocked reads and accepts wait before re-checking the
/// shutdown flag; bounds daemon stop latency.
const POLL: Duration = Duration::from_millis(50);

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Directory of the shared sharded store.
    pub store_dir: PathBuf,
    /// Store shard count.
    pub shards: usize,
    /// Worker threads executing scheduled requests.
    pub workers: usize,
    /// Per-request evaluation-budget ceiling; requests asking for more
    /// are clamped, which is the daemon's cost-control knob.
    pub max_budget: usize,
    /// Per-request evaluation-thread ceiling.
    pub max_threads: usize,
    /// Shared JSONL trace log; `None` disables per-request tracing.
    pub trace_log: Option<PathBuf>,
}

impl DaemonConfig {
    /// A loopback daemon on an ephemeral port over `store_dir`, with 4
    /// workers, budget ceiling 64, thread ceiling 4, and no trace log.
    pub fn new(store_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: store_dir.into(),
            shards: DEFAULT_SHARDS,
            workers: 4,
            max_budget: 64,
            max_threads: 4,
            trace_log: None,
        }
    }
}

/// One scheduled unit of work: a parsed request plus the connection's
/// shared reply stream.
struct Job {
    request: Request,
    reply: Arc<Mutex<TcpStream>>,
    enqueued: Instant,
}

/// State shared by the accept loop, reader threads, and workers.
struct Shared {
    config: DaemonConfig,
    store: ShardedStore,
    registry: HashMap<String, CorpusEntry>,
    profiles: HashMap<String, MachineConfig>,
    sched: Arc<FairScheduler<Job>>,
    shutdown: Arc<AtomicBool>,
    trace: Option<Mutex<std::fs::File>>,
    next_conn: AtomicU64,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.sched.shutdown();
    }

    /// Tags a finished request's trace events with its id and appends
    /// them to the shared trace log (no-op without one).
    fn append_trace(&self, request_id: &str, events: Vec<locus_trace::Event>) {
        let Some(log) = &self.trace else { return };
        if events.is_empty() {
            return;
        }
        let text = to_jsonl(&tag_events(events, "req", request_id));
        let mut file = log.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = file.write_all(text.as_bytes());
    }
}

/// A running `locusd` instance; stops (and joins its threads) on drop.
pub struct Daemon {
    addr: std::net::SocketAddr,
    sched: Arc<FairScheduler<Job>>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon").field("addr", &self.addr).finish()
    }
}

impl Daemon {
    /// Binds the listener, opens (or creates) the shared store, and
    /// spawns the service threads.
    ///
    /// # Errors
    ///
    /// Address bind failures and store/trace-log open failures.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = ShardedStore::open(&config.store_dir, config.shards)?;
        let trace = match &config.trace_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        let sched = Arc::new(FairScheduler::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Shared {
            registry: all_programs()
                .into_iter()
                .map(|e| (e.name.to_string(), e))
                .collect(),
            profiles: all_profiles()
                .into_iter()
                .map(|p| (p.name.to_string(), p.config))
                .collect(),
            config,
            store,
            sched: sched.clone(),
            shutdown: shutdown.clone(),
            trace,
            next_conn: AtomicU64::new(0),
        };
        let handle = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                for _ in 0..shared.config.workers.max(1) {
                    scope.spawn(|| worker_loop(&shared));
                }
                accept_loop(scope, &shared, listener);
            });
        });
        Ok(Daemon {
            addr,
            sched,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound listen address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins every service thread. Queued but
    /// unstarted requests are dropped; in-flight requests finish first.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.sched.shutdown();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the daemon stops (a client sent `shutdown`, or
    /// another thread called [`Daemon::stop`]).
    pub fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accepts connections until shutdown, spawning one scoped reader
/// thread per connection.
fn accept_loop<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    shared: &'scope Shared,
    listener: TcpListener,
) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn = shared.next_conn.fetch_add(1, Ordering::SeqCst);
                scope.spawn(move || serve_connection(shared, conn, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Writes one response line to a connection's (shared) reply stream.
/// Write errors are ignored: a vanished client only affects itself.
fn send(reply: &Mutex<TcpStream>, response: &Response) {
    let mut line = response.encode();
    line.push('\n');
    let mut stream = reply.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = stream.write_all(line.as_bytes());
}

/// The outcome of reading one request line.
enum LineRead {
    /// A complete line within the size bound.
    Line(String),
    /// A line that exceeded [`MAX_LINE`]; its content was discarded.
    Oversized,
    /// Connection closed (EOF) or shutdown requested.
    Closed,
}

/// Reads one newline-terminated request line, bounding memory at
/// [`MAX_LINE`] and re-checking the shutdown flag on every read
/// timeout. A truncated final line (EOF before the newline) is
/// returned as a line so the client still gets a structured parse
/// error.
fn read_request_line(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return LineRead::Closed;
        }
        let (consumed, done) = match reader.fill_buf() {
            Ok([]) => {
                // EOF: a partial line still gets parsed (and refused).
                return if oversized {
                    LineRead::Oversized
                } else if line.is_empty() {
                    LineRead::Closed
                } else {
                    LineRead::Line(String::from_utf8_lossy(&line).into_owned())
                };
            }
            Ok(available) => match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !oversized && line.len() + pos <= MAX_LINE {
                        line.extend_from_slice(&available[..pos]);
                    } else {
                        oversized = true;
                    }
                    (pos + 1, true)
                }
                None => {
                    if !oversized && line.len() + available.len() <= MAX_LINE {
                        line.extend_from_slice(available);
                    } else {
                        oversized = true;
                        line.clear();
                    }
                    (available.len(), false)
                }
            },
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return LineRead::Closed,
        };
        reader.consume(consumed);
        if done {
            return if oversized {
                LineRead::Oversized
            } else {
                LineRead::Line(String::from_utf8_lossy(&line).into_owned())
            };
        }
    }
}

/// One connection's reader loop: parse lines, answer cheap ops inline,
/// schedule the rest.
fn serve_connection(shared: &Shared, conn: u64, stream: TcpStream) {
    stream.set_read_timeout(Some(POLL)).ok();
    stream.set_nodelay(true).ok();
    let reply = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request_line(&mut reader, &shared.shutdown) {
            LineRead::Closed => return,
            LineRead::Oversized => send(
                &reply,
                &Response::error(
                    "",
                    codes::OVERSIZED,
                    &format!("request line exceeds {MAX_LINE} bytes"),
                ),
            ),
            LineRead::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let request = match Request::parse(&line) {
                    Ok(request) => request,
                    Err(e) => {
                        send(&reply, &Response::error(&e.id, e.code, &e.message));
                        continue;
                    }
                };
                match request.op {
                    Op::Ping => send(
                        &reply,
                        &Response::ok(&request.id).with_str("pong", "locusd"),
                    ),
                    Op::Stats => send(&reply, &stats_response(shared, &request)),
                    Op::Compact => send(&reply, &compact_response(shared, &request)),
                    Op::Shutdown => {
                        send(&reply, &Response::ok(&request.id));
                        shared.begin_shutdown();
                        return;
                    }
                    Op::Tune | Op::Suggest | Op::DebugPanic => shared.sched.push(
                        conn,
                        Job {
                            request,
                            reply: reply.clone(),
                            enqueued: Instant::now(),
                        },
                    ),
                }
            }
        }
    }
}

/// Worker loop: pop fairly-scheduled jobs and run each supervised.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.sched.pop() {
        let response = supervise(shared, &job);
        send(&job.reply, &response);
    }
}

/// Runs one job at the session boundary: deadline check, then the
/// request body under `catch_unwind`. A panic anywhere inside the
/// request — corpus, search, machine, store — becomes a structured
/// `panic` error for this client alone.
fn supervise(shared: &Shared, job: &Job) -> Response {
    let request = &job.request;
    if let Some(deadline_ms) = request.deadline_ms {
        let waited = job.enqueued.elapsed();
        if waited > Duration::from_millis(deadline_ms) {
            return Response::error(
                &request.id,
                codes::DEADLINE,
                &format!(
                    "request waited {}ms in queue, past its {deadline_ms}ms deadline",
                    waited.as_millis()
                ),
            );
        }
    }
    match catch_unwind(AssertUnwindSafe(|| execute(shared, request))) {
        Ok(response) => response,
        Err(payload) => Response::error(
            &request.id,
            codes::PANIC,
            &format!("request panicked: {}", panic_message(payload.as_ref())),
        ),
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Dispatches a scheduled request body.
fn execute(shared: &Shared, request: &Request) -> Response {
    match request.op {
        Op::Tune => execute_tune(shared, request),
        Op::Suggest => execute_suggest(shared, request),
        Op::DebugPanic => panic!(
            "deliberate panic requested by debug-panic op (id `{}`)",
            request.id
        ),
        // Inline ops never reach the scheduler.
        _ => Response::error(
            &request.id,
            codes::INTERNAL,
            &format!("op `{}` is answered inline", request.op.as_str()),
        ),
    }
}

/// Builds the seeded search module a request names.
fn make_search(name: &str, seed: u64) -> Option<Box<dyn SearchModule>> {
    Some(match name {
        "exhaustive" => Box::new(ExhaustiveSearch::new()),
        "random" => Box::new(RandomSearch::new(seed)),
        "bandit" => Box::new(BanditTuner::new(seed)),
        "anneal" => Box::new(AnnealTuner::new(seed)),
        "mcts" => Box::new(MctsTuner::new(seed)),
        "sampler" => Box::new(TraceSampler::new(seed)),
        "portfolio" => Box::new(PortfolioSearch::new(seed)),
        _ => return None,
    })
}

/// `tune`: run the library's parallel store-backed driver against the
/// shared sharded store and serialize the result bit-exactly.
fn execute_tune(shared: &Shared, request: &Request) -> Response {
    let Some(entry) = shared.registry.get(&request.kernel) else {
        return Response::error(
            &request.id,
            codes::UNKNOWN_KERNEL,
            &format!("no registry kernel named `{}`", request.kernel),
        );
    };
    let Some(profile) = shared.profiles.get(&request.machine) else {
        return Response::error(
            &request.id,
            codes::UNKNOWN_MACHINE,
            &format!("no machine profile named `{}`", request.machine),
        );
    };
    let Some(mut search) = make_search(&request.search, request.seed) else {
        return Response::error(
            &request.id,
            codes::UNKNOWN_SEARCH,
            &format!("no search module named `{}`", request.search),
        );
    };
    let budget = request.budget.clamp(1, shared.config.max_budget);
    let threads = request.threads.clamp(1, shared.config.max_threads);
    let system = LocusSystem::new(Machine::new(profile.clone()));
    let locus = entry.locus_program();
    let tracer = if shared.trace.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let session = TuneRequest::new(&entry.program, &locus, budget)
        .parallel(threads)
        .store(StoreHandle::Sharded(&shared.store))
        .tracer(&tracer);
    let tuned = system.run(session, search.as_mut());
    shared.append_trace(&request.id, tracer.drain());
    let (result, report) = match tuned {
        Ok(pair) => pair,
        Err(e) => return Response::error(&request.id, codes::INTERNAL, &e.to_string()),
    };
    let mut response = Response::ok(&request.id)
        .with_str("kernel", &request.kernel)
        .with_str("machine", &request.machine)
        .with_str("search", &request.search)
        .with_u64("budget", budget as u64)
        .with_u64("threads", threads as u64)
        .with_f64("baseline_ms", result.baseline.time_ms)
        .with_f64("speedup", result.speedup())
        .with_u64("evaluations", report.evaluations() as u64)
        .with_u64("rehydrated", report.rehydrated as u64)
        .with_u64("appended", report.appended as u64)
        .with_u64("proposed", report.proposed as u64)
        .with_str("space_size", &result.space_size.to_string());
    response = match &result.best {
        Some((point, _, measurement)) => response
            .with_str("best_point", &point.canonical_key())
            .with_f64("best_ms", measurement.time_ms)
            .with_str("checksum", &format!("{:016x}", measurement.checksum)),
        None => response
            .with_str("best_point", "")
            .with_f64("best_ms", result.baseline.time_ms),
    };
    response
}

/// `suggest`: store-backed recipe retrieval over the shared store.
fn execute_suggest(shared: &Shared, request: &Request) -> Response {
    let Some(entry) = shared.registry.get(&request.kernel) else {
        return Response::error(
            &request.id,
            codes::UNKNOWN_KERNEL,
            &format!("no registry kernel named `{}`", request.kernel),
        );
    };
    let region = find_regions(&entry.program)
        .into_iter()
        .find(|r| r.id == entry.region)
        .and_then(|r| extract_region(&entry.program, &r));
    let Some(region) = region else {
        return Response::error(
            &request.id,
            codes::INTERNAL,
            &format!("kernel `{}` has no extractable region", request.kernel),
        );
    };
    let program = suggest_with_sharded_store(entry.region, &region.stmt, &shared.store);
    let retrieved = program.contains("retrieved from tuning store");
    Response::ok(&request.id)
        .with_str("kernel", &request.kernel)
        .with_str("region", entry.region)
        .with_u64("retrieved", u64::from(retrieved))
        .with_str("program", &program)
}

/// `stats`: shared-store and queue counters.
fn stats_response(shared: &Shared, request: &Request) -> Response {
    Response::ok(&request.id)
        .with_u64("evals", shared.store.len() as u64)
        .with_u64("shards", shared.store.shard_count() as u64)
        .with_u64("queued", shared.sched.len() as u64)
        .with_u64("workers", shared.config.workers as u64)
        .with_u64("max_budget", shared.config.max_budget as u64)
}

/// `compact`: compact every shard, reporting aggregate statistics.
fn compact_response(shared: &Shared, request: &Request) -> Response {
    match shared.store.compact_all() {
        Ok(stats) => Response::ok(&request.id)
            .with_u64("bytes_before", stats.bytes_before)
            .with_u64("bytes_after", stats.bytes_after)
            .with_u64("evals", stats.evals as u64)
            .with_u64("prunes", stats.prunes as u64)
            .with_u64("sessions", stats.sessions as u64),
        Err(e) => Response::error(&request.id, codes::INTERNAL, &e.to_string()),
    }
}
