//! The `diablod` server: connection handling, request execution,
//! caching, and admission.
//!
//! One [`Server`] owns one **base engine context**. Every `Run` request
//! executes on a [`Context::fork`] of it — a tenant context that shares
//! the parent's morsel worker pool and effective settings (memory
//! budget, ordered routing, morsel size) but has private statistics and
//! statement labels, so concurrent requests never interleave each
//! other's `sN:var` error tags. Named datasets registered with
//! `BindDataset` are held once as `Arc`ed partitions; every request
//! wraps the same allocation zero-copy.
//!
//! ## Request lifecycle
//!
//! ```text
//! compile ──▶ plan hash ──▶ cache key = fold(hash, input fingerprints)
//!   │                            │
//!   │                       hit? ──▶ respond from cache (no admission)
//!   ▼                            ▼ miss
//! coalesce (identical run already in flight? wait for its result) ──▶
//! admission (bounded in-flight, deadline queue) ──▶ fork + run ──▶
//!   cache the outputs ──▶ respond
//! ```
//!
//! Cache hits bypass admission entirely — they do no engine work, so
//! making them queue behind executions would be latency for nothing.
//!
//! **Request coalescing**: when several requests miss on the *same*
//! cache key concurrently, only the first one (the leader) executes;
//! the rest wait for the leader's result and serve it as a cache hit.
//! Without this, a burst of identical requests — the thundering-herd
//! shape of any cache in front of slow work — would run the same
//! program once per request, occupying admission slots with duplicate
//! work. A leader error propagates to every waiter (and is never
//! cached); `no_cache` requests bypass coalescing like they bypass the
//! cache.
//!
//! Compile errors, runtime errors (message identical to a local
//! `diabloc run`, including the statement tag), and admission timeouts
//! all travel back as [`Response::Error`]; a connection is never dropped
//! in response to a well-formed frame.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use diablo_core::compile;
use diablo_dataflow::{Context, Dataset};
use diablo_exec::Session;
use diablo_runtime::Value;

use crate::admission::Admission;
use crate::cache::{CachedRun, ResultCache};
use crate::planhash::{fold, plan_hash, rows_hash, value_hash};
use crate::proto::{read_frame, write_frame, Output, Request, RequestStats, Response};

/// Serving policy knobs (engine shape lives on the [`Context`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently executing requests; excess requests queue.
    pub max_inflight: usize,
    /// How long a queued request may wait before an admission error.
    pub queue_deadline: Duration,
    /// Result-cache byte budget (0 disables caching).
    pub cache_budget: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_inflight: 4,
            queue_deadline: Duration::from_secs(10),
            cache_budget: 64 << 20,
        }
    }
}

/// A named server-side dataset: shared partitions plus the content
/// fingerprint that versions it in cache keys.
struct NamedData {
    parts: Arc<Vec<Vec<Value>>>,
    fingerprint: u64,
}

/// One in-flight execution of a cache key: the leader runs the program;
/// identical concurrent misses wait on `cv` until `done` holds the
/// leader's result — success or error — and share it.
struct InflightRun {
    done: Mutex<Option<std::result::Result<Arc<CachedRun>, String>>>,
    cv: Condvar,
}

struct Shared {
    ctx: Context,
    /// The resolved listen address (used to self-nudge on shutdown).
    addr: String,
    queue_deadline: Duration,
    cache: ResultCache,
    admission: Admission,
    datasets: RwLock<HashMap<String, NamedData>>,
    /// Cache keys currently executing, for request coalescing.
    inflight: Mutex<HashMap<u64, Arc<InflightRun>>>,
    /// Requests served by waiting on an identical in-flight execution.
    coalesced: AtomicU64,
    shutdown: AtomicBool,
    requests: AtomicU64,
}

/// The two listener flavors behind one address scheme: `unix:/path`
/// listens on a Unix domain socket, anything else is a TCP `host:port`.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, String),
}

/// A boxed duplex byte stream (TCP or Unix).
trait Conn: Read + Write + Send {}
impl Conn for TcpStream {}
impl Conn for UnixStream {}

/// A running server: accepting connections on a background thread.
pub struct Server {
    shared: Arc<Shared>,
    addr: String,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (`host:port`, with port 0 for an ephemeral port, or
    /// `unix:/path`) and starts accepting connections.
    pub fn start(addr: &str, ctx: Context, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = match addr.strip_prefix("unix:") {
            Some(path) => {
                // A stale socket file from a dead server would fail the
                // bind; replacing it is the standard daemon idiom.
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?, path.to_string())
            }
            None => Listener::Tcp(TcpListener::bind(addr)?),
        };
        let actual = match &listener {
            Listener::Tcp(l) => l.local_addr()?.to_string(),
            Listener::Unix(_, path) => format!("unix:{path}"),
        };
        let shared = Arc::new(Shared {
            cache: ResultCache::new(cfg.cache_budget),
            admission: Admission::new(cfg.max_inflight),
            queue_deadline: cfg.queue_deadline,
            ctx,
            addr: actual.clone(),
            datasets: RwLock::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
        });
        let accept_shared = shared.clone();
        let accept = thread::Builder::new()
            .name("diablod-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            addr: actual,
            accept: Some(accept),
        })
    }

    /// The bound address, with any ephemeral port resolved (and the
    /// `unix:` prefix preserved) — pass this to [`crate::Client`].
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// True once a `Shutdown` request has been received.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop to exit (it exits after a `Shutdown`
    /// request). Call after a client sent `Shutdown` — or use
    /// [`Server::stop`] to do both.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops the server from the owning process: marks shutdown, nudges
    /// the accept loop with a throwaway connection, and joins it.
    pub fn stop(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        nudge(&self.addr);
        self.join();
    }
}

/// Wakes a blocked `accept` by making (and dropping) a connection.
fn nudge(addr: &str) {
    match addr.strip_prefix("unix:") {
        Some(path) => drop(UnixStream::connect(path)),
        None => drop(TcpStream::connect(addr)),
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let conn: Box<dyn Conn> = match &listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    let _ = s.set_nodelay(true);
                    Box::new(s)
                }
                Err(_) => continue,
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Box::new(s),
                Err(_) => continue,
            },
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let conn_shared = shared.clone();
        let _ = thread::Builder::new()
            .name("diablod-conn".into())
            .spawn(move || handle_conn(conn, conn_shared));
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

fn handle_conn(mut conn: Box<dyn Conn>, shared: Arc<Shared>) {
    loop {
        let payload = match read_frame(&mut conn) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let response = match Request::decode(&payload) {
            Ok(req) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                handle_request(req, &shared)
            }
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        };
        let closing = matches!(response, Response::ShuttingDown);
        let bytes = match response.encode() {
            Ok(b) => b,
            Err(e) => Response::Error {
                message: e.to_string(),
            }
            .encode()
            .expect("error responses encode"),
        };
        if write_frame(&mut conn, &bytes).is_err() {
            return;
        }
        if closing {
            shared.shutdown.store(true, Ordering::SeqCst);
            // The accept loop is likely blocked in accept(); a throwaway
            // self-connection is the portable way to unblock it.
            nudge(&shared.addr);
            return;
        }
    }
}

fn handle_request(req: Request, shared: &Arc<Shared>) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShuttingDown,
        Request::Stats => Response::StatsOk {
            counters: stat_counters(shared),
        },
        Request::BindDataset { name, rows } => {
            let fingerprint = rows_hash(&rows);
            let parts = partition_rows(rows, shared.ctx.partitions());
            shared.datasets.write().expect("datasets lock").insert(
                name,
                NamedData {
                    parts: Arc::new(parts),
                    fingerprint,
                },
            );
            Response::BoundOk { fingerprint }
        }
        Request::Run {
            program,
            scalars,
            rows,
            no_cache,
        } => handle_run(&program, scalars, rows, no_cache, shared),
    }
}

/// Chunks rows into `p` partitions, mirroring `Dataset::from_vec` so a
/// server-held dataset scans exactly like an inline-bound one.
fn partition_rows(rows: Vec<Value>, p: usize) -> Vec<Vec<Value>> {
    let chunk = rows.len().div_ceil(p).max(1);
    let mut parts = Vec::with_capacity(p);
    let mut it = rows.into_iter();
    for _ in 0..p {
        parts.push(it.by_ref().take(chunk).collect());
    }
    parts
}

fn stat_counters(shared: &Arc<Shared>) -> Vec<(String, u64)> {
    let (entries, bytes) = shared.cache.occupancy();
    vec![
        ("requests".into(), shared.requests.load(Ordering::Relaxed)),
        ("cache_hits".into(), shared.cache.hits()),
        ("cache_misses".into(), shared.cache.misses()),
        ("cache_evictions".into(), shared.cache.evictions()),
        ("cache_entries".into(), entries),
        ("cache_bytes".into(), bytes),
        ("coalesced".into(), shared.coalesced.load(Ordering::Relaxed)),
        ("admitted".into(), shared.admission.admitted()),
        ("admission_timeouts".into(), shared.admission.timed_out()),
        ("peak_queued".into(), shared.admission.peak_queued()),
        (
            "max_inflight".into(),
            shared.admission.max_inflight() as u64,
        ),
        (
            "datasets".into(),
            shared.datasets.read().expect("datasets lock").len() as u64,
        ),
    ]
}

fn handle_run(
    program: &str,
    scalars: Vec<(String, Value)>,
    rows: Vec<(String, Vec<Value>)>,
    no_cache: bool,
    shared: &Arc<Shared>,
) -> Response {
    // The multi-error front end: a clean program yields the typed form
    // (needed for linting) alongside the compiled one; a faulty program
    // reports the first error with the same message a local `diabloc run`
    // prints for it.
    let mut diags = diablo_diag::Diagnostics::new();
    let (tp, compiled) = match diablo_core::compile_multi(program, &mut diags) {
        Some(pair) => pair,
        None => {
            return Response::Error {
                message: match compile(program) {
                    Err(e) => e.to_string(),
                    Ok(_) => "compile failed".to_string(),
                },
            }
        }
    };
    // Advisory lints ride along with every successful run (cache hits
    // included — they depend only on the program text, not the data).
    let warnings: Vec<String> = diablo_core::lint_program(&tp, &compiled)
        .iter()
        .map(diablo_diag::Diagnostic::one_line)
        .collect();
    let hash = plan_hash(&compiled);

    // Cache key: the plan hash chained with one fingerprint per declared
    // input, in declaration order. Inline bindings hash their content;
    // server-side datasets contribute their registration fingerprint
    // (same hash as inline rows of identical content, so where the data
    // lives does not split the cache); a missing input folds a marker —
    // the run will fail identically either way, and errors are never
    // cached.
    let datasets = shared.datasets.read().expect("datasets lock");
    let mut key = hash;
    for (name, _) in &compiled.inputs {
        key = if let Some((_, v)) = scalars.iter().find(|(n, _)| n == name) {
            fold(key, value_hash(v))
        } else if let Some((_, r)) = rows.iter().find(|(n, _)| n == name) {
            fold(key, rows_hash(r))
        } else if let Some(d) = datasets.get(name) {
            fold(key, d.fingerprint)
        } else {
            fold(key, 0)
        };
    }

    if !no_cache {
        if let Some(cached) = shared.cache.get(key) {
            return Response::RunOk {
                outputs: cached.outputs.clone(),
                stats: RequestStats {
                    cache_hit: true,
                    plan_hash: hash,
                    queue_us: 0,
                    exec_us: 0,
                },
                warnings,
            };
        }
    } else {
        // A bypassed lookup still counts as a miss in the counters: the
        // hit ratio should reflect what the cache *could* have served.
        let _ = shared.cache.get(u64::MAX ^ key);
    }

    // Request coalescing: if an identical run (same key) is already
    // executing, wait for its result instead of executing a duplicate.
    // The first miss registers itself as the leader; `no_cache` requests
    // bypass coalescing the way they bypass the cache.
    let leading = if no_cache {
        None
    } else {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        if let Some(run) = inflight.get(&key) {
            let run = run.clone();
            drop(inflight);
            drop(datasets);
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
            let waited = Instant::now();
            let mut done = run.done.lock().expect("inflight result lock");
            while done.is_none() {
                done = run.cv.wait(done).expect("inflight result lock");
            }
            return match done.as_ref().expect("loop exits on Some") {
                Ok(cached) => Response::RunOk {
                    outputs: cached.outputs.clone(),
                    stats: RequestStats {
                        cache_hit: true,
                        plan_hash: hash,
                        queue_us: waited.elapsed().as_micros() as u64,
                        exec_us: 0,
                    },
                    warnings,
                },
                // A leader error reaches every waiter — re-running the
                // same program against the same inputs would fail the
                // same way, at full execution cost per waiter.
                Err(message) => Response::Error {
                    message: message.clone(),
                },
            };
        }
        // Double-check the result cache under the inflight lock: a
        // leader settles by caching its result and THEN deregistering,
        // so "cache miss, then no inflight entry" can also mean the
        // leader finished in between — its result is in the cache now.
        // Without this re-probe, that interleaving would execute the
        // identical request a second time.
        if let Some(cached) = shared.cache.peek(key) {
            return Response::RunOk {
                outputs: cached.outputs.clone(),
                stats: RequestStats {
                    cache_hit: true,
                    plan_hash: hash,
                    queue_us: 0,
                    exec_us: 0,
                },
                warnings,
            };
        }
        let run = Arc::new(InflightRun {
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        inflight.insert(key, run.clone());
        Some(run)
    };
    // Publishes the leader's outcome: deregisters the key (later misses
    // start fresh — on success they hit the result cache anyway) and
    // wakes every waiter. Must run on EVERY exit path below, or waiters
    // sleep forever.
    let settle = |result: std::result::Result<Arc<CachedRun>, String>| {
        if let Some(run) = &leading {
            shared.inflight.lock().expect("inflight lock").remove(&key);
            *run.done.lock().expect("inflight result lock") = Some(result);
            run.cv.notify_all();
        }
    };

    let permit = match shared.admission.acquire(shared.queue_deadline) {
        Ok(p) => p,
        Err(message) => {
            settle(Err(message.clone()));
            return Response::Error { message };
        }
    };

    let started = Instant::now();
    let tenant = shared.ctx.fork();
    let mut session = Session::new(tenant.clone());
    for (name, v) in scalars {
        session.bind_scalar(&name, v);
    }
    let inline: Vec<&String> = rows.iter().map(|(n, _)| n).collect();
    for (name, r) in &rows {
        session.bind_input(name, r.clone());
    }
    for (name, _) in &compiled.inputs {
        if inline.contains(&name) || session.binding(name).is_some() {
            continue;
        }
        if let Some(d) = datasets.get(name) {
            session.bind_dataset(
                name,
                Dataset::from_shared_parts(tenant.clone(), d.parts.clone()),
            );
        }
    }
    drop(datasets);

    if let Err(e) = session.run(&compiled) {
        drop(permit);
        let message = e.to_string();
        settle(Err(message.clone()));
        return Response::Error { message };
    }

    let mut outputs = Vec::new();
    let mut names: Vec<(String, bool)> = compiled
        .var_types
        .iter()
        .filter(|(n, _)| !n.contains('#'))
        .map(|(n, t)| (n.clone(), t.is_collection()))
        .collect();
    names.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, is_collection) in names {
        if is_collection {
            if let Some(rows) = session.collect(&name) {
                outputs.push((name, Output::Rows(rows)));
            }
        } else if let Some(v) = session.scalar(&name) {
            outputs.push((name, Output::Scalar(v)));
        }
    }
    let exec_us = started.elapsed().as_micros() as u64;
    let queue_us = permit.queue_us;
    drop(permit);

    let cached = shared.cache.put(key, outputs);
    settle(Ok(cached.clone()));
    Response::RunOk {
        outputs: cached.outputs.clone(),
        stats: RequestStats {
            cache_hit: false,
            plan_hash: hash,
            queue_us,
            exec_us,
        },
        warnings,
    }
}
