//! The `serve` workload: an in-process `diablod` (`Server` with the
//! default `ServeConfig`) driven by closed-loop clients, each waiting for
//! every reply before sending its next request.
//!
//! The load runs in rounds. Every round sends each of the twelve paper
//! programs twice, in a seeded order, split between the clients. Inline
//! programs pick one of a few input versions, so most repeats hit the
//! result cache; a seeded share bypasses it (`no_cache`) and executes
//! cold. Four programs read server-bound datasets instead, and every few
//! rounds one of those datasets is re-bound to fresh content: a write
//! beside the reads that makes its dependents miss until they are cached
//! again. Between rounds, outside the timed part, the leading client
//! checks outputs, prepares the next re-bind and its reference outputs,
//! and, before a traced round, times the front end on every program.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use diablo_dataflow::Context;
use diablo_runtime::Value;
use diablo_serve::proto::{read_frame, write_frame};
use diablo_serve::{
    plan_hash, rows_hash, Client, Output, Request, RequestStats, Response, ServeConfig, Server,
};
use diablo_workloads::{figure3_workloads, Workload};

use crate::compare::{self, Out, Outputs};
use crate::jobs::{self, derive, splitmix, Steps, FRONT_END_STEPS};
use crate::report::RunOutput;
use crate::stats::{geomean, mean, median, percentile};
use crate::trace::{Arg, Tracer};

// The traffic mix below is an assumption, not a replay: no diablod
// traffic has been recorded. With these values about 69% of cache
// lookups hit (`serve.cache_hit_ratio` in a traced run); changing any of
// them moves that share, and with it what the request metrics measure.

/// Closed-loop clients (each with one connection).
const CLIENTS: usize = 2;
/// Input versions per inline program.
const INLINE_VERSIONS: u64 = 3;
/// Share of run requests, in percent, that bypass the result cache.
const NO_CACHE_PERCENT: u64 = 30;
/// A server-bound dataset group is re-bound every this many rounds.
const REBIND_EVERY: usize = 4;
/// Rounds measured at least, however long they take.
const MIN_ROUNDS: usize = 8;
/// Setups per run; `setup_s` is their median. A serve setup takes a
/// fraction of a second, so more of them steady the median cheaply.
const SETUP_REPS: usize = 9;

/// Server-bound dataset groups: the datasets one re-bind replaces, and
/// the programs (indexes into `figure3_workloads`) that read them.
const GROUPS: [(&[&str], &[usize]); 3] = [
    (&["words"], &[2, 3]),
    (&["E"], &[9]),
    (&["R", "Pinit", "Qinit"], &[11]),
];

fn group_of(p: usize) -> Option<usize> {
    GROUPS.iter().position(|(_, ps)| ps.contains(&p))
}

/// The twelve programs at the serving scale (≤ 2,000 rows each).
fn programs(seed: u64) -> Vec<Workload> {
    figure3_workloads(1, seed)
}

fn inline_seed(seed: u64, v: u64) -> u64 {
    derive(seed, 100 + v)
}

fn group_seed(seed: u64, k: u64) -> u64 {
    derive(seed, 1_000 + k)
}

/// The rows a group's datasets are bound to, taken from the workloads of
/// one group version.
fn group_rows(g: usize, ws: &[Workload]) -> Result<Vec<(String, Vec<Value>)>, String> {
    let (names, progs) = GROUPS[g];
    names
        .iter()
        .map(|name| {
            let mut found = progs.iter().filter_map(|&p| {
                ws[p]
                    .collections
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, r)| r)
            });
            let rows = found.next().ok_or_else(|| format!("no input `{name}`"))?;
            // Programs sharing a bound dataset must have been generated
            // with identical rows, or one of them would read foreign data.
            if found.any(|other| other != rows) {
                return Err(format!("programs disagree on dataset `{name}`"));
            }
            Ok((name.to_string(), rows.clone()))
        })
        .collect()
}

/// Generated inputs: every inline version, and group version 0.
struct Inputs {
    /// `inline[v]`: all twelve programs generated with version `v`'s seed
    /// (only the inline programs' entries are sent).
    inline: Vec<Vec<Workload>>,
    /// Group version 0.
    group0: Vec<Workload>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        Inputs {
            inline: (0..INLINE_VERSIONS)
                .map(|v| programs(inline_seed(seed, v)))
                .collect(),
            group0: programs(group_seed(seed, 0)),
        }
    }

    /// Program `p` at inline version `v`; server-bound programs have one
    /// version here, the group's version 0.
    fn workload(&self, p: usize, v: u64) -> &Workload {
        match group_of(p) {
            Some(_) => &self.group0[p],
            None => &self.inline[v as usize][p],
        }
    }

    /// The version-0 workload of program `p`.
    fn base(&self, p: usize) -> &Workload {
        self.workload(p, 0)
    }

    /// The run request for program `p` at inline version `v` (server-bound
    /// programs send only their scalars).
    fn request(&self, p: usize, v: u64, no_cache: bool) -> Request {
        let bound = group_of(p).is_some();
        let w = self.workload(p, v);
        Request::Run {
            program: w.source.to_string(),
            scalars: w
                .scalars
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
            rows: if bound {
                Vec::new()
            } else {
                w.collections
                    .iter()
                    .map(|(n, r)| (n.to_string(), r.clone()))
                    .collect()
            },
            no_cache,
        }
    }
}

/// Reference outputs by `(program, version)`: inline versions count from
/// 0, group versions are re-bind ids.
type Refs = HashMap<(usize, u64), Outputs>;

/// Every (program, version) pair a setup generates: the inline versions,
/// and version 0 of each server-bound program.
fn pairs() -> Vec<(usize, u64)> {
    let versions = |p| match group_of(p) {
        Some(_) => 1,
        None => INLINE_VERSIONS,
    };
    (0..12)
        .flat_map(|p| (0..versions(p)).map(move |v| (p, v)))
        .collect()
}

/// The reference outputs of every pair.
fn references(inputs: &Inputs) -> Result<Refs, String> {
    let keys = pairs();
    let done = jobs::oracles(keys.iter().map(|&(p, v)| inputs.workload(p, v)))?;
    Ok(keys.into_iter().zip(done).collect())
}

/// One round's schedule: `(program, inline version, no_cache)`, every
/// program twice, in a seeded order.
fn schedule(seed: u64, round: usize) -> Vec<(usize, u64, bool)> {
    let mut state = derive(seed, 1_000_000 + round as u64);
    let mut next = move || {
        state = splitmix(state);
        state
    };
    let mut progs: Vec<usize> = (0..12).chain(0..12).collect();
    for i in (1..progs.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        progs.swap(i, j);
    }
    progs
        .into_iter()
        .map(|p| (p, next() % INLINE_VERSIONS, next() % 100 < NO_CACHE_PERCENT))
        .collect()
}

/// One request sent and its reply, timed.
struct Sent {
    start: Instant,
    encoded: Instant,
    end: Instant,
    bytes: usize,
    reply: Result<Response, String>,
}

/// Encodes a request, then sends it and reads the reply: the same calls
/// `diablo_serve::Client::request` makes, split so encoding is timed on
/// its own.
fn send(conn: &mut TcpStream, req: &Request) -> Sent {
    let start = Instant::now();
    let payload = req.encode().map_err(|e| e.to_string());
    let encoded = Instant::now();
    let bytes = payload.as_ref().map_or(0, Vec::len);
    let reply = payload.and_then(|p| {
        write_frame(conn, &p).map_err(|e| format!("send: {e}"))?;
        let frame = read_frame(conn)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection")?;
        Response::decode(&frame).map_err(|e| e.to_string())
    });
    Sent {
        start,
        encoded,
        end: Instant::now(),
        bytes,
        reply,
    }
}

/// What a request should have returned.
enum Expect {
    /// A run of `program` whose outputs are `refs[(program, version)]`.
    Run { program: usize, version: u64 },
    /// A dataset bind acknowledged with this fingerprint.
    Bound(u64),
}

/// A finished request.
struct Rec {
    program: Option<usize>,
    traced: bool,
    rtt_ms: f64,
    encode_us: f64,
    bytes: usize,
    stats: Option<RequestStats>,
}

/// Keeps a request's timings; in a traced round also records its spans,
/// labelled `label`.
fn record(
    sent: &Sent,
    program: Option<usize>,
    label: &str,
    traced: bool,
    tracer: &mut Tracer,
) -> Rec {
    let stats = match &sent.reply {
        Ok(Response::RunOk { stats, .. }) => Some(*stats),
        _ => None,
    };
    if traced {
        let req = tracer.record(
            "request",
            None,
            sent.start,
            sent.end,
            vec![("program", Arg::Str(label.to_string()))],
        );
        tracer.record("proto.encode", Some(req), sent.start, sent.encoded, vec![]);
        let mut args = vec![("bytes", Arg::Num(sent.bytes as f64))];
        if let Some(s) = stats {
            args.push(("queue_us", Arg::Num(s.queue_us as f64)));
            args.push(("exec_us", Arg::Num(s.exec_us as f64)));
            args.push(("cache_hit", Arg::Num(f64::from(u8::from(s.cache_hit)))));
        }
        tracer.record("rpc", Some(req), sent.encoded, sent.end, args);
    }
    Rec {
        program,
        traced,
        rtt_ms: sent.end.duration_since(sent.start).as_secs_f64() * 1e3,
        encode_us: sent.encoded.duration_since(sent.start).as_secs_f64() * 1e6,
        bytes: sent.bytes,
        stats,
    }
}

fn check(reply: &Result<Response, String>, expect: &Expect, refs: &Refs) -> Result<(), String> {
    match (reply.as_ref()?, expect) {
        (Response::RunOk { outputs, .. }, Expect::Run { program, version }) => {
            let actual: Outputs = outputs
                .iter()
                .map(|(n, o)| {
                    let o = match o {
                        Output::Scalar(v) => Out::Scalar(v.clone()),
                        Output::Rows(r) => Out::Rows(r.clone()),
                    };
                    (n.clone(), o)
                })
                .collect();
            let expected = refs
                .get(&(*program, *version))
                .ok_or("no reference outputs")?;
            compare::check(&actual, expected)
        }
        (Response::BoundOk { fingerprint }, Expect::Bound(want)) if fingerprint == want => Ok(()),
        (Response::Error { message }, _) => Err(message.clone()),
        (other, _) => Err(format!("unexpected reply {other:?}")),
    }
}

/// The plan of the next round, written by the leader between rounds.
struct Round {
    stop: bool,
    index: usize,
    traced: bool,
    /// Current version id of each dataset group.
    group_version: [u64; 3],
    /// Datasets to re-bind at the start of the round, with the
    /// fingerprint the server should acknowledge.
    rebind: Vec<(String, Vec<Value>, u64)>,
}

/// Front-end timings the leader takes on every program before each traced
/// round.
#[derive(Default)]
struct FrontEnd {
    /// Per traced round: step microseconds summed over programs.
    step_us: Vec<[f64; 5]>,
    /// Per traced round: `plan_hash` and inline-row `rows_hash`
    /// microseconds, summed over programs.
    hash_us: Vec<(f64, f64)>,
    target_bytes: usize,
}

struct Shared<'a> {
    seed: u64,
    seconds: f64,
    trace: bool,
    inputs: &'a Inputs,
    barrier: Barrier,
    round: Mutex<Round>,
    refs: Mutex<Refs>,
    error: Mutex<Option<String>>,
}

/// What the leader measured besides requests.
#[derive(Default)]
struct LeaderLog {
    /// `(traced, seconds)` per measured round.
    rounds: Vec<(bool, f64)>,
    front: FrontEnd,
}

/// Leader's work between rounds: decide whether to stop, prepare a
/// re-bind, time the front end before a traced round. A failure stops the
/// run.
fn prepare(shared: &Shared, log: &mut LeaderLog, next_version: &mut u64, tracer: &mut Tracer) {
    let mut round = shared.round.lock().expect("round lock");
    round.index = log.rounds.len();
    round.traced = shared.trace && round.index.is_multiple_of(2);
    round.rebind.clear();
    let measured: f64 = log.rounds.iter().map(|(_, s)| s).sum();
    round.stop = log.rounds.len() >= MIN_ROUNDS && measured >= shared.seconds;
    if round.stop {
        return;
    }
    let mut planned = plan_rebind(shared, &mut round, next_version);
    if planned.is_ok() && round.traced {
        planned = time_front_end(shared, log, tracer);
    }
    if let Err(e) = planned {
        *shared.error.lock().expect("error lock") = Some(e);
        round.stop = true;
    }
}

/// Every `REBIND_EVERY` rounds, the next dataset group gets fresh
/// content; its reference outputs are computed here, before it is used.
fn plan_rebind(shared: &Shared, round: &mut Round, next_version: &mut u64) -> Result<(), String> {
    if round.index == 0 || !round.index.is_multiple_of(REBIND_EVERY) {
        return Ok(());
    }
    let g = (round.index / REBIND_EVERY - 1) % GROUPS.len();
    let k = *next_version;
    *next_version += 1;
    let ws = programs(group_seed(shared.seed, k));
    let rows = group_rows(g, &ws)?;
    let mut refs = shared.refs.lock().expect("refs lock");
    for &p in GROUPS[g].1 {
        refs.insert((p, k), jobs::oracle(&ws[p])?);
    }
    round.rebind = rows
        .into_iter()
        .map(|(name, rows)| {
            let fingerprint = rows_hash(&rows);
            (name, rows, fingerprint)
        })
        .collect();
    round.group_version[g] = k;
    Ok(())
}

/// Times each front-end step, `plan_hash` and the inline inputs'
/// `rows_hash` on every program, as the server would for a cold request.
fn time_front_end(shared: &Shared, log: &mut LeaderLog, tracer: &mut Tracer) -> Result<(), String> {
    let front = &mut log.front;
    let mut steps = [0.0; 5];
    let (mut plan_us, mut rows_us) = (0.0, 0.0);
    let mut target = 0;
    for p in 0..12 {
        let w = shared.inputs.base(p);
        let mut m = Steps::new();
        let (_, compiled) = jobs::front_end(w.source, &mut m)?;
        let end = Instant::now();
        let label = vec![("program", Arg::Str(w.name.to_string()))];
        let span = tracer.record("frontend", None, m.start, end, label);
        m.record(tracer, span, None);
        for (i, s) in FRONT_END_STEPS.iter().enumerate() {
            steps[i] += m.us(s);
        }
        let t = Instant::now();
        std::hint::black_box(plan_hash(&compiled));
        plan_us += t.elapsed().as_secs_f64() * 1e6;
        if group_of(p).is_none() {
            let t = Instant::now();
            for (_, rows) in &w.collections {
                std::hint::black_box(rows_hash(rows));
            }
            rows_us += t.elapsed().as_secs_f64() * 1e6;
        }
        target += jobs::target_bytes(&compiled.stmts);
    }
    front.step_us.push(steps);
    front.hash_us.push((plan_us, rows_us));
    front.target_bytes = target;
    Ok(())
}

/// Per-client results.
struct ClientLog {
    recs: Vec<Rec>,
    oks: Vec<bool>,
    tracer: Tracer,
    leader: Option<LeaderLog>,
}

fn client(id: usize, mut conn: TcpStream, shared: &Shared, origin: Instant) -> ClientLog {
    let leader = id == 0;
    let mut tracer = Tracer::new(origin, id as u32 + 1);
    let mut log = LeaderLog::default();
    let mut next_version = 1u64;
    let mut recs = Vec::new();
    let mut oks = Vec::new();
    loop {
        shared.barrier.wait();
        if leader {
            prepare(shared, &mut log, &mut next_version, &mut tracer);
        }
        shared.barrier.wait();
        let (stop, index, traced, versions, rebind) = {
            let r = shared.round.lock().expect("round lock");
            let rebind = if leader { r.rebind.clone() } else { Vec::new() };
            (r.stop, r.index, r.traced, r.group_version, rebind)
        };
        if stop {
            break;
        }
        let mut pending: Vec<(Sent, Expect)> = Vec::new();
        let start = Instant::now();
        for (name, rows, fingerprint) in rebind {
            let sent = send(&mut conn, &Request::BindDataset { name, rows });
            recs.push(record(&sent, None, "bind", traced, &mut tracer));
            pending.push((sent, Expect::Bound(fingerprint)));
        }
        shared.barrier.wait();
        let mine = schedule(shared.seed, index)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % CLIENTS == id);
        for (_, (p, v, no_cache)) in mine {
            let version = group_of(p).map_or(v, |g| versions[g]);
            let req = shared.inputs.request(p, v, no_cache);
            let sent = send(&mut conn, &req);
            let label = shared.inputs.base(p).name;
            recs.push(record(&sent, Some(p), label, traced, &mut tracer));
            pending.push((
                sent,
                Expect::Run {
                    program: p,
                    version,
                },
            ));
        }
        shared.barrier.wait();
        if leader {
            let end = Instant::now();
            log.rounds
                .push((traced, end.duration_since(start).as_secs_f64()));
            if traced {
                tracer.record(
                    "pass",
                    None,
                    start,
                    end,
                    vec![("round", Arg::Num(index as f64))],
                );
            }
        }
        let refs = shared.refs.lock().expect("refs lock");
        for (sent, expect) in &pending {
            let ok = check(&sent.reply, expect, &refs);
            if let Err(e) = &ok {
                eprintln!("paperbench: serve request: {e}");
            }
            oks.push(ok.is_ok());
        }
    }
    ClientLog {
        recs,
        oks,
        tracer,
        leader: leader.then_some(log),
    }
}

/// A running server with its connections.
struct Stack {
    ctx: Context,
    server: Server,
    admin: Client,
    conns: Vec<TcpStream>,
}

impl Stack {
    fn start(inputs: &Inputs) -> Result<(Stack, Vec<bool>), String> {
        let ctx = Context::default_parallel();
        let server = Server::start("127.0.0.1:0", ctx.clone(), ServeConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        let mut admin = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        admin.ping()?;
        let mut conns = Vec::new();
        for _ in 0..CLIENTS {
            let c = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            c.set_nodelay(true).map_err(|e| e.to_string())?;
            conns.push(c);
        }
        let mut oks = Vec::new();
        for g in 0..GROUPS.len() {
            for (name, rows) in group_rows(g, &inputs.group0)? {
                let want = rows_hash(&rows);
                oks.push(admin.bind_dataset(&name, rows) == Ok(want));
            }
        }
        Ok((
            Stack {
                ctx,
                server,
                admin,
                conns,
            },
            oks,
        ))
    }

    /// Sends every (program, version) pair once so the result cache and
    /// the worker pool are warm.
    fn warm_up(&mut self, inputs: &Inputs, refs: &Refs) -> Vec<bool> {
        pairs()
            .into_iter()
            .map(|(program, version)| {
                let req = inputs.request(program, version, false);
                let sent = send(&mut self.conns[0], &req);
                check(&sent.reply, &Expect::Run { program, version }, refs).is_ok()
            })
            .collect()
    }

    fn stop(self) {
        drop(self.conns);
        drop(self.admin);
        self.server.stop();
    }
}

fn counter(counters: &[(String, u64)], name: &str) -> f64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Runs the serve workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut refs = Refs::new();
    let mut live: Option<(Inputs, Stack)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, stack)) = live.take() {
            stack.stop();
        }
        let t = Instant::now();
        let inputs = Inputs::generate(seed);
        let generate = t.elapsed();
        if rep == 0 {
            refs = references(&inputs)?;
        }
        let t = Instant::now();
        let (mut stack, bind_oks) = Stack::start(&inputs)?;
        let warm_oks = stack.warm_up(&inputs, &refs);
        setups.push((generate + t.elapsed()).as_secs_f64());
        out.count(bind_oks.into_iter().chain(warm_oks));
        live = Some((inputs, stack));
    }
    let (inputs, mut stack) = live.expect("at least one setup");
    out.settings = diablo_bench::settings_fields(&stack.ctx);

    jobs::reset_peak_rss();
    let before = stack.admin.stats()?;
    let shared = Shared {
        seed,
        seconds,
        trace,
        inputs: &inputs,
        barrier: Barrier::new(CLIENTS),
        round: Mutex::new(Round {
            stop: false,
            index: 0,
            traced: false,
            group_version: [0; 3],
            rebind: Vec::new(),
        }),
        refs: Mutex::new(refs),
        error: Mutex::new(None),
    };
    let origin = Instant::now();
    let conns = std::mem::take(&mut stack.conns);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(id, conn)| {
                let shared = &shared;
                s.spawn(move || client(id, conn, shared, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let after = stack.admin.stats()?;
    if let Some(e) = shared.error.lock().expect("error lock").take() {
        stack.stop();
        return Err(e);
    }

    let mut measured = Measured {
        recs: Vec::new(),
        leader: LeaderLog::default(),
        before,
        after,
    };
    for log in logs {
        out.count(log.oks);
        measured.recs.extend(log.recs);
        if let Some(l) = log.leader {
            measured.leader = l;
        }
        out.tracers.push(log.tracer);
    }
    out.metrics.push("setup_s", median(&setups), setups.len());
    if trace {
        per_layer(&mut out, &measured, &inputs, &stack.ctx);
    } else {
        end_to_end(&mut out, &measured);
    }
    stack.stop();
    Ok(out)
}

/// Everything the measured rounds recorded.
struct Measured {
    recs: Vec<Rec>,
    leader: LeaderLog,
    /// Server counters before and after the rounds.
    before: Vec<(String, u64)>,
    after: Vec<(String, u64)>,
}

impl Measured {
    /// Round times in seconds, of the traced or the untraced rounds.
    fn rounds(&self, traced: bool) -> Vec<f64> {
        let rounds = self.leader.rounds.iter();
        rounds.filter(|r| r.0 == traced).map(|r| r.1).collect()
    }

    /// Round-trip times in milliseconds, of the traced or untraced rounds.
    fn rtts(&self, traced: bool) -> Vec<f64> {
        let recs = self.recs.iter();
        recs.filter(|r| r.traced == traced)
            .map(|r| r.rtt_ms)
            .collect()
    }

    /// Per program, the median of `f` over its run requests.
    fn per_program(&self, f: impl Fn(&Rec) -> Option<f64>) -> Vec<f64> {
        (0..12)
            .map(|p| {
                let recs = self.recs.iter().filter(|r| r.program == Some(p));
                median(&recs.filter_map(&f).collect::<Vec<_>>())
            })
            .collect()
    }

    /// Growth of a server counter over the rounds.
    fn delta(&self, name: &str) -> f64 {
        counter(&self.after, name) - counter(&self.before, name)
    }
}

fn p50(xs: &[f64]) -> f64 {
    percentile(xs, 50.0).0
}

fn end_to_end(out: &mut RunOutput, d: &Measured) {
    let m = &mut out.metrics;
    let rounds = d.rounds(false);
    let rtts = d.rtts(false);
    m.push("mix_s", median(&rounds), rounds.len());
    let program_ms = d.per_program(|r| Some(r.rtt_ms));
    m.push("program_ms_geomean", geomean(&program_ms), rtts.len());
    let secs: f64 = rounds.iter().sum();
    m.push("requests_per_s", rtts.len() as f64 / secs, rtts.len());
    let (p50, n) = percentile(&rtts, 50.0);
    m.push("request_ms_p50", p50, n);
    let (p99, n) = percentile(&rtts, 99.0);
    m.push("request_ms_p99", p99, n);
    m.push("peak_rss_mb", jobs::peak_rss_mb(), 1);
}

fn per_layer(out: &mut RunOutput, d: &Measured, inputs: &Inputs, ctx: &Context) {
    let m = &mut out.metrics;
    let front = &d.leader.front;
    let traced_rounds = || front.step_us.iter().zip(&front.hash_us);
    let n = traced_rounds().count();
    for (i, step) in FRONT_END_STEPS.iter().enumerate() {
        let xs: Vec<f64> = traced_rounds().map(|(steps, _)| steps[i]).collect();
        m.push(format!("{step}_us"), median(&xs), n);
    }
    m.push("core.target_bytes", front.target_bytes as f64, 1);

    let traced: Vec<&Rec> = d.recs.iter().filter(|r| r.traced).collect();
    let runs: Vec<(f64, RequestStats)> = traced
        .iter()
        .filter_map(|r| r.stats.map(|s| (r.rtt_ms, s)))
        .collect();
    let queue: Vec<f64> = runs.iter().map(|(_, s)| s.queue_us as f64 / 1e3).collect();
    m.push("serve.queue_ms_p50", p50(&queue), queue.len());
    let executed: Vec<f64> = runs
        .iter()
        .filter(|(_, s)| !s.cache_hit)
        .map(|(_, s)| s.exec_us as f64 / 1e3)
        .collect();
    m.push("serve.exec_ms_p50", p50(&executed), executed.len());
    let overhead: Vec<f64> = runs
        .iter()
        .map(|(rtt, s)| rtt - (s.queue_us + s.exec_us) as f64 / 1e3)
        .collect();
    m.push("serve.overhead_ms_p50", p50(&overhead), overhead.len());
    let lookups = d.delta("cache_hits") + d.delta("cache_misses");
    let hit_ratio = d.delta("cache_hits") / lookups.max(1.0);
    m.push("serve.cache_hit_ratio", hit_ratio, lookups as usize);
    m.push("serve.coalesced", d.delta("coalesced"), 1);
    m.push("serve.admission_timeouts", d.delta("admission_timeouts"), 1);
    let plan: Vec<f64> = traced_rounds().map(|(_, h)| h.0).collect();
    m.push("serve.plan_hash_us", median(&plan), n);
    let rows: Vec<f64> = traced_rounds().map(|(_, h)| h.1).collect();
    m.push("serve.rows_hash_us", median(&rows), n);
    let encode: Vec<f64> = traced.iter().map(|r| r.encode_us).collect();
    m.push("serve.proto_encode_us", p50(&encode), encode.len());
    let bytes: Vec<f64> = traced.iter().map(|r| r.bytes as f64).collect();
    m.push("serve.request_bytes", mean(&bytes), bytes.len());

    // Paper context: hand-written programs on the server's Context with
    // the version-0 inputs; the DIABLO side is the server-reported exec
    // time of executed (not cached) requests, bind and collect included.
    let handwritten: f64 = (0..12)
        .map(|p| {
            let samples: Vec<f64> = (0..3)
                .filter_map(|_| diablo_bench::run_handwritten(inputs.base(p), ctx))
                .map(|t| t.as_secs_f64() * 1e3)
                .collect();
            median(&samples)
        })
        .sum();
    let exec_ms: f64 = d
        .per_program(|r| {
            r.stats
                .filter(|s| !s.cache_hit)
                .map(|s| s.exec_us as f64 / 1e3)
        })
        .iter()
        .sum();
    m.push("baselines.handwritten_ms", handwritten, 3);
    m.push("core.gap_vs_handwritten", exec_ms / handwritten, 12);
    let ws: Vec<&Workload> = (0..12).map(|p| inputs.base(p)).collect();
    let interp = jobs::interp_seq_ms(&ws);
    m.push("interp.seq_ms", interp, jobs::INTERP_REPS);
    m.push("exec.speedup_vs_interp", interp / exec_ms, 12);

    out.trace_overhead(
        (median(&d.rounds(true)), median(&d.rounds(false))),
        (p50(&d.rtts(true)), p50(&d.rtts(false))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_sends_every_program_twice() {
        let a = schedule(5, 3);
        assert_eq!(a, schedule(5, 3));
        assert_ne!(a, schedule(5, 4));
        let mut counts = [0; 12];
        for (p, v, _) in &a {
            counts[*p] += 1;
            assert!(*v < INLINE_VERSIONS);
        }
        assert_eq!(counts, [2; 12]);
    }

    #[test]
    fn shared_datasets_are_generated_identically() {
        let ws = programs(group_seed(9, 0));
        for g in 0..GROUPS.len() {
            group_rows(g, &ws).unwrap();
        }
    }
}
