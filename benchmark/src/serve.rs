//! The two serving workloads.
//!
//! * `serve_read`: 2 closed-loop callers, each with its own
//!   `wmh_serve::Client` connection, query a `Server` over loopback TCP.
//!   ICWS at D=128, 2 shards, read-only. The client sets no socket options
//!   of its own, so the number moves only with the program's front end and
//!   wire code.
//! * `serve_mixed`: 2 closed-loop callers call `Service::query` and
//!   `Service::mutate` in-process on a WAL-backed DartMinHash D=128
//!   service with 2 shards and automatic snapshots. One request in 4 is a
//!   write, cycling insert → stream → delete over ids the caller owns.
//!
//! Both index the 600-document near-duplicate corpus of [`crate::corpus`]
//! and query with held-out variants.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wmh_core::{Algorithm, AlgorithmConfig, SketchStore};
use wmh_serve::{
    Client, MutationKind, MutationRequest, MutationResponse, Outcome, QueryRequest, QueryResponse,
    Server, Service, ServiceConfig,
};
use wmh_sets::{generalized_jaccard, WeightedSet};

use crate::corpus::Corpus;
use crate::report::{Gate, Line, Refusals, Run};
use crate::stats::{median, tail};
use crate::trace::{maybe_span, Tracer};

/// Fingerprint length of every serving store.
pub const D: usize = 128;
/// Shards of every serving service.
pub const SHARDS: usize = 2;
/// Closed-loop callers.
pub const CALLERS: usize = 2;
/// Neighbours per query.
pub const K: usize = 10;
/// Per-request budget: generous, because the benchmark measures latency,
/// not deadline behaviour; a request that still misses it counts failed.
pub const DEADLINE_US: u64 = 1_000_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// `serve_mixed` snapshots automatically every this many writes.
pub const SNAPSHOT_EVERY: u64 = 1_000;
/// Every `WRITE_EVERY`-th request of a `serve_mixed` caller is a write.
const WRITE_EVERY: u64 = 4;
/// Streaming documents each `serve_mixed` caller rotates over.
const STREAM_IDS: u64 = 8;
/// Items in one streaming update.
const STREAM_ITEMS: usize = 16;
/// Recall floor: the clusters put ~8 true neighbours in every top-10.
const MIN_RECALL: f64 = 0.5;

/// Sketch `docs` (id = position) into a store.
///
/// # Errors
/// Sketching or store failures, stringified.
pub fn sketch_store(
    algorithm: Algorithm,
    docs: &[WeightedSet],
    seed: u64,
) -> Result<SketchStore, String> {
    let sketcher =
        algorithm.build(seed, D, &AlgorithmConfig::default()).map_err(|e| e.to_string())?;
    let sketches = sketcher.sketch_batch(docs).map_err(|e| e.to_string())?;
    let mut store = SketchStore::new();
    for (id, sketch) in sketches.iter().enumerate() {
        store.insert(id as u64, sketch).map_err(|e| e.to_string())?;
    }
    Ok(store)
}

/// The serving configuration both workloads share.
#[must_use]
pub fn config() -> ServiceConfig {
    ServiceConfig { shards: SHARDS, ..ServiceConfig::default() }
}

/// A query request for `doc`.
#[must_use]
pub fn query_request(id: u64, doc: &WeightedSet) -> QueryRequest {
    QueryRequest { id, doc: doc.iter().collect(), k: K, deadline_us: Some(DEADLINE_US) }
}

/// Exact top-`K` ids of `query` over `docs` by generalized Jaccard
/// (similarity descending, id ascending).
#[must_use]
pub fn exact_top_k(query: &WeightedSet, docs: &[WeightedSet]) -> Vec<u64> {
    let mut scored: Vec<(u64, f64)> =
        docs.iter().enumerate().map(|(i, d)| (i as u64, generalized_jaccard(query, d))).collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.into_iter().take(K).map(|(id, _)| id).collect()
}

/// Mean recall@`K` of `answers` (one per query, in query order).
#[must_use]
pub fn recall_at_k(corpus: &Corpus, answers: &[Vec<u64>]) -> f64 {
    let total: f64 = answers
        .iter()
        .zip(&corpus.queries)
        .map(|(got, query)| {
            let exact = exact_top_k(query, &corpus.docs);
            got.iter().filter(|id| exact.contains(id)).count() as f64 / K as f64
        })
        .sum();
    total / answers.len().max(1) as f64
}

fn ids(r: &QueryResponse) -> Vec<u64> {
    r.results.iter().map(|&(id, _)| id).collect()
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let out = f()?;
    Ok((out, t.elapsed().as_secs_f64()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median and tail lines for one latency sample.
fn latency_lines(prefix: &str, xs: &[f64]) -> Vec<Line> {
    let t = tail(xs, 99.0);
    vec![
        Line::new(format!("{prefix}_p50_ms"), median(xs), "ms", format!("n={}", xs.len())),
        Line::new(
            format!("{prefix}_p99_ms"),
            t.value,
            "ms",
            format!("{} of n={}", t.label(), t.samples),
        ),
    ]
}

/// A running read-only server over the ICWS store of `corpus`.
pub struct ReadServer {
    /// The in-process service behind the server.
    pub service: Arc<Service>,
    /// The TCP front end.
    pub server: Server,
    /// The store it was built from.
    pub store: SketchStore,
}

/// Set up `serve_read`: sketch the store, build the service, bind.
///
/// # Errors
/// Any set-up failure, stringified.
pub fn setup_read(corpus: &Corpus, seed: u64) -> Result<ReadServer, String> {
    let store = sketch_store(Algorithm::Icws, &corpus.docs, seed)?;
    let service = Arc::new(Service::from_store(&store, config()).map_err(|e| e.to_string())?);
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(ReadServer { service, server, store })
}

/// What one caller saw.
#[derive(Default)]
struct CallerLog {
    ops: Vec<(f64, f64)>,
    write_ms: HashMap<&'static str, Vec<f64>>,
    query_ms: Vec<f64>,
    attempted: u64,
    ok: u64,
    failed: u64,
    answers: HashMap<usize, Vec<u64>>,
    refusals: Refusals,
    live: BTreeSet<u64>,
    errors: Vec<String>,
}

impl CallerLog {
    fn merge(logs: Vec<Self>) -> Self {
        let mut all = Self::default();
        for l in logs {
            all.ops.extend(l.ops);
            for (k, v) in l.write_ms {
                all.write_ms.entry(k).or_default().extend(v);
            }
            all.query_ms.extend(l.query_ms);
            all.attempted += l.attempted;
            all.ok += l.ok;
            all.failed += l.failed;
            for (q, ids) in l.answers {
                all.answers.entry(q).or_insert(ids);
            }
            all.refusals.merge(l.refusals);
            all.live.extend(l.live);
            all.errors.extend(l.errors);
        }
        all
    }

    fn accounting_gate(&self) -> Gate {
        Gate::new(
            "attempted = ok + failed",
            self.attempted == self.ok + self.failed,
            format!("attempted {} ok {} failed {}", self.attempted, self.ok, self.failed),
        )
    }

    fn query(&mut self, q: usize, r: &QueryResponse, end_s: f64, elapsed: Duration) {
        self.ops.push((end_s, ms(elapsed)));
        self.query_ms.push(ms(elapsed));
        self.refusals.add(r);
        if r.outcome == Outcome::Ok {
            self.ok += 1;
            self.answers.entry(q).or_insert_with(|| ids(r));
        } else {
            self.failed += 1;
            self.errors.push(format!("query {q}: {} {:?}", r.outcome.as_str(), r.error));
        }
    }
}

fn join_callers<F>(f: F) -> Result<CallerLog, String>
where
    F: Fn(usize) -> CallerLog + Sync,
{
    let logs: Result<Vec<CallerLog>, String> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..CALLERS).map(|c| s.spawn(move || f(c))).collect();
        handles.into_iter().map(|h| h.join().map_err(|_| "a caller panicked".to_owned())).collect()
    });
    logs.map(CallerLog::merge)
}

/// `serve_read`: set up [`SETUPS`] times, then run the TCP closed loop
/// for `seconds` against the last set-up.
///
/// # Errors
/// Set-up failures, stringified.
pub fn run_read(
    corpus: &Corpus,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Run, String> {
    let mut run = Run::default();
    let mut target = None;
    for _ in 0..SETUPS {
        drop(target.take());
        let (server, s) = timed(|| setup_read(corpus, seed))?;
        run.setup_s.push(s);
        target = Some(server);
    }
    let target = target.ok_or("no set-up")?;
    let addr = target.server.addr();
    let requests: Vec<QueryRequest> =
        corpus.queries.iter().enumerate().map(|(q, doc)| query_request(q as u64, doc)).collect();
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let log = join_callers(|_| {
        let mut log = CallerLog::default();
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                log.errors.push(format!("connect: {e}"));
                return log;
            }
        };
        while Instant::now() < stop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let q = (i % requests.len() as u64) as usize;
            log.attempted += 1;
            let t = Instant::now();
            let answer = maybe_span(tracer, "client.query", i, || client.query(&requests[q]));
            let elapsed = t.elapsed();
            match answer {
                Ok(r) if r.id == requests[q].id => {
                    log.query(q, &r, start.elapsed().as_secs_f64(), elapsed);
                }
                Ok(r) => {
                    log.failed += 1;
                    log.errors.push(format!("query {q}: answer carries id {}", r.id));
                }
                Err(e) => {
                    log.failed += 1;
                    log.errors.push(format!("query {q}: {e}"));
                    match Client::connect(addr) {
                        Ok(c) => client = c,
                        Err(_) => break,
                    }
                }
            }
        }
        log
    })?;
    run.elapsed_s = start.elapsed().as_secs_f64();
    // Recall over every held-out query, answered in-process after the
    // loop so it does not depend on how many requests the loop completed;
    // every answer the loop saw over TCP must equal the in-process one.
    let in_process: Vec<Vec<u64>> =
        requests.iter().map(|r| ids(&target.service.query(r))).collect();
    let differing = log.answers.iter().filter(|(&q, got)| **got != in_process[q]).count();
    let recall = recall_at_k(corpus, &in_process);
    run.lines.extend(latency_lines("query", &log.query_ms));
    run.lines.push(Line::new(
        "recall_at_10",
        recall,
        "1",
        format!("{} held-out queries, exact generalized-Jaccard top-10", requests.len()),
    ));
    run.refusals = Some(log.refusals);
    run.gates.push(log.accounting_gate());
    run.gates.push(Gate::new(
        "recall@10 against exact top-10",
        recall >= MIN_RECALL,
        format!("recall {recall:.4} over {} queries (floor {MIN_RECALL})", requests.len()),
    ));
    run.gates.push(Gate::new(
        "TCP answers equal in-process answers",
        differing == 0,
        format!("{differing} of {} distinct queries differ", log.answers.len()),
    ));
    run.gates.push(errors_gate(&log.errors));
    run.attempted = log.attempted;
    run.failed = log.failed;
    run.ops = log.ops;
    Ok(run)
}

fn errors_gate(errors: &[String]) -> Gate {
    Gate::new(
        "no operation failed",
        errors.is_empty(),
        errors.iter().take(3).cloned().collect::<Vec<_>>().join("; "),
    )
}

/// A WAL-backed service plus what reopening it needs.
pub struct MixedService {
    /// The service.
    pub service: Arc<Service>,
    /// The cold store it was opened over.
    pub store: SketchStore,
    /// Its WAL directory.
    pub wal: PathBuf,
}

/// Set up `serve_mixed`: sketch the DartMinHash store and open the
/// service over a fresh WAL directory under `scratch`.
///
/// # Errors
/// Any set-up failure, stringified.
pub fn setup_mixed(
    corpus: &Corpus,
    seed: u64,
    wal: &Path,
    snapshot_every: u64,
) -> Result<MixedService, String> {
    let store = sketch_store(Algorithm::DartMinHash, &corpus.docs, seed)?;
    let config = ServiceConfig { snapshot_every: Some(snapshot_every), ..config() };
    let service = Service::open(&store, wal, config).map_err(|e| e.to_string())?;
    Ok(MixedService { service: Arc::new(service), store, wal: wal.to_owned() })
}

/// Ids caller `c` owns: inserts from `base`, streams from `base + 5e6`.
fn owned_base(c: usize) -> u64 {
    (c as u64 + 1) * 10_000_000
}

/// The `w`-th write of caller `c`: insert → stream → delete, cycling.
#[must_use]
pub fn write_request(corpus: &Corpus, c: usize, w: u64) -> (&'static str, MutationRequest) {
    let cycle = w / 3;
    let doc = &corpus.inserts
        [((cycle * CALLERS as u64 + c as u64) % corpus.inserts.len() as u64) as usize];
    let insert_id = owned_base(c) + cycle;
    let (kind, id, what) = match w % 3 {
        0 => ("insert", insert_id, MutationKind::Insert { doc: doc.iter().collect() }),
        1 => (
            "stream",
            owned_base(c) + 5_000_000 + cycle % STREAM_IDS,
            MutationKind::Stream { lambda: 0.9, items: doc.iter().take(STREAM_ITEMS).collect() },
        ),
        _ => ("delete", insert_id, MutationKind::Delete),
    };
    (kind, MutationRequest { id, kind: what, deadline_us: Some(DEADLINE_US) })
}

fn account_write(
    log: &mut CallerLog,
    kind: &'static str,
    id: u64,
    r: &MutationResponse,
    end_s: f64,
    elapsed: Duration,
) {
    log.ops.push((end_s, ms(elapsed)));
    log.write_ms.entry(kind).or_default().push(ms(elapsed));
    if r.durable {
        if kind == "delete" {
            log.live.remove(&id);
        } else {
            log.live.insert(id);
        }
    }
    if r.outcome == Outcome::Ok {
        log.ok += 1;
    } else {
        log.failed += 1;
        log.errors.push(format!("{kind} {id}: {} {:?}", r.outcome.as_str(), r.error));
    }
}

/// `serve_mixed`: set up [`SETUPS`] times over fresh WAL directories,
/// run the in-process closed loop for `seconds` on the last, then check
/// the live count in memory and after an untimed reopen.
///
/// # Errors
/// Set-up or reopen failures, stringified.
pub fn run_mixed(
    corpus: &Corpus,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    tracer: Option<&Tracer>,
) -> Result<Run, String> {
    let mut run = Run::default();
    let mut target = None;
    for i in 0..SETUPS {
        drop(target.take());
        let wal = scratch.join(format!("mixed-wal-{i}"));
        let (svc, s) = timed(|| setup_mixed(corpus, seed, &wal, SNAPSHOT_EVERY))?;
        run.setup_s.push(s);
        target = Some(svc);
    }
    let MixedService { service, store, wal } = target.ok_or("no set-up")?;
    let generation = |s: &Service| s.health().snapshot_generation.unwrap_or(0);
    let gen_before = generation(&service);
    let requests: Vec<QueryRequest> =
        corpus.queries.iter().enumerate().map(|(q, doc)| query_request(q as u64, doc)).collect();
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let log = join_callers(|c| {
        let mut log = CallerLog::default();
        let (mut n, mut w) = (0u64, 0u64);
        while Instant::now() < stop {
            log.attempted += 1;
            n += 1;
            if n % WRITE_EVERY == 0 {
                let (kind, req) = write_request(corpus, c, w);
                w += 1;
                let t = Instant::now();
                let r = maybe_span(tracer, kind_span(kind), w, || service.mutate(&req));
                let elapsed = t.elapsed();
                account_write(&mut log, kind, req.id, &r, start.elapsed().as_secs_f64(), elapsed);
            } else {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let q = (i % requests.len() as u64) as usize;
                let t = Instant::now();
                let r = maybe_span(tracer, "service.query", i, || service.query(&requests[q]));
                let elapsed = t.elapsed();
                log.query(q, &r, start.elapsed().as_secs_f64(), elapsed);
            }
        }
        log
    })?;
    run.elapsed_s = start.elapsed().as_secs_f64();
    let snapshots = generation(&service) - gen_before;
    let expected = corpus.docs.len() + log.live.len();
    let indexed = service.health().indexed;

    run.lines.extend(latency_lines("query", &log.query_ms));
    let writes: Vec<f64> = log.write_ms.values().flatten().copied().collect();
    run.lines.extend(latency_lines("write", &writes));
    run.lines.push(Line::new(
        "snapshot.count",
        snapshots as f64,
        "count",
        format!("every {SNAPSHOT_EVERY} writes"),
    ));
    run.refusals = Some(log.refusals);

    // Reopen untimed: recovery must restore the acknowledged state.
    let recovered = match Arc::try_unwrap(service) {
        Ok(service) => {
            drop(service);
            let reopened = Service::open(
                &store,
                &wal,
                ServiceConfig { snapshot_every: Some(SNAPSHOT_EVERY), ..config() },
            )
            .map_err(|e| format!("reopen: {e}"))?;
            reopened.health().indexed
        }
        Err(_) => return Err("service still shared after the loop".into()),
    };
    run.gates.push(log.accounting_gate());
    run.gates.push(Gate::new(
        "health().indexed equals the live count implied by acknowledged writes",
        indexed == expected,
        format!("indexed {indexed}, expected {expected}"),
    ));
    run.gates.push(Gate::new(
        "an untimed reopen of the WAL recovers the same count",
        recovered == expected,
        format!("recovered {recovered}, expected {expected}"),
    ));
    run.gates.push(errors_gate(&log.errors));
    run.attempted = log.attempted;
    run.failed = log.failed;
    run.ops = log.ops;
    Ok(run)
}

fn kind_span(kind: &str) -> &'static str {
    match kind {
        "insert" => "service.mutate.insert",
        "stream" => "service.mutate.stream",
        _ => "service.mutate.delete",
    }
}
