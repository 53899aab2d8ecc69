//! The traced run's layer passes: each calls one layer's public
//! functions from the benchmark's own code, inside spans, and reduces the
//! spans to per-layer metrics.
//!
//! * Query path: for the same held-out queries, in order, the protocol
//!   encode/decode (`wmh_json`), `WeightedSet::from_pairs`, the serving
//!   sketcher's `sketch`, `BbitFingerprint::pack`, per-shard
//!   `LshIndex::candidates_for_sketch` and `BbitFingerprint::estimate`
//!   re-rank (shards built the way the service partitions them),
//!   `Service::query`, and the TCP round trip through `wmh_serve::Client`.
//! * Write path: `Service::mutate` per kind, `Service::snapshot`, and
//!   `Wal::append` on a scratch log fed the same records.
//! * Sweep: dataset generation and one `run_mse_with` call per
//!   algorithm.
//! * Sketchers: `sketch_batch_into` at D=128 on the serving corpus.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use wmh_core::others::UpperBounds;
use wmh_core::{Algorithm, AlgorithmConfig, CodeBatch, Sketch, SketchScratch, Sketcher};
use wmh_eval::runner::{run_mse_with, Measurement};
use wmh_lsh::{Bands, LshIndex};
use wmh_serve::{
    BbitFingerprint, Client, Mutation, MutationKind, Outcome, Request, Response, Wal, WalProvenance,
};
use wmh_sets::WeightedSet;

use crate::corpus::Corpus;
use crate::report::{Gate, Line, Refusals};
use crate::serve::{self, D, SHARDS};
use crate::stats::median;
use crate::sweep;
use crate::trace::{Span, Tracer};

/// Requests the query pass decomposes.
pub const QUERY_REQUESTS: usize = 100;
/// Writes the write pass issues (a whole number of insert/stream/delete cycles).
const WRITES: u64 = 60;
/// Automatic snapshot cadence in the write pass, so several fire.
const WRITE_PASS_SNAPSHOT_EVERY: u64 = 20;
/// Explicit `Service::snapshot` calls timed in the write pass.
const SNAPSHOTS: usize = 5;
/// Sketch each algorithm's documents for at least this long.
const SKETCH_BUDGET: Duration = Duration::from_millis(250);
/// Documents per `sketch_batch_into` call in the sketcher pass.
const SKETCH_CHUNK: usize = 4;
/// The stated tolerance: the query-path stage medians plus handoff and
/// TCP must sum to the median round trip within this share of it.
pub const DECOMPOSITION_TOLERANCE: f64 = 0.10;

/// Stages of the query path, in call order, that the round trip is
/// decomposed into (besides `service.handoff` and `server.tcp`).
const STAGES: [&str; 7] = [
    "protocol.encode",
    "protocol.decode",
    "sets.from_pairs",
    "core.sketch",
    "fingerprint.pack",
    "lsh.probe",
    "fingerprint.rerank",
];

/// Per-layer lines plus the gates the passes checked.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per-layer metrics.
    pub lines: Vec<Line>,
    /// Checks made on the way.
    pub gates: Vec<Gate>,
}

/// Durations (µs) of the children of every `root`-named span, summed per
/// child name, one map per root.
fn per_root(spans: &[Span], root: &str) -> Vec<HashMap<String, f64>> {
    let mut index: HashMap<usize, usize> = HashMap::new();
    let mut out: Vec<HashMap<String, f64>> = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        if s.name == root {
            index.insert(id, out.len());
            out.push(HashMap::new());
        } else if let Some(slot) = s.parent.and_then(|p| index.get(&p)) {
            *out[*slot].entry(s.name.clone()).or_default() += s.micros();
        }
    }
    out
}

/// The query-path decomposition of the round trip.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// `(metric name, median µs)` for every stage, then handoff and TCP.
    pub parts: Vec<(String, f64)>,
    /// Median `Service::query` time (µs).
    pub service_query_us: f64,
    /// Median of the measured round trips (µs).
    pub round_trip_us: f64,
}

impl Decomposition {
    /// Sum of the part medians.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.parts.iter().map(|(_, v)| v).sum()
    }

    /// Whether the sum reproduces the round trip within the tolerance.
    #[must_use]
    pub fn holds(&self) -> bool {
        (self.sum() - self.round_trip_us).abs() <= DECOMPOSITION_TOLERANCE * self.round_trip_us
    }

    /// Decompose the per-request child durations of the query pass.
    #[must_use]
    pub fn from_requests(requests: &[HashMap<String, f64>]) -> Self {
        let get = |r: &HashMap<String, f64>, k: &str| r.get(k).copied().unwrap_or(0.0);
        let column = |f: &dyn Fn(&HashMap<String, f64>) -> f64| -> f64 {
            median(&requests.iter().map(f).collect::<Vec<_>>())
        };
        let mut parts: Vec<(String, f64)> =
            STAGES.iter().map(|s| (format!("{s}_us"), column(&|r| get(r, s)))).collect();
        let in_service = [
            "sets.from_pairs",
            "core.sketch",
            "fingerprint.pack",
            "lsh.probe",
            "fingerprint.rerank",
        ];
        parts.push((
            "service.handoff_us".into(),
            column(&|r| {
                get(r, "service.query") - in_service.iter().map(|s| get(r, s)).sum::<f64>()
            }),
        ));
        parts.push((
            "server.tcp_us".into(),
            column(&|r| {
                get(r, "server.round_trip")
                    - get(r, "service.query")
                    - get(r, "protocol.encode")
                    - get(r, "protocol.decode")
            }),
        ));
        Self {
            parts,
            service_query_us: column(&|r| get(r, "service.query")),
            round_trip_us: column(&|r| get(r, "server.round_trip")),
        }
    }
}

type ShardIndex = (LshIndex<Box<dyn Sketcher + Send + Sync>>, HashMap<u64, BbitFingerprint>);

/// Per-shard indexes and fingerprints, partitioned like the service
/// (id mod shards, ascending ids, bands for a 0.5 threshold).
fn shard_indexes(store: &wmh_core::SketchStore, bits: u32) -> Result<Vec<ShardIndex>, String> {
    let bands = Bands::try_for_threshold(D, 0.5).map_err(|e| e.to_string())?;
    let mut ids = store.ids().to_vec();
    ids.sort_unstable();
    let mut shards = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS as u64 {
        let sketcher = Algorithm::Icws
            .build(store.seed(), store.num_hashes(), &AlgorithmConfig::default())
            .map_err(|e| e.to_string())?;
        let mut index = LshIndex::new(sketcher, bands).map_err(|e| e.to_string())?;
        let mut fps = HashMap::new();
        for &id in ids.iter().filter(|&&id| id % SHARDS as u64 == shard) {
            let sketch = store.get(id).map_err(|e| e.to_string())?;
            fps.insert(id, BbitFingerprint::pack(&sketch.codes, bits).map_err(|e| e.to_string())?);
            index.insert_sketch(id, sketch).map_err(|e| e.to_string())?;
        }
        shards.push((index, fps));
    }
    Ok(shards)
}

/// The query pass over `requests` held-out queries.
///
/// # Errors
/// Set-up or layer failures, stringified.
pub fn query_pass(
    corpus: &Corpus,
    seed: u64,
    requests: usize,
    tracer: &Tracer,
) -> Result<(Layers, Refusals), String> {
    let target = serve::setup_read(corpus, seed)?;
    let bits = serve::config().fingerprint_bits;
    let sketcher = Algorithm::Icws
        .build(target.store.seed(), D, &AlgorithmConfig::default())
        .map_err(|e| e.to_string())?;
    let shards = shard_indexes(&target.store, bits)?;
    let mut client = Client::connect(target.server.addr()).map_err(|e| e.to_string())?;
    let (mut candidates, mut kept) = (0usize, 0usize);
    let mut refusals = Refusals::default();
    let mut failures = Vec::new();
    for r in 0..requests as u64 {
        let q = r as usize % corpus.queries.len();
        let request = Request::Query(serve::query_request(r, &corpus.queries[q]));
        let root = tracer.open("query.request", None, r);
        let body = tracer.span("protocol.encode", Some(root), r, || wmh_json::to_string(&request));
        let decoded = tracer
            .span("protocol.decode", Some(root), r, || wmh_json::from_str::<Request>(&body))
            .map_err(|e| e.to_string())?;
        let Request::Query(query) = decoded else { return Err("decoded a non-query".into()) };
        let set = tracer
            .span("sets.from_pairs", Some(root), r, || {
                WeightedSet::from_pairs(query.doc.iter().copied())
            })
            .map_err(|e| e.to_string())?;
        let sketch: Sketch = tracer
            .span("core.sketch", Some(root), r, || sketcher.sketch(&set))
            .map_err(|e| e.to_string())?;
        let fp = tracer
            .span("fingerprint.pack", Some(root), r, || BbitFingerprint::pack(&sketch.codes, bits))
            .map_err(|e| e.to_string())?;
        for (index, fps) in &shards {
            let ids = tracer
                .span("lsh.probe", Some(root), r, || index.candidates_for_sketch(&sketch))
                .map_err(|e| e.to_string())?;
            candidates += ids.len();
            let hits =
                tracer.span("fingerprint.rerank", Some(root), r, || -> Result<_, String> {
                    let mut hits = Vec::with_capacity(ids.len());
                    for id in &ids {
                        let theirs = fps.get(id).ok_or("candidate without fingerprint")?;
                        hits.push((*id, fp.estimate(theirs).map_err(|e| e.to_string())?));
                    }
                    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                    hits.truncate(serve::K);
                    Ok(hits)
                })?;
            std::hint::black_box(hits);
        }
        let answer = tracer.span("service.query", Some(root), r, || target.service.query(&query));
        let response = Response::Query(answer.clone());
        let text = tracer.span("protocol.encode", Some(root), r, || wmh_json::to_string(&response));
        let echoed = tracer
            .span("protocol.decode", Some(root), r, || wmh_json::from_str::<Response>(&text))
            .map_err(|e| e.to_string())?;
        let remote = tracer
            .span("server.round_trip", Some(root), r, || client.query(&query))
            .map_err(|e| e.to_string())?;
        tracer.close(root);
        kept += answer.results.len();
        refusals.add(&answer);
        refusals.add(&remote);
        if answer.outcome != Outcome::Ok || remote != answer || echoed != response {
            failures.push(format!(
                "request {r}: {} / {}",
                answer.outcome.as_str(),
                remote.outcome.as_str()
            ));
        }
    }
    let decomposition = Decomposition::from_requests(&per_root(&tracer.spans(), "query.request"));
    let mut layers = Layers::default();
    let note = format!("median of {requests} requests");
    for (name, v) in &decomposition.parts {
        layers.lines.push(Line::new(name.clone(), *v, "us", note.clone()));
    }
    layers.lines.push(Line::new("service.query_us", decomposition.service_query_us, "us", &note));
    layers.lines.push(Line::new("server.round_trip_us", decomposition.round_trip_us, "us", note));
    layers.lines.push(Line::new(
        "lsh.candidates",
        candidates as f64 / requests as f64,
        "count",
        "mean per query, all shards",
    ));
    layers.lines.push(Line::new(
        "serve.useful_ratio",
        kept as f64 / candidates.max(1) as f64,
        "1",
        format!("{kept} hits kept of {candidates} candidates re-ranked"),
    ));
    layers.gates.push(Gate::new(
        "query pass: in-process, TCP and re-encoded answers agree and are ok",
        failures.is_empty(),
        failures.into_iter().take(3).collect::<Vec<_>>().join("; "),
    ));
    layers.gates.push(Gate::new(
        "serve_read decomposition reproduces the round trip",
        decomposition.holds(),
        format!(
            "stage medians + handoff + tcp = {:.1} us vs round trip {:.1} us (tolerance {:.0}%)",
            decomposition.sum(),
            decomposition.round_trip_us,
            DECOMPOSITION_TOLERANCE * 100.0
        ),
    ));
    Ok((layers, refusals))
}

/// The write pass: [`WRITES`] writes through `Service::mutate`, explicit
/// snapshots, and the same records appended to a scratch WAL.
///
/// # Errors
/// Set-up or layer failures, stringified.
pub fn write_pass(
    corpus: &Corpus,
    seed: u64,
    scratch: &Path,
    tracer: &Tracer,
) -> Result<Layers, String> {
    let target =
        serve::setup_mixed(corpus, seed, &scratch.join("layers-wal"), WRITE_PASS_SNAPSHOT_EVERY)?;
    let service = &target.service;
    let generation = || service.health().snapshot_generation.unwrap_or(0);
    let gen_before = generation();
    let sketcher = Algorithm::DartMinHash
        .build(target.store.seed(), D, &AlgorithmConfig::default())
        .map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for w in 0..WRITES {
        let (kind, request) = serve::write_request(corpus, 0, w);
        let root = tracer.open("write.request", None, w);
        let answer = tracer
            .span(&format!("service.mutate.{kind}"), Some(root), w, || service.mutate(&request));
        tracer.close(root);
        if answer.outcome != Outcome::Ok {
            failures.push(format!(
                "{kind} {}: {} {:?}",
                request.id,
                answer.outcome.as_str(),
                answer.error
            ));
        }
        records.push(match request.kind {
            MutationKind::Insert { doc } => {
                let set = WeightedSet::from_pairs(doc).map_err(|e| e.to_string())?;
                let codes = sketcher.sketch(&set).map_err(|e| e.to_string())?.codes;
                Mutation::Insert { id: request.id, codes }
            }
            MutationKind::Stream { lambda, items } => {
                Mutation::Stream { id: request.id, lambda, items }
            }
            MutationKind::Delete => Mutation::Delete { id: request.id },
        });
    }
    let automatic = generation() - gen_before;
    let root = tracer.open("write.snapshots", None, 0);
    for i in 0..SNAPSHOTS {
        tracer
            .span("snapshot.write", Some(root), i as u64, || service.snapshot())
            .map_err(|e| format!("snapshot: {e}"))?;
    }
    tracer.close(root);

    let provenance = WalProvenance {
        algorithm: target.store.algorithm().to_owned(),
        seed: target.store.seed(),
        num_hashes: D,
    };
    let (mut wal, _, _) = Wal::open(&scratch.join("layers-scratch-wal"), &provenance, 0)
        .map_err(|e| e.to_string())?;
    let bytes_before = wal.len_bytes();
    let root = tracer.open("wal.records", None, 0);
    for (i, record) in records.iter().enumerate() {
        tracer
            .span("wal.append", Some(root), i as u64, || wal.append(record))
            .map_err(|e| e.to_string())?;
    }
    tracer.close(root);
    let bytes_per_write = (wal.len_bytes() - bytes_before) as f64 / records.len() as f64;

    let spans = tracer.spans();
    let durations = |parent_name: &str, name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == parent_name))
            .map(Span::micros)
            .collect()
    };
    let mut layers = Layers::default();
    for kind in ["insert", "stream", "delete"] {
        let xs = durations("write.request", &format!("service.mutate.{kind}"));
        let note = format!("median of {}", xs.len());
        layers.lines.push(Line::new(format!("service.mutate_us.{kind}"), median(&xs), "us", note));
    }
    let appends = durations("wal.records", "wal.append");
    layers.lines.push(Line::new(
        "wal.append_us",
        median(&appends),
        "us",
        format!("median of {}, with fsync", appends.len()),
    ));
    layers.lines.push(Line::new(
        "wal.bytes_per_write",
        bytes_per_write,
        "B",
        format!("{} records", records.len()),
    ));
    let snaps: Vec<f64> =
        durations("write.snapshots", "snapshot.write").iter().map(|us| us / 1e3).collect();
    layers.lines.push(Line::new(
        "snapshot.write_ms",
        median(&snaps),
        "ms",
        format!("median of {SNAPSHOTS} explicit"),
    ));
    layers.lines.push(Line::new(
        "snapshot.count",
        automatic as f64,
        "count",
        format!("automatic, {WRITES} writes at every {WRITE_PASS_SNAPSHOT_EVERY}"),
    ));
    layers.gates.push(Gate::new(
        "write pass: every write answered ok",
        failures.is_empty(),
        failures.into_iter().take(3).collect::<Vec<_>>().join("; "),
    ));
    Ok(layers)
}

/// CPU seconds this process has used (user + system).
fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    let after = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after
    // the command name; /proc reports them in USER_HZ = 100 ticks.
    let ticks =
        |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).ok_or("bad tick field");
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// The sweep pass: dataset generation, then one `run_mse_with` call per
/// algorithm at the benchmark scale.
///
/// # Errors
/// Generator or runner failures, stringified.
pub fn sweep_pass(seed: u64, tracer: &Tracer) -> Result<Layers, String> {
    let scale = sweep::scale(seed);
    let root = tracer.open("sweep.layers", None, 0);
    let t = Instant::now();
    tracer.span("data.generate", Some(root), 0, || sweep::generate(&scale))?;
    let generate_s = t.elapsed().as_secs_f64();
    let mut layers = Layers::default();
    let cpu_before = process_cpu_s()?;
    let wall = Instant::now();
    let mut unmeasured = 0;
    for (i, algorithm) in Algorithm::ALL.iter().enumerate() {
        let t = Instant::now();
        let cells = tracer
            .span(&format!("sweep.{}", algorithm.name()), Some(root), i as u64, || {
                run_mse_with(&scale, &[*algorithm], &sweep::options())
            })
            .map_err(|e| e.to_string())?;
        unmeasured += cells.iter().filter(|c| !matches!(c.mse, Measurement::Value(_))).count();
        layers.lines.push(Line::new(
            format!("sweep.{}_s", algorithm.name()),
            t.elapsed().as_secs_f64(),
            "s",
            format!("{} cells", cells.len()),
        ));
    }
    let cpu_util =
        (process_cpu_s()? - cpu_before) / (wall.elapsed().as_secs_f64() * sweep::THREADS as f64);
    tracer.close(root);
    layers.lines.push(Line::new(
        "par.cpu_util",
        cpu_util,
        "1",
        format!("process CPU / (wall x {} threads)", sweep::THREADS),
    ));
    layers.lines.push(Line::new(
        "data.generate_s",
        generate_s,
        "s",
        format!("{} datasets", scale.datasets.len()),
    ));
    layers.gates.push(Gate::new(
        "sweep pass: every cell measured",
        unmeasured == 0,
        format!("{unmeasured} unmeasured"),
    ));
    Ok(layers)
}

/// The sketcher pass: per-document `sketch_batch_into` cost of every
/// catalog algorithm at D=128 on the serving corpus, each sketching
/// documents in chunks for at least [`SKETCH_BUDGET`] (or all of them).
///
/// # Errors
/// Build or sketch failures, stringified.
pub fn sketcher_pass(corpus: &Corpus, seed: u64, tracer: &Tracer) -> Result<Layers, String> {
    let bounds = UpperBounds::from_sets(corpus.docs.iter()).map_err(|e| e.to_string())?;
    let config = AlgorithmConfig { upper_bounds: Some(bounds), ..AlgorithmConfig::default() };
    let mut layers = Layers::default();
    let mut batch = CodeBatch::new();
    for algorithm in Algorithm::ALL {
        let sketcher = algorithm.build(seed, D, &config).map_err(|e| e.to_string())?;
        let mut scratch = SketchScratch::new();
        let name = format!("core.{}", algorithm.name());
        let root = tracer.open(&name, None, 0);
        let t = Instant::now();
        let mut done = 0;
        while done < corpus.docs.len() && (done == 0 || t.elapsed() < SKETCH_BUDGET) {
            let chunk = &corpus.docs[done..(done + SKETCH_CHUNK).min(corpus.docs.len())];
            tracer
                .span("core.sketch_batch_into", Some(root), done as u64, || {
                    sketcher.sketch_batch_into(chunk, &mut batch, &mut scratch)
                })
                .map_err(|e| format!("{}: {e}", algorithm.name()))?;
            done += chunk.len();
        }
        let per_doc_us = t.elapsed().as_secs_f64() * 1e6 / done as f64;
        tracer.close(root);
        layers.lines.push(Line::new(
            format!("{name}.doc_us"),
            per_doc_us,
            "us",
            format!("{done} docs"),
        ));
    }
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Shape;

    #[test]
    fn serve_read_decomposition_reproduces_the_round_trip() {
        let shape = Shape { bases: 6, variants: 4, queries_per_base: 2, inserts_per_base: 1 };
        let corpus = Corpus::generate(11, shape).expect("corpus");
        let tracer = Tracer::default();
        let (layers, refusals) = query_pass(&corpus, 11, 24, &tracer).expect("query pass");
        let d = Decomposition::from_requests(&per_root(&tracer.spans(), "query.request"));
        assert!(layers.gates.iter().all(|g| g.ok), "{:?}", layers.gates);
        assert!(d.holds(), "parts {:?} sum {} vs round trip {}", d.parts, d.sum(), d.round_trip_us);
        assert_eq!(d.parts.len(), STAGES.len() + 2);
        assert_eq!(refusals.overloaded + refusals.partial, 0);
        // Every request left one root with every stage below it.
        let roots = per_root(&tracer.spans(), "query.request");
        assert_eq!(roots.len(), 24);
        for r in &roots {
            for s in STAGES.iter().chain(&["service.query", "server.round_trip"]) {
                assert!(r.contains_key(*s), "missing {s}");
            }
        }
    }

    #[test]
    fn decomposition_sums_exactly_when_every_request_is_alike() {
        let request: HashMap<String, f64> = [
            ("protocol.encode", 4.0),
            ("protocol.decode", 6.0),
            ("sets.from_pairs", 1.0),
            ("core.sketch", 50.0),
            ("fingerprint.pack", 1.0),
            ("lsh.probe", 2.0),
            ("fingerprint.rerank", 3.0),
            ("service.query", 70.0),
            ("server.round_trip", 200.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        let d = Decomposition::from_requests(&[request.clone(), request]);
        assert_eq!(d.round_trip_us, 200.0);
        assert_eq!(d.sum(), 200.0);
        let part = |n: &str| d.parts.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(part("service.handoff_us"), Some(13.0));
        assert_eq!(part("server.tcp_us"), Some(120.0));
        assert!(d.holds());
    }
}
