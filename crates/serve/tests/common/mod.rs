//! Fixtures shared by the serving test suites: one corpus, one store, one
//! base service configuration, and the probe/mutation scripts the
//! byte-identity checks compare.
//!
//! Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use std::path::PathBuf;
use std::time::Duration;

use wmh_core::{SketchStore, Sketcher};
use wmh_data::PAPER_DATASETS;
use wmh_fault::supervisor::RetryPolicy;
use wmh_serve::{MutationKind, MutationRequest, QueryRequest, Service, ServiceConfig};
use wmh_sets::WeightedSet;

/// Scenario seed: the pinned `WMH_FAULT_SEED` if set, else `0xC1A05`. A
/// malformed value panics instead of quietly running the default.
pub fn seed() -> u64 {
    wmh_fault::seed_from_env().unwrap_or_else(|e| panic!("{e}")).unwrap_or(0xC1A05)
}

/// `n` documents in near-duplicate clusters of 8 over `Syn3E0.24S` bases
/// (scaled preserving overlap): document `i` has its 7 cluster mates as
/// neighbours, so every query answers a ranked list, not only itself.
pub fn corpus(n: usize) -> Vec<WeightedSet> {
    PAPER_DATASETS[2]
        .scaled_down_preserving_overlap(n, 20_000)
        .generate_clusters(7)
        .expect("corpus")
        .docs
}

/// A store of `docs` sketched with ICWS at D=128, document `i` under id `i`.
pub fn store_for(docs: &[WeightedSet]) -> SketchStore {
    let sketcher = wmh_core::cws::Icws::new(9, 128);
    let mut store = SketchStore::new();
    for (id, doc) in docs.iter().enumerate() {
        store.insert(id as u64, &sketcher.sketch(doc).expect("sketch")).expect("insert");
    }
    store
}

/// Generous default deadline so healthy-path tests never flake on a slow
/// machine; individual tests force misses with explicit zero budgets.
pub fn config(shards: usize) -> ServiceConfig {
    ServiceConfig { shards, default_deadline_us: 5_000_000, ..ServiceConfig::default() }
}

/// Backoffs in microseconds, not milliseconds, so deliberately exhausted
/// retry budgets do not dominate a soak's wall clock.
pub fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(2),
    }
}

/// A top-10 query for `doc` with a 2 s budget.
pub fn query(doc: &WeightedSet, id: u64) -> QueryRequest {
    QueryRequest { id, doc: doc.iter().collect(), k: 10, deadline_us: Some(2_000_000) }
}

/// Probe responses as rendered wire JSON — the byte-identity currency.
pub fn probe(service: &Service, docs: &[WeightedSet]) -> Vec<String> {
    docs.iter()
        .enumerate()
        .map(|(i, doc)| wmh_json::to_string(&service.query(&query(doc, i as u64))))
        .collect()
}

/// A fresh per-test scratch directory under the OS temp dir.
pub fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wmh-serve-test-{label}-{}-{:x}",
        std::process::id(),
        seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The soaks' mutation mix: inserts of fresh ids, streaming creates and
/// drifts, deletes chasing earlier inserts — deterministic given `n`.
pub fn script(docs: &[WeightedSet], n: usize) -> Vec<MutationRequest> {
    let base = 1_000_000u64;
    (0..n)
        .map(|i| {
            let doc: Vec<(u64, f64)> = docs[i % docs.len()].iter().collect();
            let (id, kind) = match i % 4 {
                0 => (base + i as u64, MutationKind::Insert { doc }),
                1 => (
                    base + 500_000 + (i / 8) as u64,
                    MutationKind::Stream { lambda: 0.5, items: doc },
                ),
                2 => (base + (i - 2) as u64, MutationKind::Delete),
                _ => (
                    base + 500_000 + (i / 8) as u64,
                    MutationKind::Stream { lambda: 0.9, items: doc },
                ),
            };
            MutationRequest { id, kind, deadline_us: Some(5_000_000) }
        })
        .collect()
}

/// Assert that each of `probes` (rendered query responses) answered at
/// least 5 hits: the identity checks compare ranked lists, not the query's
/// lone self-match.
pub fn assert_ranked(probes: &[String]) {
    for (i, text) in probes.iter().enumerate() {
        let response: wmh_serve::QueryResponse = wmh_json::from_str(text).expect("probe decodes");
        assert!(response.results.len() >= 5, "probe {i} ranked too few hits: {response:?}");
    }
}
