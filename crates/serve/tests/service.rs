//! Integration tests over real loopback TCP: every request terminates in a
//! typed outcome, sharding is invisible in results, and the overload hint
//! follows the supervisor's seeded jitter envelope.

mod common;

use std::sync::Arc;

use common::{config, corpus, query, store_for};
use wmh_serve::{
    wire, Client, Outcome, QueryRequest, Response, Server, Service, ServiceConfig, Writes,
};

#[test]
fn typed_outcomes_over_tcp() {
    let docs = corpus(48);
    let store = store_for(&docs);
    let service = Arc::new(Service::from_store(&store, config(4)).expect("service"));
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let health = client.health().expect("health");
    assert!(health.ready, "{health:?}");
    assert_eq!(health.indexed, docs.len());
    assert_eq!(health.shards_quarantined, 0);
    assert_eq!(health.writes, Writes::NoWal, "no WAL, no writes: {health:?}");

    let ok = client.query(&query(&docs[0], 1)).expect("query");
    assert_eq!(ok.outcome, Outcome::Ok, "{ok:?}");
    assert_eq!(ok.results.first(), Some(&(0u64, 1.0f64)), "self-match must lead: {ok:?}");
    assert_eq!(ok.shards_answered, ok.shards_total);
    assert!(ok.error.is_none());

    let miss =
        client.query(&QueryRequest { deadline_us: Some(0), ..query(&docs[1], 2) }).expect("query");
    assert_eq!(miss.outcome, Outcome::DeadlineExceeded, "{miss:?}");
    assert!(miss.results.is_empty());

    let bad = client
        .query(&QueryRequest { id: 3, doc: Vec::new(), k: 10, deadline_us: None })
        .expect("query");
    assert_eq!(bad.outcome, Outcome::BadRequest, "{bad:?}");
    assert!(bad.error.is_some());

    // The connection survives all three verdicts: outcomes are data, not
    // transport failures.
    let again = client.query(&query(&docs[0], 4)).expect("query");
    assert_eq!(again.outcome, Outcome::Ok);
}

/// A service opened over a write-ahead log reports its writes `open`
/// over the wire.
#[test]
fn wal_backed_service_reports_writes_open() {
    let docs = corpus(24);
    let dir = common::scratch("writes-open");
    let service =
        Arc::new(Service::open(&store_for(&docs), &dir.join("wal"), config(2)).expect("service"));
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server");
    let health = Client::connect(server.addr()).expect("connect").health().expect("health");
    assert_eq!(health.writes, Writes::Open, "{health:?}");
    server.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn malformed_json_gets_typed_bad_request() {
    let docs = corpus(24);
    let service = Arc::new(Service::from_store(&store_for(&docs), config(2)).expect("service"));
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    wire::write_frame(&mut stream, "this is not json").expect("write");
    let body = wire::read_frame(&mut stream).expect("read").expect("reply");
    let reply: Response = wmh_json::from_str(&body).expect("decode");
    match reply {
        Response::Query(response) => {
            assert_eq!(response.outcome, Outcome::BadRequest, "{response:?}");
            let error = response.error.expect("error detail");
            assert!(error.contains("malformed request"), "{error}");
        }
        Response::Health(h) => panic!("health reply to garbage: {h:?}"),
        Response::Mutation(m) => panic!("mutation reply to garbage: {m:?}"),
    }
}

/// The core serving claim: partitioning the corpus across shards must not
/// change what a query returns. One shard and four shards see the same
/// banded index contents in aggregate, so results are identical.
#[test]
fn sharding_is_invisible_in_results() {
    let docs = corpus(48);
    let store = store_for(&docs);
    let single = Service::from_store(&store, config(1)).expect("1-shard");
    let sharded = Service::from_store(&store, config(4)).expect("4-shard");
    for (i, doc) in docs.iter().take(12).enumerate() {
        let lone = single.query(&query(doc, i as u64));
        let wide = sharded.query(&query(doc, i as u64));
        assert_eq!(lone.outcome, Outcome::Ok, "{lone:?}");
        assert_eq!(wide.outcome, Outcome::Ok, "{wide:?}");
        assert!(lone.results.len() >= 5, "query {i} ranked too few hits: {lone:?}");
        assert_eq!(lone.results, wide.results, "query {i}: sharding changed results");
    }
}

#[test]
fn overload_hint_follows_backoff_jitter_envelope() {
    let docs = corpus(24);
    let store = store_for(&docs);
    let choked = ServiceConfig { max_inflight: 0, ..config(2) };
    let service = Service::from_store(&store, choked).expect("service");
    let base = service.config().retry.base_backoff;
    for i in 0..8u64 {
        let response = service.query(&query(&docs[i as usize], i));
        assert_eq!(response.outcome, Outcome::Overloaded, "{response:?}");
        let hint = u128::from(response.retry_after_us);
        // First-attempt backoff is base x jitter in [0.5, 1.0].
        assert!(
            hint >= base.as_micros() / 2 && hint <= base.as_micros(),
            "retry_after {hint}us outside [{}/2, {}]us",
            base.as_micros(),
            base.as_micros()
        );
    }
}

#[test]
fn concurrent_clients_all_get_typed_ok() {
    let docs = corpus(48);
    let service = Arc::new(Service::from_store(&store_for(&docs), config(4)).expect("service"));
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server");
    let addr = server.addr();
    wmh_check::stress::hammer(8, 6, |t, i| {
        let mut client = Client::connect(addr).expect("connect");
        let doc = &docs[(t * 7 + i) % docs.len()];
        let response = client.query(&query(doc, (t * 100 + i) as u64)).expect("query");
        assert_eq!(response.outcome, Outcome::Ok, "thread {t} iter {i}: {response:?}");
        assert_eq!(response.shards_answered, response.shards_total);
        for pair in response.results.windows(2) {
            assert!(
                pair[0].1 >= pair[1].1,
                "thread {t} iter {i}: results out of order: {response:?}"
            );
        }
    });
    assert_eq!(service.health().inflight, 0, "in-flight gauge must drain to zero");
}

/// Round trips over loopback must cost the server's work, not a
/// Nagle/delayed-ACK stall: a frame whose prefix and body leave in two
/// writes, or a stream without `TCP_NODELAY`, waits ~40 ms on the peer's
/// delayed ACK every round trip. The 20 ms bound sits far below that floor
/// and far above an idle host's real cost (a few ms per query), so it
/// needs no finer timing than a median.
#[test]
fn loopback_round_trips_stay_below_the_delayed_ack_floor() {
    let docs = corpus(24);
    let service = Arc::new(Service::from_store(&store_for(&docs), config(2)).expect("service"));
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let median_ms = |mut samples: Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };

    let health: Vec<f64> = (0..20)
        .map(|_| {
            let start = std::time::Instant::now();
            assert!(client.health().expect("health").ready);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let queries: Vec<f64> = (0..20u64)
        .map(|i| {
            let start = std::time::Instant::now();
            let response = client.query(&query(&docs[i as usize], i)).expect("query");
            assert_eq!(response.outcome, Outcome::Ok, "{response:?}");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let (health_ms, query_ms) = (median_ms(health), median_ms(queries));
    assert!(health_ms < 20.0, "health round-trip median {health_ms:.2} ms");
    assert!(query_ms < 20.0, "query round-trip median {query_ms:.2} ms");
}
