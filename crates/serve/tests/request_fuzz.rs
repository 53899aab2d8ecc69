//! The request decoder is total: whatever bytes a peer sends, the frame
//! reader plus the JSON decoder end in a frame, a clean end of stream, or a
//! typed error — never a panic, an over-allocation or a hung handler.
//!
//! `WMH_CHECK_CASES` scales the fuzz: `scripts/ci.sh`'s full mode exports
//! 6, which runs the 10k-case default, and `--quick` exports 2.

mod common;

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wmh_check::chaos::ChaosBuf;
use wmh_check::{ensure, run_cases, Gen};
use wmh_serve::wire::{self, WireError, MAX_FRAME};
use wmh_serve::{
    Client, MutationKind, MutationRequest, Outcome, QueryRequest, Request, Response, Server,
    Service,
};

/// Fuzz cases: 10k at the full-CI scale, proportionally fewer below it.
fn cases() -> usize {
    std::env::var("WMH_CHECK_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(10_000, |n| (n * 10_000 / 6).max(500))
}

fn doc(g: &mut Gen) -> Vec<(u64, f64)> {
    (0..g.range_usize(0, 12))
        .map(|i| (i as u64 * 3 + g.below(3), g.range_f64(0.01, 50.0)))
        .collect()
}

/// One well-formed request of every kind the protocol carries.
fn request(g: &mut Gen) -> Request {
    let id = g.u64();
    let deadline_us = g.bool(0.5).then(|| g.below(10_000_000));
    match g.below(5) {
        0 => Request::Health,
        1 => Request::Query(QueryRequest { id, doc: doc(g), k: g.range_usize(1, 20), deadline_us }),
        2 => Request::Mutate(MutationRequest {
            id,
            kind: MutationKind::Insert { doc: doc(g) },
            deadline_us,
        }),
        3 => Request::Mutate(MutationRequest { id, kind: MutationKind::Delete, deadline_us }),
        _ => Request::Mutate(MutationRequest {
            id,
            kind: MutationKind::Stream { lambda: g.unit(), items: doc(g) },
            deadline_us,
        }),
    }
}

/// A stream of 1–3 framed requests, and the requests it carries.
fn framed(g: &mut Gen) -> (Vec<u8>, Vec<Request>) {
    let requests: Vec<Request> = (0..g.range_usize(1, 3)).map(|_| request(g)).collect();
    let mut bytes = Vec::new();
    for r in &requests {
        wire::write_frame(&mut bytes, &wmh_json::to_string(r)).expect("in-memory write");
    }
    (bytes, requests)
}

/// Read frames until the stream ends or a frame fails, decoding each body
/// as a [`Request`] the way the server does. Returns the decoded requests
/// and how the stream ended (`None` for a clean end).
fn drain(mut bytes: &[u8]) -> (Vec<Result<Request, String>>, Option<WireError>) {
    let mut decoded = Vec::new();
    loop {
        match wire::read_frame(&mut bytes) {
            Ok(Some(body)) => {
                decoded.push(wmh_json::from_str::<Request>(&body).map_err(|e| e.to_string()));
            }
            Ok(None) => return (decoded, None),
            Err(e) => return (decoded, Some(e)),
        }
    }
}

/// Untouched frames are the control: they decode back to what was sent.
#[test]
fn pristine_frames_decode_to_their_requests() {
    run_cases(cases() / 10, |g| {
        let (bytes, requests) = framed(g);
        let (decoded, end) = drain(&bytes);
        ensure!(end.is_none(), "pristine stream ended in {end:?}");
        let decoded: Vec<Request> = decoded.into_iter().collect::<Result<_, _>>()?;
        ensure!(decoded == requests, "round trip changed the requests");
        Ok(())
    });
}

/// Bit flips, truncations and garbage suffixes: every input ends in
/// frames, a clean end or a typed error, and never panics.
#[test]
fn chaos_frames_end_in_typed_results() {
    run_cases(cases(), |g| {
        let (bytes, _) = framed(g);
        let mut buf = ChaosBuf::new(bytes);
        for _ in 0..g.range_usize(1, 4) {
            buf.corrupt(g);
        }
        let (decoded, end) = drain(buf.as_slice());
        ensure!(
            decoded.len() <= buf.as_slice().len() / 4,
            "{} frames out of {} bytes after {:?}",
            decoded.len(),
            buf.as_slice().len(),
            buf.mutations()
        );
        ensure!(
            !matches!(end, Some(WireError::Io(_))),
            "an in-memory read failed with I/O after {:?}: {end:?}",
            buf.mutations()
        );
        Ok(())
    });
}

/// A prefix above the cap is refused before its body is read or allocated,
/// whatever follows it.
#[test]
fn oversized_prefixes_are_refused() {
    run_cases(cases(), |g| {
        let (mut bytes, _) = framed(g);
        let len = g.range_u64(u64::from(MAX_FRAME) + 1, u64::from(u32::MAX));
        let len = u32::try_from(len).map_err(|e| e.to_string())?;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let mut buf = ChaosBuf::new(bytes);
        if g.bool(0.5) {
            buf.garbage_suffix(g, 64);
        }
        let (decoded, end) = drain(buf.as_slice());
        ensure!(decoded.is_empty(), "decoded a frame behind an oversized prefix");
        ensure!(matches!(end, Some(WireError::TooLarge(l)) if l == len), "ended in {end:?}");
        Ok(())
    });
}

fn service() -> Arc<Service> {
    let store = common::store_for(&common::corpus(24));
    Arc::new(Service::from_store(&store, common::config(2)).expect("service"))
}

/// How a hostile connection's replies went, after it sent its bytes and
/// closed its write half.
#[derive(Debug, PartialEq)]
struct Replies {
    /// Per reply, in order: whether it was the `bad_request` answer to a
    /// body that did not decode as a request.
    bad_request: Vec<bool>,
    /// The server reset rather than finished the stream, which it does
    /// when it closes with input still unread.
    reset: bool,
}

fn hostile(addr: std::net::SocketAddr, bytes: &[u8]) -> Result<Replies, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // A handler that stops answering fails the test instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    // The server may close mid-send once it gives up on the framing.
    if stream.write_all(bytes).is_ok() {
        let _ = stream.shutdown(Shutdown::Write);
    }
    let mut bad_request = Vec::new();
    loop {
        match wire::read_frame(&mut stream) {
            Ok(Some(body)) => {
                let reply: Response = wmh_json::from_str(&body).map_err(|e| e.to_string())?;
                bad_request.push(matches!(reply, Response::Query(ref r)
                    if r.outcome == Outcome::BadRequest
                        && r.error.as_deref().is_some_and(|e| e.contains("malformed request"))));
            }
            Ok(None) => return Ok(Replies { bad_request, reset: false }),
            Err(WireError::Io(e))
                if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) =>
            {
                return Ok(Replies { bad_request, reset: true });
            }
            Err(e) => return Err(format!("server did not close cleanly: {e}")),
        }
    }
}

/// Replies `bad_request` to each of `bad_requests` frames, then a clean
/// close.
fn closed_after(bad_requests: usize) -> Result<Replies, String> {
    Ok(Replies { bad_request: vec![true; bad_requests], reset: false })
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut bytes = u32::try_from(body.len()).expect("small").to_le_bytes().to_vec();
    bytes.extend_from_slice(body);
    bytes
}

/// Releases the well-formed client's loop, also when an assertion unwinds.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Garbage and truncated frames get `bad_request` or a close on their own
/// connection, while a well-formed client beside them keeps getting `ok`.
#[test]
fn garbage_connections_do_not_disturb_a_well_formed_client() {
    let service = service();
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server");
    let addr = server.addr();
    let query = QueryRequest {
        id: 1,
        doc: (0..40).map(|i| (i * 7, 1.0 + (i % 5) as f64)).collect(),
        k: 10,
        deadline_us: Some(2_000_000),
    };
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let good = s.spawn(|| {
            let mut client = Client::connect(addr).expect("connect");
            let mut answered = 0usize;
            while !done.load(Ordering::Acquire) || answered < 20 {
                let response = client.query(&query).expect("query");
                assert_eq!(response.outcome, Outcome::Ok, "{response:?}");
                answered += 1;
            }
            answered
        });

        let stop = StopOnDrop(&done);
        // Fixed shapes: each must end in exactly the stated way.
        let not_json = frame(b"this is not json");
        assert_eq!(hostile(addr, &not_json), closed_after(1), "non-JSON body");
        let twice = [not_json.clone(), not_json].concat();
        assert_eq!(hostile(addr, &twice), closed_after(2), "two non-JSON bodies");
        assert_eq!(hostile(addr, &frame(&[0xFF, 0xFE, 0x00])), closed_after(0), "non-UTF-8");
        assert_eq!(hostile(addr, &u32::MAX.to_le_bytes()), closed_after(0), "oversized prefix");
        assert_eq!(hostile(addr, &[7, 0]), closed_after(0), "torn prefix");
        let torn_body = &frame(&[b'{'; 64])[..20];
        assert_eq!(hostile(addr, torn_body), closed_after(0), "torn body");

        // Chaos-mutated frames and raw garbage: the server answers the
        // frames it can read, in order — `bad_request` exactly where the
        // body does not decode — and then closes.
        let mut g = Gen::new(0x5EED_F00D);
        for case in 0..64 {
            let bytes = if case % 2 == 0 {
                let (bytes, _) = framed(&mut g);
                let mut buf = ChaosBuf::new(bytes);
                for _ in 0..g.range_usize(1, 4) {
                    buf.corrupt(&mut g);
                }
                buf.into_bytes()
            } else {
                g.bytes(256)
            };
            let replies = hostile(addr, &bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
            let expected: Vec<bool> = drain(&bytes).0.iter().map(Result::is_err).collect();
            // A reset may cut the replies short; a clean close may not.
            let n = replies.bad_request.len();
            assert!(
                n <= expected.len() && (replies.reset || n == expected.len()),
                "case {case}: {replies:?} for frames {expected:?}"
            );
            assert_eq!(replies.bad_request, expected[..n], "case {case}");
        }
        drop(stop);
        let answered = good.join().expect("well-formed client");
        assert!(answered >= 20, "well-formed client answered {answered}");
    });
    assert_eq!(service.health().inflight, 0, "in-flight gauge must drain to zero");
}
