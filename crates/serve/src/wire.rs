//! Length-prefixed framing: `u32` little-endian body length, then that
//! many bytes of UTF-8 JSON.
//!
//! One frame, one write: [`write_frame`] assembles the prefix and the body
//! in one buffer and hands it to the transport in a single `write_all`,
//! and both ends set `TCP_NODELAY` ([`crate::Client::connect`] and the
//! server's accepted streams). A prefix sent as its own small segment would
//! otherwise hold the body behind Nagle's algorithm until the peer's
//! delayed ACK fires — ~40 ms per frame on Linux, two per round trip.
//!
//! The frame layer is deliberately dumb — it knows lengths, not JSON — so
//! its failure modes are few and typed: a peer that closes between frames
//! is a clean `None`, a peer that closes mid-frame is [`WireError::Truncated`],
//! and a length prefix beyond [`MAX_FRAME`] is rejected *before* any
//! allocation, so a hostile or corrupt prefix cannot balloon memory.

use std::io::{ErrorKind, Read, Write};

/// Hard cap on a single frame body (16 MiB).
pub const MAX_FRAME: u32 = 16 << 20;

/// Errors from the framing layer.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// A length prefix above [`MAX_FRAME`].
    TooLarge(u32),
    /// The peer closed the stream mid-frame.
    Truncated {
        /// Bytes the frame promised.
        wanted: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The body was not valid UTF-8.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wire I/O failed: {e}"),
            Self::TooLarge(len) => write!(f, "frame length {len} exceeds cap {MAX_FRAME}"),
            Self::Truncated { wanted, got } => {
                write!(f, "stream closed mid-frame: wanted {wanted} bytes, got {got}")
            }
            Self::Malformed(e) => write!(f, "frame body is not UTF-8: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Write one frame — 4-byte little-endian length, then the body — with a
/// single `write_all` of one buffer, so the transport never sees the
/// prefix on its own.
///
/// # Errors
/// [`WireError::TooLarge`] for oversized bodies (checked before anything
/// is allocated); [`WireError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, body: &str) -> Result<(), WireError> {
    let len = u32::try_from(body.len()).map_err(|_| WireError::TooLarge(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body.as_bytes());
    w.write_all(&frame).map_err(WireError::Io)?;
    w.flush().map_err(WireError::Io)
}

/// Read one frame; `Ok(None)` when the peer closed cleanly between frames.
///
/// # Errors
/// [`WireError::Truncated`] on a mid-frame close, [`WireError::TooLarge`]
/// for an oversized prefix, [`WireError::Malformed`] for non-UTF-8 bodies,
/// [`WireError::Io`] on transport failure.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, WireError> {
    let mut len_buf = [0u8; 4];
    if !fill(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    let mut body = vec![0u8; len as usize];
    if !fill(r, &mut body)? {
        return Err(WireError::Truncated { wanted: len as usize, got: 0 });
    }
    String::from_utf8(body).map(Some).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Fill `buf` completely. `Ok(false)` when the stream ended *before the
/// first byte* — the clean-close signal; a later EOF is [`WireError::Truncated`].
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(WireError::Truncated { wanted: buf.len(), got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_frames_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "first").expect("write");
        write_frame(&mut buf, "").expect("write");
        write_frame(&mut buf, "川 second").expect("write");
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).expect("read"), Some("first".to_owned()));
        assert_eq!(read_frame(&mut r).expect("read"), Some(String::new()));
        assert_eq!(read_frame(&mut r).expect("read"), Some("川 second".to_owned()));
        assert_eq!(read_frame(&mut r).expect("read"), None, "clean EOF");
    }

    /// Counts `write` calls; accepts every byte it is offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A prefix written on its own is what lets Nagle's algorithm hold the
    /// body back for a delayed ACK: one frame must be one `write` call.
    #[test]
    fn one_frame_is_one_write() {
        for body in ["", "x", "{\"op\":\"health\"}", &"q".repeat(70_000)] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, body).expect("write");
            assert_eq!(w.writes, 1, "body of {} bytes took {} writes", body.len(), w.writes);
            assert_eq!(read_frame(&mut w.bytes.as_slice()).expect("read"), Some(body.to_owned()));
        }
    }

    #[test]
    fn oversized_body_is_rejected_before_any_write() {
        let body = "x".repeat(MAX_FRAME as usize + 1);
        let mut w = CountingWriter::default();
        assert!(matches!(write_frame(&mut w, &body), Err(WireError::TooLarge(_))));
        assert_eq!(w.writes, 0);
    }

    #[test]
    fn truncated_frames_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello world").expect("write");
        // Cut the body short.
        buf.truncate(4 + 5);
        let mut r = buf.as_slice();
        assert!(matches!(read_frame(&mut r), Err(WireError::Truncated { wanted: 11, got: 5 })));
        // Cut inside the length prefix itself.
        let mut r = &buf[..2];
        assert!(matches!(read_frame(&mut r), Err(WireError::Truncated { wanted: 4, got: 2 })));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = buf.as_slice();
        assert!(matches!(read_frame(&mut r), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn non_utf8_body_is_typed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = buf.as_slice();
        assert!(matches!(read_frame(&mut r), Err(WireError::Malformed(_))));
    }
}
