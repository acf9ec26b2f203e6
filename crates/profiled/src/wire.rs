//! Length-prefixed message framing and the request/response byte codes.
//!
//! Every message on a profile-service connection is
//! `u32 big-endian length | length bytes`. Requests open with an op
//! byte, responses with a status byte:
//!
//! ```text
//! request  := OP_PUSH       | codec frame     -- fold a frame in
//!           | OP_PULL                          -- fetch merged snapshot
//!           | OP_STATS                         -- fetch ingestion counters
//!           | OP_EPOCH                         -- advance the decay epoch
//!           | OP_PULL_CHUNK | u32 page (BE)    -- fetch one snapshot page
//!           | OP_PUSH_SEQ   | u64 client (BE) | u64 seq (BE) | codec frame
//!           | OP_METRICS                       -- fetch telemetry exposition
//!           | OP_PLAN                          -- fetch the fleet inlining plan
//! response := ST_OK    | payload               -- op-specific payload
//!           | ST_ERR   | utf-8 reason
//! ```
//!
//! `OP_PULL_CHUNK` pages a merged snapshot whose encoding exceeds
//! `max_frame_bytes`: the reply payload is
//! `u32 total_pages (BE) | u32 page (BE) | chunk bytes`, and
//! concatenating the chunks of pages `0..total_pages` yields the exact
//! snapshot frame `OP_PULL` would have carried. Requesting page 0
//! (re)captures a consistent snapshot for the connection; later pages
//! are served from that capture, so pagination never observes a torn
//! merge.
//!
//! `OP_PUSH_SEQ` is the exactly-once push used by the resilient client:
//! the server remembers the highest sequence applied per client id and
//! acknowledges — without re-applying — any frame at or below it
//! (payload `applied` vs `duplicate`), which makes blind retries of a
//! maybe-delivered frame safe.
//!
//! The reader enforces a maximum frame length *before* allocating, so a
//! hostile or corrupt length prefix cannot balloon memory; oversized and
//! malformed messages are surfaced as errors the server answers with
//! `ST_ERR` and a connection close — never a crash.

use std::io::{self, IoSlice, Read, Write};

/// Push one codec frame (body: the frame bytes).
pub const OP_PUSH: u8 = 1;
/// Request the merged snapshot (no body; response body: snapshot frame).
pub const OP_PULL: u8 = 2;
/// Request ingestion counters (no body; response body: `key=value` lines).
pub const OP_STATS: u8 = 3;
/// Advance the epoch clock (no body; response body: new epoch, decimal).
pub const OP_EPOCH: u8 = 4;
/// Request one page of the merged snapshot (body: `u32` page index,
/// big-endian; response body: `u32` total pages | `u32` page | chunk).
pub const OP_PULL_CHUNK: u8 = 5;
/// Push one codec frame exactly once (body: `u64` client id | `u64`
/// sequence | frame bytes, ids big-endian; response body: `applied` or
/// `duplicate`).
pub const OP_PUSH_SEQ: u8 = 6;
/// Request the process-wide telemetry exposition (no body; response
/// body: the versioned `cbs-telemetry` text format, utf-8).
pub const OP_METRICS: u8 = 7;
/// Request the fleet inlining plan built from the merged snapshot (no
/// body; response body: a `CBSI` plan frame, served from the
/// generation-keyed cache so an unchanged aggregate answers
/// byte-identically).
pub const OP_PLAN: u8 = 8;

/// Fixed bytes of an `OP_PULL_CHUNK` reply besides the chunk itself:
/// status byte + total-pages word + page word.
pub const CHUNK_REPLY_OVERHEAD: usize = 1 + 4 + 4;

/// Success status byte.
pub const ST_OK: u8 = 0;
/// Error status byte (payload: utf-8 reason).
pub const ST_ERR: u8 = 1;

/// Limits and timeouts for one side of a profile-service connection.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Largest accepted message payload, in bytes. Both sides enforce it
    /// on reads; the server also refuses to send a snapshot above it.
    pub max_frame_bytes: usize,
    /// Server-side cap on concurrently served connections; excess
    /// connections receive `ST_ERR busy` and are closed (backpressure).
    pub max_inflight: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: std::time::Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: std::time::Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_frame_bytes: 64 << 20,
            max_inflight: 64,
            read_timeout: std::time::Duration::from_secs(10),
            write_timeout: std::time::Duration::from_secs(10),
        }
    }
}

/// Reads one length-prefixed message.
///
/// Returns `Ok(None)` on clean end-of-stream (the peer closed between
/// messages).
///
/// # Errors
///
/// I/O failures, truncation mid-message, and length prefixes above
/// `max_frame_bytes` (surfaced as [`io::ErrorKind::InvalidData`]).
pub fn read_msg(r: &mut impl Read, max_frame_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut buf = Vec::new();
    Ok(read_msg_into(r, max_frame_bytes, &mut buf)?.map(|_| buf))
}

/// Reads one length-prefixed message into a caller-owned buffer,
/// returning its length.
///
/// This is the pooled variant of [`read_msg`]: `buf` is cleared and
/// refilled, retaining its capacity across calls, so a connection loop
/// reading into the same buffer allocates nothing once the buffer has
/// grown to the connection's working frame size. Returns `Ok(None)` on
/// clean end-of-stream (the peer closed between messages); `buf` is
/// left empty then.
///
/// # Errors
///
/// I/O failures, truncation mid-message, and length prefixes above
/// `max_frame_bytes` (surfaced as [`io::ErrorKind::InvalidData`]).
pub fn read_msg_into(
    r: &mut impl Read,
    max_frame_bytes: usize,
    buf: &mut Vec<u8>,
) -> io::Result<Option<usize>> {
    buf.clear();
    let mut len_buf = [0u8; 4];
    // A clean EOF is only clean on the first header byte.
    match r.read(&mut len_buf[..1])? {
        0 => return Ok(None),
        1 => {}
        _ => unreachable!("read of a 1-byte buffer returns 0 or 1"),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message of {len} bytes exceeds the {max_frame_bytes}-byte frame limit"),
        ));
    }
    // Every read asks for the whole remainder, as `read_exact` does.
    // Reading into spare capacity instead (`take(len).read_to_end`)
    // skips this zero-fill but starts at 8 KiB reads that double, so
    // its read sizes follow arrival timing; it measured slower on
    // loopback at 60 KB and 0.9 MB.
    buf.resize(len, 0);
    let mut got = 0;
    while got < len {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                buf.truncate(got);
                return Err(e);
            }
        }
    }
    if got != len {
        buf.truncate(got);
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("message truncated after {got} of {len} bytes"),
        ));
    }
    Ok(Some(len))
}

/// Writes one length-prefixed message built from `parts` (concatenated),
/// flushing afterwards.
///
/// The length prefix and the parts go out as one vectored write — one
/// `writev` for a socket that takes the whole message — and the parts
/// are never copied: a cached megabyte reply is written from where it
/// lies. A short write resumes where it stopped.
///
/// # Errors
///
/// I/O failures, and a combined length above `u32::MAX`.
pub fn write_msg(w: &mut impl Write, parts: &[&[u8]]) -> io::Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let len32 = u32::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "message exceeds u32 length"))?;
    let head = len32.to_be_bytes();
    let mut slices: Vec<IoSlice<'_>> = std::iter::once(&head[..])
        .chain(parts.iter().copied())
        .map(IoSlice::new)
        .collect();
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn messages_round_trip() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &[&[OP_PUSH], b"payload"]).unwrap();
        write_msg(&mut buf, &[&[]]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_msg(&mut cur, 1024).unwrap().unwrap(), b"\x01payload");
        assert_eq!(read_msg(&mut cur, 1024).unwrap().unwrap(), b"");
        assert_eq!(read_msg(&mut cur, 1024).unwrap(), None, "clean EOF");
    }

    #[test]
    fn read_msg_into_reuses_the_buffer_across_messages() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &[b"a longer first message"]).unwrap();
        write_msg(&mut buf, &[b"short"]).unwrap();
        let mut cur = Cursor::new(buf);
        let mut pooled = Vec::new();
        assert_eq!(
            read_msg_into(&mut cur, 1024, &mut pooled).unwrap(),
            Some(22)
        );
        assert_eq!(pooled, b"a longer first message");
        let cap = pooled.capacity();
        assert_eq!(read_msg_into(&mut cur, 1024, &mut pooled).unwrap(), Some(5));
        assert_eq!(pooled, b"short");
        assert_eq!(pooled.capacity(), cap, "buffer capacity is retained");
        assert_eq!(read_msg_into(&mut cur, 1024, &mut pooled).unwrap(), None);
        assert!(pooled.is_empty(), "clean EOF leaves the buffer empty");
    }

    #[test]
    fn read_msg_into_reports_a_truncated_body_as_unexpected_eof() {
        let mut wire = Vec::new();
        write_msg(&mut wire, &[b"a message cut short"]).unwrap();
        let mut pooled = b"stale bytes from an earlier message".to_vec();
        for cut in 4..wire.len() {
            let err = read_msg_into(&mut Cursor::new(&wire[..cut]), 1024, &mut pooled)
                .expect_err("a short body must error");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            assert_eq!(pooled, &wire[4..cut], "cut at {cut}: only the body read");
        }
        // The same buffer still reads a whole message afterwards.
        let got = read_msg_into(&mut Cursor::new(&wire), 1024, &mut pooled).unwrap();
        assert_eq!(got, Some(wire.len() - 4));
        assert_eq!(pooled, b"a message cut short");
    }

    /// Takes at most `step` bytes a call (zero makes every write short),
    /// and is interrupted once before its first byte.
    struct Trickle {
        wire: Vec<u8>,
        step: usize,
        interrupted: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.step);
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_resume_where_they_stopped() {
        let parts: [&[u8]; 5] = [&[ST_OK], b"", b"payload", b"", b"tail"];
        let mut whole = Vec::new();
        write_msg(&mut whole, &parts).unwrap();
        assert_eq!(&whole[..4], &12u32.to_be_bytes());
        for step in [1, 2, 3, 5, 64] {
            let mut w = Trickle {
                wire: Vec::new(),
                step,
                interrupted: false,
            };
            write_msg(&mut w, &parts).unwrap();
            assert_eq!(w.wire, whole, "step {step}");
        }
        let mut stuck = Trickle {
            wire: Vec::new(),
            step: 0,
            interrupted: true,
        };
        let err = write_msg(&mut stuck, &parts).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // Claims 4 GiB-ish with no body.
        let buf = u32::MAX.to_be_bytes().to_vec();
        let err = read_msg(&mut Cursor::new(buf), 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_mid_message_is_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &[b"hello"]).unwrap();
        for cut in 1..buf.len() {
            let got = read_msg(&mut Cursor::new(&buf[..cut]), 1024);
            assert!(got.is_err(), "cut at {cut} must error, got {got:?}");
        }
    }
}
