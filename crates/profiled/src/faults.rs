//! Deterministic transport fault injection.
//!
//! [`FaultStream`] is an in-process proxy implementing `Read + Write`
//! that wraps a real connection and corrupts exchanges on a seeded
//! schedule: it can drop a request, delay a reply past the client's
//! timeout, truncate a reply mid-frame, reset the connection, or
//! synthesize a server-busy refusal. Because every "timeout" is
//! returned immediately (no wall-clock waiting) and the schedule is
//! driven by [`cbs_prng::SmallRng`], a faulty run is exactly
//! reproducible from its seed — which is what lets the fleet experiment
//! assert that the profile pooled over a lossy transport is
//! *bit-identical* to the fault-free one.
//!
//! The proxy understands the service's length-prefixed framing just
//! enough to buffer one request per flush and pre-read one reply frame,
//! so each request/response exchange receives exactly one fault
//! decision. A [`FaultSchedule`] is shared (`Arc<Mutex<..>>`) across
//! the reconnections a [`ResilientClient`](crate::ResilientClient)
//! performs, so the fault sequence continues across connections instead
//! of restarting.

use crate::wire::{read_msg, write_msg, NetConfig, ST_ERR};
use cbs_prng::SmallRng;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};

/// One injected transport fault, applied to a single exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward the exchange untouched.
    None,
    /// Discard the request; the reply read times out. The server never
    /// sees the request.
    DropRequest,
    /// Forward the request but hold the reply past the client's
    /// timeout: the read times out once, then the stale reply becomes
    /// readable — the classic desynchronization scenario.
    DelayReply,
    /// Forward the request but cut the reply off after this many bytes,
    /// then end the stream. The server *did* apply the request.
    TruncateReply(usize),
    /// Reset the connection at the write: the request is never sent and
    /// every later operation fails with `ConnectionReset`.
    ResetOnWrite,
    /// Swallow the request and synthesize a framed
    /// `ST_ERR busy: injected` refusal, as an overloaded server would.
    Busy,
}

/// How many exchanges of each kind a schedule has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Exchanges forwarded untouched.
    pub clean: usize,
    /// [`Fault::DropRequest`] injections.
    pub drops: usize,
    /// [`Fault::DelayReply`] injections.
    pub delays: usize,
    /// [`Fault::TruncateReply`] injections.
    pub truncations: usize,
    /// [`Fault::ResetOnWrite`] injections.
    pub resets: usize,
    /// [`Fault::Busy`] injections.
    pub busies: usize,
}

impl FaultCounts {
    /// Total faulted exchanges (everything but `clean`).
    pub fn faulted(&self) -> usize {
        self.drops + self.delays + self.truncations + self.resets + self.busies
    }

    /// Total exchanges that passed through a fault decision.
    pub fn total(&self) -> usize {
        self.clean + self.faulted()
    }
}

/// A deterministic supply of [`Fault`] decisions: an explicit scripted
/// prefix, then seeded random draws at a configured rate.
#[derive(Debug)]
pub struct FaultSchedule {
    script: VecDeque<Fault>,
    rng: SmallRng,
    rate: f64,
    counts: FaultCounts,
}

impl FaultSchedule {
    /// A schedule that replays exactly `script`, then injects nothing.
    pub fn scripted(script: impl IntoIterator<Item = Fault>) -> Self {
        Self {
            script: script.into_iter().collect(),
            rng: SmallRng::seed_from_u64(0),
            rate: 0.0,
            counts: FaultCounts::default(),
        }
    }

    /// A seeded random schedule faulting each exchange with probability
    /// `rate` (clamped to `[0, 1]`), choosing uniformly among the fault
    /// kinds.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        Self {
            script: VecDeque::new(),
            rng: SmallRng::seed_from_u64(seed),
            rate: rate.clamp(0.0, 1.0),
            counts: FaultCounts::default(),
        }
    }

    /// Prepends `script` to whatever this schedule would otherwise
    /// produce (scripted decisions are consumed first).
    #[must_use]
    pub fn with_script(mut self, script: impl IntoIterator<Item = Fault>) -> Self {
        let mut front: VecDeque<Fault> = script.into_iter().collect();
        front.append(&mut self.script);
        self.script = front;
        self
    }

    /// Wraps the schedule for sharing across reconnections.
    pub fn shared(self) -> Arc<Mutex<FaultSchedule>> {
        Arc::new(Mutex::new(self))
    }

    /// Injection counts so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    fn draw(&mut self) -> Fault {
        let fault = if let Some(f) = self.script.pop_front() {
            f
        } else if self.rng.gen_bool(self.rate) {
            match self.rng.gen_range(0u32..5) {
                0 => Fault::DropRequest,
                1 => Fault::DelayReply,
                // The proxy clamps to the reply length, so any small
                // value exercises header and body truncations.
                2 => Fault::TruncateReply(self.rng.gen_range(0usize..12)),
                3 => Fault::ResetOnWrite,
                _ => Fault::Busy,
            }
        } else {
            Fault::None
        };
        match fault {
            Fault::None => self.counts.clean += 1,
            Fault::DropRequest => self.counts.drops += 1,
            Fault::DelayReply => self.counts.delays += 1,
            Fault::TruncateReply(_) => self.counts.truncations += 1,
            Fault::ResetOnWrite => self.counts.resets += 1,
            Fault::Busy => self.counts.busies += 1,
        }
        fault
    }
}

/// A fault-injecting proxy around a connection to the profile server.
///
/// Writes are buffered until `flush`, at which point the buffered
/// request consumes one decision from the schedule and is forwarded,
/// dropped, or answered synthetically; replies are pre-read from the
/// inner stream so that timeouts, truncations, and stale late replies
/// can all be served deterministically without any real waiting.
pub struct FaultStream<S: Read + Write = TcpStream> {
    inner: S,
    schedule: Arc<Mutex<FaultSchedule>>,
    max_frame_bytes: usize,
    /// Request bytes accumulated since the last flush.
    wbuf: Vec<u8>,
    /// Reply bytes ready for the client to read.
    rbuf: VecDeque<u8>,
    /// A delayed reply, released into `rbuf` after the timeout fires.
    late: Vec<u8>,
    /// Reads to fail with `TimedOut` before serving anything further.
    pending_timeouts: usize,
    /// After a truncated reply drains, reads return end-of-stream.
    truncated: bool,
    /// A reset fault breaks the stream permanently with this kind.
    broken: Option<io::ErrorKind>,
}

impl<S: Read + Write> std::fmt::Debug for FaultStream<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultStream")
            .field("buffered_request", &self.wbuf.len())
            .field("buffered_reply", &self.rbuf.len())
            .field("pending_timeouts", &self.pending_timeouts)
            .field("truncated", &self.truncated)
            .field("broken", &self.broken)
            .finish_non_exhaustive()
    }
}

impl FaultStream<TcpStream> {
    /// Connects to `addr` with `config`'s timeouts and wraps the
    /// connection in the fault proxy.
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration failures.
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: NetConfig,
        schedule: Arc<Mutex<FaultSchedule>>,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        stream.set_write_timeout(Some(config.write_timeout))?;
        stream.set_nodelay(true).ok();
        Ok(Self::new(stream, config, schedule))
    }
}

impl<S: Read + Write> FaultStream<S> {
    /// Wraps an established stream. `config` supplies the frame limit
    /// used when pre-reading replies.
    pub fn new(inner: S, config: NetConfig, schedule: Arc<Mutex<FaultSchedule>>) -> Self {
        Self {
            inner,
            schedule,
            max_frame_bytes: config.max_frame_bytes,
            wbuf: Vec::new(),
            rbuf: VecDeque::new(),
            late: Vec::new(),
            pending_timeouts: 0,
            truncated: false,
            broken: None,
        }
    }

    /// Reads one full reply frame (length prefix included) from the
    /// inner stream.
    fn read_reply_frame(&mut self) -> io::Result<Vec<u8>> {
        let body = read_msg(&mut self.inner, self.max_frame_bytes)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-exchange")
        })?;
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(&body);
        Ok(frame)
    }

    fn forward_request(&mut self, request: &[u8]) -> io::Result<()> {
        self.inner.write_all(request)?;
        self.inner.flush()
    }
}

impl<S: Read + Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(kind) = self.broken {
            return Err(io::Error::new(kind, "injected connection reset"));
        }
        self.wbuf.extend_from_slice(buf);
        Ok(buf.len())
    }

    /// One flush of a buffered request is one exchange: it consumes one
    /// fault decision from the schedule.
    fn flush(&mut self) -> io::Result<()> {
        if let Some(kind) = self.broken {
            return Err(io::Error::new(kind, "injected connection reset"));
        }
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let request = std::mem::take(&mut self.wbuf);
        let fault = self.schedule.lock().expect("fault schedule lock").draw();
        match fault {
            Fault::None => {
                self.forward_request(&request)?;
                let reply = self.read_reply_frame()?;
                self.rbuf.extend(reply);
            }
            Fault::DropRequest => {
                // The server never sees the request; the client's reply
                // read "times out" (immediately — no real waiting).
                self.pending_timeouts = 1;
            }
            Fault::DelayReply => {
                self.forward_request(&request)?;
                // The reply exists but arrives after the timeout: one
                // read fails, then the stale bytes become readable. A
                // client that keeps using this connection would decode
                // them as the answer to its *next* request.
                self.late = self.read_reply_frame()?;
                self.pending_timeouts = 1;
            }
            Fault::TruncateReply(keep) => {
                self.forward_request(&request)?;
                let reply = self.read_reply_frame()?;
                // Keep at most len-1 bytes so the frame is always
                // actually cut short.
                let keep = keep.min(reply.len().saturating_sub(1));
                self.rbuf.extend(&reply[..keep]);
                self.truncated = true;
            }
            Fault::ResetOnWrite => {
                self.broken = Some(io::ErrorKind::ConnectionReset);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected connection reset",
                ));
            }
            Fault::Busy => {
                let mut reply = Vec::new();
                write_msg(&mut reply, &[&[ST_ERR], b"busy: injected"])
                    .expect("writing to a Vec cannot fail");
                self.rbuf.extend(reply);
            }
        }
        Ok(())
    }
}

impl<S: Read + Write> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(kind) = self.broken {
            return Err(io::Error::new(kind, "injected connection reset"));
        }
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some(&front) = self.rbuf.front() {
            let mut n = 0;
            buf[n] = front;
            self.rbuf.pop_front();
            n += 1;
            while n < buf.len() {
                match self.rbuf.pop_front() {
                    Some(b) => {
                        buf[n] = b;
                        n += 1;
                    }
                    None => break,
                }
            }
            return Ok(n);
        }
        if self.pending_timeouts > 0 {
            self.pending_timeouts -= 1;
            if self.pending_timeouts == 0 && !self.late.is_empty() {
                let late = std::mem::take(&mut self.late);
                self.rbuf.extend(late);
            }
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected reply timeout",
            ));
        }
        if self.truncated {
            return Ok(0); // end-of-stream after the cut
        }
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A loopback "server" for unit tests: replies are pre-canned in a
    /// cursor, requests are appended to a sink.
    #[derive(Debug)]
    struct Canned {
        requests: Vec<u8>,
        replies: Cursor<Vec<u8>>,
    }

    impl Read for Canned {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.replies.read(buf)
        }
    }

    impl Write for Canned {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.requests.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn canned_ok_reply(payload: &[u8]) -> Canned {
        let mut replies = Vec::new();
        write_msg(&mut replies, &[&[crate::wire::ST_OK], payload]).unwrap();
        Canned {
            requests: Vec::new(),
            replies: Cursor::new(replies),
        }
    }

    fn exchange_through(
        fs: &mut FaultStream<Canned>,
        request: &[u8],
    ) -> io::Result<Option<Vec<u8>>> {
        write_msg(fs, &[request])?;
        read_msg(fs, 1 << 20)
    }

    #[test]
    fn clean_exchange_passes_through() {
        let sched = FaultSchedule::scripted([Fault::None]).shared();
        let mut fs = FaultStream::new(canned_ok_reply(b"hi"), NetConfig::default(), sched.clone());
        let reply = exchange_through(&mut fs, b"req").unwrap().unwrap();
        assert_eq!(reply, b"\x00hi");
        assert_eq!(fs.inner.requests, b"\x00\x00\x00\x03req");
        assert_eq!(sched.lock().unwrap().counts().clean, 1);
    }

    #[test]
    fn dropped_request_never_reaches_the_server_and_times_out() {
        let sched = FaultSchedule::scripted([Fault::DropRequest]).shared();
        let mut fs = FaultStream::new(canned_ok_reply(b"hi"), NetConfig::default(), sched);
        let err = exchange_through(&mut fs, b"req").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(fs.inner.requests.is_empty(), "request must be dropped");
    }

    #[test]
    fn delayed_reply_times_out_then_turns_stale() {
        let sched = FaultSchedule::scripted([Fault::DelayReply]).shared();
        let mut fs = FaultStream::new(canned_ok_reply(b"late"), NetConfig::default(), sched);
        let err = exchange_through(&mut fs, b"req").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // The request *was* delivered, and the reply now sits in the
        // receive buffer where a naive client would misattribute it.
        assert_eq!(fs.inner.requests, b"\x00\x00\x00\x03req");
        let stale = read_msg(&mut fs, 1 << 20).unwrap().unwrap();
        assert_eq!(stale, b"\x00late");
    }

    #[test]
    fn truncated_reply_is_cut_then_eof() {
        for keep in 0..7 {
            let sched = FaultSchedule::scripted([Fault::TruncateReply(keep)]).shared();
            let mut fs = FaultStream::new(canned_ok_reply(b"hi"), NetConfig::default(), sched);
            match exchange_through(&mut fs, b"req") {
                // A cut at byte 0 is indistinguishable from a clean
                // close; every other cut is a framing error.
                Ok(None) => assert_eq!(keep, 0, "only a zero-byte cut reads as clean EOF"),
                Ok(Some(r)) => panic!("keep={keep}: cut frame parsed as {r:?}"),
                Err(e) => assert!(
                    matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                    ),
                    "keep={keep}: {e:?}"
                ),
            }
        }
    }

    #[test]
    fn reset_breaks_the_connection_permanently() {
        let sched = FaultSchedule::scripted([Fault::ResetOnWrite]).shared();
        let mut fs = FaultStream::new(canned_ok_reply(b"hi"), NetConfig::default(), sched);
        let err = exchange_through(&mut fs, b"req").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(fs.inner.requests.is_empty());
        let mut b = [0u8; 1];
        assert_eq!(
            fs.read(&mut b).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn busy_synthesizes_a_framed_refusal() {
        let sched = FaultSchedule::scripted([Fault::Busy]).shared();
        let mut fs = FaultStream::new(canned_ok_reply(b"hi"), NetConfig::default(), sched);
        let reply = exchange_through(&mut fs, b"req").unwrap().unwrap();
        assert_eq!(reply[0], ST_ERR);
        assert_eq!(&reply[1..], b"busy: injected");
        assert!(fs.inner.requests.is_empty(), "request must be swallowed");
    }

    #[test]
    fn seeded_schedule_is_reproducible_and_hits_its_rate() {
        let draws = |seed| {
            let mut s = FaultSchedule::seeded(seed, 0.25);
            (0..400).map(|_| s.draw()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7), "same seed, same schedule");
        assert_ne!(draws(7), draws(8), "different seed, different schedule");
        let mut s = FaultSchedule::seeded(7, 0.25);
        for _ in 0..400 {
            s.draw();
        }
        let c = s.counts();
        assert_eq!(c.total(), 400);
        let rate = c.faulted() as f64 / c.total() as f64;
        assert!((0.15..0.40).contains(&rate), "observed fault rate {rate}");
    }

    #[test]
    fn scripted_prefix_runs_before_seeded_draws() {
        let mut s = FaultSchedule::seeded(3, 1.0).with_script([Fault::Busy, Fault::None]);
        assert_eq!(s.draw(), Fault::Busy);
        assert_eq!(s.draw(), Fault::None);
        assert_ne!(s.draw(), Fault::None, "rate 1.0 always faults");
    }
}
