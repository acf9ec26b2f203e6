//! Client library for the profile-ingestion service.
//!
//! A [`ProfileClient`] holds one connection and issues synchronous
//! request/response exchanges: push a snapshot or delta frame, pull the
//! merged fleet profile (whole or paged), advance the decay epoch, or
//! fetch stats. Every server-side rejection (malformed frame, frame
//! limit, backpressure) surfaces as [`ClientError::Server`] with the
//! server's reason string.
//!
//! ## Connection poisoning
//!
//! A request/response protocol desynchronizes the moment an exchange
//! fails between the request write and the reply read: a late reply to
//! request *N* would otherwise be decoded as the answer to request
//! *N + 1*. [`ProfileClient`] therefore **poisons** itself on any
//! mid-exchange transport or framing error — every later call fails
//! fast with [`ClientError::Poisoned`] until the caller reconnects.
//! Server-side rejections (`ST_ERR` replies) do *not* poison: framing
//! stayed intact, so the connection remains usable. The reconnect loop
//! lives one layer up, in [`ResilientClient`](crate::ResilientClient).
//!
//! The client is generic over its stream so the deterministic fault
//! proxy ([`FaultStream`](crate::faults::FaultStream)) and tests can
//! stand in for a real [`TcpStream`].

use crate::codec::{CodecError, DcgCodec};
use crate::metrics::ProfiledMetrics;
use crate::wire::{
    read_msg, write_msg, NetConfig, OP_EPOCH, OP_METRICS, OP_PLAN, OP_PULL, OP_PULL_CHUNK, OP_PUSH,
    OP_PUSH_SEQ, OP_STATS, ST_OK,
};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_inliner::InlinePlan;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Deref;

/// A failure of one client exchange.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, timeout, reset, oversized reply).
    Io(io::Error),
    /// The server's reply payload failed to decode.
    Codec(CodecError),
    /// The server answered `ST_ERR` with this reason.
    Server(String),
    /// The reply violated the wire protocol.
    Protocol(String),
    /// The connection was poisoned by an earlier mid-exchange failure
    /// and must be re-established before further use.
    Poisoned,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Codec(e) => write!(f, "undecodable reply: {e}"),
            ClientError::Server(msg) => write!(f, "server rejected request: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Poisoned => {
                write!(f, "connection poisoned by an earlier mid-exchange failure")
            }
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// An `ST_OK` reply, kept in the buffer it was read into and viewed
/// past its status byte — a pulled snapshot is not copied a second time
/// just to drop that byte.
struct OkReply(Vec<u8>);

impl Deref for OkReply {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[1..]
    }
}

/// Outcome of an exactly-once [`push_seq`](ProfileClient::push_seq).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The frame was applied to the aggregate.
    Applied,
    /// The server had already applied this (or a later) sequence for
    /// this client id; the frame was acknowledged without re-applying.
    Duplicate,
}

/// One connection to a profile server.
///
/// Generic over the stream so tests and the fault-injection harness can
/// substitute in-process transports; defaults to [`TcpStream`].
#[derive(Debug)]
pub struct ProfileClient<S: Read + Write = TcpStream> {
    stream: S,
    max_frame_bytes: usize,
    poisoned: bool,
}

impl ProfileClient<TcpStream> {
    /// Connects and applies the configured timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration failures.
    pub fn connect(addr: impl ToSocketAddrs, config: NetConfig) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        stream.set_write_timeout(Some(config.write_timeout))?;
        stream.set_nodelay(true).ok();
        Ok(Self::from_stream(stream, config))
    }
}

impl<S: Read + Write> ProfileClient<S> {
    /// Wraps an already-established stream. Timeouts (if any) are the
    /// caller's responsibility; only `max_frame_bytes` is taken from
    /// `config`.
    pub fn from_stream(stream: S, config: NetConfig) -> Self {
        Self {
            stream,
            max_frame_bytes: config.max_frame_bytes,
            poisoned: false,
        }
    }

    /// Whether a mid-exchange failure has desynchronized this
    /// connection. A poisoned client refuses every further exchange.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Marks the connection desynchronized (all poison sites funnel
    /// through here so the telemetry counter stays exact).
    fn poison(&mut self) {
        self.poisoned = true;
        ProfiledMetrics::get().client_poisoned.inc();
    }

    fn exchange(&mut self, op: u8, body: &[&[u8]]) -> Result<OkReply, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + body.len());
        parts.push(std::slice::from_ref(&op));
        parts.extend_from_slice(body);
        if let Err(e) = write_msg(&mut self.stream, &parts) {
            // The request may have been partially written: the framing
            // is unknown, so the connection is unusable.
            self.poison();
            return Err(e.into());
        }
        let reply = match read_msg(&mut self.stream, self.max_frame_bytes) {
            Ok(r) => r,
            Err(e) => {
                // Timeout, reset, truncation, oversized reply: the reply
                // to *this* request may still arrive later, so reusing
                // the stream would misattribute it to the next request.
                self.poison();
                return Err(e.into());
            }
        };
        let Some(reply) = reply else {
            self.poison();
            return Err(ClientError::Protocol(
                "server closed before replying".into(),
            ));
        };
        match reply.split_first() {
            Some((&ST_OK, _)) => Ok(OkReply(reply)),
            Some((_, payload)) => Err(ClientError::Server(
                String::from_utf8_lossy(payload).into_owned(),
            )),
            None => {
                self.poison();
                Err(ClientError::Protocol("empty reply".into()))
            }
        }
    }

    /// Flags the connection as desynchronized and records why. Used by
    /// multi-exchange operations (pagination) whose invariants span
    /// replies.
    fn poison_protocol(&mut self, msg: impl Into<String>) -> ClientError {
        self.poison();
        ClientError::Protocol(msg.into())
    }

    /// Pushes a pre-encoded codec frame.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side rejection.
    pub fn push_frame(&mut self, frame_bytes: &[u8]) -> Result<(), ClientError> {
        self.exchange(OP_PUSH, &[frame_bytes]).map(drop)
    }

    /// Pushes a pre-encoded codec frame with exactly-once semantics:
    /// the server deduplicates on `(client_id, seq)`, so retrying a
    /// maybe-delivered frame can never double-count it. Sequences must
    /// be assigned in increasing order per client id.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side rejection.
    pub fn push_seq(
        &mut self,
        client_id: u64,
        seq: u64,
        frame_bytes: &[u8],
    ) -> Result<PushOutcome, ClientError> {
        let payload = self.exchange(
            OP_PUSH_SEQ,
            &[&client_id.to_be_bytes(), &seq.to_be_bytes(), frame_bytes],
        )?;
        match &*payload {
            b"applied" => Ok(PushOutcome::Applied),
            b"duplicate" => Ok(PushOutcome::Duplicate),
            other => Err(self.poison_protocol(format!(
                "unknown push-seq acknowledgement {:?}",
                String::from_utf8_lossy(other)
            ))),
        }
    }

    /// Pushes a whole graph as a snapshot frame (a VM's first flush).
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side rejection.
    pub fn push_snapshot(&mut self, graph: &DynamicCallGraph) -> Result<(), ClientError> {
        self.push_frame(&DcgCodec::encode_snapshot(graph))
    }

    /// Pushes weight increments (from
    /// [`DynamicCallGraph::drain_delta`]) as a delta frame.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side rejection.
    pub fn push_delta(&mut self, increments: &[(CallEdge, f64)]) -> Result<(), ClientError> {
        self.push_frame(&DcgCodec::encode_delta(increments))
    }

    /// Pulls the fleet-wide merged snapshot in one frame.
    ///
    /// Fails with a server-side rejection when the snapshot exceeds the
    /// frame limit; [`pull_chunked`](Self::pull_chunked) degrades
    /// gracefully instead.
    ///
    /// # Errors
    ///
    /// Transport failures, a server-side rejection, or an undecodable
    /// reply.
    pub fn pull(&mut self) -> Result<DynamicCallGraph, ClientError> {
        let payload = self.exchange(OP_PULL, &[])?;
        Ok(DcgCodec::decode_snapshot(&payload)?)
    }

    /// Pulls the fleet inlining plan — [`cbs_inliner::build_plan`] run
    /// server-side against the merged snapshot, versioned with its
    /// snapshot generation. An unchanged aggregate answers with
    /// byte-identical frames (the server's generation-keyed cache).
    ///
    /// # Errors
    ///
    /// Transport failures, a server-side rejection, or an undecodable
    /// reply.
    pub fn pull_plan(&mut self) -> Result<InlinePlan, ClientError> {
        let payload = self.exchange(OP_PLAN, &[])?;
        Ok(DcgCodec::decode_plan(&payload)?)
    }

    /// Pulls the fleet-wide merged snapshot via paged `OP_PULL_CHUNK`
    /// exchanges, reassembling however many frames the snapshot needs;
    /// returns the graph and the number of chunk frames fetched.
    /// Page 0 captures a consistent snapshot server-side, so the merge
    /// cannot tear between pages.
    ///
    /// # Errors
    ///
    /// Transport failures, a server-side rejection, an undecodable
    /// reassembled frame, or pagination protocol violations (which
    /// poison the connection).
    pub fn pull_chunked(&mut self) -> Result<(DynamicCallGraph, u32), ClientError> {
        let mut frame = Vec::new();
        let mut page: u32 = 0;
        let mut total: u32 = 1;
        while page < total {
            let payload = self.exchange(OP_PULL_CHUNK, &[&page.to_be_bytes()])?;
            if payload.len() < 8 {
                return Err(self.poison_protocol("chunk reply shorter than its header"));
            }
            let got_total = u32::from_be_bytes(payload[0..4].try_into().expect("4 bytes"));
            let got_page = u32::from_be_bytes(payload[4..8].try_into().expect("4 bytes"));
            if got_page != page {
                return Err(
                    self.poison_protocol(format!("asked for page {page}, got page {got_page}"))
                );
            }
            if page == 0 {
                if got_total == 0 {
                    return Err(self.poison_protocol("chunked reply declared zero pages"));
                }
                total = got_total;
                // Every page but the last is as long as page 0, so
                // `total` such chunks hold the whole frame. Only a hint:
                // a size the allocator refuses is left to grow page by
                // page as the chunks actually arrive.
                if let Some(whole) = (total as usize).checked_mul(payload.len() - 8) {
                    let _ = frame.try_reserve_exact(whole);
                }
            } else if got_total != total {
                return Err(self.poison_protocol(format!(
                    "total pages changed mid-pull ({total} -> {got_total})"
                )));
            }
            frame.extend_from_slice(&payload[8..]);
            page += 1;
        }
        Ok((DcgCodec::decode_snapshot(&frame)?, total))
    }

    /// Advances the server's decay epoch, returning the new epoch.
    ///
    /// # Errors
    ///
    /// Transport failures, a server-side rejection, or a malformed
    /// reply.
    pub fn advance_epoch(&mut self) -> Result<u64, ClientError> {
        let payload = self.exchange(OP_EPOCH, &[])?;
        String::from_utf8_lossy(&payload)
            .trim()
            .parse()
            .map_err(|_| ClientError::Protocol("non-numeric epoch reply".into()))
    }

    /// Fetches the server's ingestion counters as `key=value` lines.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side rejection.
    pub fn stats_text(&mut self) -> Result<String, ClientError> {
        let payload = self.exchange(OP_STATS, &[])?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Fetches the server's telemetry exposition (the versioned
    /// `cbs-telemetry` text format).
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side rejection (e.g. an older
    /// server answering `unknown op`).
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let payload = self.exchange(OP_METRICS, &[])?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }
}
