//! The TCP profile-ingestion server.
//!
//! One blocking accept loop hands each connection to its own thread,
//! bounded by [`NetConfig::max_inflight`]; over the limit a connection is
//! answered `ST_ERR busy` and closed, pushing backpressure to the
//! client rather than queueing unboundedly. Connections are persistent:
//! each serves a sequence of request/response exchanges until the peer
//! closes, a timeout fires, or a malformed message arrives (answered
//! with `ST_ERR`, then the connection — never the server — is dropped).
//!
//! All connection threads share one [`ShardedAggregator`] behind an
//! `Arc`: pushes from many VMs decode in parallel on their own threads
//! and interleave only for the weight adds under the aggregate's lock.
//! Every state-changing op flows through a shared [`ProfileJournal`]
//! before it is acknowledged: the default [`MemJournal`] applies
//! straight to the aggregator, while a durable journal (`cbs-store`'s
//! `ProfileStore`, passed to [`serve_with`]) appends to a
//! write-ahead log first so a restart loses nothing it acked. The
//! journal also owns the bounded per-client sequence table backing the
//! exactly-once `OP_PUSH_SEQ` op: retries of a maybe-delivered frame
//! are acknowledged without being re-applied, which is what lets the
//! resilient client requeue and blindly resend after any fault.
//!
//! Shutdown is drain-and-refuse: once [`ServerHandle::shutdown`] flips
//! the stop flag, every connection still queued in the accept backlog —
//! including one that raced the stop — receives an explicit
//! `ST_ERR server shutting down` reply instead of being silently
//! dropped.

use crate::aggregator::{IngestScratch, ShardedAggregator};
use crate::journal::{JournalError, MemJournal, ProfileJournal, SeqIngest};
use crate::metrics::ProfiledMetrics;
use crate::wire::{
    read_msg_into, write_msg, NetConfig, CHUNK_REPLY_OVERHEAD, OP_EPOCH, OP_METRICS, OP_PLAN,
    OP_PULL, OP_PULL_CHUNK, OP_PUSH, OP_PUSH_SEQ, OP_STATS, ST_ERR, ST_OK,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A running profile server; dropping the handle leaves the server
/// running detached, [`shutdown`](Self::shutdown) stops it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    aggregator: Arc<ShardedAggregator>,
    journal: Arc<dyn ProfileJournal>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared aggregator, for in-process inspection alongside the
    /// network interface.
    pub fn aggregator(&self) -> &Arc<ShardedAggregator> {
        &self.aggregator
    }

    /// Number of clients currently tracked by the `OP_PUSH_SEQ` dedup
    /// table (the in-process view of the `dedup_clients` stats field).
    pub fn dedup_clients(&self) -> usize {
        self.journal.dedup_usage().clients
    }

    /// The journal every state-changing op flows through.
    pub fn journal(&self) -> &Arc<dyn ProfileJournal> {
        &self.journal
    }

    /// Stops accepting connections and joins the accept loop.
    ///
    /// Connections already queued in the accept backlog are drained and
    /// answered `ST_ERR server shutting down` — never silently dropped.
    /// In-flight connection threads finish their current exchanges and
    /// exit on their own (their sockets carry read timeouts, so none can
    /// linger forever).
    ///
    /// Finally flushes the journal: under the lazy fsync policy
    /// (`--fsync never`) an orderly exit must not leave acked
    /// frames in an unsynced WAL tail. Best-effort — a flush failure
    /// cannot un-ack anything, so it is not propagated.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection; the
        // accept loop refuses it (and anything queued around it) with
        // an explicit shutdown reply.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = self.journal.flush();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
/// serves `aggregator` in memory, through a [`MemJournal`] with the
/// default dedup cap, on a background accept thread.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(
    addr: impl ToSocketAddrs,
    aggregator: Arc<ShardedAggregator>,
    config: NetConfig,
) -> io::Result<ServerHandle> {
    let journal = Arc::new(MemJournal::new(Arc::clone(&aggregator)));
    serve_with(addr, aggregator, config, journal)
}

/// [`serve`] through the caller's `journal`, which must apply to
/// `aggregator`: a [`MemJournal`] with its own dedup cap, or a durable
/// journal (e.g. `cbs-store`'s `ProfileStore`) that logs every accepted
/// op before it is acked.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_with(
    addr: impl ToSocketAddrs,
    aggregator: Arc<ShardedAggregator>,
    net: NetConfig,
    journal: Arc<dyn ProfileJournal>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let aggregator = Arc::clone(&aggregator);
        let stop = Arc::clone(&stop);
        let journal = Arc::clone(&journal);
        std::thread::spawn(move || accept_loop(&listener, &aggregator, &stop, &journal, net))
    };
    Ok(ServerHandle {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
        aggregator,
        journal,
    })
}

/// Owns one admission slot of the `max_inflight` budget; releasing is
/// tied to `Drop` so a panicking connection thread can never leak its
/// slot — the unwind releases it like any other exit path.
struct SlotGuard(Arc<AtomicUsize>);

impl SlotGuard {
    fn acquire(active: &Arc<AtomicUsize>) -> Self {
        active.fetch_add(1, Ordering::AcqRel);
        Self(Arc::clone(active))
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(
    listener: &TcpListener,
    aggregator: &Arc<ShardedAggregator>,
    stop: &Arc<AtomicBool>,
    journal: &Arc<dyn ProfileJournal>,
    config: NetConfig,
) {
    let metrics = ProfiledMetrics::get();
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            // Drain-and-refuse: the connection that woke us — which may
            // be a legitimate client that raced the stop flag, not the
            // shutdown's throwaway connect — and everything else queued
            // in the backlog get an explicit refusal, not a silent drop.
            if let Ok(s) = stream {
                metrics.server_shutdown_refusals.inc();
                refuse(s, config, b"server shutting down");
            }
            drain_refuse(listener, config);
            return;
        }
        let Ok(stream) = stream else { continue };
        // Backpressure: admission-check *before* spawning.
        if active.load(Ordering::Acquire) >= config.max_inflight {
            metrics.server_busy_refusals.inc();
            refuse(stream, config, b"busy: max inflight connections");
            continue;
        }
        metrics.server_connections.inc();
        let slot = SlotGuard::acquire(&active);
        let aggregator = Arc::clone(aggregator);
        let journal = Arc::clone(journal);
        std::thread::spawn(move || {
            // The guard rides inside the thread: a panic anywhere in
            // `serve_connection` unwinds through it and still releases
            // the slot (the handler itself never panics on malformed
            // input — every decode error is an ST_ERR reply — so this
            // covers e.g. allocation failure).
            let _slot = slot;
            let _ = serve_connection(stream, &aggregator, &journal, config);
        });
    }
}

fn refuse(mut stream: TcpStream, config: NetConfig, reason: &[u8]) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = write_msg(&mut stream, &[&[ST_ERR], reason]);
}

/// Accepts every connection already queued on `listener` and answers it
/// with an `ST_ERR server shutting down` reply. Called once the stop
/// flag is observed, so a client that connected in the race window
/// between `stop.store` and the shutdown wake-up learns why it was
/// turned away instead of seeing an unexplained EOF.
fn drain_refuse(listener: &TcpListener, config: NetConfig) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // Replies go out blocking so slow peers still get them.
                let _ = stream.set_nonblocking(false);
                ProfiledMetrics::get().server_shutdown_refusals.inc();
                refuse(stream, config, b"server shutting down");
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// Writes one reply through the single counting choke point: reply
/// frame sizes land in the bytes-out histogram and `ST_ERR` replies in
/// the error counter before the bytes hit the socket.
///
/// The length prefix and the parts go to the socket in one vectored
/// write ([`write_msg`]): a cached snapshot or plan is written from its
/// shared buffer, not copied into a per-connection one first.
fn reply(stream: &mut TcpStream, metrics: &ProfiledMetrics, parts: &[&[u8]]) -> io::Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    metrics.server_frame_bytes_out.observe(len as u64);
    if parts.first().and_then(|p| p.first()) == Some(&ST_ERR) {
        metrics.server_err_replies.inc();
    }
    write_msg(stream, parts)
}

/// Answers a failed journaled op: codec failures count as bad frames,
/// storage/crash failures only as error replies (the frame itself was
/// fine; the client may retry once the journal recovers).
fn reply_journal_err(
    stream: &mut TcpStream,
    m: &ProfiledMetrics,
    e: &JournalError,
) -> io::Result<()> {
    if matches!(e, JournalError::Frame(_)) {
        m.server_bad_frames.inc();
    }
    reply(stream, m, &[&[ST_ERR], e.to_string().as_bytes()])
}

/// Serves one connection until EOF, timeout, or a fatal protocol error.
/// Every malformed input is answered with `ST_ERR` before closing, so
/// clients always learn why they were dropped; errors never propagate
/// past the connection.
///
/// The request buffer and ingest-partition scratch are pooled per
/// connection: once their capacities plateau at the connection's
/// working sizes, steady-state request handling performs no per-frame
/// allocation. Replies are written from where their bytes lie, so the
/// connection holds no reply buffer.
fn serve_connection(
    mut stream: TcpStream,
    aggregator: &ShardedAggregator,
    journal: &Arc<dyn ProfileJournal>,
    config: NetConfig,
) -> io::Result<()> {
    let m = ProfiledMetrics::get();
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    stream.set_nodelay(true).ok();
    // The consistent snapshot captured by the connection's in-progress
    // `OP_PULL_CHUNK` sequence; pages after page 0 are served from it so
    // pagination never observes a torn merge. Shared with the
    // aggregator's snapshot cache — capturing is a refcount bump. `None`
    // outside an active sequence: a page>0 request with no capture (the
    // connection never asked for page 0, or already consumed its final
    // page) is a protocol error and must never be answered from a stale
    // prior-generation capture.
    let mut chunk_capture: Option<Arc<Vec<u8>>> = None;
    let mut read_buf: Vec<u8> = Vec::new();
    let mut scratch = IngestScratch::new();
    loop {
        match read_msg_into(&mut stream, config.max_frame_bytes, &mut read_buf) {
            Ok(Some(_)) => {}
            Ok(None) => return Ok(()), // clean close
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized frame: the unread payload makes the stream
                // unframeable, so answer and drop the connection.
                let _ = reply(&mut stream, m, &[&[ST_ERR], e.to_string().as_bytes()]);
                return Ok(());
            }
            Err(e) => return Err(e), // timeout / reset: just drop
        };
        let started = Instant::now();
        m.server_frame_bytes_in.observe(read_buf.len() as u64);
        let (op, body) = match read_buf.split_first() {
            Some(x) => x,
            None => {
                let _ = reply(&mut stream, m, &[&[ST_ERR], b"empty request"]);
                return Ok(());
            }
        };
        match *op {
            OP_PUSH => {
                m.server_op_push.inc();
                // Journal-then-apply via the shared write path: the
                // frame is durable (to the journal's policy) before the
                // ST_OK goes out; a malformed frame applies nothing.
                match journal.ingest_frame(body, &mut scratch) {
                    Ok(_) => {
                        reply(&mut stream, m, &[&[ST_OK]])?;
                    }
                    Err(e) => {
                        // Reject the op, keep serving: framing is intact.
                        reply_journal_err(&mut stream, m, &e)?;
                    }
                }
            }
            OP_PUSH_SEQ => {
                m.server_op_push_seq.inc();
                if body.len() < 16 {
                    reply(
                        &mut stream,
                        m,
                        &[&[ST_ERR], b"push-seq needs a client id and a sequence"],
                    )?;
                    continue;
                }
                let client_id = u64::from_be_bytes(body[0..8].try_into().expect("8 bytes"));
                let seq = u64::from_be_bytes(body[8..16].try_into().expect("8 bytes"));
                let frame = &body[16..];
                // The journal runs check-apply-record under one lock,
                // so a retry racing a half-applied original observes
                // the pair atomically.
                match journal.ingest_sequenced(client_id, seq, frame, &mut scratch) {
                    Ok(SeqIngest::Applied { .. }) => {
                        reply(&mut stream, m, &[&[ST_OK], b"applied"])?;
                    }
                    Ok(SeqIngest::Duplicate) => {
                        m.server_dedup_hits.inc();
                        reply(&mut stream, m, &[&[ST_OK], b"duplicate"])?;
                    }
                    Err(e) => {
                        reply_journal_err(&mut stream, m, &e)?;
                    }
                }
            }
            OP_PULL => {
                m.server_op_pull.inc();
                // Served from the generation-stamped cache: repeated
                // pulls of an unchanged aggregate reuse one encoding.
                let snapshot = aggregator.encoded_snapshot();
                if snapshot.len() + 1 > config.max_frame_bytes {
                    reply(
                        &mut stream,
                        m,
                        &[&[ST_ERR], b"merged snapshot exceeds the frame limit"],
                    )?;
                } else {
                    reply(&mut stream, m, &[&[ST_OK], snapshot.as_slice()])?;
                }
            }
            OP_PLAN => {
                m.server_op_plan.inc();
                // Served from the generation-keyed plan cache: an
                // unchanged aggregate answers with identical bytes.
                let plan = aggregator.encoded_plan();
                if plan.len() + 1 > config.max_frame_bytes {
                    reply(
                        &mut stream,
                        m,
                        &[&[ST_ERR], b"fleet plan exceeds the frame limit"],
                    )?;
                } else {
                    reply(&mut stream, m, &[&[ST_OK], plan.as_slice()])?;
                }
            }
            OP_PULL_CHUNK => {
                m.server_op_pull_chunk.inc();
                let Ok(page_bytes) = <[u8; 4]>::try_from(body) else {
                    reply(
                        &mut stream,
                        m,
                        &[&[ST_ERR], b"chunk request needs a 4-byte page index"],
                    )?;
                    continue;
                };
                let page = u32::from_be_bytes(page_bytes) as usize;
                if page == 0 {
                    chunk_capture = Some(aggregator.encoded_snapshot());
                }
                let Some(capture) = chunk_capture.clone() else {
                    reply(
                        &mut stream,
                        m,
                        &[
                            &[ST_ERR],
                            format!(
                                "page {page} requested with no page-0 capture on this connection"
                            )
                            .as_bytes(),
                        ],
                    )?;
                    continue;
                };
                let chunk_len = config
                    .max_frame_bytes
                    .saturating_sub(CHUNK_REPLY_OVERHEAD)
                    .max(1);
                let total = capture.len().div_ceil(chunk_len).max(1);
                if page >= total {
                    reply(
                        &mut stream,
                        m,
                        &[
                            &[ST_ERR],
                            format!("page {page} out of range (total {total})").as_bytes(),
                        ],
                    )?;
                } else {
                    let lo = page * chunk_len;
                    let hi = (lo + chunk_len).min(capture.len());
                    reply(
                        &mut stream,
                        m,
                        &[
                            &[ST_OK],
                            &(total as u32).to_be_bytes(),
                            &(page as u32).to_be_bytes(),
                            &capture[lo..hi],
                        ],
                    )?;
                    // The final page ends the sequence; a later page>0
                    // must restart from page 0, never re-read a capture
                    // from a prior snapshot generation.
                    if page == total - 1 {
                        chunk_capture = None;
                    }
                }
            }
            OP_STATS => {
                m.server_op_stats.inc();
                let s = aggregator.stats();
                // The v1 keys stay first and unchanged; v2 appends the
                // version marker and the dedup-table keys, so v1 parsers
                // (which read `key=value` lines and skip unknown keys)
                // keep working.
                let usage = journal.dedup_usage();
                let (dedup_clients, dedup_max_seq) = (usage.clients, usage.max_seq);
                // `shards=` is a v1 key: one aggregate, so always 1.
                let text = format!(
                    "frames={}\nrecords={}\nepoch={}\nedges={}\nshards=1\n\
                     stats_version=2\ndedup_clients={dedup_clients}\ndedup_max_seq={dedup_max_seq}\n",
                    s.frames, s.records, s.epoch, s.edges,
                );
                reply(&mut stream, m, &[&[ST_OK], text.as_bytes()])?;
            }
            OP_METRICS => {
                m.server_op_metrics.inc();
                // Scrape-time gauges: published here, not on the data
                // path, so instantaneous sizes cost nothing per push.
                let s = aggregator.stats();
                m.agg_epoch.set(s.epoch as i64);
                m.agg_edges.set(s.edges as i64);
                m.server_dedup_clients
                    .set(journal.dedup_usage().clients as i64);
                let text = cbs_telemetry::global().render();
                reply(&mut stream, m, &[&[ST_OK], text.as_bytes()])?;
            }
            OP_EPOCH => {
                m.server_op_epoch.inc();
                match journal.advance_epoch() {
                    Ok(epoch) => reply(&mut stream, m, &[&[ST_OK], epoch.to_string().as_bytes()])?,
                    Err(e) => reply_journal_err(&mut stream, m, &e)?,
                }
            }
            other => {
                let _ = reply(
                    &mut stream,
                    m,
                    &[&[ST_ERR], format!("unknown op {other}").as_bytes()],
                );
                return Ok(());
            }
        }
        m.server_handler_latency_us
            .observe(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::AggregatorConfig;
    use crate::client::{ProfileClient, PushOutcome};
    use crate::codec::DcgCodec;
    use crate::wire::read_msg;

    /// Regression for the inflight-slot leak: a panic while holding a
    /// slot must still release it (the old code ran `fetch_sub` after
    /// the handler, so an unwind skipped it and permanently consumed a
    /// `max_inflight` slot).
    #[test]
    fn slot_released_even_when_the_connection_thread_panics() {
        let active = Arc::new(AtomicUsize::new(0));
        let guard_active = Arc::clone(&active);
        let t = std::thread::spawn(move || {
            let _slot = SlotGuard::acquire(&guard_active);
            panic!("connection handler blew up");
        });
        assert!(t.join().is_err(), "thread must have panicked");
        assert_eq!(
            active.load(Ordering::Acquire),
            0,
            "panicking handler leaked its admission slot"
        );
        // And the non-panicking path still balances.
        {
            let _slot = SlotGuard::acquire(&active);
            assert_eq!(active.load(Ordering::Acquire), 1);
        }
        assert_eq!(active.load(Ordering::Acquire), 0);
    }

    /// Regression for the seq-table poisoning outage: a handler panic
    /// while holding the dedup mutex used to turn every later
    /// `OP_PUSH_SEQ` exchange into a panic of its own (`.expect("seq
    /// table lock")`), permanently killing exactly-once pushes. The
    /// table is valid after any partial update, so the lock is now
    /// recovered and service continues.
    #[test]
    fn push_seq_keeps_working_after_a_handler_panic_poisons_the_seq_table() {
        let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
        let mem = Arc::new(MemJournal::new(Arc::clone(&agg)));
        let server = serve_with(
            "127.0.0.1:0",
            agg,
            NetConfig::default(),
            Arc::clone(&mem) as Arc<dyn ProfileJournal>,
        )
        .expect("binds");
        // Script the handler panic: grab the shared table the way a
        // connection thread does, then unwind while holding it.
        let table = Arc::clone(&mem);
        let panicker = std::thread::spawn(move || {
            let _guard = table.dedup().lock().expect("first locker sees no poison");
            panic!("scripted handler panic while holding the seq table");
        });
        assert!(panicker.join().is_err(), "thread must have panicked");
        assert!(mem.dedup().is_poisoned(), "the mutex is really poisoned");

        let edge = cbs_dcg::CallEdge::new(
            cbs_bytecode::MethodId::new(1),
            cbs_bytecode::CallSiteId::new(0),
            cbs_bytecode::MethodId::new(2),
        );
        let frame = DcgCodec::encode_delta(&[(edge, 2.0)]);
        let mut client =
            ProfileClient::connect(server.addr(), NetConfig::default()).expect("connects");
        assert_eq!(
            client.push_seq(9, 1, &frame).expect("served, not dropped"),
            PushOutcome::Applied
        );
        assert_eq!(
            client.push_seq(9, 1, &frame).expect("dedup still works"),
            PushOutcome::Duplicate,
            "retry of an applied sequence must be acknowledged, not re-applied"
        );
        let fleet = client.pull().expect("pull");
        assert_eq!(fleet.weight(&edge), 2.0, "the duplicate was not re-applied");
        server.shutdown();
    }

    /// Regression for the unbounded dedup table: pushes from more
    /// distinct client ids than the cap must leave the table at the
    /// cap (oldest clients evicted) while duplicate detection keeps
    /// working for clients still resident.
    #[test]
    fn dedup_table_is_bounded_under_client_churn() {
        let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
        let cap = 8usize;
        let journal = Arc::new(MemJournal::with_capacity(Arc::clone(&agg), cap));
        let server = serve_with("127.0.0.1:0", agg, NetConfig::default(), journal).expect("binds");
        let edge = cbs_dcg::CallEdge::new(
            cbs_bytecode::MethodId::new(1),
            cbs_bytecode::CallSiteId::new(0),
            cbs_bytecode::MethodId::new(2),
        );
        let frame = DcgCodec::encode_delta(&[(edge, 1.0)]);
        let mut client =
            ProfileClient::connect(server.addr(), NetConfig::default()).expect("connects");
        // 3× the cap of distinct clients churn through.
        for id in 1..=(3 * cap as u64) {
            assert_eq!(
                client.push_seq(id, 1, &frame).expect("served"),
                PushOutcome::Applied
            );
        }
        assert_eq!(
            server.dedup_clients(),
            cap,
            "table must be bounded by the configured cap"
        );
        // The most recent clients are resident: their retries dedup.
        let live = 3 * cap as u64;
        assert_eq!(
            client.push_seq(live, 1, &frame).expect("served"),
            PushOutcome::Duplicate,
            "live client's retry must be acknowledged, not re-applied"
        );
        // An evicted client's history is forgotten: its old sequence
        // is applied again (at-least-once after eviction, by design).
        assert_eq!(
            client.push_seq(1, 1, &frame).expect("served"),
            PushOutcome::Applied,
            "evicted client is treated as new"
        );
        let fleet = client.pull().expect("pull");
        assert_eq!(
            fleet.weight(&edge),
            (3 * cap + 1) as f64,
            "each applied push added exactly one unit of weight"
        );
        server.shutdown();
    }

    /// Regression for the shutdown race: connections queued in the
    /// accept backlog when the stop flag flips must each receive an
    /// explicit `ST_ERR server shutting down` reply, not a silent drop.
    #[test]
    fn drain_refuse_answers_every_queued_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let config = NetConfig::default();
        // Three clients connect and queue in the backlog; none is ever
        // accepted by a serving loop.
        let mut clients: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(addr).expect("connects"))
            .collect();
        drain_refuse(&listener, config);
        for (i, c) in clients.iter_mut().enumerate() {
            c.set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .expect("timeout");
            let reply = read_msg(c, config.max_frame_bytes)
                .expect("reply is well-framed")
                .unwrap_or_else(|| panic!("client {i} was dropped without a reply"));
            assert_eq!(reply.first(), Some(&ST_ERR), "client {i}");
            assert!(
                String::from_utf8_lossy(&reply[1..]).contains("shutting down"),
                "client {i}: {reply:?}"
            );
        }
    }
}
