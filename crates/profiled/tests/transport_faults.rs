//! Transport-fault tests against a live loopback server: the
//! deterministic fault proxy drives drops, delayed (stale) replies,
//! truncations at every frame byte, connection resets, and busy
//! refusals through the client stack, and the resilient layer must
//! deliver *exactly* the same pooled profile as a fault-free run —
//! zero lost weight, zero double-counted weight, bit-identical.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_prng::SmallRng;
use cbs_profiled::wire::{read_msg, write_msg, OP_EPOCH, OP_PULL_CHUNK, OP_STATS, ST_ERR, ST_OK};
use cbs_profiled::{
    serve, AggregatorConfig, ClientError, Fault, FaultSchedule, FaultStream, NetConfig,
    ProfileClient, PushOutcome, ResilientClient, RetryPolicy, ServerHandle, ShardedAggregator,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn edge(rng: &mut SmallRng) -> CallEdge {
    CallEdge::new(
        MethodId::new(rng.gen_range(0..3000u32)),
        CallSiteId::new(rng.gen_range(0..8u32)),
        MethodId::new(rng.gen_range(0..3000u32)),
    )
}

fn start_server(config: NetConfig) -> ServerHandle {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
    serve("127.0.0.1:0", agg, config).expect("binds")
}

/// Short socket timeouts so tests that genuinely hit the real socket
/// (never the injected, instant "timeouts") fail fast instead of
/// stalling the suite.
fn fast_config() -> NetConfig {
    NetConfig {
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..NetConfig::default()
    }
}

/// No real sleeping in deterministic tests.
fn no_sleep<S: std::io::Read + std::io::Write>(c: ResilientClient<S>) -> ResilientClient<S> {
    c.with_sleep(Box::new(|_| {}))
}

/// Regression for the reply-desynchronization bug: a reply that arrives
/// after the client's timeout must never be attributed to the next
/// request. First demonstrate the failure mode against a naive client,
/// then show [`ProfileClient`] poisons itself instead.
#[test]
fn late_reply_is_never_attributed_to_the_next_request() {
    let config = fast_config();
    let server = start_server(config);

    // A naive client that keeps using the connection after a timeout
    // reads the *stats* answer as the reply to its *epoch* request.
    let schedule = FaultSchedule::scripted([Fault::DelayReply, Fault::None]).shared();
    let mut naive = FaultStream::connect(server.addr(), config, schedule).expect("connects");
    write_msg(&mut naive, &[&[OP_STATS]]).expect("request sent");
    let err = read_msg(&mut naive, config.max_frame_bytes).expect_err("reply delayed past timeout");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    write_msg(&mut naive, &[&[OP_EPOCH]]).expect("next request sent");
    let misattributed = read_msg(&mut naive, config.max_frame_bytes)
        .expect("stale bytes are readable")
        .expect("a whole frame is buffered");
    assert_eq!(misattributed[0], ST_OK);
    assert!(
        String::from_utf8_lossy(&misattributed[1..]).contains("frames="),
        "the 'epoch reply' is actually the stale stats reply: {:?}",
        String::from_utf8_lossy(&misattributed[1..])
    );

    // ProfileClient refuses to fall into that trap: the timed-out
    // exchange poisons the connection and every later call fails fast.
    let schedule = FaultSchedule::scripted([Fault::DelayReply, Fault::None]).shared();
    let stream = FaultStream::connect(server.addr(), config, schedule).expect("connects");
    let mut client = ProfileClient::from_stream(stream, config);
    match client.stats_text() {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
        other => panic!("delayed reply must surface as a timeout: {other:?}"),
    }
    assert!(client.is_poisoned());
    match client.advance_epoch() {
        Err(ClientError::Poisoned) => {}
        other => panic!("poisoned connection must refuse the next exchange: {other:?}"),
    }
    server.shutdown();
}

/// Wire-level fault matrix, reply side: the reply truncated at *every*
/// byte boundary, a mid-exchange reset, and a busy refusal. Every
/// transport fault poisons; the server-side refusal does not.
#[test]
fn reply_fault_matrix_poisons_exactly_the_transport_faults() {
    let config = fast_config();
    let server = start_server(config);

    // Measure the clean stats reply so the truncation sweep can cover
    // every byte of the frame (4-byte header + status + payload).
    let mut probe = ProfileClient::connect(server.addr(), config).expect("connects");
    let stats = probe.stats_text().expect("clean stats");
    let frame_len = 4 + 1 + stats.len();

    for cut in 0..frame_len {
        let schedule = FaultSchedule::scripted([Fault::TruncateReply(cut)]).shared();
        let stream = FaultStream::connect(server.addr(), config, schedule).expect("connects");
        let mut client = ProfileClient::from_stream(stream, config);
        match client.stats_text() {
            Err(ClientError::Io(_) | ClientError::Protocol(_)) => {}
            other => panic!("cut at byte {cut} must fail the exchange: {other:?}"),
        }
        assert!(client.is_poisoned(), "cut at byte {cut} must poison");
    }

    // Mid-exchange connection reset.
    let schedule = FaultSchedule::scripted([Fault::ResetOnWrite]).shared();
    let stream = FaultStream::connect(server.addr(), config, schedule).expect("connects");
    let mut client = ProfileClient::from_stream(stream, config);
    match client.stats_text() {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
        other => panic!("reset must surface as an I/O error: {other:?}"),
    }
    assert!(client.is_poisoned());

    // A busy refusal is a well-framed server answer: no poisoning, and
    // the very next exchange on the same connection succeeds.
    let schedule = FaultSchedule::scripted([Fault::Busy, Fault::None]).shared();
    let stream = FaultStream::connect(server.addr(), config, schedule).expect("connects");
    let mut client = ProfileClient::from_stream(stream, config);
    match client.stats_text() {
        Err(ClientError::Server(msg)) => assert!(msg.starts_with("busy"), "{msg}"),
        other => panic!("busy must surface as a server rejection: {other:?}"),
    }
    assert!(!client.is_poisoned(), "ST_ERR keeps framing intact");
    assert!(client
        .stats_text()
        .expect("connection reusable")
        .contains("frames="));
    server.shutdown();
}

/// Wire-level fault matrix, request side: a request truncated at every
/// byte boundary (client dies mid-write) must never wedge or kill the
/// server, and an oversized reply is rejected client-side before
/// allocation.
#[test]
fn request_truncation_and_oversized_replies_are_survivable() {
    let config = fast_config();
    let server = start_server(config);

    // A full valid OP_STATS request frame, cut at every byte.
    let mut request = Vec::new();
    write_msg(&mut request, &[&[OP_STATS]]).expect("in-memory write");
    for cut in 0..request.len() {
        let mut raw = TcpStream::connect(server.addr()).expect("connects");
        raw.write_all(&request[..cut]).expect("partial write");
        drop(raw); // close mid-frame
    }
    // The server survived every mutilation and still serves.
    let mut client = ProfileClient::connect(server.addr(), config).expect("connects");
    assert!(client
        .stats_text()
        .expect("still serving")
        .contains("frames="));

    // Oversized reply: the client's frame limit is below the server's,
    // so a large merged snapshot arrives as an over-limit frame and is
    // refused before the body is read — poisoning the connection.
    let mut rng = SmallRng::seed_from_u64(0xB16);
    let mut big = DynamicCallGraph::new();
    for _ in 0..2_000 {
        big.record(edge(&mut rng), rng.gen_range(1..100u64) as f64);
    }
    client.push_snapshot(&big).expect("accepted");
    let tiny = NetConfig {
        max_frame_bytes: 256,
        ..config
    };
    let mut small_client = ProfileClient::connect(server.addr(), tiny).expect("connects");
    match small_client.pull() {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        other => panic!("over-limit reply must be refused: {other:?}"),
    }
    assert!(small_client.is_poisoned());
    server.shutdown();
}

/// `OP_PUSH_SEQ` deduplicates per `(client, seq)`: replays acknowledge
/// as duplicates without re-applying, sequence gaps (from outbox
/// coalescing) are tolerated, and ids are independent.
#[test]
fn sequenced_pushes_are_exactly_once() {
    let config = fast_config();
    let server = start_server(config);
    let mut client = ProfileClient::connect(server.addr(), config).expect("connects");
    let e = CallEdge::new(MethodId::new(1), CallSiteId::new(0), MethodId::new(2));
    let frame = cbs_profiled::DcgCodec::encode_delta(&[(e, 5.0)]);

    assert_eq!(client.push_seq(7, 1, &frame).unwrap(), PushOutcome::Applied);
    assert_eq!(
        client.push_seq(7, 1, &frame).unwrap(),
        PushOutcome::Duplicate,
        "replay of an applied sequence must not re-apply"
    );
    // A gap (seq 2 was coalesced away client-side) is fine.
    assert_eq!(client.push_seq(7, 3, &frame).unwrap(), PushOutcome::Applied);
    // Late replay below the high-water mark is still a duplicate.
    assert_eq!(
        client.push_seq(7, 2, &frame).unwrap(),
        PushOutcome::Duplicate
    );
    // Another client id has its own sequence space.
    assert_eq!(client.push_seq(8, 1, &frame).unwrap(), PushOutcome::Applied);

    let merged = server.aggregator().merged_snapshot();
    assert_eq!(merged.weight(&e), 15.0, "exactly three applications");
    server.shutdown();
}

/// Chunked PULL: a merged snapshot larger than `max_frame_bytes`
/// degrades into multiple pages that reassemble bit-identically to the
/// in-process merged snapshot, while the single-frame `OP_PULL` path
/// refuses (frame limit) without killing the connection.
#[test]
fn chunked_pull_reassembles_an_oversized_snapshot_bit_identically() {
    let config = NetConfig {
        max_frame_bytes: 4096,
        ..fast_config()
    };
    let server = start_server(config);
    let mut client = ProfileClient::connect(server.addr(), config).expect("connects");

    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut vm = DynamicCallGraph::new();
    while vm.num_edges() < 3_000 {
        vm.record(edge(&mut rng), rng.gen_range(1..1000u64) as f64);
    }
    // Stream it up in under-limit delta slices.
    let all: Vec<(CallEdge, f64)> = vm.iter().map(|(e, w)| (*e, w)).collect();
    for slice in all.chunks(100) {
        client
            .push_delta(slice)
            .expect("slice fits the frame limit");
    }

    // The whole snapshot does not fit one frame…
    match client.pull() {
        Err(ClientError::Server(msg)) => assert!(msg.contains("frame limit"), "{msg}"),
        other => panic!("single-frame pull must hit the frame limit: {other:?}"),
    }
    // …but the paged pull reassembles it exactly, on the same
    // connection (the refusal did not poison).
    let (pulled, pages) = client.pull_chunked().expect("chunked pull");
    assert!(pages > 1, "snapshot must have spanned multiple pages");
    let merged = server.aggregator().merged_snapshot();
    assert_eq!(pulled, *merged);
    for (e, w) in merged.iter() {
        assert_eq!(pulled.weight(e).to_bits(), w.to_bits(), "edge {e}");
    }
    assert_eq!(
        pulled.total_weight().to_bits(),
        merged.total_weight().to_bits()
    );
    assert_eq!(pulled, vm, "nothing lost on the way up either");
    server.shutdown();
}

/// Regression for the out-of-sequence chunk request bug: `OP_PULL_CHUNK`
/// for a page > 0 on a connection that never captured page 0 — or whose
/// capture was cleared by a completed pull — must draw a clean `ST_ERR`
/// that names the missing capture, never a stale page, a panic, or a
/// dead connection.
#[test]
fn chunk_page_without_a_page0_capture_is_refused_cleanly() {
    let config = fast_config();
    let server = start_server(config);
    let mut pusher = ProfileClient::connect(server.addr(), config).expect("connects");
    pusher
        .push_delta(&[(
            CallEdge::new(MethodId::new(1), CallSiteId::new(0), MethodId::new(2)),
            5.0,
        )])
        .expect("accepted");

    let mut raw = TcpStream::connect(server.addr()).expect("connects");
    let ask = |raw: &mut TcpStream, page: u32| -> Vec<u8> {
        write_msg(raw, &[&[OP_PULL_CHUNK], &page.to_be_bytes()]).expect("request sent");
        read_msg(raw, config.max_frame_bytes)
            .expect("reply readable")
            .expect("whole frame")
    };

    // Page 3 before any page 0 on this connection: refused by name.
    let reply = ask(&mut raw, 3);
    assert_eq!(reply[0], ST_ERR);
    assert!(
        String::from_utf8_lossy(&reply[1..]).contains("no page-0 capture"),
        "{:?}",
        String::from_utf8_lossy(&reply[1..])
    );

    // The refusal kept the connection: page 0 captures and serves.
    let reply = ask(&mut raw, 0);
    assert_eq!(reply[0], ST_OK);
    let total = u32::from_be_bytes(reply[1..5].try_into().unwrap());
    assert_eq!(total, 1, "tiny snapshot fits one page");

    // That was the final page, so the capture is cleared; a later
    // page > 0 must restart from page 0, not re-read stale pages.
    let reply = ask(&mut raw, 1);
    assert_eq!(reply[0], ST_ERR);
    assert!(
        String::from_utf8_lossy(&reply[1..]).contains("no page-0 capture"),
        "{:?}",
        String::from_utf8_lossy(&reply[1..])
    );

    // The server is unharmed: a well-behaved chunked pull still
    // reassembles the exact merged snapshot.
    let mut client = ProfileClient::connect(server.addr(), config).expect("connects");
    assert_eq!(
        client.pull_chunked().expect("chunked pull").0,
        *server.aggregator().merged_snapshot()
    );
    server.shutdown();
}

/// The PR's acceptance scenario: a seeded fault schedule failing well
/// over 20% of exchanges — drops, stale-reply timeouts, truncations,
/// resets, and a scripted busy refusal — while a VM streams 60 delta
/// flushes through the resilient client. The pooled profile must be
/// **bit-identical** to the fault-free run's: zero lost weight, zero
/// double-counted weight.
#[test]
fn faulty_and_clean_runs_pool_bit_identical_profiles() {
    let config = fast_config();
    let policy = RetryPolicy {
        max_attempts: 32,
        ..RetryPolicy::default()
    };

    // One VM workload, two transports. Integral weights (sample counts)
    // keep addition exact under any regrouping.
    let batches: Vec<Vec<(CallEdge, f64)>> = {
        let mut rng = SmallRng::seed_from_u64(0xFA117);
        let mut vm = DynamicCallGraph::new();
        (0..60)
            .map(|_| {
                for _ in 0..rng.gen_range(1..60usize) {
                    vm.record(edge(&mut rng), rng.gen_range(1..1000u64) as f64);
                }
                vm.drain_delta()
            })
            .collect()
    };

    let run = |client: &mut ResilientClient<_>| {
        for batch in &batches {
            client.push_delta(batch.clone()).expect("delivered");
        }
        client.flush().expect("outbox drained");
        client.pull().expect("pulled").0
    };

    let clean_server = start_server(config);
    // Rate 0.0: the proxy is in the path but never injects.
    let schedule = FaultSchedule::seeded(0, 0.0).shared();
    let mut clean_client = no_sleep(ResilientClient::connect_faulty(
        clean_server.addr().to_string(),
        config,
        policy,
        1,
        schedule,
    ));
    let clean = run(&mut clean_client);
    let clean_merged = clean_server.aggregator().merged_snapshot();
    clean_server.shutdown();

    let faulty_server = start_server(config);
    let schedule = FaultSchedule::seeded(0xD15EA5E, 0.30)
        .with_script([Fault::Busy])
        .shared();
    let mut faulty_client = no_sleep(ResilientClient::connect_faulty(
        faulty_server.addr().to_string(),
        config,
        policy,
        1,
        Arc::clone(&schedule),
    ));
    let faulty = run(&mut faulty_client);
    let faulty_merged = faulty_server.aggregator().merged_snapshot();
    faulty_server.shutdown();

    // The schedule really was hostile: >= 20% of exchanges faulted,
    // with every fault kind represented.
    let counts = schedule.lock().unwrap().counts();
    let rate = counts.faulted() as f64 / counts.total() as f64;
    assert!(rate >= 0.20, "observed fault rate {rate:.3} ({counts:?})");
    assert!(counts.drops > 0, "{counts:?}");
    assert!(counts.delays > 0, "{counts:?}");
    assert!(counts.truncations > 0, "{counts:?}");
    assert!(counts.resets > 0, "{counts:?}");
    assert!(counts.busies >= 1, "{counts:?}");
    let stats = faulty_client.stats();
    assert!(stats.reconnects > 0, "faults must have forced reconnects");
    assert!(stats.retries > 0);

    // Bit-identical pooled profiles, down to the running total.
    assert_eq!(faulty, clean);
    assert_eq!(faulty.num_edges(), clean.num_edges());
    for (e, w) in clean.iter() {
        assert_eq!(faulty.weight(e).to_bits(), w.to_bits(), "edge {e}");
    }
    assert_eq!(
        faulty.total_weight().to_bits(),
        clean.total_weight().to_bits()
    );
    // And both equal the server-side truth and the VM's own graph.
    assert_eq!(faulty_merged, clean_merged);
    let mut vm_total = DynamicCallGraph::new();
    for batch in &batches {
        for &(e, w) in batch {
            vm_total.record(e, w);
        }
    }
    assert_eq!(clean, vm_total, "zero lost weight, zero double-counting");
}

/// The resilient client also retries pulls: a schedule that faults the
/// first pull attempts still converges to the exact snapshot.
#[test]
fn resilient_pull_retries_through_faults() {
    let config = fast_config();
    let server = start_server(config);
    let mut rng = SmallRng::seed_from_u64(0x9E77);
    let mut vm = DynamicCallGraph::new();
    for _ in 0..300 {
        vm.record(edge(&mut rng), rng.gen_range(1..50u64) as f64);
    }
    let mut pusher = ProfileClient::connect(server.addr(), config).expect("connects");
    pusher.push_snapshot(&vm).expect("accepted");

    let schedule = FaultSchedule::scripted([
        Fault::DropRequest,
        Fault::ResetOnWrite,
        Fault::TruncateReply(3),
        Fault::Busy,
        Fault::DelayReply,
    ])
    .shared();
    let mut client = no_sleep(ResilientClient::connect_faulty(
        server.addr().to_string(),
        config,
        RetryPolicy::default(),
        42,
        schedule,
    ));
    let (pulled, _) = client.pull().expect("retried to success");
    assert_eq!(pulled, vm);
    assert!(client.stats().retries >= 5);
    server.shutdown();
}
