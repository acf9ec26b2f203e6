//! Reconnecting, retrying client with an increment outbox.
//!
//! [`ProfileClient`] is deliberately fragile: one mid-exchange fault
//! poisons the connection. [`ResilientClient`] wraps it with the policy
//! layer a long-running VM needs:
//!
//! * **Reconnect + bounded retries.** Any retryable failure tears the
//!   connection down and re-establishes it through the injected
//!   connector, with deterministic exponential backoff and full jitter
//!   drawn from a seeded [`cbs_prng::SmallRng`]. Sleeping goes through
//!   an injectable closure, so tests and deterministic experiments
//!   record delays instead of waiting them out.
//! * **Outbox with merge-on-requeue.** Increments from
//!   [`drain_delta`](cbs_dcg::DynamicCallGraph::drain_delta) are queued
//!   as batches and flushed in order; a failed push leaves its batch at
//!   the front of the queue. When the queue exceeds its bound, the two
//!   oldest *unattempted* batches are coalesced with
//!   [`cbs_dcg::coalesce_increments`] — increments are never dropped,
//!   only merged. A batch that has been attempted is never coalesced:
//!   the server may already have applied it, and only its original
//!   sequence number lets the duplicate be detected.
//! * **Exactly-once pushes.** Batches go out via `OP_PUSH_SEQ` with a
//!   per-client monotonic sequence. Retrying a maybe-delivered batch is
//!   safe: the server acknowledges an already-applied sequence as
//!   `duplicate` without re-applying, so no fault pattern can
//!   double-count weight. Combined with lossless requeueing this gives
//!   effectively-once delivery of every increment.
//!
//! Pulls prefer the paged `OP_PULL_CHUNK` form, which keeps working
//! when the merged snapshot outgrows `max_frame_bytes`. Epoch advances
//! are *not* blindly retried — decay is not idempotent — only failures
//! that provably precede delivery (connect errors, busy refusals) are.

use crate::client::{ClientError, ProfileClient, PushOutcome};
use crate::codec::DcgCodec;
use crate::faults::{FaultSchedule, FaultStream};
use crate::metrics::ProfiledMetrics;
use crate::wire::NetConfig;
use cbs_dcg::{coalesce_increments, CallEdge, DynamicCallGraph};
use cbs_inliner::InlinePlan;
use cbs_prng::SmallRng;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The pre-jitter exponential backoff before retry `attempt` (1-based):
/// `base * 2^min(attempt - 1, 16)`, saturating, capped at `max`.
///
/// This is the single source of truth for the backoff shape — the
/// client's jittered delay and every test derive from it. The exponent
/// clamp bounds the shift (so `attempt >= 64`, where `1u32 << attempt`
/// would be UB, is safe) and `saturating_mul` absorbs the remaining
/// overflow; past the clamp the cap normally binds anyway.
pub fn backoff_for_attempt(base: Duration, max: Duration, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << exp).min(max)
}

/// Retry and backoff configuration for a [`ResilientClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per operation (first try included) before giving up.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff * 2^(n-1)`, capped at
    /// [`max_backoff`](Self::max_backoff), scaled by a jitter factor in
    /// `[0.5, 1.0)` drawn from the seeded generator.
    pub base_backoff: Duration,
    /// Upper bound on the exponential backoff (pre-jitter).
    pub max_backoff: Duration,
    /// Seed for the jitter generator: same seed, same backoff sequence.
    pub seed: u64,
    /// Outbox bound: past this many queued batches, the oldest
    /// unattempted pair is coalesced into one batch.
    pub max_outbox_batches: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 16,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            seed: 0x5EED,
            max_outbox_batches: 32,
        }
    }
}

/// Delivery counters exposed for logging and experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Successful connection establishments.
    pub connects: usize,
    /// Connections re-established after a failure (`connects - 1`,
    /// except when the very first connect needed retries).
    pub reconnects: usize,
    /// Operation attempts that failed and were retried.
    pub retries: usize,
    /// Push batches acknowledged as `duplicate` (delivered on an
    /// earlier attempt whose reply was lost).
    pub duplicates: usize,
    /// Outbox coalescing events (two batches merged into one).
    pub coalesced: usize,
}

/// One queued increment batch awaiting delivery.
#[derive(Debug)]
struct OutboxBatch {
    seq: u64,
    increments: Vec<(CallEdge, f64)>,
    /// Whether any delivery attempt has been made. An attempted batch
    /// may already be applied server-side, so it must keep its sequence
    /// number and can never be coalesced with another batch.
    attempted: bool,
}

/// A reconnecting profile client with retries, an increment outbox,
/// and exactly-once push semantics. See the module docs.
pub struct ResilientClient<S: Read + Write = TcpStream> {
    connector: Box<dyn FnMut() -> io::Result<S> + Send>,
    sleep: Box<dyn FnMut(Duration) + Send>,
    client: Option<ProfileClient<S>>,
    config: NetConfig,
    policy: RetryPolicy,
    rng: SmallRng,
    client_id: u64,
    next_seq: u64,
    outbox: VecDeque<OutboxBatch>,
    stats: TransportStats,
}

impl<S: Read + Write> std::fmt::Debug for ResilientClient<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("client_id", &self.client_id)
            .field("connected", &self.client.is_some())
            .field("outbox_batches", &self.outbox.len())
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ResilientClient<TcpStream> {
    /// A resilient client reconnecting to `addr` over TCP with
    /// `config`'s timeouts.
    pub fn connect_tcp(
        addr: impl Into<String>,
        config: NetConfig,
        policy: RetryPolicy,
        client_id: u64,
    ) -> Self {
        let addr = addr.into();
        Self::new(
            Box::new(move || {
                let stream = TcpStream::connect(&addr)?;
                stream.set_read_timeout(Some(config.read_timeout))?;
                stream.set_write_timeout(Some(config.write_timeout))?;
                stream.set_nodelay(true).ok();
                Ok(stream)
            }),
            config,
            policy,
            client_id,
        )
    }
}

impl ResilientClient<FaultStream<TcpStream>> {
    /// A resilient client whose every connection to `addr` runs through
    /// the fault proxy driven by the shared `schedule` — the schedule
    /// continues across reconnects rather than restarting.
    pub fn connect_faulty(
        addr: impl Into<String>,
        config: NetConfig,
        policy: RetryPolicy,
        client_id: u64,
        schedule: Arc<Mutex<FaultSchedule>>,
    ) -> Self {
        let addr = addr.into();
        Self::new(
            Box::new(move || FaultStream::connect(&addr, config, Arc::clone(&schedule))),
            config,
            policy,
            client_id,
        )
    }
}

impl<S: Read + Write> ResilientClient<S> {
    /// A resilient client over an arbitrary connector (each call must
    /// yield a fresh connection). `client_id` must be unique per
    /// pushing VM — the server deduplicates sequences per id.
    pub fn new(
        connector: Box<dyn FnMut() -> io::Result<S> + Send>,
        config: NetConfig,
        policy: RetryPolicy,
        client_id: u64,
    ) -> Self {
        Self {
            connector,
            sleep: Box::new(std::thread::sleep),
            client: None,
            config,
            policy,
            rng: SmallRng::seed_from_u64(policy.seed),
            client_id,
            next_seq: 0,
            outbox: VecDeque::new(),
            stats: TransportStats::default(),
        }
    }

    /// Replaces the backoff sleeper (default: `std::thread::sleep`).
    /// Deterministic tests and experiments pass a recorder or a no-op
    /// so no wall-clock time is ever spent waiting.
    #[must_use]
    pub fn with_sleep(mut self, sleep: Box<dyn FnMut(Duration) + Send>) -> Self {
        self.sleep = sleep;
        self
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Batches currently queued for delivery.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Whether a failure class is safe to retry. Transport and framing
    /// failures always are (pushes are deduplicated server-side, pulls
    /// are idempotent); server rejections only when the server refused
    /// *before* acting — backpressure and shutdown refusals.
    fn is_retryable(e: &ClientError) -> bool {
        match e {
            ClientError::Io(_)
            | ClientError::Codec(_)
            | ClientError::Protocol(_)
            | ClientError::Poisoned => true,
            ClientError::Server(msg) => msg.starts_with("busy") || msg.contains("shutting down"),
        }
    }

    /// The deterministic backoff before retry attempt `attempt`
    /// (1-based): [`backoff_for_attempt`] scaled by full jitter in
    /// `[0.5, 1.0)` from the seeded generator.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let raw = backoff_for_attempt(self.policy.base_backoff, self.policy.max_backoff, attempt);
        let jitter = 0.5 + 0.5 * self.rng.gen_f64();
        raw.mul_f64(jitter)
    }

    fn backoff(&mut self, attempt: u32) {
        let d = self.backoff_delay(attempt);
        // Deterministic despite being a time total: the delay comes from
        // the seeded jitter RNG, not from observed wall-clock.
        ProfiledMetrics::get()
            .client_backoff_ms
            .add(d.as_millis().min(u128::from(u64::MAX)) as u64);
        (self.sleep)(d);
    }

    /// Drops the current connection so the next operation reconnects.
    fn disconnect(&mut self) {
        self.client = None;
    }

    fn ensure_connected(&mut self) -> Result<&mut ProfileClient<S>, ClientError> {
        if self.client.as_ref().is_some_and(|c| !c.is_poisoned()) {
            return Ok(self.client.as_mut().expect("checked above"));
        }
        let stream = (self.connector)()?;
        if self.stats.connects > 0 {
            self.stats.reconnects += 1;
            ProfiledMetrics::get().client_reconnects.inc();
        }
        self.stats.connects += 1;
        Ok(self
            .client
            .insert(ProfileClient::from_stream(stream, self.config)))
    }

    /// Queues `increments` (one [`drain_delta`] harvest) and attempts
    /// to flush the whole outbox in order.
    ///
    /// On failure the undelivered batches — including this one — stay
    /// queued; a later [`push_delta`](Self::push_delta) or
    /// [`flush`](Self::flush) picks them up. No increment is ever
    /// dropped; past the outbox bound, adjacent unattempted batches are
    /// merged.
    ///
    /// [`drain_delta`]: cbs_dcg::DynamicCallGraph::drain_delta
    ///
    /// # Errors
    ///
    /// The last attempt's failure once retries are exhausted.
    pub fn push_delta(&mut self, increments: Vec<(CallEdge, f64)>) -> Result<(), ClientError> {
        self.enqueue(increments);
        self.flush()
    }

    /// Flushes every queued batch in order.
    ///
    /// # Errors
    ///
    /// The last attempt's failure once retries are exhausted; remaining
    /// batches stay queued.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        while let Some(front) = self.outbox.front() {
            let seq = front.seq;
            let frame = DcgCodec::encode_delta(&front.increments);
            let outcome = match self.retrying(|c| c.push_seq_front(seq, &frame)) {
                Ok(o) => o,
                Err(e) => {
                    // The front batch (and everything behind it) stays
                    // queued for the next flush.
                    ProfiledMetrics::get().client_requeued_batches.inc();
                    return Err(e);
                }
            };
            if outcome == PushOutcome::Duplicate {
                self.stats.duplicates += 1;
                ProfiledMetrics::get().client_duplicates.inc();
            }
            self.outbox.pop_front();
        }
        Ok(())
    }

    fn enqueue(&mut self, increments: Vec<(CallEdge, f64)>) {
        let increments = coalesce_increments(&increments, &[]);
        if increments.is_empty() {
            return;
        }
        self.next_seq += 1;
        self.outbox.push_back(OutboxBatch {
            seq: self.next_seq,
            increments,
            attempted: false,
        });
        while self.outbox.len() > self.policy.max_outbox_batches.max(1) {
            // Merge the two oldest *unattempted* batches. At most the
            // front batch can be attempted (only the front is ever
            // sent), so the candidate pair starts at index 0 or 1.
            let i = usize::from(self.outbox[0].attempted);
            if i + 1 >= self.outbox.len() {
                break; // nothing mergeable; tolerate the overshoot
            }
            let a = self.outbox.remove(i).expect("index checked");
            let b = &mut self.outbox[i];
            b.increments = coalesce_increments(&a.increments, &b.increments);
            // `b` already has the higher sequence (batches are queued in
            // assignment order); keeping it preserves monotonicity. The
            // server tolerates the resulting gap.
            self.stats.coalesced += 1;
            ProfiledMetrics::get().client_coalesced_batches.inc();
        }
    }

    /// Runs `op` against a live connection, reconnecting and retrying
    /// on retryable failures up to the policy's attempt budget.
    fn retrying<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0;
        loop {
            attempt += 1;
            match op(self) {
                Ok(v) => return Ok(v),
                Err(e) if Self::is_retryable(&e) && attempt < self.policy.max_attempts => {
                    self.disconnect();
                    self.stats.retries += 1;
                    ProfiledMetrics::get().client_retries.inc();
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One delivery attempt of the front batch (caller supplies its
    /// seq/frame so the borrow of `self.outbox` has ended).
    fn push_seq_front(&mut self, seq: u64, frame: &[u8]) -> Result<PushOutcome, ClientError> {
        if let Some(front) = self.outbox.front_mut() {
            front.attempted = true;
        }
        let client_id = self.client_id;
        self.ensure_connected()?.push_seq(client_id, seq, frame)
    }

    /// Pulls the merged snapshot via paged `OP_PULL_CHUNK` exchanges,
    /// with reconnection and retries (pulls are idempotent); returns
    /// the graph and the page count of the successful attempt.
    ///
    /// # Errors
    ///
    /// The last attempt's failure once retries are exhausted.
    pub fn pull(&mut self) -> Result<(DynamicCallGraph, u32), ClientError> {
        self.retrying(|s| s.ensure_connected()?.pull_chunked())
    }

    /// Pulls the fleet inlining plan, with reconnection and retries
    /// (plan pulls are idempotent: an unchanged aggregate answers
    /// byte-identically from the generation-keyed cache).
    ///
    /// # Errors
    ///
    /// The last attempt's failure once retries are exhausted.
    pub fn pull_plan(&mut self) -> Result<InlinePlan, ClientError> {
        self.retrying(|s| s.ensure_connected()?.pull_plan())
    }

    /// Fetches the server's stats text, with reconnection and retries.
    ///
    /// # Errors
    ///
    /// The last attempt's failure once retries are exhausted.
    pub fn stats_text(&mut self) -> Result<String, ClientError> {
        self.retrying(|s| s.ensure_connected()?.stats_text())
    }

    /// Fetches the server's telemetry exposition, with reconnection and
    /// retries.
    ///
    /// # Errors
    ///
    /// The last attempt's failure once retries are exhausted.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        self.retrying(|s| s.ensure_connected()?.metrics_text())
    }

    /// Advances the decay epoch. **Not** blindly retried: decay is not
    /// idempotent, so only failures that provably precede delivery
    /// (connect failures, busy/shutdown refusals) are retried; a
    /// mid-exchange transport failure is surfaced to the caller, who
    /// must decide whether the epoch may have advanced.
    ///
    /// # Errors
    ///
    /// Any mid-exchange failure, or the last pre-delivery failure once
    /// retries are exhausted.
    pub fn advance_epoch(&mut self) -> Result<u64, ClientError> {
        let mut attempt = 0;
        loop {
            attempt += 1;
            // Connect failures are always safe to retry.
            match self.ensure_connected().map(drop) {
                Ok(()) => {}
                Err(e) if Self::is_retryable(&e) && attempt < self.policy.max_attempts => {
                    self.disconnect();
                    self.stats.retries += 1;
                    ProfiledMetrics::get().client_retries.inc();
                    self.backoff(attempt);
                    continue;
                }
                Err(e) => return Err(e),
            }
            match self
                .client
                .as_mut()
                .expect("just connected")
                .advance_epoch()
            {
                Ok(epoch) => return Ok(epoch),
                // A server refusal means the request was *not* acted on.
                Err(e @ ClientError::Server(_))
                    if Self::is_retryable(&e) && attempt < self.policy.max_attempts =>
                {
                    self.stats.retries += 1;
                    ProfiledMetrics::get().client_retries.inc();
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{CallSiteId, MethodId};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn edge(n: u32) -> CallEdge {
        CallEdge::new(MethodId::new(n), CallSiteId::new(0), MethodId::new(n + 1))
    }

    /// A connector that always fails, for exercising the retry loop
    /// without a server.
    fn unreachable_client(policy: RetryPolicy) -> ResilientClient<std::io::Cursor<Vec<u8>>> {
        ResilientClient::new(
            Box::new(|| {
                Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "no server",
                ))
            }),
            NetConfig::default(),
            policy,
            1,
        )
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            seed: 42,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            ..RetryPolicy::default()
        };
        let delays = |policy| {
            let mut c = unreachable_client(policy);
            (1..=12).map(|a| c.backoff_delay(a)).collect::<Vec<_>>()
        };
        let a = delays(policy);
        let b = delays(policy);
        assert_eq!(a, b, "same seed must give the same backoff sequence");
        for (i, d) in a.iter().enumerate() {
            let attempt = i as u32 + 1;
            // The expected pre-jitter delay comes from the same helper
            // the client uses — the formula lives in exactly one place.
            let exp = backoff_for_attempt(
                Duration::from_millis(10),
                Duration::from_millis(500),
                attempt,
            );
            assert!(
                *d >= exp.mul_f64(0.5) && *d < exp,
                "attempt {attempt}: {d:?} outside jitter window of {exp:?}"
            );
        }
        // The cap binds from attempt 7 on (10ms * 2^6 = 640ms > 500ms).
        assert!(a[8] <= Duration::from_millis(500));
    }

    #[test]
    fn retries_are_bounded_and_sleep_through_the_injected_closure() {
        let policy = RetryPolicy {
            max_attempts: 5,
            ..RetryPolicy::default()
        };
        let sleeps = Arc::new(AtomicUsize::new(0));
        let recorded = Arc::clone(&sleeps);
        let mut c = unreachable_client(policy).with_sleep(Box::new(move |_| {
            recorded.fetch_add(1, Ordering::SeqCst);
        }));
        let err = c
            .push_delta(vec![(edge(1), 3.0)])
            .expect_err("no server to reach");
        assert!(matches!(err, ClientError::Io(_)), "{err}");
        assert_eq!(sleeps.load(Ordering::SeqCst), 4, "max_attempts-1 backoffs");
        assert_eq!(c.stats().retries, 4);
        assert_eq!(c.outbox_len(), 1, "failed batch stays queued");
    }

    #[test]
    fn outbox_coalesces_oldest_unattempted_batches_losslessly() {
        let policy = RetryPolicy {
            max_outbox_batches: 2,
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let mut c = unreachable_client(policy).with_sleep(Box::new(|_| {}));
        // Three failed pushes against a 2-batch bound.
        for i in 0..3u32 {
            let _ = c.push_delta(vec![(edge(i), 1.0), (edge(100), 1.0)]);
        }
        assert_eq!(c.outbox_len(), 2, "bound enforced by coalescing");
        assert_eq!(c.stats().coalesced, 1);
        // The front batch was attempted (delivery was tried), so the
        // merge must have combined the two *later* batches.
        assert!(c.outbox[0].attempted);
        assert_eq!(
            c.outbox[0].increments,
            vec![(edge(0), 1.0), (edge(100), 1.0)]
        );
        assert!(!c.outbox[1].attempted);
        // Lossless: the shared edge's weight is summed, nothing dropped.
        assert_eq!(
            c.outbox[1].increments,
            vec![(edge(1), 1.0), (edge(2), 1.0), (edge(100), 2.0)]
        );
        // The merged batch keeps the higher sequence.
        assert_eq!(c.outbox[1].seq, 3);
    }

    /// Property test for the shared backoff helper: delays never
    /// decrease with the attempt number, never exceed the cap, and stay
    /// finite (no shift/multiply overflow) arbitrarily deep into a
    /// retry storm — including `attempt >= 64`, where an unclamped
    /// `1u32 << attempt` would be undefined behaviour.
    #[test]
    fn backoff_for_attempt_is_monotonic_capped_and_overflow_safe() {
        cbs_prng::prop::run_cases("backoff_for_attempt", 128, |rng| {
            let base = Duration::from_millis(rng.gen_range(1u64..=10_000));
            let max = Duration::from_millis(rng.gen_range(1u64..=600_000));
            let mut prev = Duration::ZERO;
            for attempt in 1..=96u32 {
                let d = backoff_for_attempt(base, max, attempt);
                assert!(
                    d >= prev,
                    "base={base:?} max={max:?}: delay shrank at attempt {attempt} \
                     ({prev:?} -> {d:?})"
                );
                assert!(d <= max.max(base), "attempt {attempt}: {d:?} above the cap");
                prev = d;
            }
            // Deep attempts degenerate to a constant: the clamped
            // exponent makes 65, 66, … identical to 64.
            let deep = backoff_for_attempt(base, max, 64);
            assert_eq!(deep, backoff_for_attempt(base, max, 65));
            assert_eq!(deep, backoff_for_attempt(base, max, u32::MAX));
            // Degenerate extremes stay overflow-free.
            let huge = backoff_for_attempt(Duration::MAX, Duration::MAX, u32::MAX);
            assert_eq!(huge, Duration::MAX);
        });
    }

    #[test]
    fn empty_deltas_are_not_queued() {
        let mut c = unreachable_client(RetryPolicy::default());
        c.push_delta(Vec::new()).expect("nothing to deliver");
        c.push_delta(vec![(edge(1), 0.0), (edge(2), -4.0)])
            .expect("non-positive increments are dropped at the door");
        assert_eq!(c.outbox_len(), 0);
    }
}
