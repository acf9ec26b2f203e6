//! # cbs-profiled
//!
//! Fleet-scale profile ingestion and aggregation for the Arnold–Grove
//! CGO'05 reproduction: the tier that turns many per-VM dynamic call
//! graph streams into one fleet-wide profile for the inliners.
//!
//! Three layers, each usable on its own:
//!
//! * [`codec`] — [`DcgCodec`], the compact binary wire format: varint +
//!   delta-encoded 96-bit edge keys, bit-exact weights, and two frame
//!   kinds (full *snapshot*, incremental *delta* fed by
//!   [`cbs_dcg::DynamicCallGraph::drain_delta`]);
//! * [`aggregator`] — [`ShardedAggregator`], hash-partitioned by caller
//!   across N shards with a lazily-applied exponential-decay epoch
//!   clock and consistent, generation-cached merged snapshots;
//! * [`server`]/[`client`] — a `std::net` TCP service speaking
//!   length-prefixed frames with per-connection timeouts, frame-size and
//!   inflight-connection limits, and malformed-frame rejection that
//!   never takes the server down.
//!
//! The exploitation loop closes over the same service: the aggregator
//! runs `cbs_inliner::build_plan` (the paper's `NewLinearPolicy` + 40%
//! guarded-inlining rule) against its merged snapshot and serves the
//! resulting [`cbs_inliner::InlinePlan`] as a `CBSI` frame over
//! `OP_PLAN` ([`ProfileClient::pull_plan`]), cached keyed on the
//! snapshot generation so an unchanged aggregate answers
//! byte-identically.
//!
//! On top of the base client sit the resilience layers:
//!
//! * [`resilient`] — [`ResilientClient`], reconnect + bounded retries
//!   with deterministic seeded backoff, an increment outbox with
//!   merge-on-requeue, and exactly-once `OP_PUSH_SEQ` delivery so no
//!   fault pattern can lose or double-count weight;
//! * [`faults`] — [`FaultStream`]/[`FaultSchedule`], a deterministic
//!   in-process fault proxy (drops, delays, truncations, resets, busy
//!   refusals on a seeded schedule) used by the tests and the
//!   `repro -- fleet --faults` experiment; it also carries the
//!   scripted crash points ([`CrashSite`]/[`CrashSpec`]) the durable
//!   store (`cbs-store`) honours in its write path.
//!
//! The server's write path is abstracted behind [`ProfileJournal`]
//! ([`journal`]): the default [`MemJournal`] applies straight to the
//! aggregator, while `cbs-store`'s `ProfileStore` journals every
//! accepted operation to a write-ahead log first so a restart recovers
//! the aggregator — and the bounded [`DedupTable`] ([`dedup`]) —
//! bit-for-bit.
//!
//! ## Loopback example
//!
//! ```
//! use cbs_profiled::{serve, AggregatorConfig, NetConfig, ProfileClient, ShardedAggregator};
//! use cbs_bytecode::{CallSiteId, MethodId};
//! use cbs_dcg::{CallEdge, DynamicCallGraph};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
//! let server = serve("127.0.0.1:0", agg, NetConfig::default())?;
//!
//! let mut vm_profile = DynamicCallGraph::new();
//! vm_profile.record(
//!     CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(1)),
//!     42.0,
//! );
//! let mut client = ProfileClient::connect(server.addr(), NetConfig::default())?;
//! client.push_snapshot(&vm_profile)?;
//! let fleet = client.pull()?;
//! assert_eq!(fleet, vm_profile);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregator;
pub mod client;
pub mod codec;
pub mod dedup;
pub mod faults;
pub mod journal;
pub mod metrics;
pub mod resilient;
pub mod server;
pub mod wire;

pub use aggregator::{AggregatorConfig, AggregatorStats, IngestScratch, ShardedAggregator};
pub use client::{ClientError, ProfileClient, PushOutcome};
pub use codec::{CodecError, DcgCodec, DcgFrame, FrameKind};
pub use dedup::{DedupEntry, DedupTable};
pub use faults::{CrashSite, CrashSpec, Fault, FaultCounts, FaultSchedule, FaultStream};
pub use journal::{DedupUsage, JournalError, MemJournal, ProfileJournal, SeqIngest};
pub use metrics::ProfiledMetrics;
pub use resilient::{backoff_for_attempt, ResilientClient, RetryPolicy, TransportStats};
pub use server::{serve, serve_with, ServerConfig, ServerHandle};
pub use wire::NetConfig;
