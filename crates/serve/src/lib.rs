//! Placement-as-a-service for ChainNet: a long-running daemon that
//! keeps trained surrogate weights warm and answers loss-aware
//! placement queries over a JSON-lines protocol, staying useful while
//! the edge fails underneath it.
//!
//! The crate is organized in layers:
//!
//! * [`protocol`] — the typed request/response vocabulary, including
//!   the [`protocol::DegradationLevel`] ladder every answer reports,
//!   with hardened line parsing ([`protocol::parse_request_line`]).
//! * [`engine`] — the single-threaded deterministic core: topology +
//!   fault state, the full-search → local-repair → cached degradation
//!   ladder, incremental re-optimization on fault events, and
//!   crash-safe state persistence through `chainnet-ckpt`.
//! * [`shard`] — pure deterministic routing: chain-cluster sharding of
//!   placement requests, broadcast classification, hedge siblings.
//! * [`health`] — the pure worker-health state machine (heartbeats,
//!   suspicion, wedge detection) the supervisor polls.
//! * [`supervisor`] — the multi-process layer: N crash-isolated worker
//!   shards behind one parent, with heartbeat health checks, restart +
//!   replay on worker death, slow-worker hedging, stale-answer
//!   degradation, and bit-identical resume from checkpoints.
//! * [`daemon`] — transports (stdin lines or TCP), bounded-queue
//!   admission control with typed `Overloaded` shedding, and a bounded
//!   drain-on-shutdown so accepted requests get answers (or typed
//!   `ShuttingDown` rejections), never silence.
//!
//! See `docs/serving.md` for the protocol reference and operational
//! semantics, and `examples/soak.rs` (workspace root) for the chaos
//! harness that exercises all of it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(missing_docs)]

pub mod daemon;
pub mod engine;
pub mod error;
pub mod health;
pub mod protocol;
pub mod shard;
pub mod supervisor;

pub use daemon::Daemon;
pub use engine::{Engine, EngineConfig, ServeState, SERVE_CKPT_SCHEMA};
pub use error::ServeError;
pub use health::{HealthConfig, HealthTracker, WorkerPhase};
pub use protocol::{DegradationLevel, Outcome, RejectKind, Request, RequestBody, Response};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorState, SUPERVISOR_CKPT_SCHEMA};
