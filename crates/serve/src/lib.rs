//! Resilient serving for Bootleg inference.
//!
//! Research code panics on surprise; serving code cannot. This crate wraps
//! the inference stack in the standard production armor:
//!
//! - **Admission control** — requests are validated against the model's
//!   actual table sizes ([`bootleg_core::Example::validate`]) and rejected
//!   with a typed defect instead of panicking a worker; a bounded queue
//!   sheds overload instead of building unbounded latency.
//! - **Deadlines** — each request carries a [`Deadline`] checked at forward
//!   phase boundaries ([`bootleg_core::BootlegModel::try_forward_batch`]), so an
//!   over-budget request stops mid-pass with partial diagnostics.
//! - **Panic isolation** — every tier runs under `catch_unwind`; a poisoned
//!   request takes out nothing but itself.
//! - **Degraded mode** — a [`FallbackChain`] (Bootleg → NED-Base →
//!   popularity prior) with per-tier circuit breakers keeps answering,
//!   progressively worse, while the primary model is down.
//!
//! The invariant the chaos tests enforce: **every submitted request gets
//! exactly one terminal [`ServeOutcome`]** — an answer annotated with its
//! serving tier, or a typed [`ServeError`]. No hangs, no lost requests, no
//! unwinding panics.
//!
//! Every request is observable end to end ([`telemetry`]): a request id
//! minted at admission follows the request through queue → batch formation
//! → tier chain → forward phases; terminal outcomes land in the obs
//! recent/exemplar rings (`/tracez`), sliding-window latency histograms
//! (`serve.window.*`, p50/p95/p99 over the trailing minute), per-tier
//! breaker-state gauges, and per-popularity-slice counters — so tail and
//! unseen entities have their own serving latency and tier-outcome story.
//! Set `BOOTLEG_OBS_ADDR=host:port` to expose it all live over HTTP
//! ([`bootleg_obs::serve_from_env`]).
//!
//! Knobs: serving is tuned in code — [`ServeConfig`]'s `with_*` builders
//! (queue capacity, default 64; per-request deadline, default unlimited;
//! micro-batch cap, default 8 — the batcher is work-conserving, so there is
//! no wait window to tune) and [`BreakerConfig`] passed to
//! [`FallbackChain::with_clock`] (default 3 failures, 1 s cooldown).
//! Environment: `BOOTLEG_THREADS` (default serving workers) and
//! `BOOTLEG_SLOW_MS` (slow-request exemplar threshold, default 250).

#![warn(missing_docs)]

pub mod artifact;
pub mod breaker;
pub mod chain;
pub mod clock;
pub mod error;
pub mod server;
pub mod telemetry;
pub mod tier;

pub use artifact::startup_bundle;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chain::{breaker_state_value, FallbackChain};
pub use clock::{Clock, VirtualClock, WallClock};
pub use error::{ServeError, ServeOutcome, ServeResponse, TierError, TierFailure};
pub use server::{serve_requests, ResilientPredictor, ServeConfig};
pub use tier::{ModelTier, PredictorTier, RequestCx, Tier};

pub use bootleg_core::Deadline;
