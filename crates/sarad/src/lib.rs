//! # sarad
//!
//! The persistent compile-and-simulate service for the SARA stack. The
//! compiler pipeline (lower → CMMC → partition → PnR → simulate) is
//! deterministic in its inputs, and heavy clients — the DSE autotuner,
//! the sweep harness — issue thousands of near-identical requests that
//! differ in a knob or two. `sarad` exploits that shape:
//!
//! * [`engine`] — the staged pipeline with content-addressed caching:
//!   every stage output is keyed by a stable hash of its inputs
//!   (program text, compiler options, chip, PnR seed; for simulations,
//!   the compiled design in place of the program and options) and
//!   served from an in-memory index or, for cost estimates and
//!   simulations, the verified on-disk store. All four stages share one
//!   cache routine, and identical in-flight requests coalesce
//!   (single-flight). [`engine::CachedEval`] plugs the engine into
//!   `sara-dse` as an [`Evaluator`](sara_dse::Evaluator) backend, so a
//!   cache-warm autotune run — on the same engine or a restarted one —
//!   performs **zero** recompilations for repeated (program, flags,
//!   chip, seed) tuples.
//! * [`store`] — one JSON artifact per (stage, key) with a payload
//!   content hash checked at read time: corruption is detected and
//!   recomputed, never served.
//! * [`server`] / [`client`] — newline-delimited JSON over a Unix
//!   domain socket or TCP ([`net`] holds the transport abstraction;
//!   an endpoint containing `':'` is a `host:port` address), a bounded
//!   connection queue with typed backpressure rejection, per-stage
//!   progress events, and a stats report (the `sarad` binary serves;
//!   `sarac --connect` wires the client into the compiler driver).

pub mod chaos;
pub mod client;
pub mod engine;
pub mod net;
pub mod server;
pub mod store;

pub use client::{Client, ClientError, RetryPolicy};
pub use engine::{stage_keys, CachedEval, Deadline, Engine, KnobKeys, SimArtifact, StageKeys};
pub use net::{Conn, Endpoint, Listener};
pub use server::{serve, serve_on, serve_with, ServerOptions};
pub use store::{Store, StoreFaults, StoreRead};
