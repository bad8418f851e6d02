//! # sara-util
//!
//! Shared, dependency-free infrastructure used across the workspace:
//!
//! * [`pool`] — the parallel point-evaluation pool (scoped threads,
//!   deterministic result ordering, per-point panic isolation). It lives
//!   here so crates below the bench harness (notably `sara-dse`) can fan
//!   candidate evaluations out without a dependency cycle.
//! * [`json`] — the minimal JSON value type with insertion-ordered
//!   object keys, plus a parser so replayable artifacts (knob configs,
//!   fault plans' JSON sidecars) can be read back.
//!
//! The crate is deliberately std-only: it sits below every other
//! workspace crate.

pub mod json;
pub mod pool;

pub use json::Json;
