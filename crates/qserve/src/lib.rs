//! `qserve` — the compile stack's front door: a long-running,
//! in-process compile service.
//!
//! The rest of the workspace answers "how do we compile one QAOA program
//! well" (mapping, ordering, routing, the degradation ladder, parametric
//! artifacts). This crate answers "how do we *serve* compilations": a
//! [`Service`] owns a pool of worker threads behind per-tenant job
//! queues, a content-addressed [`Arc`](std::sync::Arc)-shared artifact
//! cache keyed by `(problem structure, CompileOptions, topology
//! fingerprint, calibration epoch)`, calibration hot-reload that bumps
//! the epoch and invalidates only the entries that actually consumed
//! calibration, and admission control that sheds overload down the
//! [`CompileOptions::ladder`](qcompile::CompileOptions::ladder) before
//! rejecting.
//!
//! # Determinism
//!
//! Every cache decision — hit/miss classification, LRU recency, eviction
//! victims, shed and reject outcomes — is made at **admission time**,
//! serialized under one lock in request-arrival order. Worker threads
//! only *fill in* completion slots that admission already reserved. For
//! a single-threaded submitter the full hit/miss/eviction sequence is
//! therefore a pure function of the request stream, independent of how
//! many workers race the compiles — which is what lets the load
//! generator's run manifest gate byte-identical in CI across 1, 2 or 8
//! workers.
//!
//! # Program identity
//!
//! A program's identity is its bits: [`QaoaSpec`](qcompile::QaoaSpec)
//! equality and [`spec_fingerprint`] both read angles through
//! `f64::to_bits`, so a NaN-angle program hits like any other and `+0.0`
//! and `-0.0` angles are two programs. A spec carries its fingerprint,
//! computed once when it was built, and a resubmitted clone shares the
//! cached key's body, so a hit costs O(1) in the program's size.
//!
//! # Example
//!
//! ```
//! use qcompile::{CompileOptions, CphaseOp, QaoaSpec};
//! use qhw::Topology;
//! use qserve::{Outcome, Request, Service, ServiceConfig};
//!
//! let service = Service::new(Topology::grid(3, 3), None, ServiceConfig::default());
//! let ops = vec![
//!     CphaseOp::new(0, 1, 0.5),
//!     CphaseOp::new(1, 2, 0.5),
//!     CphaseOp::new(2, 3, 0.5),
//! ];
//! let spec = QaoaSpec::new(4, vec![(ops, 0.3)], true);
//! let request = Request::new(0, spec, CompileOptions::ic(), 7);
//! let first = service.call(request.clone());
//! assert_eq!(first.outcome, Outcome::Miss);
//! let second = service.call(request);
//! assert_eq!(second.outcome, Outcome::Hit);
//! // Hits share the artifact, they do not recompile it.
//! assert!(std::sync::Arc::ptr_eq(
//!     first.result.as_ref().unwrap(),
//!     second.result.as_ref().unwrap(),
//! ));
//! ```

mod admission;
mod breaker;
mod cache;
mod deadline;
pub mod ops;
mod service;
mod spill;

pub use breaker::{BreakerConfig, BucketConfig};
pub use cache::{spec_fingerprint, CacheKey};
pub use deadline::{BackoffConfig, QuarantineReason};
pub use ops::{render_journal, render_lifecycle, JournalEvent, OpsConfig, RequestTrace, Stage};
pub use service::{
    Outcome, Request, Response, ServeError, Service, ServiceConfig, ServiceStats, Ticket,
};
