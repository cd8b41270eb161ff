//! `np-serve` — an overload-safe concurrent partition service.
//!
//! Turns the workspace's batch partitioning pipeline (IG-Match / EIG1 /
//! FM portfolios over the `np-runner` executor) into a long-running
//! server speaking a JSON-lines protocol over TCP or stdio. The hard
//! parts are deliberately the *robustness* parts:
//!
//! * **Admission control** ([`admit`]) — a semaphore over a bounded
//!   queue; beyond `workers + queue` in-flight requests the service
//!   sheds synchronously with an explicit 429-style frame instead of
//!   queueing unboundedly. Queued requests are granted workers by
//!   smooth weighted round-robin over three `priority` classes
//!   (high/normal/low), so high priority keeps a bounded tail under
//!   saturation while low priority still drains.
//! * **Deadlines** ([`service`]) — a request's `deadline_ms` becomes the
//!   wall-clock limit of every [`BudgetMeter`](np_sparse::BudgetMeter)
//!   the request creates, so the numerical kernels cancel themselves
//!   cooperatively; queue wait counts against the deadline.
//! * **Graceful degradation** — every admitted request first buys an
//!   "insurance" FM answer under a tiny private budget, so when the
//!   deadline fires mid-portfolio the service returns the best-so-far
//!   partition flagged `degraded: true` rather than an error; spectral
//!   failures retry with fresh seeds, then drop to an FM-restarts-only
//!   tier.
//! * **Panic isolation** — a panicking stage fails its portfolio attempt
//!   (`np-runner`'s `catch_unwind` boundary), and a second boundary
//!   around the whole request turns anything that still escapes into an
//!   `error` frame instead of a dead server.
//! * **Bounded caching** ([`cache`]) — repeat netlists are recognized by
//!   content hash and share one parse plus one spectral-operator cache,
//!   under entry/byte bounds with LRU eviction (byte accounting audited
//!   by [`Service::cache_audit`](service::Service::cache_audit)).
//! * **Observability** ([`metrics`], `np_core::engine::trace`) — a bare
//!   `/metrics` line (outside admission, so it answers at full load)
//!   returns monotonic counters, log-bucketed latency/queue-wait
//!   histograms per priority class and degradation tier, and live
//!   queue-depth gauges; `/trace` returns recent structured spans
//!   (request → attempt → stage) from a bounded ring.
//! * **Endurance** ([`soak`]) — a deterministic mixed-traffic soak
//!   harness asserting the service leaks no permits, threads or cache
//!   bytes and that its metrics stay self-consistent over minutes of
//!   faulty traffic.
//!
//! The `fault-inject` feature turns on `np-core`'s fault decorator stage,
//! which the service wraps around portfolio attempts for requests that
//! name a [`FaultSpec`] — slow worker, panicking stage, stuck eigensolve
//! — as the resilience integration tests and the soak's fault storms do.
//!
//! # Quickstart
//!
//! ```
//! use np_serve::{Service, ServeConfig};
//! use std::sync::Mutex;
//!
//! let svc = Service::new(ServeConfig::default());
//! let frames = Mutex::new(Vec::new());
//! svc.handle_line(
//!     r#"{"id":"r1","hgr":"3 4\n1 2\n2 3\n3 4\n","restarts":2}"#,
//!     &|frame: &str| frames.lock().unwrap().push(frame.to_string()),
//! );
//! let frames = frames.into_inner().unwrap();
//! assert_eq!(frames.len(), 1);
//! assert!(frames[0].contains("\"frame\":\"result\""));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admit;
pub mod cache;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod service;
pub mod soak;

pub use admit::{Admission, Enrollment, Priority};
pub use cache::{CacheStats, NetlistCache};
pub use metrics::{Histogram, HistogramSnapshot, Metrics};
pub use proto::{FaultSpec, Request};
pub use service::{ServeConfig, Service};
pub use soak::{run_soak, SoakOptions, SoakReport};
