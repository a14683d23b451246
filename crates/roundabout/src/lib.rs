//! # data-roundabout — the ring-shaped RDMA transport layer
//!
//! The paper's Data Roundabout (§II-C, §III-D): hosts organized as a
//! logical ring, each talking only to its direct neighbors over high-speed
//! links, with a statically registered pool of ring-buffer elements per
//! host and three asynchronous entities — receiver, join entity,
//! transmitter — that keep communication fully overlapped with
//! computation.
//!
//! Four interchangeable backends run the same protocol:
//!
//! * [`sim_backend::SimRing`] — on a deterministic virtual clock, with
//!   `simnet`'s RDMA/TCP cost models as its medium; this is the backend
//!   all paper figures are reproduced on;
//! * [`thread_backend::RingDriver`] — on real OS threads with channels
//!   for wires, validating the protocol under true concurrency (and
//!   running the one-host ring of every wall-clock engine, which has no
//!   wire);
//! * [`tcp_backend::TcpRingDriver`] — over real loopback TCP sockets
//!   with length-prefixed framing, validating the protocol against an
//!   actual kernel network stack (and giving the RDMA-vs-TCP exhibits a
//!   measured column next to the modeled one);
//! * [`reactor_backend::ReactorRingDriver`] — the same loopback TCP
//!   wire protocol driven by a single nonblocking event-loop thread
//!   (epoll on Linux, a portable readiness-polling fallback elsewhere)
//!   and a core-bounded join pool, so the thread count stays bounded as
//!   the ring widens to 64–256 hosts.
//!
//! All backends are thin *drivers* over the same sans-IO [`protocol`]
//! core, which owns every credit, acknowledgement and healing decision,
//! and all four share one applier of the protocol's outputs,
//! [`coordinator`], which every run goes through — on a virtual clock or
//! the machine's — and which owns the run's one event queue (no driver
//! has a timer of its own). The three wall-clock drivers are one builder
//! ([`WallClockDriver`]) over three engines; the two socket drivers share
//! one wire format, [`frame`]. The applier runs the protocol over one
//! shared in-flight payload per fragment copy (`inflight`), so neither a
//! visit nor a retransmission copies a payload; a socket engine encodes
//! each fragment once per revolution and never decodes one: a visit joins
//! the bytes it arrived in ([`WirePayload::View`]).
//!
//! ```
//! use data_roundabout::{FixedCostApp, RingConfig, SimRing};
//! use simnet::time::SimDuration;
//!
//! // Three hosts, one 1 MB fragment each, fixed per-buffer cost.
//! let config = RingConfig::paper(3);
//! let fragments: Vec<Vec<Vec<u8>>> =
//!     (0..3).map(|_| vec![vec![0u8; 1 << 20]]).collect();
//! let app = FixedCostApp::new(3, SimDuration::from_millis(1), SimDuration::from_millis(4));
//! let outcome = SimRing::new(config, fragments, app).run();
//! assert_eq!(outcome.metrics.fragments_completed, 3);
//! // Every host processed every fragment exactly once.
//! assert!(outcome.metrics.hosts.iter().all(|h| h.fragments_processed == 3));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(test)]
mod alloc_count;
pub mod app;
pub mod config;
mod coordinator;
pub mod envelope;
pub mod error;
pub mod frame;
mod inflight;
pub mod metrics;
pub mod protocol;
pub mod reactor_backend;
pub mod sim_backend;
pub mod sync;
pub mod tcp_backend;
pub mod thread_backend;
mod wall_clock;

pub use app::{FixedCostApp, RingApp};
pub use config::{ConfigError, RingConfig};
pub use coordinator::validate_plans;
pub use envelope::{Envelope, FragmentId, PayloadBytes};
pub use error::{FrameError, RingError};
pub use frame::{Frame, FrameDecoder, WirePayload};
pub use metrics::{render_timeline, HostMetrics, QueryMetrics, RingMetrics};
pub use reactor_backend::{ReactorEngine, ReactorRingDriver};
pub use sim_backend::{SimOutcome, SimRing};
pub use tcp_backend::{BlockingEngine, TcpRingDriver};
pub use thread_backend::{ChannelEngine, RingDriver};
pub use wall_clock::{WallClockDriver, WallClockEngine};

pub use simnet::fault::{FaultPlan, RescalePlan};
pub use simnet::topology::HostId;
