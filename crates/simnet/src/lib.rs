//! # simnet — deterministic network/CPU simulation substrate
//!
//! `simnet` is the hardware-substitution layer of the cyclo-join
//! reproduction: it stands in for the six-blade RDMA cluster the paper ran
//! on. It provides
//!
//! * a deterministic **event queue** ([`event::EventQueue`]) ordered by
//!   `(time, insertion)` on an integer-nanosecond clock — the one queue a
//!   ring run's coordinator keeps, in virtual time or on the wall clock,
//! * **link models** with FIFO wire occupancy and the chunk-size→goodput
//!   curve of the paper's Figure 5 ([`link::Link`],
//!   [`throughput::ChunkThroughput`]),
//! * an **RNIC model** with registered memory regions, queue pairs and
//!   completions ([`rnic`]),
//! * a **software TCP cost model** with the Figure 3 CPU breakdown
//!   ([`tcp::TcpModel`]) and a unifying [`transport::TransportModel`],
//! * **CPU accounting** per cost category for Table I-style load reports
//!   ([`cpu::CpuAccount`]),
//! * a **ring topology** ([`topology::RingNetwork`]) and a structured
//!   [`span::SpanTracer`] with a unified counter registry and a Chrome
//!   trace-event (Perfetto) exporter,
//! * a deterministic **fault-injection schedule** ([`fault::FaultPlan`]):
//!   seeded host crashes, pause windows, link drops/corruption/delay
//!   spikes and straggler slowdowns for chaos testing.
//!
//! Everything is single-threaded and pure: the same inputs produce the same
//! virtual-time schedule, bit for bit.
//!
//! ```
//! use simnet::event::EventQueue;
//! use simnet::link::{Direction, Link};
//! use simnet::time::SimTime;
//!
//! // Move 16 MB over a simulated 10 GbE link and observe the virtual time.
//! let mut link = Link::paper_10gbe();
//! let r = link.reserve(SimTime::ZERO, Direction::Forward, 16 << 20);
//! let mut queue = EventQueue::new();
//! queue.push(r.arrival, "transfer done");
//! queue.push(r.wire_free, "wire free");
//! let (freed, first) = queue.pop().unwrap();
//! assert_eq!(first, "wire free");
//! let (now, ev) = queue.pop().unwrap();
//! assert_eq!(ev, "transfer done");
//! assert!(freed < now && now.as_secs_f64() > 0.012); // ≥ 16 MB / 1.25 GB/s
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cpu;
pub mod disk;
pub mod event;
pub mod fault;
pub mod link;
pub mod rnic;
pub mod span;
pub mod tcp;
pub mod throughput;
pub mod time;
pub mod topology;
pub mod transport;

pub use cpu::{CostCategory, CpuAccount, CpuSpec};
pub use disk::DiskModel;
pub use event::EventQueue;
pub use fault::FaultPlan;
pub use link::{Direction, Link, Reservation};
pub use rnic::{Rnic, RnicConfig};
pub use span::{CounterRegistry, SpanKind, SpanTracer, Track};
pub use tcp::TcpModel;
pub use throughput::{Bandwidth, ChunkThroughput};
pub use time::{SimDuration, SimTime};
pub use topology::{HostId, RingNetwork};
pub use transport::TransportModel;
