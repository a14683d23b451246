//! Ring configuration.

use serde::{Deserialize, Serialize};
use simnet::cpu::CpuSpec;
use simnet::link::Link;
use simnet::throughput::{Bandwidth, ChunkThroughput};
use simnet::time::SimDuration;
use simnet::transport::TransportModel;

/// Full configuration of a Data Roundabout instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RingConfig {
    /// Number of hosts in the ring.
    pub hosts: usize,
    /// Statically allocated ring-buffer elements per host. At least 2 are
    /// needed to overlap communication with computation (one being
    /// processed while another is in flight); 1 disables overlap — the
    /// configuration the buffer-depth ablation measures.
    pub buffers_per_host: usize,
    /// Join-entity worker threads per host (the paper varies 1–4).
    pub join_threads: usize,
    /// Host CPU description.
    pub cpu: CpuSpec,
    /// Transport cost model (RDMA / TOE / kernel TCP).
    pub transport: TransportModel,
    /// Peak link bandwidth between neighboring hosts.
    pub link_bandwidth: Bandwidth,
    /// Fixed per-message transfer overhead (drives the Figure 5 curve).
    pub per_message_overhead: SimDuration,
    /// One-way link propagation latency.
    pub link_latency: SimDuration,
    /// Per-hop acknowledgement timeout of the reliable transport (only
    /// consulted when a fault plan is attached): how long a sender waits
    /// for the successor's ack before retransmitting. Must comfortably
    /// exceed the largest fragment's serialization time.
    pub ack_timeout: SimDuration,
    /// Retransmissions attempted (with exponential backoff) before the
    /// sender declares its successor dead and triggers ring healing.
    pub max_retransmits: u32,
    /// How long the wall-clock TCP drivers wait for the hello/nonce
    /// exchange on each mesh connection before declaring setup failed.
    /// Ignored by the simulated and in-process thread backends.
    pub handshake_timeout: SimDuration,
    /// Wall-clock driver watchdog: a coordinated run (both TCP drivers, and
    /// the thread backend's rescale and multi-tenant engine) that sees no
    /// event for this long is torn down as stalled instead of hanging the
    /// process. Ignored by the simulated backend.
    pub watchdog: SimDuration,
}

/// Default handshake timeout of [`RingConfig::paper`].
fn default_handshake_timeout() -> SimDuration {
    SimDuration::from_secs(5)
}

/// Default stall watchdog of [`RingConfig::paper`].
fn default_watchdog() -> SimDuration {
    SimDuration::from_secs(10)
}

impl RingConfig {
    /// The paper's testbed: quad-core 2.33 GHz Xeons, 10 GbE iWARP RNICs,
    /// RDMA transport, 2 ring-buffer elements, 4 join threads.
    pub fn paper(hosts: usize) -> Self {
        RingConfig {
            hosts,
            buffers_per_host: 2,
            join_threads: 4,
            cpu: CpuSpec::paper_xeon(),
            transport: TransportModel::rdma(),
            link_bandwidth: Bandwidth::from_gbit_per_sec(10.0),
            per_message_overhead: SimDuration::from_nanos(3_300),
            link_latency: SimDuration::from_micros(5),
            ack_timeout: SimDuration::from_millis(25),
            max_retransmits: 4,
            handshake_timeout: default_handshake_timeout(),
            watchdog: default_watchdog(),
        }
    }

    /// Same testbed but with the software-TCP transport (§V-G).
    pub fn paper_tcp(hosts: usize) -> Self {
        RingConfig {
            transport: TransportModel::kernel_tcp(),
            ..RingConfig::paper(hosts)
        }
    }

    /// Builder-style override of the transport.
    pub fn with_transport(mut self, transport: TransportModel) -> Self {
        self.transport = transport;
        self
    }

    /// Builder-style override of the join thread count.
    pub fn with_join_threads(mut self, threads: usize) -> Self {
        self.join_threads = threads;
        self
    }

    /// Builder-style override of the per-host buffer count.
    pub fn with_buffers(mut self, buffers: usize) -> Self {
        self.buffers_per_host = buffers;
        self
    }

    /// Builder-style override of the reliable transport's ack timeout.
    pub fn with_ack_timeout(mut self, timeout: SimDuration) -> Self {
        self.ack_timeout = timeout;
        self
    }

    /// Builder-style override of the retransmission budget.
    pub fn with_max_retransmits(mut self, retransmits: u32) -> Self {
        self.max_retransmits = retransmits;
        self
    }

    /// Builder-style override of the TCP mesh handshake timeout.
    pub fn with_handshake_timeout(mut self, timeout: SimDuration) -> Self {
        self.handshake_timeout = timeout;
        self
    }

    /// Builder-style override of the wall-clock drivers' stall watchdog.
    pub fn with_watchdog(mut self, watchdog: SimDuration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: at least one
    /// host, at least one buffer, at least one join thread, and no more
    /// join threads than cores.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.hosts == 0 {
            return Err(ConfigError::new("ring needs at least one host"));
        }
        if self.buffers_per_host == 0 {
            return Err(ConfigError::new(
                "each host needs at least one ring buffer element",
            ));
        }
        if self.join_threads == 0 {
            return Err(ConfigError::new("join entity needs at least one thread"));
        }
        if self.join_threads > self.cpu.cores as usize {
            return Err(ConfigError::new(
                "more join threads than CPU cores is never modelled as a speedup",
            ));
        }
        if self.ack_timeout.is_zero() {
            return Err(ConfigError::new(
                "the reliable transport needs a positive ack timeout",
            ));
        }
        if self.handshake_timeout.is_zero() {
            return Err(ConfigError::new(
                "the TCP drivers need a positive handshake timeout",
            ));
        }
        if self.watchdog.is_zero() {
            return Err(ConfigError::new(
                "the TCP drivers need a positive stall watchdog",
            ));
        }
        if self.watchdog < self.ack_timeout {
            return Err(ConfigError::new(
                "a watchdog shorter than the ack timeout would tear down \
                 runs that are still legitimately retransmitting",
            ));
        }
        Ok(())
    }

    /// The link model this configuration describes.
    pub fn link(&self) -> Link {
        Link::new(
            ChunkThroughput::new(self.link_bandwidth, self.per_message_overhead),
            self.link_latency,
        )
    }

    /// The wire rate actually achievable for a message of `bytes`.
    ///
    /// RDMA runs at the link's chunk-size-dependent goodput. Software TCP
    /// is additionally capped by what its (single) transmitter thread can
    /// push through the kernel stack — the per-core rule-of-thumb rate.
    pub fn effective_wire_seconds(&self, bytes: u64) -> SimDuration {
        let link_time = self.link().throughput().transfer_time(bytes);
        match self.transport {
            TransportModel::Rdma(_) => link_time,
            TransportModel::KernelTcp(m) | TransportModel::Toe(m) => {
                let cpu_bound = SimDuration::from_secs_f64(
                    bytes as f64 / m.per_core_rate(self.cpu).bytes_per_sec(),
                );
                link_time.max(cpu_bound)
            }
        }
    }
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig::paper(6)
    }
}

/// A configuration constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    fn new(message: &'static str) -> Self {
        ConfigError { message }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid ring configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        for hosts in 1..=6 {
            assert!(RingConfig::paper(hosts).validate().is_ok());
        }
    }

    #[test]
    fn invalid_configs_are_caught() {
        assert!(RingConfig::paper(0).validate().is_err());
        assert!(RingConfig::paper(2).with_buffers(0).validate().is_err());
        assert!(RingConfig::paper(2)
            .with_join_threads(0)
            .validate()
            .is_err());
        assert!(RingConfig::paper(2)
            .with_join_threads(5)
            .validate()
            .is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let err = RingConfig::paper(0).validate().unwrap_err();
        assert!(err.to_string().contains("at least one host"));
    }

    #[test]
    fn rdma_wire_time_is_link_bound() {
        let cfg = RingConfig::paper(2);
        let t = cfg.effective_wire_seconds(16 << 20);
        // 16 MB at 1.25 GB/s ≈ 13.4 ms.
        let secs = t.as_secs_f64();
        assert!((0.012..0.015).contains(&secs), "got {secs}");
    }

    #[test]
    fn tcp_wire_time_is_cpu_bound() {
        let rdma = RingConfig::paper(2);
        let tcp = RingConfig::paper_tcp(2);
        let bytes = 16 << 20;
        assert!(
            tcp.effective_wire_seconds(bytes) > rdma.effective_wire_seconds(bytes),
            "the kernel-TCP transmitter thread must be slower than the RNIC"
        );
    }

    #[test]
    fn builders_override_fields() {
        let cfg = RingConfig::paper(3)
            .with_join_threads(2)
            .with_buffers(4)
            .with_transport(TransportModel::toe())
            .with_ack_timeout(SimDuration::from_millis(3))
            .with_max_retransmits(7);
        assert_eq!(cfg.join_threads, 2);
        assert_eq!(cfg.buffers_per_host, 4);
        assert_eq!(cfg.transport.name(), "TOE");
        assert_eq!(cfg.ack_timeout, SimDuration::from_millis(3));
        assert_eq!(cfg.max_retransmits, 7);
    }

    #[test]
    fn zero_ack_timeout_is_rejected() {
        let err = RingConfig::paper(2)
            .with_ack_timeout(SimDuration::ZERO)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("ack timeout"));
    }

    #[test]
    fn tcp_timeout_builders_override_fields() {
        let cfg = RingConfig::paper(2)
            .with_handshake_timeout(SimDuration::from_millis(750))
            .with_watchdog(SimDuration::from_secs(30));
        assert_eq!(cfg.handshake_timeout, SimDuration::from_millis(750));
        assert_eq!(cfg.watchdog, SimDuration::from_secs(30));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_tcp_timeouts_are_rejected() {
        let err = RingConfig::paper(2)
            .with_handshake_timeout(SimDuration::ZERO)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("handshake timeout"));
        let err = RingConfig::paper(2)
            .with_watchdog(SimDuration::ZERO)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("watchdog"));
    }

    #[test]
    fn watchdog_must_cover_the_ack_timeout() {
        let err = RingConfig::paper(2)
            .with_ack_timeout(SimDuration::from_secs(2))
            .with_watchdog(SimDuration::from_secs(1))
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("watchdog"));
        assert!(RingConfig::paper(2)
            .with_ack_timeout(SimDuration::from_secs(2))
            .with_watchdog(SimDuration::from_secs(2))
            .validate()
            .is_ok());
    }

    #[test]
    fn default_timeouts_match_the_paper_config() {
        // The documented defaults must equal what `paper()` bakes in, so
        // a config built any other way starts from the same timeouts.
        let cfg = RingConfig::paper(3);
        assert_eq!(cfg.handshake_timeout, default_handshake_timeout());
        assert_eq!(cfg.watchdog, default_watchdog());
        assert_eq!(default_handshake_timeout(), SimDuration::from_secs(5));
        assert_eq!(default_watchdog(), SimDuration::from_secs(10));
    }
}
