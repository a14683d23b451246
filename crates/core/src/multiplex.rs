//! Multi-tenant query multiplexing on a shared ring.
//!
//! Where [`crate::concurrent`] batches queries onto *one* rotation of a
//! shared hot set, this module multiplexes **independent** cyclo-joins —
//! each tenant brings its own rotating relation, stationary relation and
//! predicate — over one ring at the protocol level: every in-flight
//! fragment carries a query id, per-query credits partition the ring
//! buffers, and an admission queue bounds how many queries circulate
//! concurrently (deficit round-robin keeps the grant gap between tenants
//! bounded). Healing, membership epochs and fault dice stay ring-global,
//! so a mid-revolution crash is healed once for all tenants.
//!
//! ```
//! use cyclo_join::multiplex::MultiTenantJoin;
//! use cyclo_join::JoinPredicate;
//! use relation::GenSpec;
//!
//! # fn main() -> Result<(), cyclo_join::PlanError> {
//! let report = MultiTenantJoin::new()
//!     .tenant(
//!         GenSpec::uniform(8_000, 1).generate(),
//!         GenSpec::uniform(6_000, 2).generate(),
//!         JoinPredicate::Equi,
//!     )
//!     .tenant(
//!         GenSpec::uniform(5_000, 3).generate(),
//!         GenSpec::uniform(4_000, 4).generate(),
//!         JoinPredicate::band(1),
//!     )
//!     .hosts(4)
//!     .max_active(2)
//!     .run()?;
//! assert_eq!(report.tenants.len(), 2);
//! assert!(report.tenants.iter().all(|t| t.metrics.completed));
//! # Ok(())
//! # }
//! ```

use data_roundabout::{
    BlockingEngine, ChannelEngine, FaultPlan, HostId, PayloadBytes, QueryMetrics, ReactorEngine,
    RescalePlan, RingApp, RingConfig, RingMetrics, SimRing,
};
use mem_joins::{
    Algorithm, JoinCollector, JoinPredicate, OutputMode, PreparedFragment, StationaryState,
};
use relation::{Checksum, Relation};
use simnet::span::SpanTracer;
use simnet::time::{SimDuration, SimTime};

use data_roundabout::sync::Mutex;

use crate::compute::ComputeMode;
use crate::exec::{registration_cost, wall_clock_driver, WallClockBackend};
use crate::plan::PlanError;

/// One tenant's join: `rotating ⋈ stationary` under `predicate`.
#[derive(Debug, Clone)]
struct TenantSpec {
    rotating: Relation,
    stationary: Relation,
    predicate: JoinPredicate,
    algorithm: Algorithm,
}

/// Builder for a multi-tenant multiplexed run.
///
/// Each tenant's rotating relation is fragmented over the ring and
/// revolves independently; the admission bound (`max_active`) caps how
/// many tenants circulate at once, the rest queue. All four backends
/// run the same protocol core, so per-query counters agree across them.
#[derive(Debug, Clone)]
pub struct MultiTenantJoin {
    tenants: Vec<TenantSpec>,
    config: RingConfig,
    fragments_per_host: usize,
    max_active: usize,
    compute: ComputeMode,
    output: OutputMode,
    fault_plan: Option<FaultPlan>,
    rescale_plan: Option<RescalePlan>,
    trace: bool,
}

impl Default for MultiTenantJoin {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiTenantJoin {
    /// Starts an empty multi-tenant batch on the paper's six-host ring.
    pub fn new() -> Self {
        MultiTenantJoin {
            tenants: Vec::new(),
            config: RingConfig::paper(6),
            fragments_per_host: 4,
            max_active: 2,
            compute: ComputeMode::modeled(),
            output: OutputMode::Aggregate,
            fault_plan: None,
            rescale_plan: None,
            trace: false,
        }
    }

    /// Adds a tenant joining `rotating ⋈ stationary` with the fastest
    /// algorithm supporting `predicate`.
    pub fn tenant(
        self,
        rotating: Relation,
        stationary: Relation,
        predicate: JoinPredicate,
    ) -> Self {
        let algorithm = Algorithm::for_predicate(&predicate);
        self.tenant_with(rotating, stationary, predicate, algorithm)
    }

    /// Adds a tenant with an explicit algorithm.
    pub fn tenant_with(
        mut self,
        rotating: Relation,
        stationary: Relation,
        predicate: JoinPredicate,
        algorithm: Algorithm,
    ) -> Self {
        self.tenants.push(TenantSpec {
            rotating,
            stationary,
            predicate,
            algorithm,
        });
        self
    }

    /// Replaces the ring configuration.
    pub fn ring(mut self, config: RingConfig) -> Self {
        self.config = config;
        self
    }

    /// Shortcut: the paper ring with `n` hosts.
    pub fn hosts(mut self, n: usize) -> Self {
        self.config.hosts = n;
        self
    }

    /// Admission bound: at most this many tenants circulate concurrently
    /// (default 2); the rest wait in the ring's admission queue.
    pub fn max_active(mut self, n: usize) -> Self {
        self.max_active = n;
        self
    }

    /// Rotation units per host per tenant (default 4).
    pub fn fragments_per_host(mut self, fragments: usize) -> Self {
        self.fragments_per_host = fragments;
        self
    }

    /// Compute pricing mode for the simulated backend (default: model).
    pub fn compute(mut self, compute: ComputeMode) -> Self {
        self.compute = compute;
        self
    }

    /// Output mode for every tenant's collectors.
    pub fn output(mut self, output: OutputMode) -> Self {
        self.output = output;
        self
    }

    /// Injects transport faults (loss, corruption, crashes — backend
    /// permitting) into the shared ring. All tenants share the dice.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Schedules planned membership changes (joins/drains) on the shared
    /// ring. Membership stays ring-global: one drain repartitions every
    /// tenant's stationary state and bumps one epoch for all queries.
    pub fn rescale_plan(mut self, plan: RescalePlan) -> Self {
        self.rescale_plan = Some(plan);
        self
    }

    /// Enables span tracing.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    fn validate(&self) -> Result<(), PlanError> {
        self.config.validate().map_err(PlanError::InvalidConfig)?;
        if self.config.hosts < 2 {
            return Err(PlanError::BadQuery(
                "multiplexing needs a ring of at least two hosts".to_string(),
            ));
        }
        if self.fragments_per_host == 0 {
            return Err(PlanError::NoFragments);
        }
        if self.tenants.is_empty() {
            return Err(PlanError::BadQuery(
                "a multi-tenant run needs at least one tenant".to_string(),
            ));
        }
        if self.max_active == 0 {
            return Err(PlanError::BadQuery(
                "the admission bound must admit at least one query".to_string(),
            ));
        }
        for t in &self.tenants {
            if !t.algorithm.supports(&t.predicate) {
                return Err(PlanError::UnsupportedPredicate {
                    algorithm: t.algorithm.name(),
                    predicate: t.predicate.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Builds each tenant's per-host runtime state: prepared rotating
    /// fragments, stationary partitions and radix bits.
    fn build(&self, compute: &ComputeMode) -> (Vec<TenantRun>, Vec<SimDuration>) {
        let hosts = self.config.hosts;
        let mut runs = Vec::with_capacity(self.tenants.len());
        let mut prep_per_host = vec![SimDuration::ZERO; hosts];
        for t in &self.tenants {
            let stationary: Vec<Relation> = t.stationary.split_even(hosts);
            let bits = t
                .algorithm
                .ring_radix_bits(stationary.iter().map(Relation::len).max().unwrap_or(1));
            let mut fragments = Vec::with_capacity(hosts);
            for (h, share) in t.rotating.split_even(hosts).into_iter().enumerate() {
                let mut prepared = Vec::with_capacity(self.fragments_per_host);
                for frag in share.split_even(self.fragments_per_host) {
                    let (pf, d) = compute.prepare_fragment(
                        &t.algorithm,
                        &frag,
                        bits,
                        self.config.join_threads,
                    );
                    if let Some(slot) = prep_per_host.get_mut(h) {
                        *slot += d;
                    }
                    prepared.push(pf);
                }
                fragments.push(prepared);
            }
            runs.push(TenantRun {
                algorithm: t.algorithm,
                predicate: t.predicate.clone(),
                bits,
                fragments,
                stationary,
            });
        }
        (runs, prep_per_host)
    }

    /// Runs the batch on the simulated (virtual-time) backend.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for an invalid configuration, an empty
    /// tenant list, a zero admission bound, or a predicate the chosen
    /// algorithm cannot evaluate.
    pub fn run(&self) -> Result<MultiTenantReport, PlanError> {
        self.validate()?;
        let hosts = self.config.hosts;
        let compute = self.compute;
        let (runs, mut setup_extra) = self.build(&compute);
        let element_bytes = runs
            .iter()
            .flat_map(|r| r.fragments.iter().flatten())
            .map(PayloadBytes::payload_bytes)
            .max()
            .unwrap_or(0);
        let reg = registration_cost(&self.config, element_bytes);
        for extra in &mut setup_extra {
            *extra += reg;
        }
        let keep_raw = self.fault_plan.is_some() || self.rescale_plan.is_some();
        let app_tenants: Vec<AppTenant> = runs
            .iter()
            .map(|r| AppTenant {
                algorithm: r.algorithm,
                predicate: r.predicate.clone(),
                bits: r.bits,
                stationary_inputs: r.stationary.iter().cloned().map(Some).collect(),
                stationary_raw: if keep_raw {
                    r.stationary.clone()
                } else {
                    Vec::new()
                },
                states: (0..hosts).map(|_| None).collect(),
                collectors: (0..hosts)
                    .map(|_| JoinCollector::new(self.output))
                    .collect(),
            })
            .collect();
        let app = MultiTenantApp {
            tenants: app_tenants,
            threads: self.config.join_threads,
            compute,
            setup_extra,
        };
        let queries: Vec<(u32, Vec<Vec<PreparedFragment>>)> = runs
            .into_iter()
            .enumerate()
            .map(|(q, r)| (q as u32, r.fragments))
            .collect();
        let mut ring =
            SimRing::new_queries(self.config, queries, self.max_active, app).with_trace(self.trace);
        if let Some(plan) = self.fault_plan.clone() {
            ring = ring.with_fault_plan(plan);
        }
        if let Some(plan) = self.rescale_plan.clone() {
            ring = ring.with_rescale_plan(plan);
        }
        let outcome = ring.run();
        Ok(assemble_report(
            outcome.metrics,
            outcome.spans,
            outcome
                .app
                .tenants
                .into_iter()
                .map(|t| (t.algorithm.name(), t.collectors))
                .collect(),
        ))
    }

    /// Runs the batch on the real-thread backend (measured compute).
    ///
    /// # Errors
    ///
    /// As [`MultiTenantJoin::run`]; additionally the threaded backend
    /// rejects fault plans with crashes or pauses (no ring healing).
    pub fn run_threaded(&self) -> Result<MultiTenantReport, PlanError> {
        self.run_wall_clock(WallClockBackend::Threads)
    }

    /// Runs the batch over real loopback TCP sockets (blocking driver).
    ///
    /// # Errors
    ///
    /// As [`MultiTenantJoin::run`], plus socket-level errors.
    pub fn run_tcp(&self) -> Result<MultiTenantReport, PlanError> {
        self.run_wall_clock(WallClockBackend::Blocking)
    }

    /// Runs the batch over real loopback TCP sockets on the epoll-style
    /// reactor driver.
    ///
    /// # Errors
    ///
    /// As [`MultiTenantJoin::run_tcp`].
    pub fn run_reactor(&self) -> Result<MultiTenantReport, PlanError> {
        self.run_wall_clock(WallClockBackend::Reactor)
    }

    fn run_wall_clock(&self, backend: WallClockBackend) -> Result<MultiTenantReport, PlanError> {
        self.validate()?;
        let hosts = self.config.hosts;
        let threads = self.config.join_threads;
        let compute = ComputeMode::Measured;
        let (mut runs, _) = self.build(&compute);
        // The rotating fragments go to the ring; everything read below
        // (algorithm, predicate, bits, stationary) stays in `runs`.
        let queries: Vec<(u32, Vec<Vec<PreparedFragment>>)> = runs
            .iter_mut()
            .enumerate()
            .map(|(q, r)| (q as u32, std::mem::take(&mut r.fragments)))
            .collect();
        // One slot per (query, logical role); healing rebuilds a dead
        // role's state for every tenant, so the slots need locks. Lock
        // order: a role's slot before the host's collector.
        let states: Vec<Vec<Mutex<Option<StationaryState>>>> = runs
            .iter()
            .map(|r| {
                r.stationary
                    .iter()
                    .map(|s| {
                        let (state, _) = compute.setup_stationary(&r.algorithm, s, r.bits, threads);
                        Mutex::new(Some(state))
                    })
                    .collect()
            })
            .collect();
        let collectors = collector_grid(runs.len(), hosts, self.output);
        let visit = |host: HostId, query: u32, roles: &[usize], frag: &PreparedFragment| {
            let (Some(r), Some(qs)) = (runs.get(query as usize), states.get(query as usize)) else {
                debug_assert!(false, "join for unknown query {query}");
                return;
            };
            for &role in roles {
                let Some(slot) = qs.get(role) else {
                    debug_assert!(false, "join against unknown role {role}");
                    continue;
                };
                let guard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                join_once(r, guard.as_ref(), frag, &collectors, query, host, threads);
            }
        };
        let absorb = |_survivor: HostId, role: usize| {
            for (r, qs) in runs.iter().zip(&states) {
                let Ok(share) = crate::recovery::takeover(&r.stationary, role) else {
                    debug_assert!(false, "takeover of role {role} outside the ring");
                    continue;
                };
                let (state, _) = compute.setup_stationary(&r.algorithm, &share, r.bits, threads);
                if let Some(slot) = qs.get(role) {
                    *slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(state);
                }
            }
        };
        let (fault, rescale) = (self.fault_plan.as_ref(), self.rescale_plan.as_ref());
        let (metrics, spans) = match backend {
            WallClockBackend::Threads => {
                wall_clock_driver::<ChannelEngine>(&self.config, fault, rescale, self.trace)
                    .run_queries(queries, self.max_active, visit, absorb)
            }
            WallClockBackend::Blocking => {
                wall_clock_driver::<BlockingEngine>(&self.config, fault, rescale, self.trace)
                    .run_queries(queries, self.max_active, visit, absorb)
            }
            WallClockBackend::Reactor => {
                wall_clock_driver::<ReactorEngine>(&self.config, fault, rescale, self.trace)
                    .run_queries(queries, self.max_active, visit, absorb)
            }
        }
        .map_err(PlanError::Backend)?;
        Ok(assemble_report(
            metrics,
            spans,
            drain_grid(runs, collectors),
        ))
    }
}

/// A tenant's prepared runtime material, shared by all backends (the
/// drivers take `fragments` out of it when the rotation starts).
struct TenantRun {
    algorithm: Algorithm,
    predicate: JoinPredicate,
    bits: u32,
    fragments: Vec<Vec<PreparedFragment>>,
    stationary: Vec<Relation>,
}

/// Joins `frag` against one logical role's stationary state, locking the
/// tenant's per-host collector for the duration.
fn join_once(
    run: &TenantRun,
    state: Option<&StationaryState>,
    frag: &PreparedFragment,
    collectors: &[Vec<Mutex<JoinCollector>>],
    query: u32,
    host: HostId,
    threads: usize,
) {
    let Some(state) = state else {
        debug_assert!(false, "join against a role whose state is absent");
        return;
    };
    let Some(shared_collector) = collectors
        .get(query as usize)
        .and_then(|row| row.get(host.0))
    else {
        debug_assert!(false, "no collector for query {query} host {}", host.0);
        return;
    };
    let mut collector = shared_collector
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    run.algorithm
        .join(state, frag, &run.predicate, threads, &mut collector);
}

/// One collector per (query, host).
fn collector_grid(
    queries: usize,
    hosts: usize,
    output: OutputMode,
) -> Vec<Vec<Mutex<JoinCollector>>> {
    (0..queries)
        .map(|_| {
            (0..hosts)
                .map(|_| Mutex::new(JoinCollector::new(output)))
                .collect()
        })
        .collect()
}

/// Unwraps the collector grid back into per-tenant collector lists.
fn drain_grid(
    runs: Vec<TenantRun>,
    collectors: Vec<Vec<Mutex<JoinCollector>>>,
) -> Vec<(&'static str, Vec<JoinCollector>)> {
    runs.into_iter()
        .zip(collectors)
        .map(|(r, row)| {
            (
                r.algorithm.name(),
                row.into_iter()
                    .map(|m| {
                        m.into_inner()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Folds collectors and per-query ring counters into the report.
fn assemble_report(
    ring: RingMetrics,
    spans: SpanTracer,
    tenants: Vec<(&'static str, Vec<JoinCollector>)>,
) -> MultiTenantReport {
    let reports = tenants
        .into_iter()
        .enumerate()
        .map(|(q, (algorithm, collectors))| {
            let count = collectors.iter().map(JoinCollector::count).sum();
            let checksum = collectors
                .iter()
                .map(JoinCollector::checksum)
                .fold(Checksum::new(), |acc, c| acc.combine(&c));
            let metrics = ring.queries.get(q).copied().unwrap_or_default();
            TenantReport {
                tenant: metrics.tenant,
                algorithm,
                count,
                checksum,
                metrics,
                collectors,
            }
        })
        .collect();
    MultiTenantReport {
        ring,
        spans,
        tenants: reports,
    }
}

/// The [`RingApp`] for the simulated multiplexed run: per-tenant
/// stationary state and collectors keyed by the protocol's query id.
struct AppTenant {
    algorithm: Algorithm,
    predicate: JoinPredicate,
    bits: u32,
    stationary_inputs: Vec<Option<Relation>>,
    stationary_raw: Vec<Relation>,
    states: Vec<Option<StationaryState>>,
    collectors: Vec<JoinCollector>,
}

struct MultiTenantApp {
    tenants: Vec<AppTenant>,
    threads: usize,
    compute: ComputeMode,
    setup_extra: Vec<SimDuration>,
}

impl RingApp<PreparedFragment> for MultiTenantApp {
    fn setup(&mut self, host: HostId) -> SimDuration {
        let mut total = self
            .setup_extra
            .get(host.0)
            .copied()
            .unwrap_or(SimDuration::ZERO);
        for t in &mut self.tenants {
            let Some(s) = t.stationary_inputs.get_mut(host.0).and_then(Option::take) else {
                debug_assert!(false, "setup called twice for host {}", host.0);
                continue;
            };
            let (state, d) = self
                .compute
                .setup_stationary(&t.algorithm, &s, t.bits, self.threads);
            if let Some(slot) = t.states.get_mut(host.0) {
                *slot = Some(state);
            }
            total += d;
        }
        total
    }

    fn process(&mut self, host: HostId, now: SimTime, payload: &PreparedFragment) -> SimDuration {
        // The multiplexed sim driver always dispatches through
        // `process_query`; a plain `process` means query 0, own role.
        let own = [host.0];
        self.process_query(host, 0, &own, now, payload)
    }

    fn process_query(
        &mut self,
        host: HostId,
        query: u32,
        roles: &[usize],
        _now: SimTime,
        fragment: &PreparedFragment,
    ) -> SimDuration {
        let Some(t) = self.tenants.get_mut(query as usize) else {
            debug_assert!(false, "fragment of unknown query {query}");
            return SimDuration::ZERO;
        };
        let Some(collector) = t.collectors.get_mut(host.0) else {
            debug_assert!(false, "no collector for host {}", host.0);
            return SimDuration::ZERO;
        };
        let mut total = SimDuration::ZERO;
        for &role in roles {
            let Some(state) = t.states.get(role).and_then(Option::as_ref) else {
                debug_assert!(
                    false,
                    "join against role {role} whose stationary state is absent"
                );
                continue;
            };
            total += self.compute.join(
                &t.algorithm,
                state,
                fragment,
                &t.predicate,
                self.threads,
                collector,
            );
        }
        total
    }

    fn absorb(&mut self, _survivor: HostId, failed: HostId) -> SimDuration {
        // Ring healing is ring-global: the survivor rebuilds the dead
        // role's stationary state for every tenant in one takeover.
        let mut total = SimDuration::ZERO;
        for t in &mut self.tenants {
            let Ok(share) = crate::recovery::takeover(&t.stationary_raw, failed.0) else {
                debug_assert!(
                    false,
                    "ring healing needs the raw stationary partitions of a multi-host ring"
                );
                continue;
            };
            let (state, d) =
                self.compute
                    .setup_stationary(&t.algorithm, &share, t.bits, self.threads);
            if let Some(slot) = t.states.get_mut(failed.0) {
                *slot = Some(state);
            }
            total += d;
        }
        total
    }
}

/// One tenant's outcome in a multiplexed run.
#[derive(Debug)]
pub struct TenantReport {
    /// The tenant id the query carried on the wire.
    pub tenant: u32,
    /// Name of the local join algorithm that ran.
    pub algorithm: &'static str,
    /// Total matches across hosts.
    pub count: u64,
    /// Order-independent checksum over all matches.
    pub checksum: Checksum,
    /// The ring's per-query counters (retransmits, checksum mismatches,
    /// fragments completed, completion flag).
    pub metrics: QueryMetrics,
    /// Per-host collectors (materialized matches if requested).
    pub collectors: Vec<JoinCollector>,
}

/// The outcome of a multi-tenant multiplexed run.
#[derive(Debug)]
pub struct MultiTenantReport {
    /// Ring-level metrics of the shared multiplexed rotation.
    pub ring: RingMetrics,
    /// Span tracer (enabled when tracing was requested).
    pub spans: SpanTracer,
    /// Per-tenant results, in the order tenants were added.
    pub tenants: Vec<TenantReport>,
}

impl MultiTenantReport {
    /// End-to-end seconds for the whole batch.
    pub fn total_seconds(&self) -> f64 {
        self.ring.wall_clock.as_secs_f64()
    }

    /// Completed queries per second of ring time.
    pub fn queries_per_second(&self) -> f64 {
        let done = self.tenants.iter().filter(|t| t.metrics.completed).count() as f64;
        let secs = self.total_seconds();
        if secs > 0.0 {
            done / secs
        } else {
            0.0
        }
    }

    /// True when every tenant's query ran to completion.
    pub fn all_completed(&self) -> bool {
        !self.tenants.is_empty() && self.tenants.iter().all(|t| t.metrics.completed)
    }
}

impl std::fmt::Display for MultiTenantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "multi-tenant run: {} tenants in {:.3}s ({:.2} queries/s)",
            self.tenants.len(),
            self.total_seconds(),
            self.queries_per_second(),
        )?;
        f.write_str(&crate::report::rescale_line(&self.ring))?;
        for t in &self.tenants {
            writeln!(
                f,
                "  tenant {}: {} matches ({}), {} fragments, {} retransmits{}",
                t.tenant,
                t.count,
                t.algorithm,
                t.metrics.fragments_completed,
                t.metrics.retransmits,
                if t.metrics.completed {
                    ""
                } else {
                    " [INCOMPLETE]"
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_join;
    use relation::GenSpec;

    fn batch(tenants: usize) -> (MultiTenantJoin, Vec<(Relation, Relation, JoinPredicate)>) {
        let mut b = MultiTenantJoin::new().hosts(4).fragments_per_host(2);
        let mut specs = Vec::new();
        for q in 0..tenants {
            let r = GenSpec::uniform(2_000 + 500 * q, 700 + 2 * q as u64).generate();
            let s = GenSpec::uniform(1_500, 701 + 2 * q as u64).generate();
            let pred = if q % 2 == 0 {
                JoinPredicate::Equi
            } else {
                JoinPredicate::band(1)
            };
            b = b.tenant(r.clone(), s.clone(), pred.clone());
            specs.push((r, s, pred));
        }
        (b, specs)
    }

    fn assert_verified(report: &MultiTenantReport, specs: &[(Relation, Relation, JoinPredicate)]) {
        assert_eq!(report.tenants.len(), specs.len());
        for (t, (r, s, pred)) in report.tenants.iter().zip(specs) {
            let reference = reference_join(r, s, pred);
            assert_eq!(t.count, reference.count, "tenant {}", t.tenant);
            assert_eq!(t.checksum, reference.checksum, "tenant {}", t.tenant);
            assert!(t.metrics.completed, "tenant {}", t.tenant);
        }
    }

    #[test]
    fn simulated_tenants_match_their_references() {
        let (b, specs) = batch(3);
        let report = b.max_active(2).run().expect("sim multi run");
        assert_verified(&report, &specs);
        assert!(report.all_completed());
        assert!(report.queries_per_second() > 0.0);
    }

    #[test]
    fn simulated_tenants_survive_faults() {
        let (b, specs) = batch(4);
        let mut plan = FaultPlan::seeded(31);
        for h in 0..4 {
            plan = plan.lossy_link(HostId(h), 0.05);
        }
        let report = b.max_active(4).fault_plan(plan).run().expect("faulty run");
        assert_verified(&report, &specs);
        assert!(report.ring.total_retransmits() > 0);
    }

    #[test]
    fn simulated_crash_heals_for_every_tenant() {
        use simnet::time::SimTime;
        let (b, specs) = batch(2);
        // Pick a crash instant inside the run: probe a quiet run first.
        let quiet = b
            .clone()
            .max_active(2)
            .fault_plan(FaultPlan::seeded(5))
            .run()
            .expect("probe run");
        let mid = SimTime::from_nanos(quiet.ring.wall_clock.as_nanos() / 2);
        let plan = FaultPlan::seeded(5).crash_host(HostId(2), mid);
        let report = b.max_active(2).fault_plan(plan).run().expect("healing run");
        assert_eq!(report.ring.heal_events, 1);
        assert_verified(&report, &specs);
    }

    #[test]
    fn threaded_tenants_match_their_references() {
        let (b, specs) = batch(2);
        let report = b
            .ring(RingConfig::paper(4).with_join_threads(1))
            .fragments_per_host(2)
            .max_active(2)
            .run_threaded()
            .expect("threaded multi run");
        assert_verified(&report, &specs);
    }

    /// A planned drain moves the drained host's role to a live host; the
    /// threaded path follows the handoff like the socket paths do, so no
    /// tenant loses the drained role's share of its matches.
    #[test]
    fn threaded_tenants_survive_a_planned_drain() {
        let (b, specs) = batch(3);
        let report = b
            .ring(RingConfig::paper(4).with_join_threads(1))
            .max_active(2)
            .rescale_plan(RescalePlan::seeded(5).drain_host(HostId(1), SimTime::ZERO))
            .run_threaded()
            .expect("threaded multi run with a drain");
        assert_verified(&report, &specs);
        assert_eq!(report.ring.rescale_drains, 1);
    }

    #[test]
    fn socket_tenants_match_their_references() {
        let (b, specs) = batch(2);
        let b = b
            .ring(RingConfig::paper(3).with_join_threads(1))
            .fragments_per_host(2)
            .max_active(2);
        for report in [
            b.run_tcp().expect("tcp multi run"),
            b.run_reactor().expect("reactor multi run"),
        ] {
            assert_verified(&report, &specs);
        }
    }

    #[test]
    fn empty_and_zero_bounds_are_rejected() {
        let empty = MultiTenantJoin::new().hosts(3);
        assert!(empty.run().is_err());
        let (b, _) = batch(1);
        assert!(b.clone().max_active(0).run().is_err());
        assert!(b.clone().hosts(1).run().is_err());
        assert!(b.fragments_per_host(0).run().is_err());
    }
}
