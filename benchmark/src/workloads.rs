//! The five workloads: their shapes, their seeded inputs, and one checked
//! run of each through the public entry points a caller would use.

use cyclo_join::{
    reference_join, CycloJoin, FaultPlan, HostId, JoinPredicate, MultiTenantJoin, Reference,
    RingConfig, RingError, RingMetrics, SpanTracer,
};
use data_roundabout::{ReactorRingDriver, RingDriver, TcpRingDriver, WirePayload};
use relation::{GenSpec, Relation};

/// Which ring driver a `CycloJoin` workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Loopback sockets on one epoll thread (`run_reactor`).
    Reactor,
    /// Loopback sockets, blocking, about four threads per host (`run_tcp`).
    Tcp,
    /// In-process channels (`run_threaded`).
    Threads,
}

impl Backend {
    /// One revolution of `fragments` through this driver's public `run`,
    /// calling `visit` once per (host, fragment).
    ///
    /// # Errors
    ///
    /// The driver's.
    pub fn run_ring<P, F>(
        self,
        config: &RingConfig,
        fragments: Vec<Vec<P>>,
        visit: F,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, &P) + Sync,
    {
        match self {
            Backend::Reactor => ReactorRingDriver::new(config).run(fragments, visit),
            Backend::Tcp => TcpRingDriver::new(config).run(fragments, visit),
            Backend::Threads => RingDriver::new(config).run(fragments, visit),
        }
    }
}

/// What a workload joins and through which call.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One `CycloJoin` of `tuples ⋈ tuples`.
    Cyclo {
        /// Tuples per side.
        tuples: usize,
        /// Ring hosts.
        hosts: usize,
        /// Rotation units per host.
        fragments_per_host: usize,
        /// `Some(delta)` for a band join (sort-merge), `None` for equi
        /// (partitioned hash).
        band: Option<u32>,
        /// The driver.
        backend: Backend,
    },
    /// One `MultiTenantJoin` batch on the simulated backend.
    Tenants {
        /// Queries in the batch.
        tenants: usize,
        /// Tuples per side per tenant.
        tuples: usize,
        /// Ring hosts.
        hosts: usize,
        /// Admission bound.
        max_active: usize,
        /// Loss probability on every link.
        loss: f64,
    },
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name later issues use.
    pub name: &'static str,
    /// What it joins.
    pub shape: Shape,
}

/// Every workload, in the order `run` interleaves them.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "hash_uniform_reactor",
        shape: Shape::Cyclo {
            tuples: 524_288,
            hosts: 4,
            fragments_per_host: 4,
            band: None,
            backend: Backend::Reactor,
        },
    },
    Spec {
        name: "smallfrag_reactor",
        shape: Shape::Cyclo {
            tuples: 32_768,
            hosts: 8,
            fragments_per_host: 32,
            band: None,
            backend: Backend::Reactor,
        },
    },
    Spec {
        name: "smallfrag_tcp",
        shape: Shape::Cyclo {
            tuples: 32_768,
            hosts: 8,
            fragments_per_host: 32,
            band: None,
            backend: Backend::Tcp,
        },
    },
    Spec {
        name: "band_sortmerge_threads",
        shape: Shape::Cyclo {
            tuples: 262_144,
            hosts: 4,
            fragments_per_host: 4,
            band: Some(2),
            backend: Backend::Threads,
        },
    },
    Spec {
        name: "tenants_lossy_sim",
        shape: Shape::Tenants {
            tenants: 8,
            tuples: 20_000,
            hosts: 6,
            max_active: 4,
            loss: 0.03,
        },
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Every workload pins one join thread: 4–8 ring hosts already
/// oversubscribe a two-core machine, and `fork_join` spawning threads on
/// each visit is the layer metric `joins.parallel.fork_join_us`, not a
/// workload.
pub fn ring_config(hosts: usize) -> RingConfig {
    RingConfig::paper(hosts).with_join_threads(1)
}

/// A seed for input `index`, derived from the run's `--seed`.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index)
}

/// `--smoke` runs at one eighth of the input size.
const SMOKE_DIVISOR: usize = 8;

impl Spec {
    /// Tuples per side (per tenant), shrunk under `--smoke`.
    pub fn tuples(&self, smoke: bool) -> usize {
        let (Shape::Cyclo { tuples, .. } | Shape::Tenants { tuples, .. }) = self.shape;
        if smoke {
            tuples / SMOKE_DIVISOR
        } else {
            tuples
        }
    }

    /// `(R, S)` pairs one run joins: one, or one per tenant.
    fn pairs(&self) -> usize {
        match self.shape {
            Shape::Cyclo { .. } => 1,
            Shape::Tenants { tenants, .. } => tenants,
        }
    }

    /// Input tuples one run consumes (both sides, every tenant).
    pub fn input_tuples(&self, smoke: bool) -> u64 {
        (2 * self.pairs() * self.tuples(smoke)) as u64
    }

    /// The predicate a `Cyclo` workload joins on (`Equi` for tenants).
    pub fn predicate(&self) -> JoinPredicate {
        match self.shape {
            Shape::Cyclo {
                band: Some(delta), ..
            } => JoinPredicate::band(delta),
            _ => JoinPredicate::Equi,
        }
    }

    /// Generates the inputs from `seed`: one `(R, S)` pair, or one per
    /// tenant. The same seed gives the same inputs.
    pub fn generate(&self, seed: u64, smoke: bool) -> Vec<(Relation, Relation)> {
        let tuples = self.tuples(smoke);
        (0..self.pairs() as u64)
            .map(|p| {
                (
                    GenSpec::uniform(tuples, derive_seed(seed, 2 * p)).generate(),
                    GenSpec::uniform(tuples, derive_seed(seed, 2 * p + 1)).generate(),
                )
            })
            .collect()
    }

    /// The configured `CycloJoin` of a `Cyclo` workload over `(r, s)`.
    ///
    /// # Panics
    ///
    /// Panics on the tenants workload.
    pub fn cyclo_join(&self, r: Relation, s: Relation, trace: bool) -> CycloJoin {
        let Shape::Cyclo {
            hosts,
            fragments_per_host,
            ..
        } = self.shape
        else {
            panic!("{} is not a CycloJoin workload", self.name);
        };
        CycloJoin::new(r, s)
            .predicate(self.predicate())
            .ring(ring_config(hosts))
            .fragments_per_host(fragments_per_host)
            .trace(trace)
    }

    /// The configured `MultiTenantJoin` of the tenants workload, one
    /// tenant per input pair, with seeded loss on every link.
    ///
    /// # Panics
    ///
    /// Panics on a `CycloJoin` workload.
    pub fn tenant_batch(&self, seed: u64, inputs: Vec<(Relation, Relation)>) -> MultiTenantJoin {
        let Shape::Tenants {
            hosts,
            max_active,
            loss,
            ..
        } = self.shape
        else {
            panic!("{} is not the tenants workload", self.name);
        };
        let batch = MultiTenantJoin::new()
            .ring(ring_config(hosts))
            .max_active(max_active)
            .fault_plan(lossy_plan(seed, hosts, loss));
        inputs.into_iter().fold(batch, |batch, (r, s)| {
            batch.tenant(r, s, JoinPredicate::Equi)
        })
    }
}

/// Seeded loss on every host's outbound link, shared by all tenants.
pub fn lossy_plan(seed: u64, hosts: usize, loss: f64) -> FaultPlan {
    (0..hosts).fold(FaultPlan::seeded(derive_seed(seed, 99)), |plan, h| {
        plan.lossy_link(HostId(h), loss)
    })
}

enum Job {
    Cyclo(Box<CycloJoin>, Backend),
    Tenants(Box<MultiTenantJoin>),
}

/// What one successful run reports beyond its (verified) result.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunInfo {
    /// Virtual-time duration, on the simulated backend only.
    pub virtual_s: Option<f64>,
    /// Transfers the ring retransmitted.
    pub retransmits: u64,
    /// Fragments that completed their revolution.
    pub fragments_completed: usize,
    /// (host, fragment) visits the ring made.
    pub visits: usize,
    /// Payload bytes put on ring links.
    pub bytes_forwarded: u64,
}

impl RunInfo {
    fn of(ring: &RingMetrics, virtual_s: Option<f64>) -> RunInfo {
        RunInfo {
            virtual_s,
            retransmits: ring.total_retransmits(),
            fragments_completed: ring.fragments_completed,
            visits: ring.hosts.iter().map(|h| h.fragments_processed).sum(),
            bytes_forwarded: ring.total_bytes_forwarded(),
        }
    }
}

/// A workload ready to run: the configured join and the reference
/// answers every run is checked against.
pub struct Prepared {
    job: Job,
    expected: Vec<Reference>,
}

impl Prepared {
    /// Computes the reference answers and builds the join. This is the
    /// part of set-up that is not input generation or warm-up.
    pub fn new(spec: &Spec, seed: u64, inputs: Vec<(Relation, Relation)>) -> Prepared {
        let predicate = spec.predicate();
        let expected = inputs
            .iter()
            .map(|(r, s)| reference_join(r, s, &predicate))
            .collect();
        let job = match spec.shape {
            Shape::Cyclo { backend, .. } => {
                let (r, s) = inputs.into_iter().next().expect("one input pair");
                Job::Cyclo(Box::new(spec.cyclo_join(r, s, false)), backend)
            }
            Shape::Tenants { .. } => Job::Tenants(Box::new(spec.tenant_batch(seed, inputs))),
        };
        Prepared { job, expected }
    }

    /// One run: the blocking call a user makes, then the check against
    /// the reference.
    ///
    /// # Errors
    ///
    /// The backend's error, or a description of the first result that
    /// differs from its reference.
    pub fn run(&self) -> Result<RunInfo, String> {
        match &self.job {
            Job::Cyclo(join, backend) => {
                let report = match backend {
                    Backend::Reactor => join.run_reactor(),
                    Backend::Tcp => join.run_tcp(),
                    Backend::Threads => join.run_threaded(),
                }
                .map_err(|e| e.to_string())?;
                check(&self.expected[0], report.match_count(), report.checksum())?;
                Ok(RunInfo::of(&report.ring, None))
            }
            Job::Tenants(batch) => {
                let report = batch.run().map_err(|e| e.to_string())?;
                if !report.all_completed() || report.tenants.len() != self.expected.len() {
                    return Err("not every tenant completed".into());
                }
                for (t, want) in report.tenants.iter().zip(&self.expected) {
                    check(want, t.count, t.checksum)?;
                }
                Ok(RunInfo::of(&report.ring, Some(report.total_seconds())))
            }
        }
    }
}

/// Compares one result with its reference.
///
/// # Errors
///
/// Names the differing quantity.
pub fn check(want: &Reference, count: u64, checksum: relation::Checksum) -> Result<(), String> {
    if count != want.count {
        return Err(format!("{count} matches, reference has {}", want.count));
    }
    if checksum != want.checksum {
        return Err("match checksum differs from the reference".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let spec = spec("smallfrag_reactor").expect("known workload");
        assert_eq!(spec.generate(7, true), spec.generate(7, true));
        assert_ne!(spec.generate(7, true), spec.generate(8, true));
        let (r, s) = &spec.generate(7, true)[0];
        assert_ne!(r, s, "the two sides draw from different seeds");
    }

    #[test]
    fn input_sizes_are_the_documented_ones() {
        let sizes: Vec<u64> = SPECS.iter().map(|s| s.input_tuples(false)).collect();
        assert_eq!(sizes, [1_048_576, 65_536, 65_536, 524_288, 320_000]);
        assert_eq!(SPECS[0].input_tuples(true), 1_048_576 / 8);
    }
}
