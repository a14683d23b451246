//! The query session: the application state of every ring run in `core`.
//!
//! The paper runs one operator on one ring — a stationary `S_i` per host,
//! fragments rotating past it, a local join per visit (§IV-A). Its two
//! generalisations, several revolutions and several queries on one
//! rotation, change *what circulates*, not what a host does when a
//! fragment arrives. A [`Session`] is that host-side half, once: per
//! query the stationary partitions, the setup-phase state built over each
//! (keyed by *logical role*, so ring healing and planned handoffs can
//! rebuild a role on another machine) and a result collector per host.
//! [`crate::exec`] plugs it into all four backends; `CycloJoin`,
//! `MultiTenantJoin` and `ConcurrentJoins` differ only in what they admit.
//!
//! A session borrows its queries' inputs for the run: a stationary
//! partition is a view of the caller's columns ([`Placement`]), and setup,
//! a takeover's rebuild and a raw fragment's reorganisation all read the
//! columns where they lie. The copies left are what outlives a view: a
//! fragment's transport form — its wire bytes ([`PreparedFragment`]),
//! reorganised straight into them, or raw in the §IV-D counterfactual and
//! on a shared rotation — which the ring carries as they are, and nested
//! loops' stationary state, which is the partition as it is.

// The shim resolves to `std::sync::Mutex` in normal builds and to the
// model checker's instrumented mutex under `--cfg loom`, so the threaded
// execution path stays model-checkable end to end.
use data_roundabout::sync::Mutex;
use data_roundabout::{HostId, RingConfig};
use mem_joins::{
    Algorithm, FragmentView, JoinCollector, JoinPredicate, OutputMode, PreparedFragment,
    StationaryState,
};
use relation::RelationView;
use simnet::time::SimDuration;

use crate::compute::ComputeMode;
use crate::distribute::Placement;
use crate::result::DistributedResult;

/// Mirrors a predicate for swapped-side execution: `p'(a, b) = p(b, a)`.
/// Equi and band predicates are symmetric; theta predicates flip their
/// arguments.
fn mirror_predicate(p: &JoinPredicate) -> JoinPredicate {
    match p {
        JoinPredicate::Equi => JoinPredicate::Equi,
        JoinPredicate::Band { delta } => JoinPredicate::Band { delta: *delta },
        JoinPredicate::Theta(f) => {
            let f = f.clone();
            JoinPredicate::theta(move |a, b| f(b, a))
        }
    }
}

/// One admitted query, over inputs borrowed for `'a`.
struct Query<'a> {
    algorithm: Algorithm,
    /// Already mirrored when the logical `S` is the side that rotates.
    predicate: JoinPredicate,
    radix_bits: u32,
    /// Stationary partition per logical role (role `i` = the partition
    /// `S_i` originally placed on host `i`), a view of the caller's
    /// columns. Kept for the whole run: setup builds from it and a
    /// takeover rebuilds from it.
    stationary: Vec<RelationView<'a>>,
    /// Setup-phase state per role. Ring healing and planned handoffs
    /// replace a role's state while other hosts are joining, hence the
    /// lock; the index keeps meaning the role, not the machine.
    states: Vec<Mutex<Option<StationaryState>>>,
    /// Result collector per *host*: whichever roles a host serves, its
    /// matches land in its own partial result.
    collectors: Vec<Mutex<JoinCollector>>,
}

/// The per-query stationary state and collectors of one ring run, with the
/// one implementation each of setup, visit and takeover.
///
/// Lock order: a role's state slot before the host's collector. The slot
/// is held for a whole join so a takeover cannot swap the state mid-visit.
pub(crate) struct Session<'a> {
    /// The ring this session runs on.
    pub(crate) config: RingConfig,
    compute: ComputeMode,
    /// One rotation feeds every query (the Data Cyclotron direction):
    /// whatever arrives is joined by all of them, whichever wire query it
    /// travels as.
    shared_rotation: bool,
    queries: Vec<Query<'a>>,
    /// Setup-phase cost per host of reorganising its locally originating
    /// fragments, summed over the admitted queries.
    prep: Vec<SimDuration>,
}

impl<'a> Session<'a> {
    /// An empty session on `config`'s ring, pricing work with `compute`.
    pub(crate) fn new(config: RingConfig, compute: ComputeMode) -> Self {
        Session {
            config,
            compute,
            shared_rotation: false,
            queries: Vec::new(),
            prep: vec![SimDuration::ZERO; config.hosts],
        }
    }

    /// Marks the session as a *shared rotation*: every admitted query
    /// consumes the fragments of wire query 0.
    pub(crate) fn shared_rotation(mut self) -> Self {
        self.shared_rotation = true;
        self
    }

    /// Admits one query as placed by `placement` and returns its rotating
    /// fragments per host in ring-transport form: the wire bytes the ring
    /// carries, written once, here, at their origin, straight from the
    /// placement's views. With `ship_prepared` the fragment is reorganised
    /// into them (the cost lands in that host's setup); without it (the
    /// §IV-D counterfactual, and any shared rotation — different queries
    /// need different forms) its tuples are written as they are, and every
    /// visit reorganises them.
    pub(crate) fn admit(
        &mut self,
        algorithm: Algorithm,
        predicate: &JoinPredicate,
        placement: Placement<'a>,
        output: OutputMode,
        ship_prepared: bool,
    ) -> Vec<Vec<PreparedFragment>> {
        debug_assert_eq!(
            placement.rotating.len(),
            self.prep.len(),
            "placed for this ring"
        );
        let (compute, threads) = (self.compute, self.config.join_threads);
        let radix_bits = algorithm.ring_radix_bits(placement.max_stationary_tuples().max(1));
        let ship = |raw: RelationView<'_>, prep: &mut SimDuration| {
            if !ship_prepared {
                return PreparedFragment::from_view(FragmentView::Plain(raw));
            }
            let (prepared, d) = compute.prepare_fragment(&algorithm, raw, radix_bits, threads);
            *prep += d;
            prepared
        };
        let rotating = (placement.rotating.into_iter().zip(&mut self.prep))
            .map(|(local, prep)| local.into_iter().map(|raw| ship(raw, prep)).collect())
            .collect();
        let collector = if placement.swapped {
            JoinCollector::new(output).with_swapped_sides()
        } else {
            JoinCollector::new(output)
        };
        self.queries.push(Query {
            algorithm,
            predicate: if placement.swapped {
                mirror_predicate(predicate)
            } else {
                predicate.clone()
            },
            radix_bits,
            states: placement
                .stationary
                .iter()
                .map(|_| Mutex::new(None))
                .collect(),
            stationary: placement.stationary,
            collectors: (0..self.config.hosts)
                .map(|_| Mutex::new(collector.child()))
                .collect(),
        });
        rotating
    }

    /// The setup phase at `host`: builds every query's state over the
    /// host's own stationary partition. Returns the duration of that work
    /// plus the host's fragment preparation.
    pub(crate) fn setup(&self, host: HostId) -> SimDuration {
        let mut total = self.prep.get(host.0).copied().unwrap_or(SimDuration::ZERO);
        for q in &self.queries {
            total += self.build(q, host.0, q.stationary.get(host.0).copied());
        }
        total
    }

    /// A takeover: rebuilds the state of logical role `role` for every
    /// query — the ring healed around its dead owner, or a planned
    /// rescale handed it to a new one — from the role's share where it
    /// lies, and returns the duration.
    pub(crate) fn absorb(&self, role: usize) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for q in &self.queries {
            total += self.build(q, role, q.stationary.get(role).copied());
        }
        total
    }

    /// Builds `q`'s state for `role` over `share` and publishes it in the
    /// role's slot.
    fn build(&self, q: &Query<'a>, role: usize, share: Option<RelationView<'a>>) -> SimDuration {
        // The ring drivers have no error channel here: contract violations
        // are surfaced by debug_asserts and absorbed as no-ops in release,
        // where the result verification downstream reports the loss.
        let (Some(share), Some(slot)) = (share, q.states.get(role)) else {
            debug_assert!(
                false,
                "role {role} has no stationary partition to build over"
            );
            return SimDuration::ZERO;
        };
        let (state, d) = self.compute.setup_stationary(
            &q.algorithm,
            share,
            q.radix_bits,
            self.config.join_threads,
        );
        *slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(state);
        d
    }

    /// One visit: `fragment` of wire query `query` arrived at `host`, which
    /// serves the logical `roles`. Joins it against each role's state for
    /// the query (for every query on a shared rotation) and returns the
    /// duration of the work. The fragment is borrowed: the origin's owned
    /// copy, or on a socket engine the bytes it arrived in, read in place.
    pub(crate) fn visit(
        &self,
        host: HostId,
        query: u32,
        roles: &[usize],
        fragment: FragmentView<'_>,
    ) -> SimDuration {
        let threads = self.config.join_threads;
        let fed = if self.shared_rotation {
            self.queries.as_slice()
        } else {
            self.queries
                .get(query as usize)
                .map(std::slice::from_ref)
                .unwrap_or_default()
        };
        debug_assert!(!fed.is_empty(), "fragment of unknown query {query}");
        let mut total = SimDuration::ZERO;
        // A raw fragment is reorganised here, at encounter time, straight
        // from where it lies, at most once per format: shared by every
        // query that needs that format and by however many roles this
        // host serves.
        let mut reorganised: Vec<(Algorithm, u32, PreparedFragment)> = Vec::new();
        for q in fed {
            let form = match fragment {
                FragmentView::Plain(raw) if q.algorithm != Algorithm::NestedLoops => {
                    let cached = reorganised
                        .iter()
                        .position(|(a, bits, _)| *a == q.algorithm && *bits == q.radix_bits);
                    let at = cached.unwrap_or_else(|| {
                        let (prepared, d) =
                            self.compute
                                .prepare_fragment(&q.algorithm, raw, q.radix_bits, threads);
                        total += d;
                        reorganised.push((q.algorithm, q.radix_bits, prepared));
                        reorganised.len() - 1
                    });
                    reorganised
                        .get(at)
                        .map_or(fragment, |(_, _, form)| form.into())
                }
                _ => fragment,
            };
            let Some(shared_collector) = q.collectors.get(host.0) else {
                debug_assert!(false, "join visit for unknown host {}", host.0);
                continue;
            };
            for &role in roles {
                let Some(slot) = q.states.get(role) else {
                    debug_assert!(false, "join against unknown role {role}");
                    continue;
                };
                let guard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                let Some(state) = guard.as_ref() else {
                    debug_assert!(false, "join against role {role} whose state is absent");
                    continue;
                };
                // A join that panicked on this host poisons the collector;
                // recover the inner value so concurrent joins keep
                // collecting while the ring tears down with a typed error
                // instead of a panic storm.
                let mut collector = shared_collector
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                total += self.compute.join(
                    &q.algorithm,
                    state,
                    form,
                    &q.predicate,
                    threads,
                    &mut collector,
                );
            }
        }
        total
    }

    /// Ends the session: every query's distributed result, in admission
    /// order.
    pub(crate) fn finish(self) -> Vec<DistributedResult> {
        let unlock = |m: Mutex<JoinCollector>| {
            m.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
        };
        (self.queries.into_iter())
            .map(|q| DistributedResult::new(q.collectors.into_iter().map(unlock).collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::RotateSide;
    use crate::verify::reference_join;
    use relation::GenSpec;

    /// A takeover rebuilds the orphaned role from its share: role 2's
    /// slot stays empty until `absorb(2)` fills it, and a visit on behalf
    /// of both roles then joins the fragment against exactly `S_2 ∪ S_3`.
    #[test]
    fn a_takeover_rebuilds_the_orphaned_role_from_its_share() {
        let r = GenSpec::uniform(4_000, 70).generate();
        let s = GenSpec::uniform(4_000, 71).generate();
        let placement = Placement::new(&r, &s, 4, 2, RotateSide::R);
        let fragment = placement.rotating[0][0].to_relation();
        let mut survivor_share = placement.stationary[2].to_relation();
        survivor_share.extend_from(&placement.stationary[3].to_relation());
        let reference = reference_join(&fragment, &survivor_share, &JoinPredicate::Equi);
        assert!(reference.count > 0, "the fragment must match something");

        let mut session = Session::new(RingConfig::paper(4), ComputeMode::modeled());
        let rotating = session.admit(
            Algorithm::partitioned_hash(),
            &JoinPredicate::Equi,
            placement,
            OutputMode::Aggregate,
            true,
        );
        for host in [0, 1, 3] {
            session.setup(HostId(host));
        }
        session.absorb(2);
        session.visit(HostId(3), 0, &[3, 2], (&rotating[0][0]).into());
        let result = session.finish().pop().expect("one query");
        assert_eq!(result.partial(3).count(), reference.count);
        assert_eq!(result.partial(3).checksum(), reference.checksum);
        assert_eq!(result.count(), reference.count, "only host 3 joined");
    }

    #[test]
    fn mirror_predicate_flips_theta() {
        let p = JoinPredicate::theta(|a, b| a < b);
        let m = mirror_predicate(&p);
        assert!(p.matches(1, 2));
        assert!(!m.matches(1, 2));
        assert!(m.matches(2, 1));
        // Symmetric predicates mirror to themselves.
        assert!(mirror_predicate(&JoinPredicate::Equi).is_equi());
        assert_eq!(
            mirror_predicate(&JoinPredicate::band(3)).band_delta(),
            Some(3)
        );
    }
}
