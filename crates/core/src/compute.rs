//! Compute pricing: how long a host's setup and join work takes in
//! virtual time.
//!
//! The local joins always *execute for real* (the result is genuinely
//! computed and verified); what differs is where their virtual duration
//! comes from:
//!
//! * [`ComputeMode::Measured`] — wall-clock-time the real execution and use
//!   that as the virtual duration. Realistic, used by the benchmark
//!   harness; not deterministic across machines.
//! * [`ComputeMode::Modeled`] — price the work with an analytic
//!   [`CostModel`] calibrated to the paper's testbed (per-tuple constants
//!   back-solved from the reported phase times). Fully deterministic;
//!   used by tests and by sweeps at paper-scale volumes that would be too
//!   slow to execute at `scale = 1.0`.

use mem_joins::{
    timed, Algorithm, FragmentView, JoinCollector, JoinPredicate, PreparedFragment, StationaryState,
};
use relation::RelationView;
use serde::{Deserialize, Serialize};
use simnet::time::SimDuration;

/// Analytic per-tuple cost constants, calibrated to the paper's quad-core
/// 2.33 GHz Xeon testbed so that the modeled phase times land near the
/// reported figures at `scale = 1.0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Hash-table build cost per stationary tuple (radix partition + insert),
    /// nanoseconds, single-threaded.
    pub hash_build_ns: f64,
    /// Radix-partitioning cost per rotating tuple, nanoseconds, single-threaded.
    pub hash_partition_ns: f64,
    /// Hash-probe cost per probe tuple, nanoseconds, single-threaded.
    pub hash_probe_ns: f64,
    /// Cost per emitted match (chain walk + output), nanoseconds.
    pub match_ns: f64,
    /// Sort cost per tuple per log₂(n) level, nanoseconds, single-threaded.
    pub sort_ns: f64,
    /// Merge cost per probe-side tuple, nanoseconds, single-threaded. The
    /// stationary side's cursor advance is a strictly sequential scan with
    /// perfect prefetching (§V-E), so its cost is folded into this constant.
    pub merge_ns: f64,
    /// Nested-loops cost per key pair evaluated, nanoseconds.
    pub nl_pair_ns: f64,
    /// Cache-degradation coefficient for duplicate-heavy probes: the
    /// effective per-match cost is `match_ns × (1 + α·ln(avg duplicates
    /// per probe tuple))`. Long hash chains spill out of L2, so probing a
    /// skew-concentrated table costs more per match — this is the Figure 9
    /// effect, and distributing the table over `n` hosts shortens the
    /// chains each host sees.
    pub dup_cache_alpha: f64,
}

impl CostModel {
    /// Constants calibrated to the paper's testbed.
    pub fn paper_xeon() -> Self {
        CostModel {
            hash_build_ns: 300.0,
            hash_partition_ns: 160.0,
            hash_probe_ns: 70.0,
            match_ns: 10.0,
            sort_ns: 42.0,
            merge_ns: 30.0,
            nl_pair_ns: 1.2,
            dup_cache_alpha: 1.4,
        }
    }

    fn ns(&self, nanos: f64) -> SimDuration {
        SimDuration::from_secs_f64(nanos.max(0.0) / 1e9)
    }

    /// Modeled duration of `setup_stationary` for `alg` over `s_tuples`.
    pub fn setup_duration(&self, alg: &Algorithm, s_tuples: usize, threads: usize) -> SimDuration {
        let t = threads.max(1) as f64;
        let n = s_tuples as f64;
        match alg {
            Algorithm::PartitionedHash(_) => self.ns(n * self.hash_build_ns / t),
            Algorithm::SortMerge => self.ns(n * n.max(2.0).log2() * self.sort_ns / t),
            Algorithm::NestedLoops => SimDuration::ZERO,
        }
    }

    /// Modeled duration of `prepare_fragment` for `alg` over `r_tuples`.
    pub fn prepare_duration(
        &self,
        alg: &Algorithm,
        r_tuples: usize,
        threads: usize,
    ) -> SimDuration {
        let t = threads.max(1) as f64;
        let n = r_tuples as f64;
        match alg {
            Algorithm::PartitionedHash(_) => self.ns(n * self.hash_partition_ns / t),
            Algorithm::SortMerge => self.ns(n * n.max(2.0).log2() * self.sort_ns / t),
            Algorithm::NestedLoops => SimDuration::ZERO,
        }
    }

    /// Modeled duration of one join-phase encounter: `r_tuples` probed
    /// against `s_tuples`, yielding `matches`.
    pub fn join_duration(
        &self,
        alg: &Algorithm,
        r_tuples: usize,
        s_tuples: usize,
        matches: u64,
        threads: usize,
    ) -> SimDuration {
        let t = threads.max(1) as f64;
        let r = r_tuples as f64;
        let s = s_tuples as f64;
        let m = matches as f64;
        match alg {
            Algorithm::PartitionedHash(_) => {
                // Skew surrogate: average duplicates found per probe tuple;
                // chains longer than ~1 walk out of cache.
                let avg_dup = if r > 0.0 { (m / r).max(1.0) } else { 1.0 };
                let match_eff = self.match_ns * (1.0 + self.dup_cache_alpha * avg_dup.ln());
                self.ns((r * self.hash_probe_ns + m * match_eff) / t)
            }
            Algorithm::SortMerge => self.ns((r * self.merge_ns + m * self.match_ns) / t),
            Algorithm::NestedLoops => self.ns((r * s * self.nl_pair_ns + m * self.match_ns) / t),
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_xeon()
    }
}

/// Where virtual compute durations come from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ComputeMode {
    /// Wall-clock-measure the real execution.
    Measured,
    /// Price the (still real) execution with an analytic cost model.
    Modeled(CostModel),
}

impl ComputeMode {
    /// The default deterministic mode with the paper-calibrated model.
    pub fn modeled() -> Self {
        ComputeMode::Modeled(CostModel::paper_xeon())
    }

    /// Runs the setup phase over `s` (a relation, or a view of one's
    /// columns), returning the state and its virtual duration.
    pub fn setup_stationary<'s>(
        &self,
        alg: &Algorithm,
        s: impl Into<RelationView<'s>>,
        radix_bits: u32,
        threads: usize,
    ) -> (StationaryState, SimDuration) {
        let s = s.into();
        match self {
            ComputeMode::Measured => {
                let (state, d) = timed(|| alg.setup_stationary(s, radix_bits, threads));
                (state, d.into())
            }
            ComputeMode::Modeled(model) => {
                let state = alg.setup_stationary(s, radix_bits, threads);
                (state, model.setup_duration(alg, s.len(), threads))
            }
        }
    }

    /// Reorganizes a rotating fragment (a relation, or a view of one's
    /// columns), returning it and its virtual duration.
    pub fn prepare_fragment<'r>(
        &self,
        alg: &Algorithm,
        r: impl Into<RelationView<'r>>,
        radix_bits: u32,
        threads: usize,
    ) -> (PreparedFragment, SimDuration) {
        let r = r.into();
        match self {
            ComputeMode::Measured => {
                let (frag, d) = timed(|| alg.prepare_fragment(r, radix_bits, threads));
                (frag, d.into())
            }
            ComputeMode::Modeled(model) => {
                let frag = alg.prepare_fragment(r, radix_bits, threads);
                (frag, model.prepare_duration(alg, r.len(), threads))
            }
        }
    }

    /// Runs one join-phase encounter into `collector`, returning its
    /// virtual duration. The fragment is owned or viewed in its wire bytes.
    pub fn join<'f>(
        &self,
        alg: &Algorithm,
        state: &StationaryState,
        fragment: impl Into<FragmentView<'f>>,
        predicate: &JoinPredicate,
        threads: usize,
        collector: &mut JoinCollector,
    ) -> SimDuration {
        let fragment = fragment.into();
        match self {
            ComputeMode::Measured => {
                let ((), d) = timed(|| alg.join(state, fragment, predicate, threads, collector));
                d.into()
            }
            ComputeMode::Modeled(model) => {
                let before = collector.count();
                alg.join(state, fragment, predicate, threads, collector);
                let matches = collector.count() - before;
                model.join_duration(alg, fragment.len(), state.len(), matches, threads)
            }
        }
    }
}

impl Default for ComputeMode {
    fn default() -> Self {
        ComputeMode::modeled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::GenSpec;

    fn model() -> CostModel {
        CostModel::paper_xeon()
    }

    #[test]
    fn setup_scales_linearly_for_hash() {
        let alg = Algorithm::partitioned_hash();
        let d1 = model().setup_duration(&alg, 1_000_000, 4);
        let d2 = model().setup_duration(&alg, 2_000_000, 4);
        let ratio = d2.as_secs_f64() / d1.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sort_setup_costs_more_than_hash_setup() {
        // §V-E: sorting incurs a significantly higher cost than hashing.
        let n = 10_000_000;
        let hash = model().setup_duration(&Algorithm::partitioned_hash(), n, 4);
        let sort = model().setup_duration(&Algorithm::SortMerge, n, 4);
        assert!(sort.as_secs_f64() > 2.0 * hash.as_secs_f64());
    }

    #[test]
    fn merge_phase_beats_probe_phase() {
        // §V-E: the sort-merge join phase is about twice as fast.
        let r = 10_000_000;
        let s = 10_000_000;
        let matches = r as u64;
        let probe = model().join_duration(&Algorithm::partitioned_hash(), r, s, matches, 4);
        let merge = model().join_duration(&Algorithm::SortMerge, r, s, matches, 4);
        assert!(
            merge.as_secs_f64() < probe.as_secs_f64(),
            "merge {merge} should beat probe {probe}"
        );
    }

    #[test]
    fn duplicate_heavy_probes_cost_more_per_match() {
        let alg = Algorithm::partitioned_hash();
        let r = 1_000_000;
        // Same number of matches spread thin vs concentrated:
        let thin = model().join_duration(&alg, r, r, r as u64, 4);
        let heavy = model().join_duration(&alg, r, r, 20 * r as u64, 4);
        // Heavy has 20× the matches; with the cache surrogate it must cost
        // more than 20× the marginal match cost would alone.
        let thin_per_match = thin.as_secs_f64();
        assert!(heavy.as_secs_f64() > 10.0 * thin_per_match);
    }

    #[test]
    fn threads_divide_modeled_durations() {
        let alg = Algorithm::SortMerge;
        let d1 = model().join_duration(&alg, 1_000_000, 1_000_000, 0, 1);
        let d4 = model().join_duration(&alg, 1_000_000, 1_000_000, 0, 4);
        let ratio = d1.as_secs_f64() / d4.as_secs_f64();
        assert!((ratio - 4.0).abs() < 1e-6);
    }

    #[test]
    fn paper_scale_sanity_hash_setup() {
        // At full scale the paper reports ~16.2 s single-host setup for
        // 2 × 140 M tuples (build over S + partition R). The model should
        // land within a factor of two.
        let m = model();
        let build = m.setup_duration(&Algorithm::partitioned_hash(), 140_000_000, 4);
        let prep = m.prepare_duration(&Algorithm::partitioned_hash(), 140_000_000, 4);
        let total = build.as_secs_f64() + prep.as_secs_f64();
        assert!(
            (8.0..32.0).contains(&total),
            "modeled single-host setup {total} s should be near 16.2 s"
        );
    }

    #[test]
    fn measured_and_modeled_agree_on_results() {
        let alg = Algorithm::partitioned_hash();
        let s = GenSpec::uniform(2_000, 1).generate();
        let r = GenSpec::uniform(2_000, 2).generate();
        let bits = alg.ring_radix_bits(s.len());
        let run = |mode: ComputeMode| {
            let (state, _) = mode.setup_stationary(&alg, &s, bits, 2);
            let (frag, _) = mode.prepare_fragment(&alg, &r, bits, 2);
            let mut c = JoinCollector::aggregating();
            let d = mode.join(&alg, &state, &frag, &JoinPredicate::Equi, 2, &mut c);
            assert!(d > SimDuration::ZERO || c.count() == 0);
            (c.count(), c.checksum())
        };
        assert_eq!(run(ComputeMode::Measured), run(ComputeMode::modeled()));
    }

    #[test]
    fn modeled_durations_are_deterministic() {
        let mode = ComputeMode::modeled();
        let alg = Algorithm::SortMerge;
        let s = GenSpec::uniform(1_000, 3).generate();
        let d1 = mode.setup_stationary(&alg, &s, 0, 2).1;
        let d2 = mode.setup_stationary(&alg, &s, 0, 2).1;
        assert_eq!(d1, d2);
    }
}
