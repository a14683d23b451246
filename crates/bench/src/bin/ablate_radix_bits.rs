//! Ablation — does cache-conscious radix partitioning actually matter?
//!
//! The radix join's whole point (§IV-C1, Manegold et al. \[22\]) is that
//! partitioning the build side until each partition + hash table fits in
//! cache makes every probe a cache hit. This ablation measures **real
//! wall-clock time on this machine**: the same probe workload against
//! tables built with 0 radix bits (one giant table) up to well past the
//! cache-fitting fan-out. The setup (build and partition) and probe
//! columns are the median, with quartiles, of 7 rounds, the fan-outs
//! alternated within each round.
//!
//! The **ring-order** column times what a ring does with the same
//! fan-out: the `hash_uniform_reactor` shape (2^19 tuples a side, 4 hosts,
//! 4 fragments each), so four stationary states of 131 072 tuples and 16
//! fragments prepared into their wire bytes, visited in ring order on one
//! thread — each of the 4 steps of a revolution visits every fragment
//! once, the hosts taking turns visit by visit, as hosts sharing a core
//! do. It is the median (and quartiles) of 15 revolutions per fan-out, the fan-outs
//! alternated within each round, at a fixed size whatever `CYCLO_SCALE`:
//! the effect it shows depends on the absolute table size.
//!
//! ```text
//! cargo run --release -p cyclo-bench --bin ablate_radix_bits
//! ```

use std::time::Instant;

use cyclo_bench::{print_table, scale_from_env, write_csv};
use mem_joins::hash::{radix_bits_for, CacheParams, HashJoinState, RadixPartitioned};
use mem_joins::{
    timed, Algorithm, JoinCollector, JoinPredicate, PreparedFragment, StationaryState,
};
use relation::{GenSpec, Relation};

/// The ring-order shape: `hash_uniform_reactor`'s.
const RING_TUPLES: usize = 1 << 19;
const RING_HOSTS: usize = 4;
const FRAGMENTS_PER_HOST: usize = 4;
const RING_ROUNDS: usize = 15;
/// Rounds of the scaled setup and probe columns.
const SWEEP_ROUNDS: usize = 7;

/// One ring's stationary states and prepared fragments at one fan-out.
struct Ring {
    states: Vec<StationaryState>,
    fragments: Vec<PreparedFragment>,
}

impl Ring {
    fn new(alg: &Algorithm, s: &Relation, r: &Relation, bits: u32) -> Self {
        Ring {
            states: s
                .split_even(RING_HOSTS)
                .iter()
                .map(|share| alg.setup_stationary(share, bits, 1))
                .collect(),
            fragments: r
                .split_even(RING_HOSTS * FRAGMENTS_PER_HOST)
                .iter()
                .map(|fragment| alg.prepare_fragment(fragment, bits, 1))
                .collect(),
        }
    }

    /// Seconds one revolution of visits takes, and the matches it finds.
    fn revolution(&self, alg: &Algorithm) -> (f64, u64) {
        let mut out = JoinCollector::aggregating();
        let start = Instant::now();
        for step in 0..RING_HOSTS {
            for f in 0..FRAGMENTS_PER_HOST {
                for (host, state) in self.states.iter().enumerate() {
                    let origin = (host + RING_HOSTS - step) % RING_HOSTS;
                    let fragment = &self.fragments[origin * FRAGMENTS_PER_HOST + f];
                    alg.join(state, fragment, &JoinPredicate::Equi, 1, &mut out);
                }
            }
        }
        (start.elapsed().as_secs_f64(), out.count())
    }
}

/// The median and the quartiles of `xs` (seconds) as `[p50, p25, p75]`,
/// in units of `unit` seconds with `decimals` digits.
fn median_quartiles(xs: &[f64], unit: f64, decimals: usize) -> [String; 3] {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    [2, 1, 3].map(|q| format!("{:.decimals$}", xs[q * (xs.len() - 1) / 4] / unit))
}

fn main() {
    let scale = scale_from_env(0.2);
    let tuples = ((140_000_000.0 * scale) as usize).max(1);
    let params = CacheParams::paper_xeon();
    let auto_bits = radix_bits_for(tuples, &params);
    let ring_auto = radix_bits_for(RING_TUPLES / RING_HOSTS, &params);
    println!(
        "Ablation — radix fan-out vs real probe time, {tuples} tuples/side \
         (scale {scale}, auto choice: {auto_bits} bits); ring order: \
         {RING_TUPLES} tuples/side over {RING_HOSTS} hosts (auto choice: {ring_auto} bits)\n"
    );

    let mut sweep: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 12];
    for bits in [auto_bits, ring_auto] {
        if !sweep.contains(&bits) {
            sweep.push(bits);
        }
    }
    sweep.sort_unstable();

    // The ring-order column first, at its fixed size, all fan-outs
    // alternated round by round.
    let alg = Algorithm::PartitionedHash(params);
    let ring_s = GenSpec::uniform(RING_TUPLES, 960).generate();
    let ring_r = GenSpec::uniform(RING_TUPLES, 961).generate();
    let rings: Vec<Ring> = sweep
        .iter()
        .map(|&bits| Ring::new(&alg, &ring_s, &ring_r, bits))
        .collect();
    let mut ring_times = vec![Vec::new(); sweep.len()];
    let mut ring_matches = vec![0; sweep.len()];
    for _ in 0..RING_ROUNDS {
        for (i, ring) in rings.iter().enumerate() {
            let (seconds, matches) = ring.revolution(&alg);
            ring_times[i].push(seconds);
            ring_matches[i] = matches;
        }
    }
    drop(rings);
    assert!(
        ring_matches.windows(2).all(|w| w[0] == w[1]),
        "every fan-out finds the same matches"
    );

    let s = GenSpec::uniform(tuples, 950).generate();
    let r = GenSpec::uniform(tuples, 951).generate();
    let mut setup_times = vec![Vec::new(); sweep.len()];
    let mut probe_times = vec![Vec::new(); sweep.len()];
    let mut sweep_matches = vec![0; sweep.len()];
    let mut table_kb = vec![0; sweep.len()];
    for _ in 0..SWEEP_ROUNDS {
        for (i, &bits) in sweep.iter().enumerate() {
            let (state, build_time) = timed(|| HashJoinState::build_with_bits(&s, bits, &params));
            let (probe_frag, partition_time) = timed(|| RadixPartitioned::new(&r, bits, &params));
            let (matches, probe_time) = timed(|| {
                let mut c = JoinCollector::aggregating();
                state.probe_partitioned(&probe_frag, 1, &mut c);
                c.count()
            });
            setup_times[i].push(build_time.as_secs_f64() + partition_time.as_secs_f64());
            probe_times[i].push(probe_time.as_secs_f64());
            sweep_matches[i] = matches;
            table_kb[i] = state.footprint_bytes() / (1usize << bits) / 1024;
        }
    }
    let mut rows = Vec::new();
    for (i, &bits) in sweep.iter().enumerate() {
        let mark = match (bits == auto_bits, bits == ring_auto) {
            (true, true) => " (auto, ring auto)",
            (true, false) => " (auto)",
            (false, true) => " (ring auto)",
            (false, false) => "",
        };
        let mut row = vec![
            format!("{bits}{mark}"),
            format!("{}", 1u64 << bits),
            format!("{}", table_kb[i]),
        ];
        row.extend(median_quartiles(&setup_times[i], 1.0, 3));
        row.extend(median_quartiles(&probe_times[i], 1.0, 3));
        row.push(sweep_matches[i].to_string());
        row.extend(median_quartiles(&ring_times[i], 1e-3, 1));
        rows.push(row);
    }
    print_table(
        &[
            "bits",
            "partitions",
            "kB/table",
            "setup [s]",
            "p25",
            "p75",
            "probe [s]",
            "p25",
            "p75",
            "matches",
            "ring order [ms]",
            "p25",
            "p75",
        ],
        &rows,
    );
    println!("\nshape: partitioning pays once the monolithic table exceeds the CPU's");
    println!("*last-level* cache (the paper's 2008 Xeon had 4 MB; modern server LLCs");
    println!("run to hundreds of MB, so the crossover needs bigger tables today).");
    println!("Past the cache-fitting fan-out, extra partitions only add overhead.");
    println!("In ring order, hosts that share a core also share its caches: the");
    println!("fan-out that pays is the one whose tables fit what a host really gets.");
    write_csv(
        "ablate_radix_bits",
        &[
            "bits",
            "partitions",
            "kb_per_table",
            "setup_s",
            "setup_p25_s",
            "setup_p75_s",
            "probe_s",
            "probe_p25_s",
            "probe_p75_s",
            "matches",
            "ring_order_ms",
            "ring_order_p25_ms",
            "ring_order_p75_ms",
        ],
        &rows,
    );
}
