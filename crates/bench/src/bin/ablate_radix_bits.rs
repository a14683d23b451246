//! Ablation — does cache-conscious radix partitioning actually matter?
//!
//! The radix join's whole point (§IV-C1, Manegold et al. \[22\]) is that
//! partitioning the build side until each partition + hash table fits in
//! cache makes every probe a cache hit. This ablation measures **real
//! wall-clock time on this machine**: the same probe workload against
//! tables built with 0 radix bits (one giant table) up to well past the
//! cache-fitting fan-out.
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

/// The quartiles and the median of `xs`, in milliseconds.
fn quartiles_ms(xs: &[f64]) -> [String; 3] {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| format!("{:.1}", xs[q * (xs.len() - 1) / 4] * 1e3))
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
    let mut rows = Vec::new();
    for (i, &bits) in sweep.iter().enumerate() {
        let (state, build_time) = timed(|| HashJoinState::build_with_bits(&s, bits, &params));
        let (probe_frag, partition_time) = timed(|| RadixPartitioned::new(&r, bits, &params));
        let (matches, probe_time) = timed(|| {
            let mut c = JoinCollector::aggregating();
            state.probe_partitioned(&probe_frag, 1, &mut c);
            c.count()
        });
        let table_kb_per_partition = state.footprint_bytes() / (1usize << bits) / 1024;
        let mark = match (bits == auto_bits, bits == ring_auto) {
            (true, true) => " (auto, ring auto)",
            (true, false) => " (auto)",
            (false, true) => " (ring auto)",
            (false, false) => "",
        };
        rows.push(vec![
            format!("{bits}{mark}"),
            format!("{}", 1u64 << bits),
            format!("{table_kb_per_partition}"),
            format!(
                "{:.3}",
                build_time.as_secs_f64() + partition_time.as_secs_f64()
            ),
            format!("{:.3}", probe_time.as_secs_f64()),
            matches.to_string(),
        ]);
        let [p25, p50, p75] = quartiles_ms(&ring_times[i]);
        rows.last_mut()
            .expect("just pushed")
            .extend([p50, p25, p75]);
    }
    print_table(
        &[
            "bits",
            "partitions",
            "kB/table",
            "setup [s]",
            "probe [s]",
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
            "probe_s",
            "matches",
            "ring_order_ms",
            "ring_order_p25_ms",
            "ring_order_p75_ms",
        ],
        &rows,
    );
}
