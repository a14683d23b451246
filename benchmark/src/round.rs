//! One round: set a workload up from its seed, run the one-client closed
//! loop for the asked time with tracing and allocation counting off, then
//! count allocations over a few extra runs.

use std::time::{Duration, Instant};

use crate::alloc;
use crate::metrics::Measured;
use crate::stats::median;
use crate::workloads::{Prepared, Spec};

/// Warm-up runs per set-up; they are part of `setup_s`.
const WARMUP_RUNS: usize = 2;
/// Runs of the separate allocation count pass.
const COUNTED_RUNS: usize = 5;
/// The timed window is cut into slices of about this length, each
/// preceded by a set-up of its own. A slice is what the issue calls a
/// round — set up, warm up, loop for 2 s — so a round of `--seconds 2` is
/// one slice, and a longer round reports the median over its slices of
/// what `run` reports as the median over its rounds — over those that
/// count, see [`undisturbed`]. On this shared box the cost of a run
/// drifts by ±10 % with a period of 10–20 s; a slice sees one regime and
/// a fresh heap, a round sees several.
const SLICE_SECONDS: f64 = 2.0;

/// Runs attempted and failed, for the `attempted` / `failed` keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Runs started.
    pub attempted: u64,
    /// Runs that returned an error or a result different from the
    /// reference.
    pub failed: u64,
}

impl Tally {
    /// Runs the workload once, checked, and returns its wall time and
    /// virtual time.
    pub fn run(&mut self, prepared: &Prepared) -> (f64, Option<f64>) {
        let start = Instant::now();
        let outcome = std::hint::black_box(prepared.run());
        let wall = start.elapsed().as_secs_f64();
        (wall, self.note(outcome).and_then(|info| info.virtual_s))
    }

    /// Counts one attempted run and, when it failed, says why.
    pub fn note<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|why| {
                self.failed += 1;
                eprintln!("run failed: {why}");
            })
            .ok()
    }
}

/// Everything one `--trace 0` round measured.
#[derive(Debug)]
pub struct RoundResult {
    /// Runs attempted and failed, warm-ups and the count pass included.
    pub tally: Tally,
    /// The end-to-end metrics of [`crate::metrics::END_TO_END`].
    pub metrics: Measured,
    /// Wall time of every timed run of the slices that count, in run order.
    pub samples: Vec<f64>,
    /// Virtual-time duration of a run (simulated backend only).
    pub virtual_s: Option<f64>,
    /// The largest steal share among the slices that count.
    pub steal: f64,
}

/// Generates the inputs, computes the reference and warms up; returns
/// the workload ready to run and the seconds all of that took.
pub fn set_up(spec: &Spec, seed: u64, smoke: bool, tally: &mut Tally) -> (Prepared, f64) {
    let start = Instant::now();
    let prepared = Prepared::new(spec, seed, spec.generate(seed, smoke));
    for _ in 0..WARMUP_RUNS {
        tally.run(&prepared);
    }
    (prepared, start.elapsed().as_secs_f64())
}

/// What one slice measured.
struct Slice {
    setup_s: f64,
    samples: Vec<f64>,
    cpu_s_per_run: f64,
    tuples_per_s: f64,
    /// Share of the machine's CPU time, from the start of the set-up to
    /// the end of the loop, that the hypervisor gave to another guest.
    steal: f64,
}

/// Runs one round of `spec`, timing runs for about `seconds`.
pub fn run_round(spec: &Spec, seed: u64, seconds: f64, smoke: bool) -> RoundResult {
    let mut tally = Tally::default();
    let count = ((seconds / SLICE_SECONDS) as usize).max(1);
    let length = Duration::from_secs_f64(seconds / count as f64);
    let tuples = spec.input_tuples(smoke) as f64;
    let mut virtual_s = None;
    let mut slices: Vec<Slice> = Vec::new();
    let mut peak_kib = None;
    let mut ready: Option<Prepared> = None;
    for _ in 0..count {
        if ready.is_some() {
            // The peak is read before the first repeated set-up: it is
            // what a caller's process sees after one set-up and its runs,
            // and every repetition fragments the heap a little
            // differently (±7 % on the largest workload).
            peak_kib.get_or_insert_with(peak_rss_kib);
        }
        // Free the previous inputs first: two live copies would double
        // the peak.
        drop(ready.take());
        let ticks_before = machine_ticks();
        let (prepared, setup_s) = set_up(spec, seed, smoke, &mut tally);

        let mut samples = Vec::new();
        let cpu_before = process_cpu_seconds();
        let start = Instant::now();
        while samples.is_empty() || start.elapsed() < length {
            let (wall, virt) = tally.run(&prepared);
            samples.push(wall);
            virtual_s = virt.or(virtual_s);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let runs = samples.len() as f64;
        slices.push(Slice {
            setup_s,
            cpu_s_per_run: (process_cpu_seconds() - cpu_before) / runs,
            tuples_per_s: tuples * runs / elapsed,
            samples,
            steal: machine_ticks().steal_share_since(ticks_before),
        });
        ready = Some(prepared);
    }
    let peak_rss_mib = peak_kib.unwrap_or_else(peak_rss_kib) as f64 / 1024.0;

    let prepared = ready.expect("at least one slice");
    let (mut calls, mut bytes) = (Vec::new(), Vec::new());
    for _ in 0..COUNTED_RUNS {
        let (_, counts) = alloc::counted(|| tally.run(&prepared));
        calls.push(counts.calls as f64);
        bytes.push(counts.bytes as f64 / (1024.0 * 1024.0));
    }

    let steal: Vec<f64> = slices.iter().map(|s| s.steal).collect();
    let kept: Vec<&Slice> = undisturbed(&steal).iter().map(|&i| &slices[i]).collect();
    eprintln!(
        "{} of {} slices count (steal per slice: {})",
        kept.len(),
        slices.len(),
        steal
            .iter()
            .map(|s| format!("{:.1}%", s * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let over_kept =
        |value: fn(&Slice) -> f64| median(&kept.iter().map(|s| value(s)).collect::<Vec<_>>());
    let samples: Vec<f64> = kept
        .iter()
        .flat_map(|s| s.samples.iter().copied())
        .collect();

    let mut metrics = Measured::default();
    metrics.set("setup_s", over_kept(|s| s.setup_s));
    metrics.set("run_s_p50", over_kept(|s| median(&s.samples)));
    metrics.set("tuples_per_s", over_kept(|s| s.tuples_per_s));
    metrics.set("cpu_s_per_run", over_kept(|s| s.cpu_s_per_run));
    metrics.set("peak_rss_mib", peak_rss_mib);
    metrics.set("allocs_per_run", median(&calls));
    metrics.set("alloc_mib_per_run", median(&bytes));
    RoundResult {
        tally,
        metrics,
        samples,
        virtual_s,
        steal: kept.iter().map(|s| s.steal).fold(0.0, f64::max),
    }
}

/// A slice, or a round of `run`, counts when the hypervisor took at most
/// this share of the machine's CPU time from the VM while it ran. On the
/// box this was sized on, `smallfrag_reactor`'s median run took 31.0 ms
/// in 4 s rounds with under 0.5 % steal (69 rounds, quartile spread 6 %),
/// 31.4 ms at 0.5–1 %, 33.0 ms at 1–2 %, 33.5 ms at 2–5 %, 34.9 ms at
/// 5–10 % and 73.5 ms (35–196 ms) above 10 %, which is where it stays for
/// minutes at a time, a few times an hour.
pub const UNDISTURBED_STEAL: f64 = 0.01;
/// At least this many count, however disturbed: the least disturbed.
const MIN_KEPT: usize = 3;

/// Indices, in order, of the slices or rounds that count, given each
/// one's steal share: those at or under [`UNDISTURBED_STEAL`], or the
/// [`MIN_KEPT`] least disturbed when there are fewer. Steal is the
/// kernel's own account of the time it was runnable and not run, so this
/// selects on a measured disturbance, never on the values measured.
pub fn undisturbed(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let clean = steal.iter().filter(|&&s| s <= UNDISTURBED_STEAL).count();
    order.truncate(clean.max(MIN_KEPT));
    order.sort_unstable();
    order
}

/// Jiffies the machine has accounted since boot: all of them, and those
/// in which a virtual CPU was runnable and the hypervisor ran something
/// else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineTicks {
    total: u64,
    steal: u64,
}

impl MachineTicks {
    /// The share of the ticks since `before` that were stolen; zero when
    /// none passed.
    pub fn steal_share_since(self, before: MachineTicks) -> f64 {
        match self.total.saturating_sub(before.total) {
            0 => 0.0,
            total => self.steal.saturating_sub(before.steal) as f64 / total as f64,
        }
    }
}

/// Reads the `cpu` line of `/proc/stat`; zeros where there is no procfs,
/// which makes every steal share zero and every slice count.
pub fn machine_ticks() -> MachineTicks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal; the guest columns
    // after them are already part of user and nice.
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .take(8)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    MachineTicks {
        total: fields.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// User plus system CPU seconds of this process, all threads (the paper's
/// Table I quantity), from `/proc/self/stat`. Zero where there is no
/// procfs.
pub fn process_cpu_seconds() -> f64 {
    // `USER_HZ` is 100 on every Linux ABI.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}

/// Peak resident set (`VmHWM`) of this process in KiB; zero where there
/// is no procfs.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_count_by_their_steal_not_their_value() {
        assert_eq!(undisturbed(&[0.0, 0.004, 0.3, 0.01, 0.02]), [0, 1, 3]);
        assert_eq!(undisturbed(&[0.0; 4]), [0, 1, 2, 3], "no procfs: all");
        // An episode that covers the round: the least disturbed three.
        assert_eq!(undisturbed(&[0.3, 0.1, 0.4, 0.2, 0.005]), [1, 3, 4]);
        assert_eq!(undisturbed(&[0.5]), [0], "a one-slice round");
        assert_eq!(undisturbed(&[]), [0usize; 0]);
    }

    #[test]
    fn steal_share_is_stolen_over_all_ticks() {
        let before = MachineTicks {
            total: 1_000,
            steal: 10,
        };
        let after = MachineTicks {
            total: 1_400,
            steal: 14,
        };
        assert_eq!(after.steal_share_since(before), 0.01);
        assert_eq!(before.steal_share_since(before), 0.0);
        let now = machine_ticks();
        assert!(now.total > 0 && now.steal <= now.total);
    }

    #[test]
    fn procfs_readers_see_this_process() {
        assert!(peak_rss_kib() > 0);
        let before = process_cpu_seconds();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(
            process_cpu_seconds() > before,
            "60 ms of spinning is 6 ticks"
        );
    }
}
