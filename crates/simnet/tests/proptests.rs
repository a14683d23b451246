//! Property-based tests of the simulation substrate's invariants.

use proptest::prelude::*;
use simnet::cpu::{CostCategory, CpuAccount};
use simnet::event::EventQueue;
use simnet::link::{Direction, Link};
use simnet::throughput::ChunkThroughput;
use simnet::time::{SimDuration, SimTime};

proptest! {
    /// Events always come out in non-decreasing time order, regardless of
    /// insertion order, each with its own due time, so a clock advanced to
    /// each popped time never runs backwards.
    #[test]
    fn events_pop_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut queue = EventQueue::new();
        for &t in &times {
            queue.push(SimTime::from_nanos(t), t);
        }
        let observed: Vec<(SimTime, u64)> = std::iter::from_fn(|| queue.pop()).collect();
        prop_assert_eq!(observed.len(), times.len());
        for window in observed.windows(2) {
            prop_assert!(window[0].0 <= window[1].0, "clock ran backwards");
        }
        for &(now, t) in &observed {
            prop_assert_eq!(now, SimTime::from_nanos(t));
        }
    }

    /// Same-time events preserve insertion (FIFO) order.
    #[test]
    fn ties_are_fifo(n in 1usize..150) {
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.push(SimTime::from_nanos(42), i);
        }
        let mut expected = 0usize;
        while let Some((_, i)) = queue.pop() {
            prop_assert_eq!(i, expected);
            expected += 1;
        }
    }

    /// Link reservations are FIFO per direction: each transfer starts no
    /// earlier than the previous one's wire-free time, and arrival is
    /// always after start.
    #[test]
    fn link_is_fifo(sizes in prop::collection::vec(1u64..10_000_000, 1..50)) {
        let mut link = Link::paper_10gbe();
        let mut prev_free = SimTime::ZERO;
        for &bytes in &sizes {
            let r = link.reserve(SimTime::ZERO, Direction::Forward, bytes);
            prop_assert!(r.start >= prev_free.min(r.start));
            prop_assert!(r.wire_free > r.start || bytes == 0);
            prop_assert!(r.arrival > r.wire_free);
            prop_assert_eq!(r.start, prev_free.max(SimTime::ZERO));
            prev_free = r.wire_free;
        }
        let total: u64 = sizes.iter().sum();
        prop_assert_eq!(link.bytes_transferred(Direction::Forward), total);
    }

    /// Goodput is monotone in chunk size and never exceeds the peak.
    #[test]
    fn goodput_is_monotone_and_bounded(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let model = ChunkThroughput::paper_10gbe();
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(model.goodput(small).bytes_per_sec() <= model.goodput(large).bytes_per_sec() + 1e-6);
        prop_assert!(model.goodput(large).bytes_per_sec() <= model.peak().bytes_per_sec() + 1e-6);
    }

    /// Transfer time is additive-superadditive: splitting a payload into
    /// two messages is never faster than one message.
    #[test]
    fn splitting_never_helps(total in 2u64..10_000_000, cut in 1u64..100) {
        let model = ChunkThroughput::paper_10gbe();
        let first = total * cut.min(99) / 100;
        let second = total - first;
        let whole = model.transfer_time(total);
        let split = model.transfer_time(first.max(1)) + model.transfer_time(second.max(1));
        prop_assert!(split >= whole);
    }

    /// CPU account merge is commutative and total time is preserved.
    #[test]
    fn cpu_merge_commutes(xs in prop::collection::vec((0usize..5, 0u64..1_000_000), 0..40)) {
        let mut a = CpuAccount::new();
        let mut b = CpuAccount::new();
        let mut combined = CpuAccount::new();
        for (i, &(cat, nanos)) in xs.iter().enumerate() {
            let category = CostCategory::ALL[cat];
            let d = SimDuration::from_nanos(nanos);
            combined.charge(category, d);
            if i % 2 == 0 {
                a.charge(category, d);
            } else {
                b.charge(category, d);
            }
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(ab.total_busy(), combined.total_busy());
    }
}

// pop_due never takes an event due after the deadline, and takes every
// one due by it.
proptest! {
    #[test]
    fn run_until_respects_deadlines(
        times in prop::collection::vec(0u64..1_000, 1..50),
        deadline in 0u64..1_000,
    ) {
        let mut queue = EventQueue::new();
        for &t in &times {
            queue.push(SimTime::from_nanos(t), t);
        }
        let seen: Vec<u64> = std::iter::from_fn(|| queue.pop_due(SimTime::from_nanos(deadline)))
            .map(|(_, t)| t)
            .collect();
        prop_assert!(seen.iter().all(|&t| t <= deadline));
        let expected = times.iter().filter(|&&t| t <= deadline).count();
        prop_assert_eq!(seen.len(), expected);
    }
}
