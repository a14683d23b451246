//! Deterministic event queue: the one queue of every ring run.
//!
//! Events are ordered by `(time, sequence number)`: ties in time are broken
//! by insertion order, so a simulation is a pure function of its inputs —
//! no hash-map iteration order or thread scheduling can leak in. The same
//! order serves a wall clock: a loop that oversleeps several due times
//! still takes their events by time, and equal times in the order pushed.
//! Times are offsets from a run's epoch, virtual or measured.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled entry in the queue: an event of type `E` due at `time`.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of future events, ordered by time with FIFO tie-breaking.
///
/// ```
/// use simnet::event::EventQueue;
/// use simnet::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute virtual time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, together with its due time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Removes and returns the earliest event if it is due at `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > now {
            return None;
        }
        self.pop()
    }

    /// The due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(7), ());
        q.push(SimTime::from_nanos(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_returns_each_event_with_its_due_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 1);
        q.push(SimTime::from_nanos(50), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 1)));
        assert_eq!(q.pop(), None);
    }

    /// A loop that pops an event and pushes its follow-up at the popped
    /// time plus a delay sees the chain in order, each at its own time.
    #[test]
    fn events_pushed_while_draining_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), 0);
        let mut seen = Vec::new();
        while let Some((now, n)) = q.pop() {
            seen.push((now.as_nanos(), n));
            if n < 4 {
                q.push(now + SimDuration::from_nanos(10), n + 1);
            }
        }
        assert_eq!(seen, vec![(1, 0), (11, 1), (21, 2), (31, 3), (41, 4)]);
    }

    /// A follow-up pushed at the popped time itself pops next, at that
    /// same instant, ahead of anything due later.
    #[test]
    fn a_follow_up_due_now_pops_before_any_later_event() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "first");
        q.push(SimTime::from_nanos(11), "later");
        let mut seen = Vec::new();
        while let Some((now, ev)) = q.pop() {
            seen.push((now.as_nanos(), ev));
            if ev == "first" {
                q.push(now, "second");
            }
        }
        assert_eq!(seen, vec![(10, "first"), (10, "second"), (11, "later")]);
    }

    #[test]
    fn pop_due_takes_nothing_past_now() {
        let mut q = EventQueue::new();
        for t in [10u64, 20, 30, 40] {
            q.push(SimTime::from_nanos(t), t);
        }
        let deadline = SimTime::from_nanos(20);
        let seen: Vec<u64> = std::iter::from_fn(|| q.pop_due(deadline))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(seen, vec![10, 20]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(30)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_nanos(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
    }
}
