//! The application hook the ring backends drive.
//!
//! The Data Roundabout is a transport layer: it moves envelopes and runs
//! the asynchronous receiver/join/transmitter machinery, but what the join
//! entity *does* with a buffer — and how long that takes in virtual time —
//! is the application's business. Cyclo-join implements [`RingApp`] by
//! actually executing local joins (measured compute) or by pricing them
//! with an analytic cost model (modeled compute).

use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

/// Application logic plugged into a simulated ring run.
///
/// The simulation is single-threaded, so the app receives `&mut self` and
/// may freely accumulate state (join results, counters) across calls.
pub trait RingApp<P> {
    /// One-time setup work at `host` before rotation starts (e.g. building
    /// hash tables over the stationary partition, sorting, registering
    /// ring buffers). Returns the virtual duration of that work.
    fn setup(&mut self, host: HostId) -> SimDuration;

    /// The join entity at `host` processes one buffer of in-flight query
    /// `query` (0 on single-query rings) at virtual time `now`, *on behalf
    /// of the logical roles in `roles`*: the host's own stationary
    /// partition (`[host.0]`, the only shape an unplanned ring ever sees)
    /// plus, after ring healing or a planned handoff, every partition it
    /// absorbed — an envelope must be joined against exactly the
    /// not-yet-visited ones. Transport-level apps that do not distinguish
    /// partitions or tenants ignore both. Returns the virtual compute
    /// duration (on an otherwise idle machine with the configured thread
    /// count — transport-induced slowdowns are applied by the backend, not
    /// the app).
    fn process(
        &mut self,
        host: HostId,
        query: u32,
        roles: &[usize],
        now: SimTime,
        payload: &P,
    ) -> SimDuration;

    /// Polled at virtual time `now`, as each processed buffer's join
    /// ends, in *continuous* rotation mode (see `SimRing::continuous`):
    /// returning `true` stops the rotation. An app that books work ending
    /// after `now` (a completion priced when its visit began) answers
    /// `false` until `now` reaches it. Ignored in the default
    /// run-to-retirement mode.
    fn finished(&self, now: SimTime) -> bool {
        let _ = now;
        false
    }

    /// A takeover: `host` rebuilds its local state (hash tables, sorted
    /// runs) for the stationary partition of logical `role` — the ring
    /// healed around the role's dead owner, or a planned rescale handed
    /// the role to `host`. Returns the virtual duration of the rebuild.
    /// The default is free, which suits apps without per-host state.
    fn absorb(&mut self, host: HostId, role: usize) -> SimDuration {
        let _ = (host, role);
        SimDuration::ZERO
    }
}

/// A trivial app for transport-level tests: fixed setup and per-buffer
/// durations, no real work.
#[derive(Debug, Clone)]
pub struct FixedCostApp {
    /// Virtual duration returned by [`RingApp::setup`].
    pub setup: SimDuration,
    /// Virtual duration returned by [`RingApp::process`].
    pub per_buffer: SimDuration,
    /// Number of `process` calls observed, by host id.
    pub processed: Vec<usize>,
}

impl FixedCostApp {
    /// An app with the given fixed costs for a ring of `hosts`.
    pub fn new(hosts: usize, setup: SimDuration, per_buffer: SimDuration) -> Self {
        FixedCostApp {
            setup,
            per_buffer,
            processed: vec![0; hosts],
        }
    }
}

impl<P> RingApp<P> for FixedCostApp {
    fn setup(&mut self, _host: HostId) -> SimDuration {
        self.setup
    }

    fn process(
        &mut self,
        host: HostId,
        _query: u32,
        _roles: &[usize],
        _now: SimTime,
        _payload: &P,
    ) -> SimDuration {
        if let Some(slot) = self.processed.get_mut(host.0) {
            *slot += 1;
        }
        self.per_buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_cost_app_counts_calls() {
        let mut app =
            FixedCostApp::new(2, SimDuration::from_millis(1), SimDuration::from_millis(2));
        let payload = vec![0u8; 4];
        assert_eq!(
            <FixedCostApp as RingApp<Vec<u8>>>::setup(&mut app, HostId(0)),
            SimDuration::from_millis(1)
        );
        let d = <FixedCostApp as RingApp<Vec<u8>>>::process(
            &mut app,
            HostId(1),
            0,
            &[1],
            SimTime::ZERO,
            &payload,
        );
        assert_eq!(d, SimDuration::from_millis(2));
        assert_eq!(app.processed, vec![0, 1]);
    }
}
