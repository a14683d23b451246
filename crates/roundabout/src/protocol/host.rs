//! Per-host protocol state: the receiver/join/transmitter entities of one
//! host, expressed as queues and credit — no IO.
//!
//! A [`HostProtocol`] is what both backends consult for every per-host
//! decision: whether an arriving envelope may occupy a buffer element
//! (credit), which envelope joins next, and whether a processed envelope
//! forwards to the successor or retires ([`Route`]). The simulated
//! backend drives a whole vector of these through
//! [`super::RingProtocol`]; the threaded backend embeds one inside each
//! join-entity thread and lets its channels play the wires.

use std::collections::VecDeque;

use simnet::topology::HostId;

use crate::envelope::{Envelope, FragmentId, PayloadBytes};

/// An envelope held by a host, remembering whether it occupies one of the
/// host's buffer-pool elements (`pooled`) or is a local fragment that
/// never consumed ring credit.
#[derive(Debug, Clone)]
pub struct Held<P> {
    /// The envelope itself.
    pub env: Envelope<P>,
    /// True when the envelope sits in a reserved buffer-pool slot that
    /// must be released (crediting the predecessor) once processing
    /// finishes.
    pub pooled: bool,
}

/// What [`HostProtocol::begin_join`] committed to: the join the driver
/// must now run and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinTicket {
    /// Fragment entering the join.
    pub id: FragmentId,
    /// Hop index: how many hosts processed this envelope before (0 = the
    /// origin visit).
    pub hop: usize,
    /// True when the envelope came off the ring (it records a receive in
    /// traces and frees pool credit when done), false for a local
    /// fragment.
    pub received: bool,
}

/// Routing verdict for a processed envelope on the hop-counting path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The revolution is incomplete: forward to the ring successor.
    Forward,
    /// Every host has processed the envelope: it retires here.
    Retire,
}

/// One host's protocol state machine.
///
/// Owns the three entity queues (incoming pool, the single processing
/// slot, outgoing) and the credit accounting for the host's buffer pool.
/// All methods are pure state transitions; blocking, timing and cost are
/// the driver's business.
#[derive(Debug, Clone)]
pub struct HostProtocol<P> {
    host: HostId,
    ring_size: usize,
    buffers: usize,
    incoming: VecDeque<Held<P>>,
    processing: Option<Held<P>>,
    outgoing: VecDeque<Envelope<P>>,
    pool_used: usize,
    /// Multi-tenant credit partitions: pool elements held per query.
    /// Empty on single-query rings (tracking off); when enabled, the
    /// per-query entries always sum to `pool_used` — the credit-partition
    /// invariant the model checker verifies.
    used_by_query: Vec<usize>,
    ready: bool,
    sending: bool,
    fragments_processed: usize,
}

impl<P: PayloadBytes> HostProtocol<P> {
    /// A fresh host on a ring of `ring_size` hosts with `buffers` pool
    /// elements.
    pub fn new(host: HostId, ring_size: usize, buffers: usize) -> Self {
        HostProtocol {
            host,
            ring_size,
            buffers,
            incoming: VecDeque::new(),
            processing: None,
            outgoing: VecDeque::new(),
            pool_used: 0,
            used_by_query: Vec::new(),
            ready: false,
            sending: false,
            fragments_processed: 0,
        }
    }

    /// This host's ring position.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Marks application setup complete; joins may start.
    pub fn set_ready(&mut self) {
        self.ready = true;
    }

    /// Has setup completed?
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// Queues a local fragment (back of the incoming queue, no pool
    /// credit — locals never occupied a ring buffer element).
    pub fn inject_local(&mut self, env: Envelope<P>) {
        self.incoming.push_back(Held { env, pooled: false });
    }

    /// Accepts an envelope off the ring into the buffer pool (FIFO).
    ///
    /// `reserved` says whether the sender already reserved the pool slot
    /// (the simulated driver reserves at send time via
    /// [`HostProtocol::reserve_slot`]); when false the slot is taken now.
    pub fn deliver(&mut self, env: Envelope<P>, reserved: bool) {
        if !reserved {
            self.pool_used = (self.pool_used + 1).min(self.buffers);
            if let Some(u) = self.used_by_query.get_mut(env.query as usize) {
                *u += 1;
            }
        }
        self.incoming.push_back(Held { env, pooled: true });
    }

    /// Sender-side credit check-and-take: reserves one pool element if
    /// any is free. The matching release happens when the envelope's
    /// join completes ([`HostProtocol::finish_join`]).
    pub fn reserve_slot(&mut self) -> bool {
        if self.pool_used >= self.buffers {
            return false;
        }
        self.pool_used += 1;
        true
    }

    /// Switches on multi-tenant credit partitioning for `queries`
    /// concurrent queries (all counters start at zero).
    pub fn enable_query_tracking(&mut self, queries: usize) {
        self.used_by_query = vec![0; queries];
    }

    /// Multi-tenant credit check-and-take: reserves one pool element for
    /// `query` if the pool has a free element *and* the query's credit
    /// partition (`quota` elements wide) is not exhausted here.
    pub fn reserve_slot_for(&mut self, query: u32, quota: usize) -> bool {
        if !self.can_accept(query, quota) {
            return false;
        }
        self.pool_used += 1;
        if let Some(u) = self.used_by_query.get_mut(query as usize) {
            *u += 1;
        }
        true
    }

    /// Could a `reserve_slot_for(query, quota)` succeed right now?
    pub fn can_accept(&self, query: u32, quota: usize) -> bool {
        self.pool_used < self.buffers
            && self
                .used_by_query
                .get(query as usize)
                .is_none_or(|&u| u < quota)
    }

    /// Multi-tenant release: returns one pool element held by `query`
    /// without a join having run (pass-through, or settling a transfer
    /// whose copy died with a corpse).
    pub fn release_slot_for(&mut self, query: u32) {
        self.pool_used = self.pool_used.saturating_sub(1);
        if let Some(u) = self.used_by_query.get_mut(query as usize) {
            *u = u.saturating_sub(1);
        }
    }

    /// Per-query pool occupancy (empty unless query tracking is on).
    pub fn used_by_query(&self) -> &[usize] {
        &self.used_by_query
    }

    /// Is at least one buffer element free?
    pub fn has_free_slot(&self) -> bool {
        self.pool_used < self.buffers
    }

    /// Currently occupied pool elements.
    pub fn pool_used(&self) -> usize {
        self.pool_used
    }

    /// Pool capacity.
    pub fn buffers(&self) -> usize {
        self.buffers
    }

    /// Does the host hold any unprocessed envelope (queued or mid-join)?
    pub fn has_work(&self) -> bool {
        !self.incoming.is_empty() || self.processing.is_some()
    }

    /// Anything queued for a join (excluding the processing slot)?
    pub fn has_incoming(&self) -> bool {
        !self.incoming.is_empty()
    }

    /// Takes the head of the incoming queue *without* committing it to
    /// the processing slot — the fault-tolerant coordinator inspects the
    /// envelope's `visited` mask first and may forward it unjoined.
    pub fn pop_incoming(&mut self) -> Option<Held<P>> {
        self.incoming.pop_front()
    }

    /// Returns one pool element without a join having run (pass-through
    /// of an already-fully-joined envelope on a healed route).
    pub fn release_slot(&mut self) {
        self.pool_used = self.pool_used.saturating_sub(1);
    }

    /// Places an envelope taken via [`HostProtocol::pop_incoming`] into
    /// the processing slot (the caller already checked the gates).
    pub fn set_processing(&mut self, held: Held<P>) {
        debug_assert!(self.processing.is_none(), "one join at a time");
        self.processing = Some(held);
    }

    /// Is an envelope currently in the processing slot?
    pub fn is_processing(&self) -> bool {
        self.processing.is_some()
    }

    /// Commits the head of the incoming queue to the processing slot.
    ///
    /// Returns `None` when setup is incomplete, a join is already
    /// running, or nothing is queued. The hop index is derived from the
    /// envelope's remaining-hop count, exactly as both backends did.
    pub fn begin_join(&mut self) -> Option<JoinTicket> {
        if !self.ready || self.processing.is_some() {
            return None;
        }
        let held = self.incoming.pop_front()?;
        let ticket = JoinTicket {
            id: held.env.id,
            hop: self.ring_size.saturating_sub(held.env.hops_remaining),
            received: held.pooled,
        };
        self.processing = Some(held);
        Some(ticket)
    }

    /// The payload currently being joined (for the driver to hand to the
    /// application callback).
    pub fn processing_payload(&self) -> Option<&P> {
        self.processing.as_ref().map(|h| &h.env.payload)
    }

    /// The envelope currently being joined.
    pub fn processing_env(&self) -> Option<&Envelope<P>> {
        self.processing.as_ref().map(|h| &h.env)
    }

    /// Completes the running join: counts the fragment, releases the
    /// pool element if the envelope was pooled, and hands the envelope
    /// back for routing. Returns the envelope and whether a pool slot
    /// was freed (the ring coordinator kicks the predecessor's sender on
    /// a freed slot).
    pub fn finish_join(&mut self) -> Option<(Envelope<P>, bool)> {
        let held = self.processing.take()?;
        self.fragments_processed += 1;
        if held.pooled {
            // Saturating: a driver that delivers without reservation and
            // releases twice must not wrap the credit counter.
            self.pool_used = self.pool_used.saturating_sub(1);
            if let Some(u) = self.used_by_query.get_mut(held.env.query as usize) {
                *u = u.saturating_sub(1);
            }
        }
        Some((held.env, held.pooled))
    }

    /// Hop-count routing: one more host has processed the envelope; does
    /// it continue around the ring or retire here?
    pub fn route(&self, env: &mut Envelope<P>) -> Route {
        if env.consume_hop() {
            Route::Forward
        } else {
            Route::Retire
        }
    }

    /// Queues a processed envelope for the transmitter.
    pub fn queue_outgoing(&mut self, env: Envelope<P>) {
        self.outgoing.push_back(env);
    }

    /// Re-queues an envelope at the transmitter's front (healing rewinds
    /// an un-acked transfer so it retries toward the new successor).
    pub fn requeue_outgoing_front(&mut self, env: Envelope<P>) {
        self.outgoing.push_front(env);
    }

    /// Next envelope to transmit, if the wire is free to take one.
    pub fn pop_outgoing(&mut self) -> Option<Envelope<P>> {
        self.outgoing.pop_front()
    }

    /// Fills `qs` (cleared first) with the distinct queries that have
    /// envelopes in the transmitter queue, in first-queued order (the
    /// fairness scheduler's candidate set).
    pub fn outgoing_query_set(&self, qs: &mut Vec<u32>) {
        qs.clear();
        for env in &self.outgoing {
            if !qs.contains(&env.query) {
                qs.push(env.query);
            }
        }
    }

    /// Removes and returns the first queued envelope belonging to
    /// `query` (the fairness scheduler picked it over the queue head).
    pub fn pop_outgoing_query(&mut self, query: u32) -> Option<Envelope<P>> {
        let idx = self.outgoing.iter().position(|e| e.query == query)?;
        self.outgoing.remove(idx)
    }

    /// Anything queued for the transmitter?
    pub fn has_outgoing(&self) -> bool {
        !self.outgoing.is_empty()
    }

    /// Is the host's wire currently carrying a transfer?
    pub fn is_sending(&self) -> bool {
        self.sending
    }

    /// Marks the wire busy (a transfer was put on it) or free again.
    pub fn set_sending(&mut self, sending: bool) {
        self.sending = sending;
    }

    /// Fragments this host has processed so far.
    pub fn fragments_processed(&self) -> usize {
        self.fragments_processed
    }

    /// Read-only walk of the incoming pool queue, front to back (the
    /// model checker's fingerprint and invariant passes).
    pub fn incoming_held(&self) -> impl Iterator<Item = &Held<P>> {
        self.incoming.iter()
    }

    /// The envelope in the processing slot, with its pooled flag.
    pub fn processing_held(&self) -> Option<&Held<P>> {
        self.processing.as_ref()
    }

    /// Read-only walk of the transmitter queue, front to back.
    pub fn outgoing_queue(&self) -> impl Iterator<Item = &Envelope<P>> {
        self.outgoing.iter()
    }

    /// Drains every queued envelope (incoming, processing, outgoing) for
    /// salvage when this host is confirmed dead, resetting its credit
    /// and wire state. Order matters for determinism: incoming first,
    /// then the interrupted join, then outgoing.
    pub fn salvage(&mut self) -> Vec<Envelope<P>> {
        let mut lost: Vec<Envelope<P>> = self.incoming.drain(..).map(|h| h.env).collect();
        if let Some(held) = self.processing.take() {
            lost.push(held.env);
        }
        lost.extend(self.outgoing.drain(..));
        self.pool_used = 0;
        self.used_by_query.iter_mut().for_each(|u| *u = 0);
        self.sending = false;
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(id: usize, ring: usize) -> Envelope<Vec<u8>> {
        Envelope::new(FragmentId(id), HostId(0), ring, vec![0u8; 8])
    }

    #[test]
    fn credit_is_reserved_and_released() {
        let mut h = HostProtocol::new(HostId(0), 3, 2);
        h.set_ready();
        assert!(h.reserve_slot());
        assert!(h.reserve_slot());
        assert!(!h.reserve_slot(), "pool of 2 must reject a third slot");
        h.deliver(env(0, 3), true);
        let ticket = h.begin_join().unwrap();
        assert!(ticket.received);
        let (_, released) = h.finish_join().unwrap();
        assert!(released, "pooled envelope must free its slot");
        assert_eq!(h.pool_used(), 1);
    }

    #[test]
    fn locals_do_not_consume_credit() {
        let mut h = HostProtocol::new(HostId(1), 3, 1);
        h.set_ready();
        h.inject_local(env(0, 3));
        assert_eq!(h.pool_used(), 0);
        let ticket = h.begin_join().unwrap();
        assert!(!ticket.received);
        assert_eq!(ticket.hop, 0, "a local fragment is at its origin visit");
        let (_, released) = h.finish_join().unwrap();
        assert!(!released);
    }

    #[test]
    fn joins_are_serialized() {
        let mut h = HostProtocol::new(HostId(0), 2, 1);
        h.set_ready();
        h.inject_local(env(0, 2));
        h.inject_local(env(1, 2));
        assert!(h.begin_join().is_some());
        assert!(h.begin_join().is_none(), "one join at a time");
        h.finish_join().unwrap();
        assert!(h.begin_join().is_some());
    }

    #[test]
    fn not_ready_blocks_joins() {
        let mut h = HostProtocol::new(HostId(0), 2, 1);
        h.inject_local(env(0, 2));
        assert!(h.begin_join().is_none(), "setup gates the first join");
        h.set_ready();
        assert!(h.begin_join().is_some());
    }

    #[test]
    fn route_follows_the_hop_count() {
        let h: HostProtocol<Vec<u8>> = HostProtocol::new(HostId(0), 2, 1);
        let mut e = env(0, 2);
        assert_eq!(h.route(&mut e), Route::Forward);
        assert_eq!(h.route(&mut e), Route::Retire);
    }

    #[test]
    fn salvage_drains_every_queue() {
        let mut h = HostProtocol::new(HostId(0), 3, 2);
        h.set_ready();
        h.deliver(env(0, 3), false);
        h.deliver(env(1, 3), false);
        h.begin_join().unwrap();
        h.queue_outgoing(env(2, 3));
        let lost = h.salvage();
        assert_eq!(lost.len(), 3);
        assert_eq!(h.pool_used(), 0);
        assert!(!h.has_work());
    }
}
