//! The in-flight payload: what both protocol appliers run the ring over.
//!
//! Everything that holds a fragment copy on its way round the ring — the
//! protocol's queues, processing slot and retransmission ledger, a visit's
//! job, a frame waiting on a socket — holds an [`InFlight`]: an `Arc` of
//! the copy, 16 bytes. Cloning one is a reference-count bump, so the
//! protocol's per-attempt envelope copy and the coordinator's per-visit
//! job cost no payload copy on any engine (the protocol is generic over
//! `P: Clone` and does not know).
//!
//! A copy is one of two things, never both:
//!
//! * **owned** — the user's payload, on the engines that move payloads by
//!   value (the simulator, the channel engine), and at its origin on a
//!   socket engine when it has an owned form to encode. The engines that
//!   move payloads launch a run's payloads into one shared allocation, the
//!   slab ([`launch_owned`]): a copy is the slab and its slot in it, so a
//!   run pays one allocation for its payloads, not one per fragment. Its
//!   wire bytes are encoded on its first send ([`InFlight::to_send`]) and
//!   every retransmission reuses them;
//! * **wire** — the payload's wire bytes and nothing else: at its origin
//!   on a socket engine, the bytes a payload that *is* its bytes was
//!   prepared in ([`WirePayload::into_wire`], [`InFlight::launch`] — a
//!   `mem_joins::PreparedFragment`), and everywhere after, the bytes it
//!   arrived in, checked once by the decoder ([`InFlight::received`]). It
//!   is never decoded and never encoded: a visit reads it in place
//!   ([`InFlight::visit`]), as often as healing asks, and every send
//!   writes it as it lies.
//!
//! An origin's encoded bytes come from the engine's [`FrameBufPool`] and
//! go back to it when the last holder drops. A wire copy's cell
//! ([`WireCell`]) is the pool's, bytes and all: the pool keeps the cells
//! it hands out, and one whose only holder is the pool is free to take the
//! next arrival. Every cell holds exactly the payload's bytes, so a buffer
//! a fragment was prepared in fits the next arrival of that size as
//! well as an arrival's buffer does: once the pool is warm an arrival
//! allocates neither a cell nor a buffer.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use crate::envelope::{Envelope, PayloadBytes};
use crate::frame::{FrameBufPool, WirePayload};

/// One payload in flight on the ring, shared by everything that holds it.
pub(crate) struct InFlight<P>(Shared<P>);

enum Shared<P> {
    /// The user's payload: slot `.1` of a slab of owned payloads, shared
    /// by every copy launched with it. A `Vec` behind the `Arc` keeps the
    /// pointer thin, so an `InFlight` stays 16 bytes.
    Owned(Arc<Vec<Owned<P>>>, u32),
    /// The payload's wire bytes, in a cell from the engine's pool.
    Wire(Arc<WireCell>, PhantomData<fn() -> P>),
}

/// What a copy holds, read out of its shared allocation.
enum Held<'a, P> {
    Owned(&'a Owned<P>),
    Wire(&'a WireCell),
}

/// The user's payload, with the wire bytes its first send encodes.
struct Owned<P> {
    payload: P,
    wire: OnceLock<WireBytes>,
    /// [`PayloadBytes::payload_bytes`] of the payload, taken once.
    bytes: u64,
    /// [`PayloadBytes::payload_checksum`] of the payload, taken when first
    /// asked (the reliable path's delivery check).
    checksum: OnceLock<u64>,
}

/// A wire copy's cell: the payload's wire bytes, which [`WirePayload::view`]
/// accepts, and how to checksum them. [`FrameBufPool::cell`] hands these
/// out and takes them back.
pub(crate) struct WireCell {
    /// The payload's wire bytes.
    body: Vec<u8>,
    /// The payload's [`PayloadBytes::payload_bytes`], as its view said.
    bytes: u64,
    /// The payload's checksum, taken when first asked.
    checksum: OnceLock<u64>,
    checksum_of: fn(&[u8]) -> u64,
    /// True for an origin's bytes until their first send.
    unsent: AtomicBool,
}

impl WireCell {
    /// A cell for `body`, which `P::view` accepts as `bytes` long: an
    /// origin's bytes, not yet sent, or bytes that arrived.
    pub(crate) fn new<P: WirePayload>(body: Vec<u8>, bytes: u64, at_origin: bool) -> Self {
        WireCell {
            body,
            bytes,
            checksum: OnceLock::new(),
            checksum_of: wire_checksum::<P>,
            unsent: AtomicBool::new(at_origin),
        }
    }

    /// The capacity of the body buffer.
    pub(crate) fn capacity(&self) -> usize {
        self.body.capacity()
    }

    /// The body buffer, cleared and taken out: the cell is left holding
    /// nothing.
    pub(crate) fn take_body(&mut self) -> Vec<u8> {
        let mut body = std::mem::take(&mut self.body);
        body.clear();
        body
    }
}

/// A payload's wire bytes, encoded at its origin into a pooled buffer,
/// which goes back to its pool on drop.
pub(crate) struct WireBytes {
    buf: Vec<u8>,
    pool: Arc<FrameBufPool>,
}

impl Drop for WireBytes {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

impl<P: PayloadBytes> Owned<P> {
    fn new(payload: P) -> Self {
        Owned {
            bytes: payload.payload_bytes(),
            payload,
            wire: OnceLock::new(),
            checksum: OnceLock::new(),
        }
    }
}

impl<P: PayloadBytes> InFlight<P> {
    /// A payload entering the ring at its origin, as the owned payload,
    /// with no wire bytes yet, in a slab of its own.
    pub(crate) fn new(payload: P) -> Self {
        InFlight(Shared::Owned(Arc::new(vec![Owned::new(payload)]), 0))
    }
}

impl<P: WirePayload> InFlight<P> {
    /// A payload entering the ring at its origin on a socket engine: the
    /// wire bytes it is ([`WirePayload::into_wire`]), in a cell from
    /// `pool` — sent from where they were written, never encoded, and the
    /// pool's to reuse once the last holder is done — or, for a payload
    /// with an owned form, that form ([`InFlight::new`]).
    pub(crate) fn launch(pool: &FrameBufPool, payload: P) -> Self {
        let bytes = payload.payload_bytes();
        match payload.into_wire() {
            Ok(wire) => InFlight(Shared::Wire(
                pool.cell(WireCell::new::<P>(wire, bytes, true)),
                PhantomData,
            )),
            Err(payload) => InFlight::new(payload),
        }
    }

    /// A payload that arrived as the bytes `body`, which
    /// [`WirePayload::view`] accepted and said are `bytes` long — in a cell
    /// from `pool`.
    pub(crate) fn received(pool: &FrameBufPool, body: Vec<u8>, bytes: u64) -> Self {
        let cell = pool.cell(WireCell::new::<P>(body, bytes, false));
        InFlight(Shared::Wire(cell, PhantomData))
    }

    /// The payload as a visit reads it: the owned payload, or the wire
    /// bytes viewed in place. `None` only if the bytes no longer view,
    /// which bytes nobody writes to never do.
    pub(crate) fn visit(&self) -> Option<Visit<'_, P>> {
        match self.held()? {
            Held::Owned(owned) => Some(Visit::Owned(&owned.payload)),
            Held::Wire(cell) => P::view_accepted(&cell.body)
                .ok()
                .map(|view| Visit::Viewed(view, &cell.body)),
        }
    }

    /// The payload's wire bytes for a send: the bytes it is, or an owned
    /// payload's encoded into a buffer from `pool` if this host has none
    /// yet. Says whether this is the payload's first send out of its
    /// origin — the one send that encodes an owned payload.
    pub(crate) fn to_send(&self, pool: &Arc<FrameBufPool>) -> (&[u8], bool) {
        let owned = match self.held() {
            Some(Held::Owned(owned)) => owned,
            Some(Held::Wire(cell)) => {
                return (&cell.body, cell.unsent.swap(false, Ordering::Relaxed));
            }
            None => return (&[], false),
        };
        let mut encoded = false;
        let wire = owned.wire.get_or_init(|| {
            encoded = true;
            let mut buf = pool.take();
            buf.reserve_exact(owned.payload.payload_wire_len());
            owned.payload.encode_payload(&mut buf);
            WireBytes {
                buf,
                pool: Arc::clone(pool),
            }
        });
        (&wire.buf, encoded)
    }
}

/// What a visit reads: a copy's owned payload, or a view of the bytes a
/// wire copy is. Nameable only inside this crate (the module is
/// private); the engines' visit callbacks take it, and the public run
/// calls turn it into what their callbacks take.
pub enum Visit<'a, P: WirePayload> {
    /// The owned payload.
    Owned(&'a P),
    /// The wire bytes, viewed in place, and the bytes.
    Viewed(P::View<'a>, &'a [u8]),
}

impl<'a, P: WirePayload> Visit<'a, P> {
    /// The payload as a view: the owned payload borrowed, or the view.
    pub(crate) fn view(self) -> P::View<'a> {
        match self {
            Visit::Owned(payload) => payload.as_view(),
            Visit::Viewed(view, _) => view,
        }
    }
}

/// The checksum of bytes `P::view` accepted.
fn wire_checksum<P: WirePayload>(bytes: &[u8]) -> u64 {
    P::view_accepted(bytes).map_or(0, |view| view.payload_checksum())
}

impl<P> InFlight<P> {
    /// What this copy holds: its slot of the slab, or its cell. The one
    /// place a slab is read; `None` only for a slot outside its slab,
    /// which [`launch_owned`] never hands out.
    fn held(&self) -> Option<Held<'_, P>> {
        match &self.0 {
            Shared::Owned(slab, at) => slab.get(*at as usize).map(Held::Owned),
            Shared::Wire(cell, _) => Some(Held::Wire(cell)),
        }
    }

    /// The owned payload, if this copy holds one (on the simulator and the
    /// channel engine every copy does).
    pub(crate) fn payload(&self) -> Option<&P> {
        match self.held()? {
            Held::Owned(owned) => Some(&owned.payload),
            Held::Wire(_) => None,
        }
    }

    /// The payload's wire bytes, if this host has them.
    pub(crate) fn wire(&self) -> Option<&[u8]> {
        match self.held()? {
            Held::Owned(owned) => owned.wire.get().map(|wire| wire.buf.as_slice()),
            Held::Wire(cell) => Some(&cell.body),
        }
    }

    /// True when `a` and `b` share one payload.
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &Self, b: &Self) -> bool {
        match (&a.0, &b.0) {
            (Shared::Owned(a, i), Shared::Owned(b, j)) => Arc::ptr_eq(a, b) && i == j,
            (Shared::Wire(a, _), Shared::Wire(b, _)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The address of a wire copy's cell.
    #[cfg(test)]
    pub(crate) fn cell_ptr(&self) -> Option<*const WireCell> {
        match &self.0 {
            Shared::Owned(..) => None,
            Shared::Wire(cell, _) => Some(Arc::as_ptr(cell)),
        }
    }

    /// The address of an owned copy's slab.
    #[cfg(test)]
    fn slab_ptr(&self) -> Option<*const Vec<Owned<P>>> {
        match &self.0 {
            Shared::Owned(slab, _) => Some(Arc::as_ptr(slab)),
            Shared::Wire(..) => None,
        }
    }
}

impl<P> Clone for InFlight<P> {
    fn clone(&self) -> Self {
        InFlight(match &self.0 {
            Shared::Owned(slab, at) => Shared::Owned(Arc::clone(slab), *at),
            Shared::Wire(cell, _) => Shared::Wire(Arc::clone(cell), PhantomData),
        })
    }
}

impl<P: PayloadBytes> PayloadBytes for InFlight<P> {
    fn payload_bytes(&self) -> u64 {
        self.held().map_or(0, |held| match held {
            Held::Owned(owned) => owned.bytes,
            Held::Wire(cell) => cell.bytes,
        })
    }

    fn payload_checksum(&self) -> u64 {
        self.held().map_or(0, |held| match held {
            Held::Owned(owned) => *owned
                .checksum
                .get_or_init(|| owned.payload.payload_checksum()),
            Held::Wire(cell) => *cell.checksum.get_or_init(|| (cell.checksum_of)(&cell.body)),
        })
    }
}

/// Each host's local envelopes, as the protocol is built from them.
pub(crate) type Batches<Q> = Vec<Vec<Envelope<Q>>>;

/// Every envelope of `batches` carrying `put` of its payload instead,
/// every other field as it is: how a socket engine puts each payload in
/// flight ([`InFlight::launch`]).
pub(crate) fn map_payloads<P, Q>(batches: Batches<P>, mut put: impl FnMut(P) -> Q) -> Batches<Q> {
    batches
        .into_iter()
        .map(|local| {
            local
                .into_iter()
                .map(|env| Envelope {
                    id: env.id,
                    origin: env.origin,
                    hops_remaining: env.hops_remaining,
                    seq: env.seq,
                    checksum: env.checksum,
                    visited: env.visited,
                    query: env.query,
                    payload: put(env.payload),
                })
                .collect()
        })
        .collect()
}

/// Puts every payload of `batches` in flight owned, all in one slab, every
/// other field as it is: the engines that move payloads by value pay one
/// allocation for a run's payloads instead of one per fragment.
pub(crate) fn launch_owned<P: PayloadBytes>(batches: Batches<P>) -> Batches<InFlight<P>> {
    let mut slab = Vec::with_capacity(batches.iter().map(Vec::len).sum());
    let slots = map_payloads(batches, |payload| {
        let at = slab.len() as u32;
        slab.push(Owned::new(payload));
        at
    });
    let slab = Arc::new(slab);
    map_payloads(slots, |at| InFlight(Shared::Owned(Arc::clone(&slab), at)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_payload_and_the_last_drop_returns_the_bytes() {
        let pool = Arc::new(FrameBufPool::default());
        let a = InFlight::new(vec![7u8; 300]);
        assert!(a.wire().is_none(), "an origin payload has no bytes yet");
        let b = a.clone();
        assert!(InFlight::ptr_eq(&a, &b));
        let (bytes, first) = b.to_send(&pool);
        assert!(first, "the first send encodes");
        assert_eq!(bytes, &[7u8; 300][..]);
        // Every holder sees the cache; nobody encodes again.
        let (_, again) = a.to_send(&pool);
        assert!(!again);
        assert_eq!(a.wire(), Some(&[7u8; 300][..]));
        assert_eq!(
            a.visit().map(Visit::view),
            Some(&[7u8; 300][..]),
            "the visit borrows the payload"
        );
        drop(a);
        assert_eq!(pool.take().capacity(), 0, "a live holder keeps the buffer");
        drop(b);
        assert!(pool.take().capacity() >= 300, "the last drop returns it");
    }

    /// A received copy is its bytes and nothing else: every visit (a
    /// second one too, as healing may ask) views them in place, forwarding
    /// never encodes, and size and checksum answer as the owned payload's.
    #[test]
    fn a_received_payload_is_its_bytes_viewed_in_place() {
        let pool = Arc::new(FrameBufPool::default());
        let owned = vec![3u8, 1, 4, 1, 5];
        let received = InFlight::<Vec<u8>>::received(&pool, owned.clone(), 5);
        assert!(
            received.payload().is_none(),
            "no decoded copy beside the bytes"
        );
        let at = received.wire().map(<[u8]>::as_ptr);
        for _ in 0..2 {
            let view = received
                .visit()
                .map(Visit::view)
                .expect("accepted bytes view");
            assert_eq!(view, &owned[..]);
            assert_eq!(
                Some(view.as_ptr()),
                at,
                "the view reads the received buffer"
            );
        }
        assert_eq!(received.to_send(&pool), (&owned[..], false));
        assert_eq!(received.payload_bytes(), owned.payload_bytes());
        assert_eq!(received.payload_checksum(), owned.payload_checksum());
    }

    /// A prepared fragment enters a socket engine's ring as its bytes, in
    /// a pool cell: no owned copy beside them, every send writes them
    /// where the preparation did, nothing encodes them (the first send
    /// still counts as the origin's), the origin's visit views them in
    /// place, and once the last holder is done the pool hands the same
    /// buffer on. A payload with an owned form is launched owned.
    #[test]
    fn a_prepared_payload_is_sent_from_where_it_was_written() {
        use mem_joins::Algorithm;
        let pool = Arc::new(FrameBufPool::default());
        let rel = relation::GenSpec::uniform(300, 4).generate();
        let prepared = Algorithm::partitioned_hash().prepare_fragment(&rel, 2, 1);
        let (at, len) = (prepared.as_bytes().as_ptr(), prepared.as_bytes().len());
        let (size, checksum) = (prepared.payload_bytes(), prepared.payload_checksum());
        let origin = InFlight::launch(&pool, prepared);
        assert!(origin.payload().is_none(), "no owned form beside the bytes");
        for first in [true, false] {
            let (bytes, sent_first) = origin.to_send(&pool);
            assert_eq!(sent_first, first, "only the first send is the origin's");
            assert_eq!(
                (bytes.as_ptr(), bytes.len()),
                (at, len),
                "sent from where it was written"
            );
        }
        let view = origin.visit().map(Visit::view).expect("the bytes view");
        assert_eq!(view.len(), rel.len());
        assert_eq!(
            (origin.payload_bytes(), origin.payload_checksum()),
            (size, checksum)
        );
        drop(origin);
        let reused = pool.take();
        assert_eq!(reused.as_ptr(), at, "the pool reuses the prepared buffer");
        let owned = InFlight::launch(&pool, vec![1u8, 2, 3]);
        assert_eq!(owned.payload(), Some(&vec![1u8, 2, 3]));
        assert!(owned.to_send(&pool).1, "an owned form is encoded");
    }

    /// An envelope launched owned or one at a time keeps every field it
    /// was numbered with, and carries its payload.
    #[test]
    fn launched_envelopes_keep_every_field() {
        let mut env = Envelope::new(
            crate::envelope::FragmentId(4),
            simnet::topology::HostId(1),
            3,
            vec![1u8, 2],
        );
        env.seq = 9;
        env.visited = 0b101;
        env.query = 2;
        type Fields = (
            crate::envelope::FragmentId,
            simnet::topology::HostId,
            usize,
            u64,
            u64,
            u64,
            u32,
        );
        fn fields<Q>(e: &Envelope<Q>) -> Fields {
            (
                e.id,
                e.origin,
                e.hops_remaining,
                e.seq,
                e.checksum,
                e.visited,
                e.query,
            )
        }
        let owned = launch_owned(vec![vec![env.clone()]]).remove(0).remove(0);
        let each = map_payloads(vec![vec![env.clone()]], InFlight::new)
            .remove(0)
            .remove(0);
        for out in [owned, each] {
            assert_eq!(fields(&out), fields(&env));
            assert_eq!(out.payload.payload(), Some(&env.payload));
            assert!(out.checksum_ok());
        }
    }

    /// A copy is one pointer and a slot: the slab's pointer stays thin.
    #[test]
    fn an_in_flight_copy_is_16_bytes() {
        assert_eq!(std::mem::size_of::<InFlight<Vec<u8>>>(), 16);
    }

    /// Every payload of an owned launch, on every host, lands in one
    /// allocation: each envelope keeps its fields and its own payload, and
    /// a clone shares its slot.
    #[test]
    fn owned_payloads_launch_into_one_slab() {
        let batches: Batches<Vec<u8>> = (0..3)
            .map(|h| {
                (0..4)
                    .map(|i| {
                        let mut env = Envelope::new(
                            crate::envelope::FragmentId(h * 4 + i),
                            simnet::topology::HostId(h),
                            3,
                            vec![(h * 4 + i) as u8; 1 + i],
                        );
                        env.query = h as u32;
                        env
                    })
                    .collect()
            })
            .collect();
        let launched = launch_owned(batches.clone());
        let slab = launched[0][0].payload.slab_ptr();
        assert!(slab.is_some());
        for (local, out) in batches.iter().zip(&launched) {
            assert_eq!(local.len(), out.len());
            for (env, copy) in local.iter().zip(out) {
                assert_eq!(
                    (copy.id, copy.origin, copy.query),
                    (env.id, env.origin, env.query)
                );
                assert_eq!(copy.payload.payload(), Some(&env.payload));
                assert_eq!(copy.payload.payload_bytes(), env.payload.payload_bytes());
                assert_eq!(copy.payload.slab_ptr(), slab, "one allocation for all");
                let clone = copy.payload.clone();
                assert!(InFlight::ptr_eq(&clone, &copy.payload));
            }
        }
        assert!(!InFlight::ptr_eq(
            &launched[0][0].payload,
            &launched[0][1].payload
        ));
    }
}
