//! The in-flight payload: what both protocol appliers run the ring over.
//!
//! Everything that holds a fragment copy on its way round the ring — the
//! protocol's queues, processing slot and retransmission ledger, a visit's
//! job, a frame waiting on a socket — holds an [`InFlight`]: an `Arc` of
//! the copy. Cloning one is a reference-count bump, so the protocol's
//! per-attempt envelope copy and the coordinator's per-visit job cost no
//! payload copy on any engine (the protocol is generic over `P: Clone` and
//! does not know).
//!
//! A copy is one of two things, never both:
//!
//! * **owned** — the user's payload, at its origin and on the engines
//!   that move payloads by value (the simulator, the channel engine). On a
//!   socket engine its wire bytes are encoded on its first attempt
//!   ([`InFlight::encode_once`]) and every retransmission reuses them;
//! * **received** — the frame body it arrived in, checked once by the
//!   decoder ([`InFlight::received`]) and never decoded: a visit reads it
//!   in place ([`InFlight::visit`]), as often as healing asks, and a
//!   forward sends it as it is.
//!
//! An origin's wire bytes come from the engine's [`FrameBufPool`] and go
//! back to it when the last holder drops. A received copy's cell
//! ([`Received`]) is the pool's too, body and all: the pool keeps the
//! cells it hands out, and one whose only holder is the pool is free to
//! take the next arrival — so once the pool is warm an arrival allocates
//! neither a cell nor a body.

use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

use crate::envelope::{Envelope, PayloadBytes};
use crate::frame::{FrameBufPool, WirePayload, ENVELOPE_HEADER};

/// One payload in flight on the ring, shared by everything that holds it.
pub(crate) struct InFlight<P>(Shared<P>);

enum Shared<P> {
    /// The user's payload.
    Owned(Arc<Owned<P>>),
    /// The bytes a payload arrived in, in a cell from the engine's pool.
    Received(Arc<Received>, PhantomData<fn() -> P>),
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

/// A received copy's cell: the envelope body its payload arrived in, after
/// [`WirePayload::view`] accepted the payload part, and how to checksum
/// it. [`FrameBufPool::cell`] hands these out and takes them back.
pub(crate) struct Received {
    /// The whole envelope body; the payload starts after its header.
    body: Vec<u8>,
    /// The payload's [`PayloadBytes::payload_bytes`], as its view said.
    bytes: u64,
    /// The payload's checksum, taken when first asked.
    checksum: OnceLock<u64>,
    checksum_of: fn(&[u8]) -> u64,
}

impl Received {
    /// A cell for `body`, whose payload `P::view` accepted as `bytes` long.
    pub(crate) fn new<P: WirePayload>(body: Vec<u8>, bytes: u64) -> Self {
        Received {
            body,
            bytes,
            checksum: OnceLock::new(),
            checksum_of: received_checksum::<P>,
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

    fn payload(&self) -> &[u8] {
        self.body.get(ENVELOPE_HEADER..).unwrap_or_default()
    }
}

/// A payload's wire bytes, encoded at its origin behind an envelope
/// header's worth of room: `buf[ENVELOPE_HEADER..]` of a pooled buffer,
/// which goes back to its pool on drop.
pub(crate) struct WireBytes {
    buf: Vec<u8>,
    pool: Arc<FrameBufPool>,
}

impl WireBytes {
    fn bytes(&self) -> &[u8] {
        self.buf.get(ENVELOPE_HEADER..).unwrap_or_default()
    }
}

impl Drop for WireBytes {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

impl<P: PayloadBytes> InFlight<P> {
    /// A payload entering the ring at its origin, with no wire bytes yet.
    pub(crate) fn new(payload: P) -> Self {
        InFlight(Shared::Owned(Arc::new(Owned {
            bytes: payload.payload_bytes(),
            payload,
            wire: OnceLock::new(),
            checksum: OnceLock::new(),
        })))
    }
}

impl<P: WirePayload> InFlight<P> {
    /// A payload that arrived in the envelope body `body`, whose payload
    /// bytes [`WirePayload::view`] accepted and said are `bytes` long — in
    /// a cell from `pool`.
    pub(crate) fn received(pool: &FrameBufPool, body: Vec<u8>, bytes: u64) -> Self {
        let cell = pool.cell(Received::new::<P>(body, bytes));
        InFlight(Shared::Received(cell, PhantomData))
    }

    /// The payload as a visit reads it: the owned payload, or the
    /// received bytes viewed in place. `None` only if received bytes no
    /// longer view, which bytes nobody writes to never do.
    pub(crate) fn visit(&self) -> Option<Visit<'_, P>> {
        match &self.0 {
            Shared::Owned(owned) => Some(Visit::Owned(&owned.payload)),
            Shared::Received(cell, _) => P::view_accepted(cell.payload()).ok().map(Visit::Viewed),
        }
    }

    /// The payload's wire bytes, encoded into a buffer from `pool` if this
    /// host has none yet — the payload's first attempt out of its origin.
    /// Says whether this call encoded.
    ///
    /// The bytes sit behind an envelope header's worth of room, as in a
    /// received frame body, so any pooled buffer fits either use of the
    /// next payload of the same size without growing.
    pub(crate) fn encode_once(&self, pool: &Arc<FrameBufPool>) -> (&[u8], bool) {
        let owned = match &self.0 {
            Shared::Owned(owned) => owned,
            Shared::Received(cell, _) => return (cell.payload(), false),
        };
        let mut encoded = false;
        let wire = owned.wire.get_or_init(|| {
            encoded = true;
            let mut buf = pool.take();
            buf.reserve_exact(ENVELOPE_HEADER + owned.payload.payload_wire_len());
            buf.resize(ENVELOPE_HEADER, 0);
            owned.payload.encode_payload(&mut buf);
            WireBytes {
                buf,
                pool: Arc::clone(pool),
            }
        });
        (wire.bytes(), encoded)
    }
}

/// What a visit reads: a copy's owned payload, or a view of the bytes a
/// received copy is. Nameable only inside this crate (the module is
/// private); the engines' visit callbacks take it, and the public run
/// calls turn it into what their callbacks take.
pub enum Visit<'a, P: WirePayload> {
    /// The owned payload.
    Owned(&'a P),
    /// The received bytes, viewed in place.
    Viewed(P::View<'a>),
}

impl<'a, P: WirePayload> Visit<'a, P> {
    /// The payload as a view: the owned payload borrowed, or the view.
    pub(crate) fn view(self) -> P::View<'a> {
        match self {
            Visit::Owned(payload) => payload.as_view(),
            Visit::Viewed(view) => view,
        }
    }
}

/// The checksum of bytes `P::view` accepted.
fn received_checksum<P: WirePayload>(bytes: &[u8]) -> u64 {
    P::view_accepted(bytes).map_or(0, |view| view.payload_checksum())
}

impl<P> InFlight<P> {
    /// The owned payload, if this copy holds one (on the simulator and the
    /// channel engine every copy does).
    pub(crate) fn payload(&self) -> Option<&P> {
        match &self.0 {
            Shared::Owned(owned) => Some(&owned.payload),
            Shared::Received(..) => None,
        }
    }

    /// The payload's wire bytes, if this host has them.
    pub(crate) fn wire(&self) -> Option<&[u8]> {
        match &self.0 {
            Shared::Owned(owned) => owned.wire.get().map(WireBytes::bytes),
            Shared::Received(cell, _) => Some(cell.payload()),
        }
    }

    /// True when `a` and `b` share one payload.
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &Self, b: &Self) -> bool {
        match (&a.0, &b.0) {
            (Shared::Owned(a), Shared::Owned(b)) => Arc::ptr_eq(a, b),
            (Shared::Received(a, _), Shared::Received(b, _)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The address of a received copy's cell.
    #[cfg(test)]
    pub(crate) fn cell_ptr(&self) -> Option<*const Received> {
        match &self.0 {
            Shared::Owned(_) => None,
            Shared::Received(cell, _) => Some(Arc::as_ptr(cell)),
        }
    }
}

impl<P> Clone for InFlight<P> {
    fn clone(&self) -> Self {
        InFlight(match &self.0 {
            Shared::Owned(owned) => Shared::Owned(Arc::clone(owned)),
            Shared::Received(cell, _) => Shared::Received(Arc::clone(cell), PhantomData),
        })
    }
}

impl<P: PayloadBytes> PayloadBytes for InFlight<P> {
    fn payload_bytes(&self) -> u64 {
        match &self.0 {
            Shared::Owned(owned) => owned.bytes,
            Shared::Received(cell, _) => cell.bytes,
        }
    }

    fn payload_checksum(&self) -> u64 {
        match &self.0 {
            Shared::Owned(owned) => *owned
                .checksum
                .get_or_init(|| owned.payload.payload_checksum()),
            Shared::Received(cell, _) => *cell
                .checksum
                .get_or_init(|| (cell.checksum_of)(cell.payload())),
        }
    }
}

/// Each host's local envelopes, as the protocol is built from them.
type Batches<Q> = Vec<Vec<Envelope<Q>>>;

/// Puts every payload of `batches` in flight, every other field as it is.
pub(crate) fn launch<P: PayloadBytes>(batches: Batches<P>) -> Batches<InFlight<P>> {
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
                    payload: InFlight::new(env.payload),
                })
                .collect()
        })
        .collect()
}

/// [`launch`] for every query of a multiplexed run, tenants kept.
pub(crate) fn launch_queries<P: PayloadBytes>(
    queries: Vec<(u32, Batches<P>)>,
) -> Vec<(u32, Batches<InFlight<P>>)> {
    queries
        .into_iter()
        .map(|(tenant, envelopes)| (tenant, launch(envelopes)))
        .collect()
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
        let (bytes, encoded) = b.encode_once(&pool);
        assert!(encoded);
        assert_eq!(bytes, &[7u8; 300][..]);
        // Every holder sees the cache; nobody encodes again.
        let (_, again) = a.encode_once(&pool);
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
        let mut body = vec![0u8; ENVELOPE_HEADER];
        body.extend_from_slice(&owned);
        let received = InFlight::<Vec<u8>>::received(&pool, body, 5);
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
        assert_eq!(received.encode_once(&pool), (&owned[..], false));
        assert_eq!(received.payload_bytes(), owned.payload_bytes());
        assert_eq!(received.payload_checksum(), owned.payload_checksum());
    }

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
        let out = launch(vec![vec![env.clone()]]).remove(0).remove(0);
        assert_eq!(
            (
                out.id,
                out.origin,
                out.hops_remaining,
                out.seq,
                out.checksum,
                out.visited,
                out.query
            ),
            (
                env.id,
                env.origin,
                env.hops_remaining,
                env.seq,
                env.checksum,
                env.visited,
                env.query
            )
        );
        assert_eq!(out.payload.payload(), Some(&env.payload));
        assert!(out.checksum_ok());
    }
}
