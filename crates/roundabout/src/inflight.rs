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
//! Wire bytes came from the engine's [`FrameBufPool`] and go back to it
//! when the last holder drops.

use std::sync::{Arc, OnceLock};

use crate::envelope::{Envelope, PayloadBytes};
use crate::frame::{FrameBufPool, WirePayload, ENVELOPE_HEADER};

/// One payload in flight on the ring, shared by everything that holds it.
pub(crate) struct InFlight<P>(Arc<Shared<P>>);

struct Shared<P> {
    held: Held<P>,
    /// [`PayloadBytes::payload_bytes`] of the payload, taken on arrival.
    bytes: u64,
    /// [`PayloadBytes::payload_checksum`] of the payload, taken when first
    /// asked (the reliable path's delivery check).
    checksum: OnceLock<u64>,
}

enum Held<P> {
    /// The user's payload, with the wire bytes its first send encodes.
    Owned {
        payload: P,
        wire: OnceLock<WireBytes>,
    },
    /// The bytes a payload arrived in, accepted by `P::view`, and how to
    /// checksum them.
    Received {
        wire: WireBytes,
        checksum: fn(&[u8]) -> u64,
    },
}

/// A payload's wire bytes: `buf[start..]` of a pooled buffer, which goes
/// back to its pool on drop.
pub(crate) struct WireBytes {
    buf: Vec<u8>,
    start: usize,
    pool: Arc<FrameBufPool>,
}

impl WireBytes {
    /// The bytes of `buf` from `start` on, owned until the drop returns
    /// `buf` to `pool`.
    pub(crate) fn new(buf: Vec<u8>, start: usize, pool: Arc<FrameBufPool>) -> Self {
        WireBytes { buf, start, pool }
    }

    fn bytes(&self) -> &[u8] {
        self.buf.get(self.start..).unwrap_or_default()
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
        InFlight(Arc::new(Shared {
            bytes: payload.payload_bytes(),
            held: Held::Owned {
                payload,
                wire: OnceLock::new(),
            },
            checksum: OnceLock::new(),
        }))
    }
}

impl<P: WirePayload> InFlight<P> {
    /// A payload that arrived as `wire`, bytes [`WirePayload::view`]
    /// accepted, whose view said it is `bytes` long.
    pub(crate) fn received(wire: WireBytes, bytes: u64) -> Self {
        InFlight(Arc::new(Shared {
            held: Held::Received {
                wire,
                checksum: received_checksum::<P>,
            },
            bytes,
            checksum: OnceLock::new(),
        }))
    }

    /// The payload as a visit reads it: the owned payload, or the
    /// received bytes viewed in place. `None` only if received bytes no
    /// longer view, which bytes nobody writes to never do.
    pub(crate) fn visit(&self) -> Option<Visit<'_, P>> {
        match &self.0.held {
            Held::Owned { payload, .. } => Some(Visit::Owned(payload)),
            Held::Received { wire, .. } => P::view_accepted(wire.bytes()).ok().map(Visit::Viewed),
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
        let (payload, wire) = match &self.0.held {
            Held::Owned { payload, wire } => (payload, wire),
            Held::Received { wire, .. } => return (wire.bytes(), false),
        };
        let mut encoded = false;
        let wire = wire.get_or_init(|| {
            encoded = true;
            let mut buf = pool.take();
            buf.reserve_exact(ENVELOPE_HEADER + payload.payload_wire_len());
            buf.resize(ENVELOPE_HEADER, 0);
            payload.encode_payload(&mut buf);
            WireBytes::new(buf, ENVELOPE_HEADER, Arc::clone(pool))
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
        match &self.0.held {
            Held::Owned { payload, .. } => Some(payload),
            Held::Received { .. } => None,
        }
    }

    /// The payload's wire bytes, if this host has them.
    pub(crate) fn wire(&self) -> Option<&[u8]> {
        match &self.0.held {
            Held::Owned { wire, .. } => wire.get().map(WireBytes::bytes),
            Held::Received { wire, .. } => Some(wire.bytes()),
        }
    }

    /// True when `a` and `b` share one payload.
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<P> Clone for InFlight<P> {
    fn clone(&self) -> Self {
        InFlight(Arc::clone(&self.0))
    }
}

impl<P: PayloadBytes> PayloadBytes for InFlight<P> {
    fn payload_bytes(&self) -> u64 {
        self.0.bytes
    }

    fn payload_checksum(&self) -> u64 {
        *self.0.checksum.get_or_init(|| match &self.0.held {
            Held::Owned { payload, .. } => payload.payload_checksum(),
            Held::Received { wire, checksum } => checksum(wire.bytes()),
        })
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
        let wire = WireBytes::new(body, ENVELOPE_HEADER, Arc::clone(&pool));
        let received = InFlight::<Vec<u8>>::received(wire, 5);
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
