//! The in-flight payload: what both protocol appliers run the ring over.
//!
//! A fragment is decoded once per host it visits and encoded once per
//! revolution; everything that holds it in between — the protocol's
//! queues, processing slot and retransmission ledger, a visit's job, a
//! frame waiting on a socket — holds an [`InFlight`]: an `Arc` of the
//! user's payload plus, on the socket engines, the wire bytes of that
//! payload. Cloning one is a reference-count bump, so the protocol's
//! per-attempt envelope copy and the coordinator's per-visit job cost no
//! payload copy on any engine (the protocol is generic over `P: Clone` and
//! does not know). Visits still see `&P`.
//!
//! The wire bytes are filled at most once per host:
//!
//! * a payload decoded off a socket keeps the frame body it was decoded
//!   from ([`InFlight::received`]);
//! * a payload leaving its origin is encoded on its first attempt
//!   ([`InFlight::encode_once`]) and every retransmission reuses the
//!   bytes.
//!
//! Either way the buffer came from the engine's [`FrameBufPool`] and goes
//! back to it when the last holder drops. The simulator and the channel
//! engine never fill them: their payloads cross by value.
//!
//! Once a host has visited a payload that has wire bytes, the bytes are
//! all the host still needs of it — to forward it, or to retransmit it —
//! so the decoded payload is released ([`InFlight::visited`]) instead of
//! waiting in an outgoing queue beside its own encoding. A later visit of
//! the same copy (only healing re-injects one) decodes a private payload
//! from the bytes.

use std::sync::{Arc, OnceLock, RwLock};

use crate::envelope::{Envelope, PayloadBytes};
use crate::error::FrameError;
use crate::frame::{FrameBufPool, WirePayload, ENVELOPE_HEADER};

/// One payload in flight on the ring, shared by everything that holds it.
pub(crate) struct InFlight<P>(Arc<Shared<P>>);

struct Shared<P> {
    /// The decoded payload; `None` once a visit released it in favour of
    /// `wire`.
    payload: RwLock<Option<P>>,
    /// [`PayloadBytes::payload_bytes`] of the payload, taken on arrival.
    bytes: u64,
    /// [`PayloadBytes::payload_checksum`] of the payload, taken when first
    /// asked (at delivery, before any visit could release the payload).
    checksum: OnceLock<u64>,
    wire: OnceLock<Wire<P>>,
}

/// A payload's wire bytes and the decoder that turns them back into it.
struct Wire<P> {
    bytes: WireBytes,
    decode: fn(&[u8]) -> Result<P, FrameError>,
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
        Self::with_wire(payload, OnceLock::new())
    }

    fn with_wire(payload: P, wire: OnceLock<Wire<P>>) -> Self {
        InFlight(Arc::new(Shared {
            bytes: payload.payload_bytes(),
            payload: RwLock::new(Some(payload)),
            checksum: OnceLock::new(),
            wire,
        }))
    }
}

impl<P: WirePayload> InFlight<P> {
    /// A payload decoded off a socket, keeping the bytes it came from.
    pub(crate) fn received(payload: P, bytes: WireBytes) -> Self {
        let wire = Wire {
            bytes,
            decode: P::decode_payload,
        };
        Self::with_wire(payload, OnceLock::from(wire))
    }

    /// The payload's wire bytes, encoded into a buffer from `pool` if this
    /// host has none yet — the payload's first attempt out of its origin.
    /// Says whether this call encoded.
    ///
    /// The bytes sit behind an envelope header's worth of room, as in a
    /// received frame body, so any pooled buffer fits either use of the
    /// next payload of the same size without growing.
    pub(crate) fn encode_once(&self, pool: &Arc<FrameBufPool>) -> (&[u8], bool) {
        let mut encoded = false;
        let wire = self.0.wire.get_or_init(|| {
            encoded = true;
            let mut buf = pool.take();
            self.with(|payload| {
                buf.reserve_exact(ENVELOPE_HEADER + payload.payload_wire_len());
                buf.resize(ENVELOPE_HEADER, 0);
                payload.encode_payload(&mut buf);
            });
            Wire {
                bytes: WireBytes::new(buf, ENVELOPE_HEADER, Arc::clone(pool)),
                decode: P::decode_payload,
            }
        });
        (wire.bytes.bytes(), encoded)
    }
}

impl<P> InFlight<P> {
    /// Runs `f` on the payload — decoding a private copy from the wire
    /// bytes if a visit here already released it. `None` only if those
    /// bytes no longer decode, which a [`WirePayload`] that round-trips
    /// never does.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&P) -> R) -> Option<R> {
        {
            let payload = self.0.payload.read().unwrap_or_else(|e| e.into_inner());
            if let Some(payload) = payload.as_ref() {
                return Some(f(payload));
            }
        }
        let wire = self.0.wire.get()?;
        let payload = (wire.decode)(wire.bytes.bytes()).ok()?;
        Some(f(&payload))
    }

    /// This host's visit of the payload is done: if wire bytes stand in
    /// for it, the decoded payload is released. Best effort — a visit of
    /// the same copy still running elsewhere keeps it.
    pub(crate) fn visited(&self) {
        if self.0.wire.get().is_some() {
            if let Ok(mut payload) = self.0.payload.try_write() {
                *payload = None;
            }
        }
    }

    /// The payload's wire bytes, if this host has them.
    pub(crate) fn wire(&self) -> Option<&[u8]> {
        self.0.wire.get().map(|wire| wire.bytes.bytes())
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
        *self.0.checksum.get_or_init(|| {
            self.with(PayloadBytes::payload_checksum)
                .unwrap_or_default()
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
        drop(a);
        assert_eq!(pool.take().capacity(), 0, "a live holder keeps the buffer");
        drop(b);
        assert!(pool.take().capacity() >= 300, "the last drop returns it");
    }

    #[test]
    fn a_visited_payload_with_bytes_is_released_and_decodes_again_on_demand() {
        let pool = Arc::new(FrameBufPool::default());
        let payload = InFlight::new(vec![3u8, 1, 4, 1, 5]);
        let checksum = payload.payload_checksum();
        // No bytes yet: the visit keeps the payload (nothing else could
        // stand in for it).
        payload.visited();
        assert!(payload.0.payload.read().unwrap().is_some());
        payload.encode_once(&pool);
        payload.visited();
        assert!(payload.0.payload.read().unwrap().is_none(), "released");
        // Healing may visit the same copy again: it decodes from the bytes.
        assert_eq!(payload.with(|p| p.clone()), Some(vec![3u8, 1, 4, 1, 5]));
        assert_eq!(payload.payload_bytes(), 5);
        assert_eq!(payload.payload_checksum(), checksum);
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
        assert_eq!(out.payload.with(Vec::clone), Some(env.payload.clone()));
        assert!(out.checksum_ok());
    }
}
