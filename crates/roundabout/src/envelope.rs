//! Envelopes: the unit of data that circulates in the Data Roundabout.
//!
//! The transport layer always moves a *whole ring-buffer element* — never a
//! single tuple (§III-D) — so the circulating unit is an [`Envelope`]: an
//! opaque payload plus the routing state the ring needs (origin host and
//! remaining hops). After a full revolution (`hops_remaining == 0` once
//! every host processed it) an envelope retires at the host that consumed
//! it last, freeing its buffer element.

use serde::{Deserialize, Serialize};
use simnet::topology::HostId;

/// Payloads the roundabout can carry: anything that knows its wire size.
pub trait PayloadBytes {
    /// Number of bytes this payload occupies in a ring-buffer element (and
    /// therefore on the wire when forwarded).
    fn payload_bytes(&self) -> u64;

    /// Content checksum used by the reliable transport to detect corrupted
    /// deliveries. The default folds only the byte size — types that can
    /// afford it should hash their content (relations reuse
    /// [`relation::relation_checksum`]).
    fn payload_checksum(&self) -> u64 {
        mix64(self.payload_bytes() ^ 0xc0ff_ee00_d15e_a5e5)
    }
}

/// splitmix64-style finalizer shared by the default checksum impls.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

// A payload and its view (`crate::frame::WirePayload::View`) answer
// alike: each owned impl below delegates to its view's.

impl PayloadBytes for relation::Relation {
    fn payload_bytes(&self) -> u64 {
        relation::RelationView::from(self).payload_bytes()
    }

    fn payload_checksum(&self) -> u64 {
        relation::RelationView::from(self).payload_checksum()
    }
}

impl PayloadBytes for relation::RelationView<'_> {
    fn payload_bytes(&self) -> u64 {
        self.byte_volume()
    }

    fn payload_checksum(&self) -> u64 {
        let c = relation::relation_checksum(*self);
        c.sum ^ mix64(c.count)
    }
}

impl PayloadBytes for mem_joins::PreparedFragment {
    fn payload_bytes(&self) -> u64 {
        self.byte_volume()
    }
}

/// Size-only checksum, as the owned fragment's: the relation header's
/// FNV is what guards a prepared fragment's content on the wire.
impl PayloadBytes for mem_joins::FragmentView<'_> {
    fn payload_bytes(&self) -> u64 {
        self.byte_volume()
    }
}

impl PayloadBytes for Vec<u8> {
    fn payload_bytes(&self) -> u64 {
        self.as_slice().payload_bytes()
    }

    fn payload_checksum(&self) -> u64 {
        self.as_slice().payload_checksum()
    }
}

impl PayloadBytes for &[u8] {
    fn payload_bytes(&self) -> u64 {
        self.len() as u64
    }

    fn payload_checksum(&self) -> u64 {
        // FNV-1a over the bytes: cheap and content-sensitive.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in *self {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Identifier of a circulating fragment, unique within one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FragmentId(pub usize);

impl std::fmt::Display for FragmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// One circulating ring-buffer element.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope<P> {
    /// Identity of the fragment inside.
    pub id: FragmentId,
    /// Host the fragment started at.
    pub origin: HostId,
    /// Hosts that still need to process this envelope (including the one
    /// currently holding it). Starts at the ring size; the envelope is
    /// forwarded while the count stays positive after processing.
    pub hops_remaining: usize,
    /// Transfer sequence number, stamped by the reliable transport on each
    /// send attempt (0 on the classic, unacknowledged path).
    pub seq: u64,
    /// Content checksum taken at origination; the reliable transport
    /// verifies it on every receive to detect in-flight corruption.
    pub checksum: u64,
    /// Bitmask of logical stationary partitions (`S_i` roles) that already
    /// processed this envelope. Only maintained by the fault-tolerant
    /// path, where ring healing makes hop counting insufficient; it is the
    /// exactly-once ledger that survives retransmissions and re-sends.
    pub visited: u64,
    /// The in-flight query this fragment belongs to. `0` on single-query
    /// rings; the multi-tenant coordinator assigns dense query ids and
    /// keys its per-query credit partitions and ledgers on this field.
    pub query: u32,
    /// The data.
    pub payload: P,
}

impl<P: PayloadBytes> Envelope<P> {
    /// Creates an envelope at its origin for a ring of `ring_size` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `ring_size` is zero.
    pub fn new(id: FragmentId, origin: HostId, ring_size: usize, payload: P) -> Self {
        assert!(ring_size > 0, "ring size must be positive");
        let checksum = payload.payload_checksum();
        Envelope {
            id,
            origin,
            hops_remaining: ring_size,
            seq: 0,
            checksum,
            visited: 0,
            query: 0,
            payload,
        }
    }

    /// Bytes this envelope occupies on the wire.
    pub fn bytes(&self) -> u64 {
        self.payload.payload_bytes()
    }

    /// Verifies the stored checksum against the payload content.
    pub fn checksum_ok(&self) -> bool {
        self.checksum == self.payload.payload_checksum()
    }

    /// Marks the logical roles in `mask` as processed (fault-tolerant path).
    pub fn mark_visited(&mut self, mask: u64) {
        self.visited |= mask;
    }

    /// True once every role in `full_mask` has processed the envelope.
    pub fn visited_all(&self, full_mask: u64) -> bool {
        self.visited & full_mask == full_mask
    }

    /// Marks one processing step done. Returns `true` if the envelope must
    /// still be forwarded to the next host, `false` if it retires here.
    ///
    /// # Panics
    ///
    /// Panics if called on an already retired envelope.
    pub fn consume_hop(&mut self) -> bool {
        assert!(
            self.hops_remaining > 0,
            "envelope already completed its revolution"
        );
        self.hops_remaining -= 1;
        self.hops_remaining > 0
    }

    /// True once every host has processed the envelope.
    pub fn is_retired(&self) -> bool {
        self.hops_remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(ring: usize) -> Envelope<Vec<u8>> {
        Envelope::new(FragmentId(0), HostId(0), ring, vec![0u8; 100])
    }

    #[test]
    fn full_revolution_consumes_all_hops() {
        let mut e = env(4);
        assert!(e.consume_hop()); // processed at H0, forward
        assert!(e.consume_hop()); // H1
        assert!(e.consume_hop()); // H2
        assert!(!e.consume_hop()); // H3: retire
        assert!(e.is_retired());
    }

    #[test]
    fn single_host_ring_retires_immediately() {
        let mut e = env(1);
        assert!(!e.consume_hop());
        assert!(e.is_retired());
    }

    #[test]
    #[should_panic(expected = "already completed")]
    fn over_consuming_panics() {
        let mut e = env(1);
        let _ = e.consume_hop();
        let _ = e.consume_hop();
    }

    #[test]
    fn bytes_come_from_the_payload() {
        assert_eq!(env(2).bytes(), 100);
        let rel = relation::GenSpec::uniform(10, 0).generate();
        let e = Envelope::new(FragmentId(1), HostId(1), 2, rel);
        assert_eq!(e.bytes(), 120);
    }

    #[test]
    fn checksum_verifies_content() {
        let mut e = env(2);
        assert!(e.checksum_ok());
        e.payload[0] ^= 0xff;
        assert!(!e.checksum_ok(), "content change must break the checksum");
        let rel = relation::GenSpec::uniform(10, 0).generate();
        let e = Envelope::new(FragmentId(1), HostId(0), 2, rel);
        assert!(e.checksum_ok());
    }

    #[test]
    fn visited_mask_accumulates_roles() {
        let mut e = env(3);
        let full = 0b111;
        assert!(!e.visited_all(full));
        e.mark_visited(0b001);
        e.mark_visited(0b100);
        assert!(!e.visited_all(full));
        e.mark_visited(0b010);
        assert!(e.visited_all(full));
    }

    #[test]
    fn prepared_fragment_payload_bytes() {
        use mem_joins::{Algorithm, PreparedFragment};
        let rel = relation::GenSpec::uniform(50, 1).generate();
        let frag: PreparedFragment = Algorithm::SortMerge.prepare_fragment(&rel, 0, 1);
        let e = Envelope::new(FragmentId(2), HostId(0), 3, frag);
        assert_eq!(e.bytes(), 600);
    }
}
