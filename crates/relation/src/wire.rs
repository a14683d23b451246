//! Wire format: relations as flat byte buffers, and views that read them
//! in place.
//!
//! A real Data Roundabout DMAs ring-buffer elements directly out of and
//! into registered memory, and the join reads them where they landed, so
//! the rotating unit must have a defined flat layout. This module provides
//! it: a fixed header (magic, version, tuple count, integrity checksum)
//! followed by the key column and the payload column, all little-endian.
//! The checksum ([`WireChecksum`]) folds tuple *i* into lane *i* mod 4 of
//! four FNV chains and combines the lanes and the count at the end, so a
//! check runs four independent multiply chains side by side.
//! The socket engines join straight from it: a received body is checked
//! once ([`view`]: every check [`decode`] makes, no allocation) and every
//! visit reads its columns through a [`RelationView`]: arrays of
//! little-endian bytes (`[u8; 4]` keys, `[u8; 8]` payloads) read with
//! `from_le_bytes` — no `unsafe` and no alignment assumption, so a body at
//! any offset of its buffer reads the same. The in-process backends move
//! owned structures and view those instead, and a placement of the inputs
//! over a ring is views too: ranges of the caller's native columns.
//!
//! Layout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "CYCJ"
//! 4       4     version (2: the checksum in four lanes)
//! 8       8     tuple count n
//! 16      8     checksum over both columns (lane i mod 4 per tuple)
//! 24      4·n   keys   (u32 LE)
//! 24+4n   8·n   payloads (u64 LE)
//! ```

use std::iter::Zip;
use std::ops::Range;
use std::slice::Iter;

use crate::relation::Relation;
use crate::tuple::{Key, Payload, Tuple, TUPLE_BYTES};

/// First bytes of every encoded relation.
pub const MAGIC: [u8; 4] = *b"CYCJ";
/// Current format version. Version 1 folded the checksum in one chain;
/// its bytes are refused as [`DecodeError::BadVersion`]`(1)`.
pub const VERSION: u32 = 2;
/// Header size in bytes.
pub const HEADER_BYTES: usize = 24;

/// Errors decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than a header.
    TooShort,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Buffer length inconsistent with the declared tuple count.
    LengthMismatch {
        /// Bytes the declared tuple count requires.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// Integrity checksum mismatch (corrupted transfer).
    ChecksumMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooShort => write!(f, "buffer shorter than the wire header"),
            DecodeError::BadMagic => write!(f, "bad magic bytes (not a relation buffer)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "length mismatch: header implies {expected} bytes, got {actual}"
                )
            }
            DecodeError::ChecksumMismatch => write!(f, "checksum mismatch: buffer corrupted"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encoded size of a relation with `tuples` rows.
pub const fn encoded_len(tuples: usize) -> usize {
    HEADER_BYTES + tuples * 12
}

/// Serializes `rel` into a fresh buffer.
pub fn encode(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(rel.len()));
    encode_into(rel, &mut out);
    out
}

/// Serializes `rel` — a relation, or a view of the columns it lies in —
/// by appending exactly [`encoded_len`]`(rel.len())` bytes to `out`: the
/// allocation-free form of [`encode`] for callers that assemble a larger
/// frame (an envelope, a tagged payload) around the relation bytes.
pub fn encode_into<'r>(rel: impl Into<RelationView<'r>>, out: &mut Vec<u8>) {
    let rel = rel.into();
    out.reserve(encoded_len(rel.len()));
    out.extend_from_slice(&header(rel.len(), column_checksum(rel)));
    match rel.columns() {
        Columns::Native(keys, payloads) => {
            for k in keys {
                out.extend_from_slice(&k.to_le_bytes());
            }
            for p in payloads {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        // Little-endian already: one copy per column.
        Columns::Wire(keys, payloads) => {
            out.extend_from_slice(keys.as_flattened());
            out.extend_from_slice(payloads.as_flattened());
        }
    }
}

/// [`encode_into`] of the relation `tuples` holds, in order, with no
/// column copy between.
pub fn encode_tuples_into(tuples: &[Tuple], out: &mut Vec<u8>) {
    out.reserve(encoded_len(tuples.len()));
    out.extend_from_slice(&header(tuples.len(), checksum(tuples.iter().copied())));
    for t in tuples {
        out.extend_from_slice(&t.key.to_le_bytes());
    }
    for t in tuples {
        out.extend_from_slice(&t.payload.to_le_bytes());
    }
}

/// The header of an encoding of `n` tuples whose columns fold to
/// `checksum`. A kernel that writes tuples straight into their encoded
/// positions (a radix scatter) folds each relation's [`WireChecksum`] as
/// it writes and puts this in front last.
pub fn header(n: usize, checksum: WireChecksum) -> [u8; HEADER_BYTES] {
    let fields: [&[u8]; 4] = [
        &MAGIC,
        &VERSION.to_le_bytes(),
        &(n as u64).to_le_bytes(),
        &checksum.value().to_le_bytes(),
    ];
    let mut out = [0u8; HEADER_BYTES];
    let mut at = 0;
    for field in fields {
        if let Some(dst) = out.get_mut(at..at + field.len()) {
            dst.copy_from_slice(field);
        }
        at += field.len();
    }
    out
}

/// Deserializes a buffer produced by [`encode`]: [`view`], then a copy of
/// both columns.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated, foreign, versioned-ahead or
/// corrupted buffers.
pub fn decode(bytes: &[u8]) -> Result<Relation, DecodeError> {
    view(bytes).map(|view| view.to_relation())
}

/// The relation a buffer produced by [`encode`] holds, read in place:
/// every check [`decode`] makes — header, length against the declared
/// count, checksum over both columns — and no allocation.
///
/// # Errors
///
/// As [`decode`].
pub fn view(bytes: &[u8]) -> Result<RelationView<'_>, DecodeError> {
    let (view, declared) = layout(bytes)?;
    if column_checksum(view).value() != declared {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok(view)
}

/// [`view`] without the checksum, for bytes [`view`] already accepted and
/// nobody has written to since: the header and length checks alone, so
/// viewing a checked buffer again costs nothing per tuple.
///
/// # Errors
///
/// As [`decode`], except that a corrupted column goes unnoticed.
pub fn view_unverified(bytes: &[u8]) -> Result<RelationView<'_>, DecodeError> {
    layout(bytes).map(|(view, _)| view)
}

/// The columns of an encoded relation and its declared checksum, after
/// the header and length checks.
fn layout(bytes: &[u8]) -> Result<(RelationView<'_>, u64), DecodeError> {
    if bytes.len() < HEADER_BYTES {
        return Err(DecodeError::TooShort);
    }
    if bytes.get(0..4) != Some(MAGIC.as_slice()) {
        return Err(DecodeError::BadMagic);
    }
    let version = u32::from_le_bytes(le_bytes(bytes, 4)?);
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let declared = u64::from_le_bytes(le_bytes(bytes, 8)?);
    // The header's count is attacker/fault-controlled: validate it against
    // the buffer length in wide arithmetic *before* converting to `usize`,
    // so a corrupt count can neither overflow `encoded_len` nor drive an
    // enormous allocation.
    let expected_wide = HEADER_BYTES as u128 + declared as u128 * 12;
    if bytes.len() as u128 != expected_wide {
        return Err(DecodeError::LengthMismatch {
            expected: usize::try_from(expected_wide).unwrap_or(usize::MAX),
            actual: bytes.len(),
        });
    }
    let n = declared as usize;
    let declared_checksum = u64::from_le_bytes(le_bytes(bytes, 16)?);
    let keys_end = n
        .checked_mul(4)
        .and_then(|len| HEADER_BYTES.checked_add(len))
        .ok_or(DecodeError::TooShort)?;
    let keys = bytes
        .get(HEADER_BYTES..keys_end)
        .ok_or(DecodeError::TooShort)?;
    let payloads = bytes.get(keys_end..).ok_or(DecodeError::TooShort)?;
    // The length check above makes both remainders empty.
    let view = RelationView(Repr::Wire(keys.as_chunks().0, payloads.as_chunks().0));
    Ok((view, declared_checksum))
}

/// Reads `N` little-endian bytes at `offset` with fully checked bounds.
/// Infallible on the paths `layout` reaches after its length validation,
/// but kept checked so a future layout change cannot quietly reintroduce a
/// panic path — the lint suite (`xtask analyze`) holds this file to zero
/// panicking operations.
fn le_bytes<const N: usize>(bytes: &[u8], offset: usize) -> Result<[u8; N], DecodeError> {
    let end = offset.checked_add(N).ok_or(DecodeError::TooShort)?;
    bytes
        .get(offset..end)
        .and_then(|s| s.try_into().ok())
        .ok_or(DecodeError::TooShort)
}

/// Order-*dependent* integrity checksum over both columns (FNV-1a style);
/// unlike the order-independent result checksums, a transfer must preserve
/// tuple order exactly.
fn column_checksum(view: RelationView<'_>) -> WireChecksum {
    let mut sum = WireChecksum::default();
    match view.columns() {
        Columns::Native(keys, payloads) => sum.fold(keys, payloads),
        Columns::Wire(keys, payloads) => sum.fold(keys, payloads),
    }
    sum
}

/// [`column_checksum`] of `tuples`, in order.
fn checksum(tuples: impl Iterator<Item = Tuple>) -> WireChecksum {
    let mut sum = WireChecksum::default();
    for t in tuples {
        sum.push(t.key, t.payload);
    }
    sum
}

/// Lanes of a [`WireChecksum`].
const LANES: usize = 4;
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// One FNV-1a step of a lane over one tuple: two dependent multiplies.
#[inline(always)]
fn fnv(lane: u64, key: Key, payload: Payload) -> u64 {
    ((lane ^ key as u64).wrapping_mul(FNV_PRIME) ^ payload).wrapping_mul(FNV_PRIME)
}

/// The checksum an encoding's header holds. Tuple *i* folds into lane
/// *i* mod 4 of four FNV-1a chains, and [`WireChecksum::value`] combines
/// the lanes, then the count, in order. The four chains do not wait on
/// one another, so a fold of four tuples per step costs about what one
/// tuple costs a single chain: [`view`] checks 65 536 tuples in
/// 0.67–0.69 ns per tuple, against 2.69–2.76 ns for version 1's one
/// chain (medians of 200 calls, three runs, on a 2-vCPU Xeon VM). It stays
/// order-dependent: two swapped tuples change the lanes they sit in (in
/// one lane, the chain's order; across lanes, both lanes), and a flipped
/// bit changes its lane, since every step is a bijection of the lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireChecksum {
    lanes: [u64; LANES],
    /// Tuples folded in: the next one goes into lane `n mod 4`.
    n: u64,
}

impl Default for WireChecksum {
    /// The checksum of no tuples.
    fn default() -> Self {
        WireChecksum {
            lanes: [FNV_BASIS; LANES],
            n: 0,
        }
    }
}

impl WireChecksum {
    /// Folds in the next tuple.
    #[inline]
    pub fn push(&mut self, key: Key, payload: Payload) {
        if let Some(lane) = self.lanes.get_mut((self.n % LANES as u64) as usize) {
            *lane = fnv(*lane, key, payload);
        }
        self.n += 1;
    }

    /// Folds in the tuples of two columns, in order, four per step: what
    /// pushing them one by one folds, whatever lane the first one falls
    /// into. Columns of unequal length fold their common prefix.
    pub fn fold<K, P>(&mut self, keys: &[K], payloads: &[P])
    where
        K: ColumnValue<Key>,
        P: ColumnValue<Payload>,
    {
        let n = keys.len().min(payloads.len());
        // One at a time up to a tuple that falls into lane 0.
        let lead = ((LANES as u64 - self.n % LANES as u64) % LANES as u64) as usize;
        let lead = lead.min(n);
        let (lead_keys, keys) = keys
            .get(..n)
            .unwrap_or_default()
            .split_at_checked(lead)
            .unwrap_or_default();
        let (lead_payloads, payloads) = payloads
            .get(..n)
            .unwrap_or_default()
            .split_at_checked(lead)
            .unwrap_or_default();
        for (k, p) in lead_keys.iter().zip(lead_payloads) {
            self.push(k.value(), p.value());
        }
        let (key_steps, key_tail) = keys.as_chunks::<LANES>();
        let (payload_steps, payload_tail) = payloads.as_chunks::<LANES>();
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let mut steps = 0u64;
        for (&[k0, k1, k2, k3], &[p0, p1, p2, p3]) in key_steps.iter().zip(payload_steps) {
            a = fnv(a, k0.value(), p0.value());
            b = fnv(b, k1.value(), p1.value());
            c = fnv(c, k2.value(), p2.value());
            d = fnv(d, k3.value(), p3.value());
            steps += 1;
        }
        self.lanes = [a, b, c, d];
        self.n += LANES as u64 * steps;
        for (k, p) in key_tail.iter().zip(payload_tail) {
            self.push(k.value(), p.value());
        }
    }

    /// The value the header holds: the lanes, then the count, folded in
    /// order.
    pub fn value(&self) -> u64 {
        self.lanes
            .iter()
            .chain([&self.n])
            .fold(FNV_BASIS, |h, &word| (h ^ word).wrapping_mul(FNV_PRIME))
    }
}

/// A column value as it lies: native, in an owned column, or as its
/// little-endian bytes, in a wire buffer (at any alignment: a byte array
/// has none). A kernel generic over it reads either in place, and writes
/// either (a sort or a scatter landing in a column) — one source, and a
/// byte column costs what a native one does.
pub trait ColumnValue<T>: Copy {
    /// The value.
    fn value(self) -> T;
    /// `value` as it lies in the column.
    fn of(value: T) -> Self;
}

/// A key as it lies in a wire buffer: its little-endian bytes.
pub type LeKey = [u8; 4];
/// A payload as it lies in a wire buffer: its little-endian bytes.
pub type LePayload = [u8; 8];

impl ColumnValue<Key> for Key {
    #[inline(always)]
    fn value(self) -> Key {
        self
    }

    #[inline(always)]
    fn of(value: Key) -> Self {
        value
    }
}

impl ColumnValue<Key> for LeKey {
    #[inline(always)]
    fn value(self) -> Key {
        Key::from_le_bytes(self)
    }

    #[inline(always)]
    fn of(value: Key) -> Self {
        value.to_le_bytes()
    }
}

impl ColumnValue<Payload> for Payload {
    #[inline(always)]
    fn value(self) -> Payload {
        self
    }

    #[inline(always)]
    fn of(value: Payload) -> Self {
        value
    }
}

impl ColumnValue<Payload> for LePayload {
    #[inline(always)]
    fn value(self) -> Payload {
        Payload::from_le_bytes(self)
    }

    #[inline(always)]
    fn of(value: Payload) -> Self {
        value.to_le_bytes()
    }
}

/// A relation's two columns as they lie ([`RelationView::columns`]), for a
/// kernel generic over [`ColumnValue`] to take either way.
#[derive(Debug, Clone, Copy)]
pub enum Columns<'a> {
    /// Native columns: a [`Relation`]'s, or a range of them.
    Native(&'a [Key], &'a [Payload]),
    /// An encoded buffer's columns, little-endian.
    Wire(&'a [LeKey], &'a [LePayload]),
}

/// A relation's two columns where they lie: a [`Relation`]'s native
/// columns or a range of them, or the key and payload ranges of an
/// encoded buffer (see [`view`]), read in place. A join reads either
/// through the same calls, and its kernel takes both through
/// [`RelationView::columns`]. Cutting a view ([`RelationView::range`],
/// [`RelationView::split_even`]) copies nothing: a placement of the
/// inputs over a ring is a set of views of the caller's columns.
///
/// Two views are equal when they hold the same tuples in the same order,
/// wherever those lie.
#[derive(Debug, Clone, Copy)]
pub struct RelationView<'a>(Repr<'a>);

/// Both variants hold equally long key and payload columns.
#[derive(Debug, Clone, Copy)]
enum Repr<'a> {
    Native(&'a [Key], &'a [Payload]),
    Wire(&'a [LeKey], &'a [LePayload]),
}

impl Default for RelationView<'_> {
    /// The empty relation.
    fn default() -> Self {
        RelationView(Repr::Native(&[], &[]))
    }
}

impl<'a> From<&'a Relation> for RelationView<'a> {
    fn from(rel: &'a Relation) -> Self {
        RelationView(Repr::Native(rel.keys(), rel.payloads()))
    }
}

impl<'a> From<&RelationView<'a>> for RelationView<'a> {
    fn from(view: &RelationView<'a>) -> Self {
        *view
    }
}

impl PartialEq for RelationView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for RelationView<'_> {}

impl<'a> RelationView<'a> {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        match self.0 {
            Repr::Native(keys, _) => keys.len(),
            Repr::Wire(keys, _) => keys.len(),
        }
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical data volume in bytes (12 bytes per tuple).
    pub fn byte_volume(&self) -> u64 {
        self.len() as u64 * TUPLE_BYTES
    }

    /// The two columns as they lie.
    pub fn columns(&self) -> Columns<'a> {
        match self.0 {
            Repr::Native(keys, payloads) => Columns::Native(keys, payloads),
            Repr::Wire(keys, payloads) => Columns::Wire(keys, payloads),
        }
    }

    /// The tuples at positions `range`, where they lie: no copy. `None`
    /// if the range is out of bounds, as `<[T]>::get`.
    pub fn range(&self, range: Range<usize>) -> Option<RelationView<'a>> {
        Some(RelationView(match self.0 {
            Repr::Native(keys, payloads) => {
                Repr::Native(keys.get(range.clone())?, payloads.get(range)?)
            }
            Repr::Wire(keys, payloads) => {
                Repr::Wire(keys.get(range.clone())?, payloads.get(range)?)
            }
        }))
    }

    /// Cuts the view into `parts` contiguous ranges whose sizes differ by
    /// at most one tuple, the larger first — [`Relation::split_even`]'s
    /// cut, copying nothing. Some ranges are empty when `parts > len`;
    /// `parts == 0` yields none.
    pub fn split_even(&self, parts: usize) -> Vec<RelationView<'a>> {
        let n = self.len();
        let base = n.checked_div(parts).unwrap_or(0);
        let extra = n.checked_rem(parts).unwrap_or(0);
        let mut start = 0;
        (0..parts)
            .map(|i| {
                let end = start + base + usize::from(i < extra);
                let part = self.range(start..end).unwrap_or_default();
                start = end;
                part
            })
            .collect()
    }

    /// A copy of the viewed relation.
    pub fn to_relation(&self) -> Relation {
        let (keys, payloads): (Vec<Key>, Vec<Payload>) = match self.0 {
            Repr::Native(keys, payloads) => (keys.to_vec(), payloads.to_vec()),
            Repr::Wire(keys, payloads) => (
                keys.iter().map(|&k| k.value()).collect(),
                payloads.iter().map(|&p| p.value()).collect(),
            ),
        };
        Relation::from_columns(keys.into(), payloads.into())
    }

    /// Iterator over the tuples, in order.
    pub fn iter(&self) -> Tuples<'a> {
        Tuples(match self.columns() {
            Columns::Native(keys, payloads) => TuplesRepr::Native(keys.iter().zip(payloads)),
            Columns::Wire(keys, payloads) => TuplesRepr::Wire(keys.iter().zip(payloads)),
        })
    }

    /// True if keys are in non-decreasing order.
    pub fn is_sorted_by_key(&self) -> bool {
        match self.columns() {
            Columns::Native(keys, _) => keys.is_sorted(),
            Columns::Wire(keys, _) => keys.iter().map(|&k| k.value()).is_sorted(),
        }
    }
}

/// Iterator over a [`RelationView`]'s tuples.
#[derive(Debug, Clone)]
pub struct Tuples<'a>(TuplesRepr<'a>);

#[derive(Debug, Clone)]
enum TuplesRepr<'a> {
    Native(Zip<Iter<'a, Key>, Iter<'a, Payload>>),
    Wire(Zip<Iter<'a, LeKey>, Iter<'a, LePayload>>),
}

impl Iterator for Tuples<'_> {
    type Item = Tuple;

    #[inline]
    fn next(&mut self) -> Option<Tuple> {
        match &mut self.0 {
            TuplesRepr::Native(it) => it.next().map(|(&k, &p)| Tuple::new(k, p)),
            TuplesRepr::Wire(it) => it.next().map(|(&k, &p)| Tuple::new(k.value(), p.value())),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            TuplesRepr::Native(it) => it.size_hint(),
            TuplesRepr::Wire(it) => it.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GenSpec;
    use crate::relation::Relation;

    #[test]
    fn round_trip_preserves_everything() {
        for tuples in [0usize, 1, 7, 1000] {
            let rel = GenSpec::uniform(tuples, 42).generate();
            let bytes = encode(&rel);
            assert_eq!(bytes.len(), encoded_len(tuples));
            let back = decode(&bytes).expect("decode should succeed");
            assert_eq!(back, rel);
        }
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let rel = GenSpec::uniform(100, 1).generate();
        let bytes = encode(&rel);
        assert_eq!(decode(&bytes[..10]), Err(DecodeError::TooShort));
        assert!(matches!(
            decode(&bytes[..bytes.len() - 4]),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn foreign_buffers_are_rejected() {
        let mut bytes = encode(&GenSpec::uniform(10, 2).generate());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = encode(&GenSpec::uniform(10, 3).generate());
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(decode(&bytes), Err(DecodeError::BadVersion(99)));
    }

    /// Version 1 folded its checksum in one chain: its bytes are refused,
    /// not checked against the wrong sum.
    #[test]
    fn version_1_bytes_are_refused() {
        let mut bytes = encode(&GenSpec::uniform(10, 3).generate());
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(view(&bytes).unwrap_err(), DecodeError::BadVersion(1));
        assert_eq!(decode(&bytes), Err(DecodeError::BadVersion(1)));
    }

    /// Folding columns four tuples a step folds what pushing them one by
    /// one folds, from whatever lane the checksum is at, in native columns
    /// or little-endian ones.
    #[test]
    fn folding_columns_equals_pushing_tuples() {
        let rel = GenSpec::uniform(41, 17).generate();
        let bytes = encode(&rel);
        let Columns::Wire(le_keys, le_payloads) = view(&bytes).unwrap().columns() else {
            panic!("a buffer's columns are its bytes");
        };
        for before in 0..6 {
            for len in [0, 1, 3, 4, 5, 8, 9, 35] {
                let (keys, payloads) = (&rel.keys()[before..], &rel.payloads()[before..]);
                let mut pushed = WireChecksum::default();
                for t in rel.iter().take(before + len) {
                    pushed.push(t.key, t.payload);
                }
                let mut folded = WireChecksum::default();
                folded.fold(&rel.keys()[..before], &rel.payloads()[..before]);
                folded.fold(&keys[..len], &payloads[..len]);
                assert_eq!(folded, pushed, "{before} pushed, then {len}");
                let mut le = WireChecksum::default();
                le.fold(&le_keys[..before], &le_payloads[..before]);
                le.fold(&le_keys[before..before + len], &le_payloads[before..]);
                assert_eq!(le, pushed, "{before} pushed, then {len}, little-endian");
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let rel = GenSpec::uniform(500, 4).generate();
        let mut bytes = encode(&rel);
        // Flip one payload bit deep in the buffer.
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0x01;
        assert_eq!(decode(&bytes), Err(DecodeError::ChecksumMismatch));
    }

    /// Regression: a corrupt header could declare a huge tuple count whose
    /// `encoded_len` overflowed `usize` (debug: arithmetic panic; release:
    /// wraparound defeating the length check). Decode must reject it.
    #[test]
    fn adversarial_tuple_counts_are_rejected_without_panicking() {
        let rel = GenSpec::uniform(8, 7).generate();
        let template = encode(&rel);
        for count in [
            u64::MAX,
            u64::MAX / 12,
            (usize::MAX / 12) as u64,
            (usize::MAX / 12) as u64 + 1,
            u64::MAX - HEADER_BYTES as u64,
            1u64 << 60,
        ] {
            let mut bytes = template.clone();
            bytes[8..16].copy_from_slice(&count.to_le_bytes());
            assert!(
                matches!(decode(&bytes), Err(DecodeError::LengthMismatch { .. })),
                "count {count} must be rejected as a length mismatch"
            );
        }
    }

    /// Fuzz: arbitrary header corruption must yield `Err`, never a panic.
    #[test]
    fn corrupt_headers_never_panic() {
        let rel = GenSpec::uniform(32, 9).generate();
        let template = encode(&rel);
        // Deterministic LCG so failures reproduce.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..2_000 {
            let mut bytes = template.clone();
            // Corrupt 1–4 bytes anywhere in the header.
            for _ in 0..(next() % 4 + 1) {
                let pos = (next() % HEADER_BYTES as u64) as usize;
                bytes[pos] ^= (next() % 255 + 1) as u8;
            }
            // Occasionally truncate or extend the buffer too.
            match next() % 4 {
                0 => {
                    let keep = (next() % (bytes.len() as u64 + 1)) as usize;
                    bytes.truncate(keep);
                }
                1 => bytes.extend(std::iter::repeat_n(0xAB, (next() % 32) as usize)),
                _ => {}
            }
            // Must return (Ok for the rare untouched mutation, Err otherwise)
            // without panicking or aborting on allocation.
            let _ = decode(&bytes);
        }
    }

    #[test]
    fn encode_into_appends_without_clearing() {
        let rel = GenSpec::uniform(50, 6).generate();
        let mut out = vec![0xEE, 0xFF];
        encode_into(&rel, &mut out);
        assert_eq!(&out[..2], &[0xEE, 0xFF]);
        assert_eq!(&out[2..], encode(&rel).as_slice());
    }

    /// A view of the bytes reads what decoding them yields, tuple for
    /// tuple, whatever the buffer offset the body starts at (the columns
    /// are read with no alignment assumption), and refuses what decoding
    /// refuses.
    #[test]
    fn views_read_what_decode_yields_at_any_offset() {
        for tuples in [0usize, 1, 7, 700] {
            let rel = GenSpec::uniform(tuples, 11).generate();
            let bytes = encode(&rel);
            for offset in 0..8 {
                let mut buf = vec![0xA5u8; offset];
                buf.extend_from_slice(&bytes);
                let view = view(&buf[offset..]).expect("intact bytes view");
                assert_eq!(view.len(), tuples);
                assert_eq!(view.to_relation(), rel);
                assert!(view.iter().eq(rel.iter()));
            }
        }
        let mut corrupt = encode(&GenSpec::uniform(50, 12).generate());
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x10;
        assert_eq!(view(&corrupt).unwrap_err(), DecodeError::ChecksumMismatch);
        assert_eq!(decode(&corrupt).unwrap_err(), DecodeError::ChecksumMismatch);
        // The unverified view is for bytes already accepted: it checks
        // the structure only.
        assert_eq!(view_unverified(&corrupt).map(|v| v.len()), Ok(50));
        assert_eq!(
            view_unverified(&corrupt[..30]).unwrap_err(),
            view(&corrupt[..30]).unwrap_err()
        );
    }

    #[test]
    fn columns_lie_native_or_in_the_bytes() {
        let rel = GenSpec::uniform(1_000, 13).generate();
        let bytes = encode(&rel);
        let wire = view(&bytes).unwrap();
        let native = RelationView::from(&rel);
        let Columns::Native(keys, payloads) = native.columns() else {
            panic!("a relation's columns are its own");
        };
        assert_eq!(keys.as_ptr_range(), rel.keys().as_ptr_range());
        assert_eq!(payloads.as_ptr_range(), rel.payloads().as_ptr_range());
        let Columns::Wire(keys, payloads) = wire.columns() else {
            panic!("a buffer's columns are its bytes");
        };
        let keys: Vec<Key> = keys.iter().map(|&k| k.value()).collect();
        let payloads: Vec<Payload> = payloads.iter().map(|&p| p.value()).collect();
        assert_eq!((&keys[..], &payloads[..]), (rel.keys(), rel.payloads()));
        assert_eq!(native.to_relation(), rel);
        assert_eq!(wire.to_relation(), rel);
        assert_eq!(native, wire, "equal tuples, wherever they lie");
        let mut sorted = rel.clone();
        sorted.sort_by_key();
        assert!(view(&encode(&sorted)).unwrap().is_sorted_by_key());
        assert!(!wire.is_sorted_by_key());
    }

    /// True if `inner` lies inside `outer`'s memory (an empty `inner`
    /// holds nothing, wherever it points).
    fn within<T>(inner: &[T], outer: &[T]) -> bool {
        let (inner, outer) = (inner.as_ptr_range(), outer.as_ptr_range());
        inner.is_empty() || (outer.start <= inner.start && inner.end <= outer.end)
    }

    /// A view is cut where `Relation::split_even` cuts a relation, into
    /// ranges of the same columns; a wire view is cut the same way.
    #[test]
    fn views_split_as_relations_do_without_a_copy() {
        for (tuples, parts) in [(0usize, 1usize), (0, 3), (2, 5), (10, 3), (1_000, 7)] {
            let rel = GenSpec::uniform(tuples, 14).generate();
            let bytes = encode(&rel);
            let reference = rel.split_even(parts);
            for whole in [RelationView::from(&rel), view(&bytes).unwrap()] {
                let cut = whole.split_even(parts);
                assert_eq!(cut.len(), parts);
                for (part, copy) in cut.iter().zip(&reference) {
                    assert_eq!(*part, RelationView::from(copy));
                }
            }
            for part in RelationView::from(&rel).split_even(parts) {
                let Columns::Native(keys, payloads) = part.columns() else {
                    panic!("a range of native columns is native");
                };
                assert!(within(keys, rel.keys()) && within(payloads, rel.payloads()));
            }
        }
        let rel = GenSpec::uniform(10, 15).generate();
        let whole = RelationView::from(&rel);
        assert!(whole.split_even(0).is_empty());
        assert_eq!(whole.range(2..5).map(|v| v.len()), Some(3));
        assert_eq!(whole.range(8..11), None);
    }

    /// The ways to write an encoding agree: from native columns, from a
    /// view of an encoding, from a tuple slice, and columns written in
    /// place behind a header put in front last, from a checksum folded
    /// tuple by tuple.
    #[test]
    fn a_relation_written_in_place_under_its_header_is_its_encoding() {
        for tuples in [0usize, 1, 7, 300] {
            let rel = GenSpec::uniform(tuples, 16).generate();
            let want = encode(&rel);
            let mut from_view = Vec::new();
            encode_into(view(&want).unwrap(), &mut from_view);
            assert_eq!(from_view, want);
            let mut from_tuples = Vec::new();
            encode_tuples_into(&rel.iter().collect::<Vec<_>>(), &mut from_tuples);
            assert_eq!(from_tuples, want);
            let mut in_place = vec![0u8; encoded_len(tuples)];
            let mut sum = WireChecksum::default();
            for (i, t) in rel.iter().enumerate() {
                let k = HEADER_BYTES + 4 * i;
                let p = HEADER_BYTES + 4 * tuples + 8 * i;
                in_place[k..k + 4].copy_from_slice(&t.key.to_le_bytes());
                in_place[p..p + 8].copy_from_slice(&t.payload.to_le_bytes());
                sum.push(t.key, t.payload);
            }
            in_place[..HEADER_BYTES].copy_from_slice(&header(tuples, sum));
            assert_eq!(in_place, want);
        }
    }

    #[test]
    fn order_matters_for_the_wire_checksum() {
        let a = Relation::from_pairs([(1, 10), (2, 20)]);
        let b = Relation::from_pairs([(2, 20), (1, 10)]);
        assert_ne!(encode(&a), encode(&b));
    }
}
