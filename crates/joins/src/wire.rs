//! The ring-transport form of a prepared fragment, and the views that
//! read it in place.
//!
//! A [`PreparedFragment`] crosses a byte transport as one tag byte and its
//! relations in the flat layout of [`relation::wire`]:
//!
//! ```text
//! tag 0  plain    relation
//! tag 1  sorted   relation (keys non-decreasing)
//! tag 2  hash     bits: u32 LE, count: u32 LE (= 2^bits),
//!                 count × (len: u32 LE, relation of len bytes)
//! ```
//!
//! [`view`] checks everything about the bytes — tag, radix header, a
//! partition table that fits them, every relation's header, length and
//! checksum, sortedness — without allocating, and returns a
//! [`FragmentView`] the join reads the columns through where they lie;
//! decoding is that view copied out ([`FragmentView::to_prepared`]).
//! [`view_accepted`] views bytes [`view`] already accepted again,
//! checking their structure only: a received fragment is checked once and
//! read at every visit.

use relation::wire::{self as rw, RelationView};

use crate::hash::PartitionsView;
use crate::operator::{FragmentView, PreparedFragment};

/// Tag of a [`PreparedFragment::Plain`] fragment.
pub const TAG_PLAIN: u8 = 0;
/// Tag of a [`PreparedFragment::Sorted`] fragment.
pub const TAG_SORTED: u8 = 1;
/// Tag of a [`PreparedFragment::HashPartitioned`] fragment.
pub const TAG_HASH: u8 = 2;
/// A relation inside the fragment is not a valid encoding.
pub const BAD_RELATION: &str = "relation wire format";
/// A radix-partitioned payload whose partition count claims a table
/// longer than the payload.
pub const PARTITION_TABLE_OVERRUN: &str = "partition table longer than the payload";

/// Why bytes are not a prepared fragment.
pub type WireError = &'static str;

/// Exact number of bytes [`encode_into`] appends for `frag`.
pub fn encoded_len(frag: &PreparedFragment) -> usize {
    match frag {
        PreparedFragment::Plain(rel) => 1 + rw::encoded_len(rel.len()),
        PreparedFragment::Sorted(run) => 1 + rw::encoded_len(run.len()),
        PreparedFragment::HashPartitioned(parts) => {
            1 + 4
                + 4
                + parts
                    .partitions()
                    .iter()
                    .map(|p| 4 + rw::encoded_len(p.len()))
                    .sum::<usize>()
        }
    }
}

/// Appends `frag`'s wire bytes to `out`.
pub fn encode_into(frag: &PreparedFragment, out: &mut Vec<u8>) {
    match frag {
        PreparedFragment::Plain(rel) => {
            out.push(TAG_PLAIN);
            rw::encode_into(rel, out);
        }
        PreparedFragment::Sorted(run) => {
            out.push(TAG_SORTED);
            rw::encode_into(run.as_relation(), out);
        }
        PreparedFragment::HashPartitioned(parts) => {
            out.push(TAG_HASH);
            out.extend_from_slice(&parts.bits().to_le_bytes());
            out.extend_from_slice(&(parts.partitions().len() as u32).to_le_bytes());
            for p in parts.partitions() {
                // The per-partition length prefix is a pure function of
                // the tuple count, so it can be written *before* the
                // bytes — no staging copy of the encoding.
                out.extend_from_slice(&(rw::encoded_len(p.len()) as u32).to_le_bytes());
                rw::encode_into(p, out);
            }
        }
    }
}

/// The fragment `bytes` encode, read in place, after every check and no
/// allocation.
///
/// # Errors
///
/// A [`WireError`] naming the first malformation: an unknown tag, a
/// truncated or inconsistent radix header, a partition table the bytes
/// cannot hold (refused before anything is sized from its count), a
/// relation that fails [`relation::wire::view`], or an unsorted run.
pub fn view(bytes: &[u8]) -> Result<FragmentView<'_>, WireError> {
    parse(bytes, Check::Content)
}

/// [`view`] of bytes it already accepted: the structure is walked again,
/// the relations' checksums and a run's sortedness are not.
///
/// # Errors
///
/// As [`view`], except for the content checks.
pub fn view_accepted(bytes: &[u8]) -> Result<FragmentView<'_>, WireError> {
    parse(bytes, Check::Structure)
}

/// How much of the bytes a parse checks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Check {
    /// Everything.
    Content,
    /// The layout only.
    Structure,
}

fn parse(bytes: &[u8], check: Check) -> Result<FragmentView<'_>, WireError> {
    let Some((&tag, rest)) = bytes.split_first() else {
        return Err("empty prepared-fragment payload");
    };
    match tag {
        TAG_PLAIN => relation(rest, check).map(FragmentView::Plain),
        TAG_SORTED => {
            let run = relation(rest, check)?;
            if check == Check::Content && !run.is_sorted_by_key() {
                return Err("sorted-run payload is not sorted");
            }
            Ok(FragmentView::Sorted(run))
        }
        TAG_HASH => {
            let bits = read_u32(rest, 0).ok_or("truncated radix partition header")?;
            let count = read_u32(rest, 4).ok_or("truncated radix partition header")?;
            if bits > 24 {
                return Err("radix bits out of range");
            }
            if count as u64 != 1u64 << bits {
                return Err("partition count does not match radix bits");
            }
            // Every partition needs its 4-byte length: a count the bytes
            // cannot hold is refused before anything is sized from it.
            if 8 + 4 * count as usize > rest.len() {
                return Err(PARTITION_TABLE_OVERRUN);
            }
            let table = rest.get(8..).unwrap_or_default();
            let mut at = 0usize;
            for _ in 0..count {
                let len = read_u32(table, at).ok_or("truncated partition table")? as usize;
                at += 4;
                let seg = table
                    .get(at..at.saturating_add(len))
                    .ok_or("truncated partition body")?;
                relation(seg, check)?;
                at += len;
            }
            let parts = PartitionsView::wire(bits, count as usize, table);
            Ok(FragmentView::HashPartitioned(parts))
        }
        _ => Err("unknown prepared-fragment tag"),
    }
}

fn relation(bytes: &[u8], check: Check) -> Result<RelationView<'_>, WireError> {
    match check {
        Check::Content => rw::view(bytes),
        Check::Structure => rw::view_unverified(bytes),
    }
    .map_err(|_| BAD_RELATION)
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let s = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(s.try_into().ok()?))
}

/// The partitions of an accepted radix table, in order: exactly `count`
/// of them (an empty one wherever the bytes would not parse, which bytes
/// [`view`] accepted never do).
#[derive(Debug, Clone)]
pub(crate) struct TableParts<'a> {
    table: &'a [u8],
    left: usize,
}

impl<'a> TableParts<'a> {
    pub(crate) fn new(table: &'a [u8], count: usize) -> Self {
        TableParts { table, left: count }
    }
}

impl<'a> Iterator for TableParts<'a> {
    type Item = RelationView<'a>;

    fn next(&mut self) -> Option<RelationView<'a>> {
        self.left = self.left.checked_sub(1)?;
        let len = read_u32(self.table, 0).unwrap_or(0) as usize;
        let body = self.table.get(4..).unwrap_or_default();
        let (part, rest) = body.split_at_checked(len).unwrap_or((body, &[]));
        self.table = rest;
        Some(rw::view_unverified(part).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Algorithm;
    use relation::GenSpec;

    fn forms(tuples: usize, bits: u32) -> Vec<PreparedFragment> {
        let rel = GenSpec::uniform(tuples, tuples as u64 + 3).generate();
        [
            (Algorithm::NestedLoops, 0),
            (Algorithm::SortMerge, 0),
            (Algorithm::partitioned_hash(), bits),
        ]
        .into_iter()
        .map(|(alg, bits)| alg.prepare_fragment(&rel, bits, 1))
        .collect()
    }

    #[test]
    fn encoded_len_is_exact_and_views_read_every_form() {
        for (tuples, bits) in [(0, 0), (0, 3), (1, 0), (300, 3), (300, 6)] {
            for frag in forms(tuples, bits) {
                let mut bytes = Vec::new();
                encode_into(&frag, &mut bytes);
                assert_eq!(bytes.len(), encoded_len(&frag));
                let viewed = view(&bytes).unwrap();
                let again = view_accepted(&bytes).unwrap();
                assert_eq!(viewed.len(), frag.len());
                assert_eq!(again.len(), frag.len());
                let mut back = Vec::new();
                encode_into(&viewed.to_prepared(), &mut back);
                assert_eq!(back, bytes, "decode ∘ encode is the identity on the bytes");
                let mut borrowed = Vec::new();
                encode_into(&FragmentView::from(&frag).to_prepared(), &mut borrowed);
                assert_eq!(borrowed, bytes);
            }
        }
    }

    #[test]
    fn an_accepted_view_skips_only_the_content_checks() {
        let mut bytes = Vec::new();
        encode_into(&forms(50, 2).remove(2), &mut bytes);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert_eq!(view(&bytes).unwrap_err(), BAD_RELATION);
        assert!(view_accepted(&bytes).is_ok());
        assert_eq!(
            view_accepted(&bytes[..bytes.len() - 1]).unwrap_err(),
            view(&bytes[..bytes.len() - 1]).unwrap_err()
        );
    }
}
