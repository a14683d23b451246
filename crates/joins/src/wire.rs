//! The ring-transport form of a prepared fragment, and the views that
//! read it in place.
//!
//! A [`PreparedFragment`] *is* its wire bytes: one tag byte and its
//! relations in the flat layout of [`relation::wire`]:
//!
//! ```text
//! tag 0  plain    relation
//! tag 1  sorted   relation (keys non-decreasing)
//! tag 2  hash     bits: u32 LE, count: u32 LE (= 2^bits),
//!                 count × (len: u32 LE, relation of len bytes)
//! ```
//!
//! A fragment is reorganised straight into these bytes, once, at its
//! origin ([`Algorithm::prepare_fragment`]): a one-pass radix scatter, at
//! any fan-out, lays the partition table out from its histogram and
//! writes each tuple at its final offset, a radix sort's last pass lands
//! in the run's columns, a plain fragment copies its columns; each
//! relation's header is written last. These bytes are the one layout a
//! radix-partitioned fragment has; a sorted or plain one's equal what
//! [`encode_into`] writes of the owned run or relation. They fill one
//! buffer sized exactly, and a ring carries them as they are: a socket
//! engine sends them from where they were written, and every visit — the
//! origin's too — reads the columns in place.
//!
//! [`view`] checks everything about the bytes — tag, radix header, a
//! partition table that fits them, every relation's header, length and
//! checksum, sortedness — without allocating, and returns a
//! [`FragmentView`] the join reads the columns through where they lie.
//! [`view_accepted`] views bytes [`view`] already accepted again,
//! checking their structure only: a received fragment is checked once and
//! read at every visit, and a copy of it is one copy of its bytes
//! ([`PreparedFragment::from_accepted`]).

use std::fmt;

use relation::wire::{self as rw, RelationView};

use crate::hash::radix::partition_into_wire;
use crate::hash::PartitionsView;
use crate::operator::{Algorithm, FragmentView};
use crate::sort::run::sort_into_wire;

/// Tag of a plain fragment.
pub const TAG_PLAIN: u8 = 0;
/// Tag of a sorted run.
pub const TAG_SORTED: u8 = 1;
/// Tag of a radix-partitioned fragment.
pub const TAG_HASH: u8 = 2;
/// A relation inside the fragment is not a valid encoding.
pub const BAD_RELATION: &str = "relation wire format";
/// A radix-partitioned payload whose partition count claims a table
/// longer than the payload.
pub const PARTITION_TABLE_OVERRUN: &str = "partition table longer than the payload";

/// Why bytes are not a prepared fragment.
pub type WireError = &'static str;

/// Bytes of a radix-partitioned fragment ahead of its partition table:
/// tag, bits, count.
pub(crate) const HASH_HEADER: usize = 9;

/// Exact number of bytes [`encode_into`] appends for the fragment `frag`
/// views.
pub fn encoded_len<'f>(frag: impl Into<FragmentView<'f>>) -> usize {
    match frag.into() {
        FragmentView::Plain(rel) | FragmentView::Sorted(rel) => 1 + rw::encoded_len(rel.len()),
        FragmentView::HashPartitioned(parts) => {
            HASH_HEADER
                + parts
                    .partitions()
                    .map(|p| 4 + rw::encoded_len(p.len()))
                    .sum::<usize>()
        }
    }
}

/// Appends the wire bytes of the fragment `frag` views — an owned
/// reorganisation ([`crate::SortedRun`], a relation), or a fragment in
/// bytes of its own — to `out`.
pub fn encode_into<'f>(frag: impl Into<FragmentView<'f>>, out: &mut Vec<u8>) {
    let frag = frag.into();
    out.reserve(encoded_len(frag));
    match frag {
        FragmentView::Plain(rel) => {
            out.push(TAG_PLAIN);
            rw::encode_into(rel, out);
        }
        FragmentView::Sorted(run) => {
            out.push(TAG_SORTED);
            rw::encode_into(run, out);
        }
        FragmentView::HashPartitioned(parts) => {
            out.extend_from_slice(&hash_header(parts.bits()));
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

/// The tag, bits and partition count a radix-partitioned fragment of
/// `bits` radix bits starts with.
pub(crate) fn hash_header(bits: u32) -> [u8; HASH_HEADER] {
    let mut out = [TAG_HASH, 0, 0, 0, 0, 0, 0, 0, 0];
    let fields = bits
        .to_le_bytes()
        .into_iter()
        .chain((1u32 << bits).to_le_bytes());
    for (dst, byte) in out.iter_mut().skip(1).zip(fields) {
        *dst = byte;
    }
    out
}

/// A rotating fragment in its ring-transport form: the bytes [`view`]
/// reads, written once, where the fragment was reorganised
/// ([`Algorithm::prepare_fragment`]). There is no owned form beside them:
/// a ring carries these bytes, and every visit reads the columns in place
/// ([`PreparedFragment::view`]).
#[derive(Clone, PartialEq, Eq)]
pub struct PreparedFragment(Vec<u8>);

impl PreparedFragment {
    /// `alg`'s reorganisation of `r`, written straight into its wire form.
    pub(crate) fn prepare(
        alg: &Algorithm,
        r: RelationView<'_>,
        radix_bits: u32,
        threads: usize,
    ) -> Self {
        PreparedFragment::written(match alg {
            Algorithm::PartitionedHash(_) => partition_into_wire(r, radix_bits, threads),
            // The sort lands in the run's columns; its header goes last.
            Algorithm::SortMerge => {
                let mut out = vec![0; 1 + rw::encoded_len(r.len())];
                if let Some((tag, run)) = out.split_first_mut() {
                    *tag = TAG_SORTED;
                    sort_into_wire(r, threads, run);
                }
                out
            }
            // The fragment as it is: its columns copied into the bytes.
            Algorithm::NestedLoops => return PreparedFragment::from_view(FragmentView::Plain(r)),
        })
    }

    /// The fragment `view` reads, written into its wire form.
    pub fn from_view(view: FragmentView<'_>) -> Self {
        let mut out = Vec::with_capacity(encoded_len(view));
        encode_into(view, &mut out);
        PreparedFragment::written(out)
    }

    /// A copy of `bytes`, which `viewed` reads: the view [`view`] or
    /// [`view_accepted`] returned for them. One copy of the bytes; nothing
    /// walks them again.
    pub fn from_accepted(viewed: FragmentView<'_>, bytes: &[u8]) -> Self {
        debug_assert!(
            view_accepted(bytes).is_ok_and(|v| v.len() == viewed.len()),
            "the bytes a view was accepted from"
        );
        PreparedFragment(bytes.to_vec())
    }

    /// Bytes this module wrote. They view as a fragment: a bug that broke
    /// that would otherwise read as an empty one.
    fn written(bytes: Vec<u8>) -> Self {
        debug_assert!(
            view_accepted(&bytes).is_ok(),
            "prepared bytes must view as a fragment"
        );
        PreparedFragment(bytes)
    }

    /// The fragment, read in place. Only the structure is walked: these
    /// bytes were written or accepted by this module, and nobody writes to
    /// them.
    pub fn view(&self) -> FragmentView<'_> {
        view_accepted(&self.0).unwrap_or(FragmentView::Plain(RelationView::default()))
    }

    /// The wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The wire bytes, handed over.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Number of tuples in the fragment.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// True if the fragment holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical bytes that travel over a ring link when this fragment is
    /// forwarded (12 bytes per tuple; reorganisation does not change the
    /// volume, it only reorders it).
    pub fn byte_volume(&self) -> u64 {
        self.view().byte_volume()
    }
}

/// The form, the radix bits and the tuple count — not the bytes, which
/// run to hundreds of KiB.
impl fmt::Debug for PreparedFragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let view = self.view();
        let (form, bits) = match view {
            FragmentView::HashPartitioned(parts) => ("hash", parts.bits()),
            FragmentView::Sorted(_) => ("sorted", 0),
            FragmentView::Plain(_) => ("plain", 0),
        };
        f.debug_struct("PreparedFragment")
            .field("form", &form)
            .field("bits", &bits)
            .field("tuples", &view.len())
            .finish()
    }
}

impl<'a> From<&'a PreparedFragment> for FragmentView<'a> {
    fn from(fragment: &'a PreparedFragment) -> Self {
        fragment.view()
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
            let parts = PartitionsView::wire(bits, table);
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

    /// Every form is its own encoding: the bytes view as the fragment,
    /// copy out whole, and re-encode to themselves from the view.
    #[test]
    fn encoded_len_is_exact_and_views_read_every_form() {
        for (tuples, bits) in [(0, 0), (0, 3), (1, 0), (300, 3), (300, 6)] {
            for frag in forms(tuples, bits) {
                let bytes = frag.as_bytes();
                assert_eq!(bytes.len(), encoded_len(&frag));
                let viewed = view(bytes).unwrap();
                assert_eq!(viewed.len(), frag.len());
                assert_eq!(view_accepted(bytes).unwrap().len(), frag.len());
                assert_eq!(viewed.to_prepared(), frag, "a view writes its bytes again");
                assert_eq!(PreparedFragment::from_accepted(viewed, bytes), frag);
            }
        }
    }

    /// A failing assert prints what the fragment is, not its bytes.
    #[test]
    fn a_prepared_fragment_debugs_as_its_shape() {
        let [plain, sorted, hash] = <[_; 3]>::try_from(forms(300, 3)).unwrap();
        assert_eq!(
            format!("{hash:?}"),
            "PreparedFragment { form: \"hash\", bits: 3, tuples: 300 }"
        );
        assert!(format!("{sorted:?}").contains("\"sorted\", bits: 0, tuples: 300"));
        assert!(format!("{plain:?}").contains("\"plain\""));
    }

    #[test]
    fn an_accepted_view_skips_only_the_content_checks() {
        let mut bytes = forms(50, 2).remove(2).into_bytes();
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
