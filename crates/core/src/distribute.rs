//! Spreading the input relations over the ring (§IV-A).
//!
//! Cyclo-join assumes both inputs are already distributed before the join
//! starts — "we do not care how the data is distributed, but we assume that
//! the distribution of at least S is reasonably even". The default
//! placement splits both sides into even contiguous chunks; the rotating
//! side is further cut into per-host fragments (the rotation units that
//! will each fill one ring-buffer element).
//!
//! A placement is a set of views ([`RelationView`]): each host's
//! stationary share and each rotating fragment is a range of the caller's
//! `R` and `S` columns, and placing copies no tuple. "Already distributed"
//! is therefore literal — a host's share lies where the caller keeps it,
//! and setup reads it there. What a ring must carry is copied later, when
//! a fragment is put in its transport form (`Session::admit`).

use relation::RelationView;
use serde::{Deserialize, Serialize};

/// Which relation circulates in the ring while the other stays put.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RotateSide {
    /// Rotate `R`, keep `S` stationary (the paper's description).
    R,
    /// Rotate `S`, keep `R` stationary.
    S,
    /// Rotate whichever relation is smaller — "this may be easier to
    /// achieve if the smaller of the two input relations is chosen as the
    /// one that is kept rotating" (§IV-B).
    #[default]
    Auto,
}

impl RotateSide {
    /// Resolves `Auto` against the actual input sizes. Returns `true` when
    /// the logical `S` is the side that rotates.
    pub fn rotates_s(&self, r_tuples: usize, s_tuples: usize) -> bool {
        match self {
            RotateSide::R => false,
            RotateSide::S => true,
            RotateSide::Auto => s_tuples < r_tuples,
        }
    }
}

/// The physical placement of one cyclo-join run: views of the inputs,
/// which it borrows.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement<'a> {
    /// Stationary partition per host.
    pub stationary: Vec<RelationView<'a>>,
    /// Rotating fragments per host (each inner vec holds that host's
    /// locally originating rotation units).
    pub rotating: Vec<Vec<RelationView<'a>>>,
    /// True if the logical `S` is the rotating side (sides were swapped).
    pub swapped: bool,
}

impl<'a> Placement<'a> {
    /// Builds a placement: the rotating side is chunked evenly over hosts
    /// and then into `fragments_per_host` rotation units each; the
    /// stationary side is chunked evenly over hosts. `r` and `s` are
    /// relations or views of their columns; nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` or `fragments_per_host` is zero.
    pub fn new(
        r: impl Into<RelationView<'a>>,
        s: impl Into<RelationView<'a>>,
        hosts: usize,
        fragments_per_host: usize,
        rotate: RotateSide,
    ) -> Self {
        Placement::with_standbys(r, s, hosts, fragments_per_host, rotate, 0)
    }

    /// Like [`Placement::new`], but the hosts whose bits are set in
    /// `standby` start *outside* the ring (a planned rescale will activate
    /// them later): they own no stationary partition and contribute no
    /// rotating fragments, so both sides spread over the initial members
    /// only. Their slots stay in the vectors (empty) to keep host indices
    /// stable.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` or `fragments_per_host` is zero, or if every host
    /// is a standby.
    pub fn with_standbys(
        r: impl Into<RelationView<'a>>,
        s: impl Into<RelationView<'a>>,
        hosts: usize,
        fragments_per_host: usize,
        rotate: RotateSide,
        standby: u64,
    ) -> Self {
        assert!(hosts > 0, "placement needs at least one host");
        assert!(
            fragments_per_host > 0,
            "placement needs at least one fragment per host"
        );
        let is_standby = |h: usize| h < 64 && standby & (1u64 << h) != 0;
        let members = (0..hosts).filter(|&h| !is_standby(h)).count();
        assert!(members > 0, "placement needs at least one initial member");
        let (r, s) = (r.into(), s.into());
        let swapped = rotate.rotates_s(r.len(), s.len());
        let (rotating_rel, stationary_rel) = if swapped { (s, r) } else { (r, s) };
        let mut member_stationary = stationary_rel.split_even(members).into_iter();
        let mut member_rotating = rotating_rel.split_even(members).into_iter();
        let mut stationary = Vec::with_capacity(hosts);
        let mut rotating = Vec::with_capacity(hosts);
        for h in 0..hosts {
            if is_standby(h) {
                stationary.push(RelationView::default());
                rotating.push(Vec::new());
            } else {
                stationary.push(member_stationary.next().unwrap_or_default());
                rotating.push(
                    member_rotating
                        .next()
                        .unwrap_or_default()
                        .split_even(fragments_per_host),
                );
            }
        }
        Placement {
            stationary,
            rotating,
            swapped,
        }
    }

    /// Number of hosts the placement covers.
    pub fn hosts(&self) -> usize {
        self.stationary.len()
    }

    /// Total rotating tuples across all fragments.
    pub fn rotating_tuples(&self) -> usize {
        self.rotating
            .iter()
            .flat_map(|frags| frags.iter())
            .map(RelationView::len)
            .sum()
    }

    /// Total stationary tuples across all hosts.
    pub fn stationary_tuples(&self) -> usize {
        self.stationary.iter().map(RelationView::len).sum()
    }

    /// The largest stationary partition — what the ring-wide radix fan-out
    /// must be sized for.
    pub fn max_stationary_tuples(&self) -> usize {
        self.stationary
            .iter()
            .map(RelationView::len)
            .max()
            .unwrap_or(0)
    }

    /// The largest single rotation unit in bytes — what each ring-buffer
    /// element must be sized for.
    pub fn max_fragment_bytes(&self) -> u64 {
        self.rotating
            .iter()
            .flat_map(|frags| frags.iter())
            .map(RelationView::byte_volume)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use relation::{Columns, GenSpec, Relation};

    /// True if `inner` lies inside `outer`'s memory (an empty `inner`
    /// holds nothing, wherever it points).
    fn within<T>(inner: &[T], outer: &[T]) -> bool {
        let (inner, outer) = (inner.as_ptr_range(), outer.as_ptr_range());
        inner.is_empty() || (outer.start <= inner.start && inner.end <= outer.end)
    }

    /// True if `view` is a range of `rel`'s own columns: read in place,
    /// not copied.
    pub(crate) fn aliases(view: &RelationView<'_>, rel: &Relation) -> bool {
        match view.columns() {
            Columns::Native(keys, payloads) => {
                within(keys, rel.keys()) && within(payloads, rel.payloads())
            }
            Columns::Wire(..) => false,
        }
    }

    /// Checks one placement of `r ⋈ s` against its definition: every
    /// share and fragment is a range of the caller's columns; read in
    /// host and fragment order they are the input, tuple for tuple; and
    /// they cut it exactly where `Relation::split_even` (the copying
    /// split, kept as the reference) cuts it.
    fn check_placement(
        r: &Relation,
        s: &Relation,
        hosts: usize,
        fragments: usize,
        rotate: RotateSide,
        standby: u64,
    ) {
        let p = Placement::with_standbys(r, s, hosts, fragments, rotate, standby);
        let (rotating, stationary) = if p.swapped { (s, r) } else { (r, s) };
        let is_standby = |h: usize| standby & (1u64 << h) != 0;
        let members = (0..hosts).filter(|&h| !is_standby(h)).count();
        let mut stationary_ref = stationary.split_even(members).into_iter();
        let mut rotating_ref = rotating.split_even(members).into_iter();
        let (mut stationary_read, mut rotating_read) = (Vec::new(), Vec::new());
        for h in 0..hosts {
            let share = &p.stationary[h];
            assert!(aliases(share, stationary), "host {h}'s share is a copy");
            stationary_read.extend(share.iter());
            if is_standby(h) {
                assert!(share.is_empty() && p.rotating[h].is_empty());
                continue;
            }
            let reference = stationary_ref.next().unwrap();
            assert_eq!(*share, RelationView::from(&reference), "host {h}'s share");
            let local = rotating_ref.next().unwrap().split_even(fragments);
            assert_eq!(p.rotating[h].len(), fragments);
            for (f, (fragment, reference)) in p.rotating[h].iter().zip(&local).enumerate() {
                assert!(aliases(fragment, rotating), "fragment {h}.{f} is a copy");
                assert_eq!(*fragment, RelationView::from(reference), "fragment {h}.{f}");
                rotating_read.extend(fragment.iter());
            }
        }
        assert!(stationary_read.into_iter().eq(stationary.iter()));
        assert!(rotating_read.into_iter().eq(rotating.iter()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// A placement is views of the caller's columns that cover them
        /// exactly, in order, cut where `Relation::split_even` cuts:
        /// any input length 0–5 000, 1–9 hosts, 1–6 fragments per host,
        /// any standby mask that leaves a member, either side rotating.
        #[test]
        fn a_placement_aliases_its_input_and_covers_it_exactly(
            r_len in 0usize..5_001,
            s_len in 0usize..5_001,
            hosts in 1usize..10,
            fragments in 1usize..7,
            mask in proptest::prelude::any::<u64>(),
            rotate in 0u8..3,
        ) {
            let r = GenSpec::uniform(r_len, mask).generate();
            let s = GenSpec::uniform(s_len, mask ^ 1).generate();
            let rotate = [RotateSide::R, RotateSide::S, RotateSide::Auto][rotate as usize];
            let all = (1u64 << hosts) - 1;
            // Host 0 stays a member when the mask would leave none.
            let standby = match mask & all {
                m if m == all => m & !1,
                m => m,
            };
            check_placement(&r, &s, hosts, fragments, rotate, standby);
        }
    }

    #[test]
    fn placement_conserves_tuples() {
        let r = GenSpec::uniform(10_000, 1).generate();
        let s = GenSpec::uniform(8_000, 2).generate();
        let p = Placement::new(&r, &s, 6, 2, RotateSide::R);
        assert_eq!(p.rotating_tuples(), 10_000);
        assert_eq!(p.stationary_tuples(), 8_000);
        assert_eq!(p.hosts(), 6);
        assert_eq!(p.rotating.len(), 6);
        assert_eq!(p.rotating[0].len(), 2);
        assert!(!p.swapped);
    }

    #[test]
    fn auto_rotates_the_smaller_side() {
        let big = GenSpec::uniform(10_000, 1).generate();
        let small = GenSpec::uniform(1_000, 2).generate();
        // R big, S small → S rotates.
        let p = Placement::new(&big, &small, 3, 2, RotateSide::Auto);
        assert!(p.swapped);
        assert_eq!(p.rotating_tuples(), 1_000);
        assert_eq!(p.stationary_tuples(), 10_000);
        // R small, S big → R rotates.
        let p = Placement::new(&small, &big, 3, 2, RotateSide::Auto);
        assert!(!p.swapped);
        assert_eq!(p.rotating_tuples(), 1_000);
    }

    #[test]
    fn forced_sides_are_honoured() {
        let r = GenSpec::uniform(100, 1).generate();
        let s = GenSpec::uniform(10_000, 2).generate();
        let p = Placement::new(&r, &s, 2, 1, RotateSide::S);
        assert!(p.swapped);
        assert_eq!(p.rotating_tuples(), 10_000);
    }

    #[test]
    fn stationary_is_reasonably_even() {
        let r = GenSpec::uniform(1_000, 1).generate();
        let s = GenSpec::uniform(9_999, 2).generate();
        let p = Placement::new(&r, &s, 4, 2, RotateSide::R);
        let sizes: Vec<usize> = p.stationary.iter().map(RelationView::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 9_999);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        assert_eq!(p.max_stationary_tuples(), 2_500);
    }

    #[test]
    fn fragment_sizing_reported() {
        let r = GenSpec::uniform(1_200, 1).generate();
        let s = GenSpec::uniform(1_200, 2).generate();
        let p = Placement::new(&r, &s, 3, 2, RotateSide::R);
        // 1200 / 3 hosts / 2 fragments = 200 tuples = 2400 bytes.
        assert_eq!(p.max_fragment_bytes(), 2_400);
    }

    #[test]
    fn single_host_single_fragment() {
        let r = GenSpec::uniform(50, 1).generate();
        let s = GenSpec::uniform(50, 2).generate();
        let p = Placement::new(&r, &s, 1, 1, RotateSide::R);
        assert_eq!(p.rotating[0].len(), 1);
        assert_eq!(p.rotating[0][0].len(), 50);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn zero_hosts_rejected() {
        let r = Relation::new();
        let _ = Placement::new(&r, &r, 0, 1, RotateSide::R);
    }

    #[test]
    fn standby_slots_stay_empty() {
        let r = GenSpec::uniform(1_200, 1).generate();
        let s = GenSpec::uniform(900, 2).generate();
        let p = Placement::with_standbys(&r, &s, 3, 2, RotateSide::R, 0b100);
        assert_eq!(p.hosts(), 3);
        assert_eq!(p.stationary[2].len(), 0, "a standby owns no partition");
        assert!(p.rotating[2].is_empty(), "a standby ships no fragments");
        // Nothing is lost: both sides spread over the two initial members.
        assert_eq!(p.rotating_tuples(), 1_200);
        assert_eq!(p.stationary_tuples(), 900);
        assert!(p.stationary[0].len().abs_diff(p.stationary[1].len()) <= 1);
        // No standbys degenerates to the plain placement.
        let plain = Placement::with_standbys(&r, &s, 3, 2, RotateSide::R, 0);
        assert_eq!(plain, Placement::new(&r, &s, 3, 2, RotateSide::R));
    }

    #[test]
    #[should_panic(expected = "at least one initial member")]
    fn all_standby_rejected() {
        let r = GenSpec::uniform(10, 1).generate();
        let _ = Placement::with_standbys(&r, &r, 2, 1, RotateSide::R, 0b11);
    }
}
