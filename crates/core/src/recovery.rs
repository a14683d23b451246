//! Elasticity and failure handling (§II-C, §VII).
//!
//! The Data Roundabout's simplicity is what makes it elastic: "a Data
//! Roundabout system can trivially be extended or shrunken … any failing
//! node can easily be replaced by another machine (or its role can be
//! taken over by some other node in the ring)". Because data placement
//! carries no workload knowledge, reacting to membership changes is pure
//! repartitioning:
//!
//! * [`absorb_host`] — a host leaves (or fails before the join starts);
//!   its stationary share is taken over by its ring successor;
//! * [`takeover`] — mid-revolution variant: the orphaned share itself,
//!   handed to the survivor that heals the ring around a crash;
//! * [`rebalance`] — re-spread all shares evenly over a new ring size
//!   (grow or shrink), the planned-elasticity path.
//!
//! All of these return typed [`RecoveryError`]s instead of panicking:
//! recovery code runs exactly when the system is already degraded, and a
//! recovery routine that aborts the process turns a survivable fault into
//! an outage.

use relation::{Relation, RelationView};

/// Why a recovery action could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// The failed host index does not exist in the partition list.
    HostOutOfRange {
        /// The host index that was claimed to have failed.
        failed: usize,
        /// Number of hosts actually in the ring.
        hosts: usize,
    },
    /// The requested action would leave the ring without any host.
    EmptyRing,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::HostOutOfRange { failed, hosts } => {
                write!(f, "host {failed} out of range ({hosts} hosts)")
            }
            RecoveryError::EmptyRing => {
                write!(f, "cannot remove the only host in the ring")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Removes `failed` from a per-host partition list, merging its share into
/// its ring successor (the paper's "role taken over by some other node").
/// Returns the new partition list, one entry shorter.
///
/// # Errors
///
/// [`RecoveryError::HostOutOfRange`] if `failed` is not a valid host and
/// [`RecoveryError::EmptyRing`] if the ring would become empty.
pub fn absorb_host(
    partitions: Vec<Relation>,
    failed: usize,
) -> Result<Vec<Relation>, RecoveryError> {
    if failed >= partitions.len() {
        return Err(RecoveryError::HostOutOfRange {
            failed,
            hosts: partitions.len(),
        });
    }
    if partitions.len() == 1 {
        return Err(RecoveryError::EmptyRing);
    }
    let successor = (failed + 1) % partitions.len();
    let mut out = Vec::with_capacity(partitions.len() - 1);
    let mut orphan = Relation::new();
    for (i, part) in partitions.into_iter().enumerate() {
        if i == failed {
            orphan = part;
        } else {
            out.push((i, part));
        }
    }
    for (i, part) in &mut out {
        if *i == successor {
            part.extend_from(&orphan);
        }
    }
    Ok(out.into_iter().map(|(_, part)| part).collect())
}

/// The mid-revolution takeover: returns the stationary share orphaned by
/// `failed` — a view of the columns it lies in, not a copy — for the ring
/// survivor that absorbs the dead host's role while the rotation is still
/// in progress. Unlike [`absorb_host`] this does not reshape the
/// partition list — during ring healing the logical roles keep their
/// identities (the exactly-once ledger is per role), only their placement
/// changes.
///
/// # Errors
///
/// [`RecoveryError::HostOutOfRange`] if `failed` is not a valid host and
/// [`RecoveryError::EmptyRing`] if there is no other host left to take
/// the share over.
pub fn takeover<'a>(
    partitions: &[RelationView<'a>],
    failed: usize,
) -> Result<RelationView<'a>, RecoveryError> {
    if partitions.len() == 1 && failed < partitions.len() {
        return Err(RecoveryError::EmptyRing);
    }
    partitions
        .get(failed)
        .copied()
        .ok_or(RecoveryError::HostOutOfRange {
            failed,
            hosts: partitions.len(),
        })
}

/// Re-spreads the union of `partitions` evenly over `new_hosts` hosts —
/// growing or shrinking the ring "as application workloads demand" (§VII).
///
/// # Errors
///
/// [`RecoveryError::EmptyRing`] if `new_hosts` is zero.
pub fn rebalance(
    partitions: &[Relation],
    new_hosts: usize,
) -> Result<Vec<Relation>, RecoveryError> {
    if new_hosts == 0 {
        return Err(RecoveryError::EmptyRing);
    }
    let mut all = Relation::new();
    for p in partitions {
        all.extend_from(p);
    }
    Ok(all.split_even(new_hosts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{relation_checksum, GenSpec};

    fn parts() -> Vec<Relation> {
        GenSpec::uniform(6_000, 1).generate().split_even(4)
    }

    #[test]
    fn absorb_preserves_all_tuples() {
        let original = parts();
        let before: usize = original.iter().map(Relation::len).sum();
        let whole: Relation = {
            let mut r = Relation::new();
            for p in &original {
                r.extend_from(p);
            }
            r
        };
        let after = absorb_host(original, 2).unwrap();
        assert_eq!(after.len(), 3);
        assert_eq!(after.iter().map(Relation::len).sum::<usize>(), before);
        let mut merged = Relation::new();
        for p in &after {
            merged.extend_from(p);
        }
        assert_eq!(relation_checksum(&merged), relation_checksum(&whole));
    }

    #[test]
    fn successor_takes_over_the_share() {
        let original = parts();
        let failed_len = original[1].len();
        let successor_len = original[2].len();
        let after = absorb_host(original, 1).unwrap();
        // After removal, index 1 of the new list is the old host 2.
        assert_eq!(after[1].len(), successor_len + failed_len);
    }

    #[test]
    fn last_host_wraps_to_first() {
        let original = parts();
        let failed_len = original[3].len();
        let first_len = original[0].len();
        let after = absorb_host(original, 3).unwrap();
        assert_eq!(after[0].len(), first_len + failed_len);
    }

    #[test]
    fn cannot_empty_the_ring() {
        let single = vec![GenSpec::uniform(10, 0).generate()];
        assert_eq!(absorb_host(single, 0), Err(RecoveryError::EmptyRing));
    }

    #[test]
    fn out_of_range_host_is_a_typed_error() {
        let err = absorb_host(parts(), 9).unwrap_err();
        assert_eq!(
            err,
            RecoveryError::HostOutOfRange {
                failed: 9,
                hosts: 4
            }
        );
        assert!(err.to_string().contains("host 9 out of range"));
    }

    #[test]
    fn takeover_returns_the_orphaned_share() {
        let input = GenSpec::uniform(6_000, 1).generate();
        let original = RelationView::from(&input).split_even(4);
        let share = takeover(&original, 2).unwrap();
        assert_eq!(
            relation_checksum(share),
            relation_checksum(original[2]),
            "the survivor receives exactly the dead host's share"
        );
        // … where it lies: the caller's columns, not a copy of them.
        assert!(!share.is_empty());
        assert!(crate::distribute::tests::aliases(&share, &input));
        assert_eq!(takeover(&original[..1], 0), Err(RecoveryError::EmptyRing));
        assert!(matches!(
            takeover(&original, 4),
            Err(RecoveryError::HostOutOfRange {
                failed: 4,
                hosts: 4
            })
        ));
    }

    #[test]
    fn rebalance_grows_and_shrinks_evenly() {
        let original = parts();
        let total: usize = original.iter().map(Relation::len).sum();
        for new_hosts in [1, 2, 6, 9] {
            let re = rebalance(&original, new_hosts).unwrap();
            assert_eq!(re.len(), new_hosts);
            assert_eq!(re.iter().map(Relation::len).sum::<usize>(), total);
            let max = re.iter().map(Relation::len).max().unwrap();
            let min = re.iter().map(Relation::len).min().unwrap();
            assert!(max - min <= 1, "rebalance must be even");
        }
    }

    #[test]
    fn rebalance_to_zero_hosts_is_rejected() {
        assert_eq!(rebalance(&parts(), 0), Err(RecoveryError::EmptyRing));
    }
}
