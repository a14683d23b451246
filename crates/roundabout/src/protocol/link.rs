//! Per-hop retransmission policy: when an expired timer becomes a
//! retransmission, when it exhausts the budget, and how fast the backoff
//! grows.
//!
//! Every backend runs the same acked stop-and-wait protocol over each hop,
//! and [`super::RingProtocol`] is its one implementation (sequence
//! stamping, checksum and duplicate classification live in its transfer
//! ledger); these pure functions are the timing policy it calls. The
//! mechanism (wall clocks on the live backends, virtual-time events on the
//! simulator) stays with the drivers.

/// Cap on the exponential-backoff exponent: beyond attempt 21 the
/// retransmission timeout stays at `ack_timeout × 2^20` instead of
/// overflowing.
pub const BACKOFF_CAP: u32 = 20;

/// Backoff exponent for a send attempt: attempt 1 waits one base
/// timeout, attempt `a` waits `2^(a−1)` of them, capped at
/// [`BACKOFF_CAP`]. Drivers compute the actual duration as
/// `ack_timeout × 2^exp` in their own clock.
pub fn backoff_exponent(attempt: u32) -> u32 {
    attempt.saturating_sub(1).min(BACKOFF_CAP)
}

/// Verdict when a retransmission timer fires with the transfer still
/// unacknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutVerdict {
    /// Retry: retransmit as attempt `attempt`, re-arming the timer with
    /// `backoff_exp`.
    Retry {
        /// The attempt number of the retransmission about to happen.
        attempt: u32,
        /// Backoff exponent for the re-armed timer.
        backoff_exp: u32,
    },
    /// The budget is spent: on a ring where the peer is known alive this
    /// is fatal; with a failure detector it confirms the peer dead.
    Exhausted,
}

/// Decides what an expired retransmission timer means, given the attempt
/// it was armed for and the configured budget: the ring protocol's
/// retransmission and failure-detection rule.
pub fn on_timeout(attempt: u32, max_retransmits: u32) -> TimeoutVerdict {
    if attempt > max_retransmits {
        TimeoutVerdict::Exhausted
    } else {
        let next = attempt + 1;
        TimeoutVerdict::Retry {
            attempt: next,
            backoff_exp: backoff_exponent(next),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_exponent(1), 0);
        assert_eq!(backoff_exponent(2), 1);
        assert_eq!(backoff_exponent(5), 4);
        assert_eq!(backoff_exponent(100), BACKOFF_CAP);
    }

    #[test]
    fn budget_exhausts_after_max_retransmits() {
        assert!(matches!(
            on_timeout(1, 3),
            TimeoutVerdict::Retry { attempt: 2, .. }
        ));
        assert!(matches!(on_timeout(3, 3), TimeoutVerdict::Retry { .. }));
        assert_eq!(on_timeout(4, 3), TimeoutVerdict::Exhausted);
    }
}
