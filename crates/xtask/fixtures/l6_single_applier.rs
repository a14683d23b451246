//! L6 single-applier fixture — a driver file outside the applier scope
//! that grew its own `protocol::Output` handling. Expected under the
//! single-applier policy: 3 live findings, 1 suppressed.

use crate::protocol::Output; // the bare type is fine: media may name it

pub fn a_fourth_applier(out: Output<P>) {
    match out {
        Output::Send { to, .. } => send(to), // seeded violation
        Output::Ack { tid, .. } => ack(tid), // seeded violation
        other => forward(other),
    }
}

pub fn a_peek_is_still_an_applier(out: &Output<P>) -> bool {
    matches!(out, Output::Teardown { .. }) // seeded violation
}

pub fn audited(out: &Output<P>) -> bool {
    // analyze: allow(output-match, reason = "fixture: debug probe, tracked")
    matches!(out, Output::Finished { .. })
}

pub fn other_enums_named_output_like_are_ignored(x: OutputMode) -> bool {
    matches!(x, OutputMode::Aggregate)
}

#[cfg(test)]
mod tests {
    fn tests_may_build_outputs(o: Output<P>) -> bool {
        matches!(o, Output::Retire { .. })
    }
}
