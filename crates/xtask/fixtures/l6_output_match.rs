//! L6 fixture — seeded wildcard arms in `protocol::Output` dispatch
//! matches, in an applier loop and in a trace vocabulary alike. Expected
//! under the L6 policy: 3 live findings, 1 suppressed.

pub fn drive_with_a_catch_all(out: Output) {
    match out {
        Output::Send { to, .. } => send(to),
        Output::Delivered { host, id } => log(host, id),
        _ => {} // seeded violation: swallows any future output
    }
}

pub fn drive_with_a_guarded_catch_all(out: Output) {
    let n = match out {
        Output::Ack { .. } => 1,
        _ if quiet() => 0, // seeded violation: the guard does not excuse it
        Output::Retire(id) => id,
    };
    drop(n);
}

pub fn observe_with_a_catch_all(tracer: &mut Tracer, out: &Output) {
    let name = match out {
        Output::Retire { id, .. } => format!("retired {id}"),
        _ => return, // seeded violation: a new output would never be traced
    };
    tracer.event(name);
}

pub fn audited(out: Output) {
    match out {
        Output::Teardown(why) => fail(why),
        _ => {} // analyze: allow(output-match, reason = "fixture: migration shim, tracked")
    }
}

pub fn non_output_matches_are_ignored(x: Option<u8>) {
    // A wildcard over a foreign enum is rustc's business, not L6's.
    match x {
        Some(v) => drop(v),
        _ => {}
    }
}

pub fn nested_underscores_are_bindings_not_wildcards(out: Output) {
    match out {
        Output::Send { to: _, .. } => bump(),
        Output::Delivered { .. } => bump(),
        Output::Ack { .. } => bump(),
        Output::Retire(_) => bump(),
        Output::Teardown(_) => bump(),
    }
}
