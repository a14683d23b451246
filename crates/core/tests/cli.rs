//! The `cyclo` binary, run as a user would run it.

use std::process::Command;

/// `--rescale-plan` used to be read by the single-query path only: a
/// multi-tenant run ignored it and still printed "verified".
#[test]
fn multi_tenant_runs_honor_the_rescale_plan() {
    let out = Command::new(env!("CARGO_BIN_EXE_cyclo"))
        .args(["--hosts", "4", "--tuples", "4000", "--threads", "1"])
        .args(["--tenants", "2", "--backend", "threads"])
        .args(["--rescale-plan", "drain:1@0"])
        .output()
        .expect("cyclo should start");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{out:?}");
    assert!(stdout.contains("1 drain(s)"), "{stdout}");
    assert!(
        stdout.contains("verified: all 2 tenants"),
        "the drained role's matches must not be lost: {stdout}"
    );
}
