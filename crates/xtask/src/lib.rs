//! Repo-native static analysis for the Data Roundabout workspace.
//!
//! `cargo run -p xtask -- analyze` runs four lints the paper's protocol
//! invariants need but `clippy` cannot express (see [`lints`] for the
//! catalogue), over a token-level model of the source ([`lexer`] +
//! [`context`]). The scoping below is *policy*: which crates promise
//! which invariants.

pub mod bench_schema;
pub mod context;
pub mod gates;
pub mod lexer;
pub mod lints;
pub mod report;

use std::path::{Path, PathBuf};

use lints::FilePolicy;
use report::{Report, UnusedAnnotation};

/// Path of the unified counter registry (the L3 source of truth),
/// relative to the workspace root.
pub const REGISTRY_PATH: &str = "crates/simnet/src/span.rs";

/// The wire formats outside `roundabout`: each reads bytes a peer sent.
const WIRE_FORMATS: [&str; 2] = ["crates/relation/src/wire.rs", "crates/joins/src/wire.rs"];

/// The `core` modules on the ring's data path, under L1.
const CORE_L1: [&str; 4] = [
    "crates/core/src/exec.rs",
    "crates/core/src/session.rs",
    "crates/core/src/concurrent.rs",
    "crates/core/src/sql.rs",
];

/// Decides which lints run on `rel` (workspace-relative path with `/`
/// separators).
///
/// - **L1 no-panic-paths**: all of `roundabout`'s library sources, the
///   `relation` and prepared-fragment (`joins`) wire formats — which read
///   untrusted bytes in place — and the `core` executor/session/
///   concurrent/sql modules — everything on the ring's data path.
/// - **L2 no-wall-clock-in-sim**: all of `simnet` plus the code a
///   virtual-time run executes — the simulated backend and the one
///   coordinator it runs on; the machine clock is read only in
///   `wall_clock.rs` and the wall-clock engines.
/// - **L3 counter-registry**: the emitters of counters — the shared
///   coordinator and the wall-clock executor — and the simulated and
///   thread backends, which emit none since every run goes through the
///   coordinator, and stay in scope so none comes back unchecked.
/// - **L4 lock-ordering**: the query session (the one place `core` nests
///   a state-slot lock over a collector lock, for every front-end on
///   every backend) and the thread backend, which takes no lock of its
///   own any more and stays in scope for the same reason.
/// - **L5 sans-io-protocol**: the shared ring-protocol core, which must
///   never grow a socket, thread, channel or clock dependency.
/// - **L6 output-match-exhaustive**: one vocabulary + one applier, both
///   in the one scoped file — the coordinator every driver runs on, which
///   holds `observe` (the one `Output` → trace mapping) and `apply` (the
///   one `Output` → IO mapping) — whose `protocol::Output` matches must
///   name every variant: a wildcard arm would let a future output
///   silently vanish from the trace or from the IO. Every other
///   `roundabout` source outside `protocol/`, the simulated backend
///   included, is under the *single-applier* rule instead: it may not
///   name an `Output::` variant at all.
pub fn policy_for(rel: &str) -> FilePolicy {
    let mut p = FilePolicy::default();
    if rel.starts_with("crates/roundabout/src/")
        || WIRE_FORMATS.contains(&rel)
        || CORE_L1.contains(&rel)
    {
        p.no_panic = true;
    }
    let applier = "crates/roundabout/src/coordinator.rs";
    let simulator = "crates/roundabout/src/sim_backend.rs";
    if rel.starts_with("crates/simnet/src/") || rel == simulator || rel == applier {
        p.no_wall_clock = true;
    }
    if [applier, simulator]
        .into_iter()
        .chain([
            "crates/roundabout/src/thread_backend.rs",
            "crates/core/src/exec.rs",
        ])
        .any(|scoped| scoped == rel)
    {
        p.counter_registry = true;
    }
    if rel == "crates/core/src/session.rs" || rel == "crates/roundabout/src/thread_backend.rs" {
        p.lock_ordering = true;
    }
    if rel.starts_with("crates/roundabout/src/protocol/") {
        p.sans_io = true;
    }
    if rel == applier {
        p.output_match = true;
    } else if rel.starts_with("crates/roundabout/src/") && !p.sans_io {
        p.single_applier = true;
    }
    p
}

/// True when any lint applies.
fn policy_is_active(p: &FilePolicy) -> bool {
    p.no_panic
        || p.no_wall_clock
        || p.counter_registry
        || p.lock_ordering
        || p.sans_io
        || p.output_match
        || p.single_applier
}

/// Analyzes the workspace rooted at `root` with the standard policy.
pub fn analyze_root(root: &Path) -> std::io::Result<Report> {
    let registry = load_registry(root);
    let mut files = Vec::new();
    for dir in ["crates/roundabout/src", "crates/simnet/src"] {
        collect_rs(&root.join(dir), &mut files)?;
    }
    for extra in WIRE_FORMATS.into_iter().chain(CORE_L1) {
        let p = root.join(extra);
        if p.is_file() {
            files.push(p);
        }
    }
    files.sort();
    files.dedup();

    let mut report = Report::default();
    for path in files {
        let rel = rel_path(root, &path);
        let policy = policy_for(&rel);
        if !policy_is_active(&policy) {
            continue;
        }
        analyze_file(&path, &policy, &registry, &mut report)?;
    }
    Ok(report)
}

/// Analyzes one explicit file list with per-file policies — the fixture
/// harness and engine tests drive this directly.
pub fn analyze_files(
    files: &[(PathBuf, FilePolicy)],
    registry: &[String],
) -> std::io::Result<Report> {
    let mut report = Report::default();
    for (path, policy) in files {
        analyze_file(path, policy, registry, &mut report)?;
    }
    Ok(report)
}

fn analyze_file(
    path: &Path,
    policy: &FilePolicy,
    registry: &[String],
    report: &mut Report,
) -> std::io::Result<()> {
    let src = std::fs::read_to_string(path)?;
    let model = context::build(lexer::lex(&src));
    let findings = lints::run_file(path, &model, policy, registry);
    report.findings.extend(findings);
    for ann in &model.annotations {
        if ann.used.get() == 0 {
            report.unused.push(UnusedAnnotation {
                file: path.to_path_buf(),
                line: ann.line,
                kind: ann.kind.clone(),
            });
        }
    }
    report.files_scanned += 1;
    Ok(())
}

/// Loads the L3 registry; a missing registry file yields an empty registry
/// (every counter literal then fails L3, which is the safe direction).
pub fn load_registry(root: &Path) -> Vec<String> {
    std::fs::read_to_string(root.join(REGISTRY_PATH))
        .map(|src| lints::parse_registry(&src))
        .unwrap_or_default()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_scopes_match_the_issue() {
        // The thread backend stays under L3/L4 though it emits no counter
        // and takes no lock: every run is a `Medium` under the shared
        // coordinator, with no output dispatch of its own, and none may
        // come back unchecked.
        let p = policy_for("crates/roundabout/src/thread_backend.rs");
        assert!(p.no_panic && p.counter_registry && p.lock_ordering && !p.no_wall_clock);
        assert!(!p.sans_io, "drivers are allowed to do IO");
        assert!(!p.output_match && p.single_applier);
        // The simulator is a medium of the coordinator: virtual time only,
        // and no applier of its own.
        let p = policy_for("crates/roundabout/src/sim_backend.rs");
        assert!(p.no_panic && p.no_wall_clock && p.counter_registry && !p.lock_ordering);
        assert!(!p.output_match, "the coordinator is the one applier");
        assert!(p.single_applier, "the simulator names no Output variant");
        // The shared coordinator: the one applier, which a virtual-time
        // run executes. On the ring's data path (L1), no wall clock (L2),
        // the counter emitter (L3), exhaustive (L6).
        let p = policy_for("crates/roundabout/src/coordinator.rs");
        assert!(p.no_panic && p.no_wall_clock && p.counter_registry && !p.lock_ordering);
        assert!(!p.sans_io, "the coordinator drives IO through its medium");
        assert!(p.output_match && !p.single_applier);
        // The wall clock's own file: the machine clock lives there.
        let p = policy_for("crates/roundabout/src/wall_clock.rs");
        assert!(p.no_panic && !p.no_wall_clock && !p.output_match && p.single_applier);
        // The socket engines and the wire format: on the data path (L1),
        // media only — no counters, no outputs.
        for media in [
            "crates/roundabout/src/tcp_backend.rs",
            "crates/roundabout/src/reactor_backend.rs",
            "crates/roundabout/src/frame.rs",
        ] {
            let p = policy_for(media);
            assert!(p.no_panic && !p.counter_registry && !p.no_wall_clock && !p.lock_ordering);
            assert!(!p.sans_io, "media are allowed to do IO");
            assert!(!p.output_match && p.single_applier, "{media}");
        }
        // The sans-IO core: L1 (it is library code) plus L5, and nothing
        // that assumes a particular driver — L6 included: the core emits
        // outputs, only drivers dispatch on them.
        let p = policy_for("crates/roundabout/src/protocol/ring.rs");
        assert!(p.no_panic && p.sans_io);
        assert!(!p.no_wall_clock && !p.counter_registry && !p.lock_ordering && !p.output_match);
        assert!(!p.single_applier, "the core defines the outputs it emits");
        let p = policy_for("crates/roundabout/src/protocol/link.rs");
        assert!(p.sans_io);
        // With a real socket backend in the tree, L5 is the wall that
        // keeps `std::net` from leaking into the shared core: every
        // protocol-layer file stays under the sans-IO ban — including
        // the elastic-membership ledger, which must stay portable
        // across all three drivers.
        for core in [
            "crates/roundabout/src/protocol/mod.rs",
            "crates/roundabout/src/protocol/host.rs",
            "crates/roundabout/src/protocol/ring.rs",
            "crates/roundabout/src/protocol/link.rs",
            "crates/roundabout/src/protocol/membership.rs",
        ] {
            let p = policy_for(core);
            assert!(p.sans_io, "{core} must ban std::net");
            assert!(p.no_panic, "{core} is on the ring's data path");
        }
        let p = policy_for("crates/core/src/sql.rs");
        assert!(p.no_panic && !p.no_wall_clock && !p.counter_registry && !p.lock_ordering);
        // The session is where `core` nests state-slot and collector
        // locks; the executor and the front-ends around it take none.
        let p = policy_for("crates/core/src/session.rs");
        assert!(p.no_panic && p.lock_ordering && !p.counter_registry);
        let p = policy_for("crates/core/src/exec.rs");
        assert!(p.no_panic && p.counter_registry && !p.lock_ordering);
        assert!(!policy_for("crates/core/src/concurrent.rs").lock_ordering);
        assert!(!policy_is_active(&policy_for(
            "crates/core/src/multiplex.rs"
        )));
        let p = policy_for("crates/simnet/src/net.rs");
        assert!(!p.no_panic && p.no_wall_clock);
        // Both wire formats outside `roundabout` read untrusted bytes.
        for wire in WIRE_FORMATS {
            let p = policy_for(wire);
            assert!(p.no_panic && !p.no_wall_clock && !p.counter_registry);
        }
        // Out of scope entirely.
        let p = policy_for("crates/relation/src/joins.rs");
        assert!(!policy_is_active(&p));
    }

    #[test]
    fn registry_loads_from_real_tree() {
        let reg = load_registry(&workspace_root());
        assert!(
            reg.iter().any(|k| k == "envelopes_sent"),
            "registry should contain the PR 2 counters, got {reg:?}"
        );
        // The elastic-membership counters all three backends emit must
        // come from the registry, or L3 flags the emission sites.
        for key in ["rescale_joins", "rescale_drains", "rescale_handoffs"] {
            assert!(
                reg.iter().any(|k| k == key),
                "registry should contain the membership counter {key}, got {reg:?}"
            );
        }
        // The reactor's inline-visit decision is counted by the coordinator.
        assert!(
            reg.iter().any(|k| k == "visits_inline"),
            "registry should contain the inline-visit counter, got {reg:?}"
        );
        // So is how a socket medium framed each live attempt: from bytes
        // it encoded (the origin's first attempt) or bytes it held.
        for key in [
            "frames_encoded",
            "frames_forwarded",
            "FRAMES_ENCODED",
            "FRAMES_FORWARDED",
        ] {
            assert!(
                reg.iter().any(|k| k == key),
                "registry should contain the frame-path counter key {key}, got {reg:?}"
            );
        }
        // The multi-tenant admission counters are emitted via their named
        // constants, so the registry must expose both spellings.
        for key in [
            "queries_admitted",
            "queries_completed",
            "QUERIES_ADMITTED",
            "QUERIES_COMPLETED",
        ] {
            assert!(
                reg.iter().any(|k| k == key),
                "registry should contain the admission counter key {key}, got {reg:?}"
            );
        }
    }
}
