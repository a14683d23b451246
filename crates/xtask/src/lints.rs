//! The repo-native lints.
//!
//! | id | name               | invariant |
//! |----|--------------------|-----------|
//! | L1 | `no-panic-paths`   | library code of the ring/wire/exec layers returns typed errors instead of panicking: no `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` and no slice indexing outside `#[cfg(test)]` |
//! | L2 | `no-wall-clock-in-sim` | the simulator is virtual-time only: `std::time::Instant` / `SystemTime` are banned in `simnet`, the simulated backend and the coordinator it runs on |
//! | L3 | `counter-registry` | every counter name incremented in the backends is a key of the unified registry in `simnet::span::counter` |
//! | L4 | `lock-ordering`    | nested lock acquisitions respect the declared lock-order table |
//! | L5 | `sans-io-protocol` | the protocol core stays sans-IO: no `std::net`, `std::thread`, `crate::sync` or `simnet::time` paths and no `spawn` calls in `crates/roundabout/src/protocol/` |
//! | L6 | `output-match-exhaustive` | one vocabulary + one applier, both in the one scoped file (`coordinator.rs`): `coordinator::observe` (what an output looks like in a trace) and `Coordinator::apply` (what IO it asks for, on every clock) dispatch on `protocol::Output` without a wildcard `_` arm — every output variant is handled explicitly, so a new output fails the build instead of vanishing into a catch-all — and no other `roundabout` file outside `protocol/`, the simulated backend included, names an `Output::` variant at all, so neither a second applier nor a second vocabulary can come back |
//!
//! A finding can be suppressed by `// analyze: allow(<lint>, reason = "…")`
//! on the same line, the line above, or above the enclosing `fn` header
//! (function scope). Suppressions are tallied and reported; an *unused*
//! annotation is itself a finding, so stale allows cannot accumulate.

use std::path::{Path, PathBuf};

use crate::context::FileModel;
use crate::lexer::TokKind;

/// Lint identifiers (also the annotation kinds, see
/// [`crate::context::KNOWN_LINTS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// L1 — no panic paths in library code.
    NoPanicPaths,
    /// L2 — no wall clock in simulator code.
    NoWallClockInSim,
    /// L3 — counter names must come from the unified registry.
    CounterRegistry,
    /// L4 — nested locks respect the declared order.
    LockOrdering,
    /// L5 — the protocol core is sans-IO: no sockets, threads, channels
    /// or clocks.
    SansIo,
    /// L6 — driver matches over `protocol::Output` have no wildcard arm.
    OutputMatch,
}

impl Lint {
    /// Short id shown in reports.
    pub fn id(self) -> &'static str {
        match self {
            Lint::NoPanicPaths => "L1",
            Lint::NoWallClockInSim => "L2",
            Lint::CounterRegistry => "L3",
            Lint::LockOrdering => "L4",
            Lint::SansIo => "L5",
            Lint::OutputMatch => "L6",
        }
    }

    /// The annotation kind that suppresses this lint.
    pub fn allow_kind(self) -> &'static str {
        match self {
            Lint::NoPanicPaths => "panic",
            Lint::NoWallClockInSim => "wall-clock",
            Lint::CounterRegistry => "counter",
            Lint::LockOrdering => "lock-order",
            Lint::SansIo => "sans-io",
            Lint::OutputMatch => "output-match",
        }
    }

    /// Human name shown in reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoPanicPaths => "no-panic-paths",
            Lint::NoWallClockInSim => "no-wall-clock-in-sim",
            Lint::CounterRegistry => "counter-registry",
            Lint::LockOrdering => "lock-ordering",
            Lint::SansIo => "sans-io-protocol",
            Lint::OutputMatch => "output-match-exhaustive",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// `Some(reason)` when an `analyze: allow` annotation suppressed it.
    pub suppressed: Option<String>,
}

/// Which lints apply to one file, plus lint-specific configuration.
#[derive(Debug, Clone, Default)]
pub struct FilePolicy {
    /// Run L1 on this file.
    pub no_panic: bool,
    /// Run L2 on this file.
    pub no_wall_clock: bool,
    /// Run L3 on this file.
    pub counter_registry: bool,
    /// Run L4 on this file.
    pub lock_ordering: bool,
    /// Run L5 on this file.
    pub sans_io: bool,
    /// Run L6 on this file.
    pub output_match: bool,
    /// Run L6's single-applier rule on this file: it is a driver file
    /// *outside* the L6 scope and must not name `Output::` variants.
    pub single_applier: bool,
}

/// The declared lock-order table for L4: a lock of class `i` may be
/// acquired while holding locks of classes `< i` only. Classes are matched
/// by substring against the receiver identifier of a `.lock()` call;
/// receivers matching no class are ignored. Nested acquisition within the
/// *same* class is always a violation (self-deadlock risk).
///
/// Order in this repo: a stationary role's state `slot` (held for a whole
/// join so a takeover cannot swap the state mid-visit) comes first in the
/// query session (`core::session`); per-host
/// `collector` locks (leaf work under the join) are taken under it and
/// *before* the shared span `tracer` lock — a thread holding the tracer
/// must never wait on a collector, because collectors are held across
/// whole join calls while the tracer is a short-critical-section sink
/// every entity contends on.
pub const LOCK_ORDER: &[(&str, &[&str])] = &[
    ("state-slot", &["slot"]),
    ("collector", &["collector"]),
    ("tracer", &["tracer", "spans"]),
];

/// Runs the configured lints for one file.
pub fn run_file(
    path: &Path,
    model: &FileModel,
    policy: &FilePolicy,
    registry: &[String],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if policy.no_panic {
        l1_no_panic(path, model, &mut findings);
    }
    if policy.no_wall_clock {
        l2_no_wall_clock(path, model, &mut findings);
    }
    if policy.counter_registry {
        l3_counter_registry(path, model, registry, &mut findings);
    }
    if policy.lock_ordering {
        l4_lock_ordering(path, model, &mut findings);
    }
    if policy.sans_io {
        l5_sans_io(path, model, &mut findings);
    }
    if policy.output_match {
        l6_output_match(path, model, &mut findings);
    }
    if policy.single_applier {
        l6_single_applier(path, model, &mut findings);
    }
    // Malformed annotations are findings of the lint they tried to touch
    // (reported unsuppressable — a broken allow cannot allow itself).
    for bad in &model.malformed {
        findings.push(Finding {
            lint: Lint::NoPanicPaths,
            file: path.to_path_buf(),
            line: bad.line,
            message: format!("malformed analyze annotation: {}", bad.problem),
            suppressed: None,
        });
    }
    findings
}

/// Emits a finding, consulting annotations for suppression.
fn emit(
    findings: &mut Vec<Finding>,
    model: &FileModel,
    lint: Lint,
    path: &Path,
    line: u32,
    message: String,
) {
    let suppressed = model.annotation_for(lint.allow_kind(), line).map(|a| {
        a.used.set(a.used.get() + 1);
        a.reason.clone()
    });
    findings.push(Finding {
        lint,
        file: path.to_path_buf(),
        line,
        message,
        suppressed,
    });
}

/// L1: `unwrap()` / `expect(` / panic-family macros / slice indexing in
/// non-test code.
fn l1_no_panic(path: &Path, model: &FileModel, findings: &mut Vec<Finding>) {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let toks = &model.tokens;
    for i in 0..toks.len() {
        if model.in_test[i] {
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` / `.expect(` — method-call position only (a `fn
        // unwrap` definition or a standalone `unwrap` path is not a call).
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let what = if t.text == "unwrap" {
                ".unwrap()".to_string()
            } else {
                ".expect(…)".to_string()
            };
            let ctx = model
                .enclosing_fn(t.line)
                .map(|f| format!(" in fn {f}"))
                .unwrap_or_default();
            emit(
                findings,
                model,
                Lint::NoPanicPaths,
                path,
                t.line,
                format!("{what}{ctx}: return a typed error instead"),
            );
            continue;
        }
        // panic-family macros.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            let ctx = model
                .enclosing_fn(t.line)
                .map(|f| format!(" in fn {f}"))
                .unwrap_or_default();
            emit(
                findings,
                model,
                Lint::NoPanicPaths,
                path,
                t.line,
                format!("{}!(…){ctx}: return a typed error instead", t.text),
            );
            continue;
        }
        // Slice/array indexing: `expr[` where expr ends in an identifier,
        // closing bracket/paren, or a literal (tuple-field chains). The
        // previous token rules exclude `#[attr]`, `vec![…]`, slice
        // patterns and array type syntax.
        if t.is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !is_keyword(&prev.text),
                TokKind::Punct(c) => c == ')' || c == ']',
                TokKind::Num => true,
                _ => false,
            };
            if indexes {
                let ctx = model
                    .enclosing_fn(t.line)
                    .map(|f| format!(" in fn {f}"))
                    .unwrap_or_default();
                emit(
                    findings,
                    model,
                    Lint::NoPanicPaths,
                    path,
                    t.line,
                    format!(
                        "slice indexing `{}[…]`{ctx}: use .get()/iterators or a checked helper",
                        prev.text
                    ),
                );
            }
        }
    }
}

/// Keywords that can directly precede `[` without forming an indexing
/// expression (`return [a, b]`, `match x { … => [0, 1] }`, …).
fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "return"
            | "break"
            | "in"
            | "if"
            | "else"
            | "match"
            | "as"
            | "mut"
            | "ref"
            | "move"
            | "const"
            | "static"
            | "dyn"
            | "impl"
            | "where"
            | "let"
            | "box"
            | "yield"
    )
}

/// L2: wall-clock types in virtual-time code.
fn l2_no_wall_clock(path: &Path, model: &FileModel, findings: &mut Vec<Finding>) {
    for (i, t) in model.tokens.iter().enumerate() {
        if model.in_test[i] {
            continue;
        }
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            let ctx = model
                .enclosing_fn(t.line)
                .map(|f| format!(" in fn {f}"))
                .unwrap_or_default();
            emit(
                findings,
                model,
                Lint::NoWallClockInSim,
                path,
                t.line,
                format!(
                    "`{}`{ctx}: simulator code must use virtual SimTime/SimDuration only",
                    t.text
                ),
            );
        }
    }
}

/// L3: string literals passed to `.count("…", …)` must be registry keys.
fn l3_counter_registry(
    path: &Path,
    model: &FileModel,
    registry: &[String],
    findings: &mut Vec<Finding>,
) {
    let toks = &model.tokens;
    for i in 0..toks.len() {
        if model.in_test[i] {
            continue;
        }
        // `.count(` followed immediately by a string literal.
        if toks[i].is_ident("count")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Str && !registry.contains(&arg.text) {
                    emit(
                        findings,
                        model,
                        Lint::CounterRegistry,
                        path,
                        arg.line,
                        format!(
                            "counter {:?} is not in the unified registry \
                             (simnet::span::counter) — add a named constant there",
                            arg.text
                        ),
                    );
                }
                // `.count(counter::NAME, …)` — the named-constant spelling
                // (the per-query admission counters are emitted this way):
                // NAME must be a constant of the registry module.
                if arg.is_ident("counter") {
                    let mut j = i + 3;
                    while toks.get(j).is_some_and(|t| t.is_punct(':')) {
                        j += 1;
                    }
                    if let Some(name) = toks
                        .get(j)
                        .filter(|n| n.kind == TokKind::Ident && j > i + 3)
                    {
                        if !registry.contains(&name.text) {
                            emit(
                                findings,
                                model,
                                Lint::CounterRegistry,
                                path,
                                name.line,
                                format!(
                                    "counter constant `counter::{}` is not defined in the \
                                     unified registry (simnet::span::counter)",
                                    name.text
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// L4: lock acquisitions against the declared [`LOCK_ORDER`] table.
///
/// A `.lock()` receiver is classified by the identifier chain immediately
/// before the call (substring match against the table). A guard is treated
/// as live until the brace depth drops below its acquisition depth —
/// coarse (a `drop(guard)` is invisible), but strictly conservative for
/// ordering: it can only flag extra nesting, never miss real block nesting.
fn l4_lock_ordering(path: &Path, model: &FileModel, findings: &mut Vec<Finding>) {
    let toks = &model.tokens;
    let mut depth: isize = 0;
    // Held locks: (class index, acquisition depth, receiver name, line).
    let mut held: Vec<(usize, isize, String, u32)> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            held.retain(|&(_, d, _, _)| d <= depth);
            continue;
        }
        if model.in_test[i] {
            continue;
        }
        let is_lock_call = t.is_ident("lock")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !is_lock_call {
            continue;
        }
        let Some(receiver) = receiver_ident(toks, i - 1) else {
            continue;
        };
        let Some(class) = classify_lock(&receiver) else {
            continue;
        };
        for &(held_class, _, ref held_recv, held_line) in &held {
            if class <= held_class {
                let (class_name, _) = LOCK_ORDER[class];
                let (held_name, _) = LOCK_ORDER[held_class];
                emit(
                    findings,
                    model,
                    Lint::LockOrdering,
                    path,
                    t.line,
                    format!(
                        "acquiring `{receiver}` (class `{class_name}`) while holding \
                         `{held_recv}` (class `{held_name}`, line {held_line}) violates the \
                         declared lock order {:?}",
                        LOCK_ORDER.iter().map(|&(n, _)| n).collect::<Vec<_>>()
                    ),
                );
            }
        }
        held.push((class, depth, receiver, t.line));
    }
}

/// Walks back from the `.` of `.lock()` to the receiver's last identifier,
/// skipping a balanced `[...]` index chain (`pool[h].lock()` → `pool`).
fn receiver_ident(toks: &[crate::lexer::Tok], dot: usize) -> Option<String> {
    let mut i = dot;
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        match toks[i].kind {
            TokKind::Punct(']') => {
                let mut d = 0isize;
                while i > 0 {
                    if toks[i].is_punct(']') {
                        d += 1;
                    } else if toks[i].is_punct('[') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    i -= 1;
                }
            }
            TokKind::Ident => return Some(toks[i].text.clone()),
            _ => return None,
        }
    }
}

/// Classifies a receiver name against [`LOCK_ORDER`] by substring match.
fn classify_lock(receiver: &str) -> Option<usize> {
    let lower = receiver.to_ascii_lowercase();
    LOCK_ORDER
        .iter()
        .position(|(_, pats)| pats.iter().any(|p| lower.contains(p)))
}

/// Path pairs banned by L5: `first::second` anywhere in a protocol-core
/// file means the state machine has grown an IO or timing dependency.
const SANS_IO_BANNED: &[(&str, &str)] = &[
    ("std", "net"),
    ("std", "thread"),
    ("crate", "sync"),
    ("simnet", "time"),
];

/// L5: the protocol core must stay a pure state machine. Flags the banned
/// `a::b` path pairs (imports *and* inline paths) and any `spawn(…)` call
/// — free, path-qualified or method position. Test code is not exempt:
/// a protocol unit test that spawns a thread or consults a clock is no
/// longer testing a deterministic state machine.
fn l5_sans_io(path: &Path, model: &FileModel, findings: &mut Vec<Finding>) {
    let toks = &model.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        // `first :: second` path pairs.
        if t.kind == TokKind::Ident {
            for &(first, second) in SANS_IO_BANNED {
                if t.text == first
                    && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident(second))
                {
                    let ctx = model
                        .enclosing_fn(t.line)
                        .map(|f| format!(" in fn {f}"))
                        .unwrap_or_default();
                    emit(
                        findings,
                        model,
                        Lint::SansIo,
                        path,
                        t.line,
                        format!(
                            "`{first}::{second}`{ctx}: the protocol core is sans-IO — \
                             drivers own sockets, threads, channels and time"
                        ),
                    );
                }
            }
        }
        // `spawn(` in any position (free call, `thread::spawn`, `.spawn`).
        if t.is_ident("spawn") && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            let ctx = model
                .enclosing_fn(t.line)
                .map(|f| format!(" in fn {f}"))
                .unwrap_or_default();
            emit(
                findings,
                model,
                Lint::SansIo,
                path,
                t.line,
                format!(
                    "`spawn(…)`{ctx}: the protocol core must not start execution \
                     contexts — return an Output and let the driver act"
                ),
            );
        }
    }
}

/// L6: matches that dispatch on `protocol::Output` — the trace vocabulary
/// and the one applier's output loop — must be exhaustive by variant. A
/// wildcard `_` arm silently swallows any output the protocol core grows
/// later — which is exactly how a driver (or its trace) drifts out of sync
/// with the state machine. Without the wildcard, a new `Output` variant is
/// a compile error in the vocabulary and in the applier every backend runs.
///
/// A match is "over `Output`" when any arm pattern contains an
/// `Output::Variant` path; the wildcard is an arm whose pattern *starts*
/// with a bare `_` (nested `_` bindings inside variant patterns are fine,
/// and so is a named catch-all binding — rustc's own exhaustiveness check
/// covers that case once the wildcard is gone).
fn l6_output_match(path: &Path, model: &FileModel, findings: &mut Vec<Finding>) {
    let toks = &model.tokens;
    for i in 0..toks.len() {
        if model.in_test[i] || !toks[i].is_ident("match") {
            continue;
        }
        let Some(open) = match_block_open(toks, i + 1) else {
            continue;
        };
        let arms = match_arm_patterns(toks, open);
        let over_output = arms.iter().any(|arm| {
            arm.iter().enumerate().any(|(j, t)| {
                t.is_ident("Output")
                    && arm.get(j + 1).is_some_and(|n| n.is_punct(':'))
                    && arm.get(j + 2).is_some_and(|n| n.is_punct(':'))
            })
        });
        if !over_output {
            continue;
        }
        for arm in &arms {
            let Some(first) = arm.first() else {
                continue;
            };
            if first.is_ident("_") {
                let ctx = model
                    .enclosing_fn(first.line)
                    .map(|f| format!(" in fn {f}"))
                    .unwrap_or_default();
                emit(
                    findings,
                    model,
                    Lint::OutputMatch,
                    path,
                    first.line,
                    format!(
                        "wildcard `_` arm in a match over `protocol::Output`{ctx}: \
                         the vocabulary and the applier handle every output variant \
                         explicitly so a new output fails the build instead of \
                         disappearing"
                    ),
                );
            }
        }
    }
}

/// L6, single-applier rule: outside the one scoped file, driver code has
/// no business naming a `protocol::Output` variant — `coordinator::observe`
/// is the one vocabulary, the coordinator turns outputs into `Medium`
/// calls, and an `Output::Variant` path anywhere else is the first line of
/// another hand-copied applier or a second spelling of the trace.
fn l6_single_applier(path: &Path, model: &FileModel, findings: &mut Vec<Finding>) {
    let toks = &model.tokens;
    for (i, t) in toks.iter().enumerate() {
        if model.in_test[i] || !t.is_ident("Output") {
            continue;
        }
        let variant = match (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)) {
            (Some(a), Some(b), Some(v))
                if a.is_punct(':') && b.is_punct(':') && v.kind == TokKind::Ident =>
            {
                v
            }
            _ => continue,
        };
        let ctx = model
            .enclosing_fn(t.line)
            .map(|f| format!(" in fn {f}"))
            .unwrap_or_default();
        emit(
            findings,
            model,
            Lint::OutputMatch,
            path,
            t.line,
            format!(
                "`Output::{}`{ctx} outside coordinator.rs: the one trace vocabulary \
                 and the one applier live there — implement `Medium` instead",
                variant.text
            ),
        );
    }
}

/// Finds the `{` opening a match body, scanning from just past the `match`
/// keyword. The scrutinee may contain parenthesised or bracketed
/// sub-expressions but never a bare braced one (Rust bans struct literals
/// in scrutinee position), so the first `{` at zero paren/bracket depth is
/// the match block. A `;` or `}` first means the token stream was not a
/// match expression after all — bail without a block.
fn match_block_open(toks: &[crate::lexer::Tok], from: usize) -> Option<usize> {
    let mut paren = 0isize;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
            TokKind::Punct('{') if paren == 0 => return Some(j),
            TokKind::Punct(';') | TokKind::Punct('}') => return None,
            _ => {}
        }
    }
    None
}

/// Collects each arm's pattern tokens (pattern plus any `if` guard) from
/// the match body opening at `open`. Pattern mode runs from the block
/// start — or from the end of the previous arm's body — up to the `=>`.
/// Struct-pattern braces, tuple parens and slice brackets are depth
/// tracked; an arm body ends at a `,` at arm level, or when a braced body
/// closes back to arm level (Rust requires no comma there).
fn match_arm_patterns(toks: &[crate::lexer::Tok], open: usize) -> Vec<Vec<&crate::lexer::Tok>> {
    let mut arms = Vec::new();
    let mut cur: Vec<&crate::lexer::Tok> = Vec::new();
    let mut depth = 1isize; // brace depth relative to the match block
    let mut paren = 0isize; // () and [] combined
    let mut in_pattern = true;
    let mut j = open + 1;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 1 && paren == 0 && !in_pattern {
                    // `=> { … }` (or `=> Struct { … },`) just closed: the
                    // next tokens are the next arm's pattern, with the
                    // struct-literal form carrying a mandatory comma.
                    in_pattern = true;
                    j += 1;
                    if toks.get(j).is_some_and(|n| n.is_punct(',')) {
                        j += 1;
                    }
                    continue;
                }
            }
            TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
            TokKind::Punct(',') if depth == 1 && paren == 0 && !in_pattern => {
                in_pattern = true;
                j += 1;
                continue;
            }
            TokKind::Punct('=')
                if in_pattern
                    && depth == 1
                    && paren == 0
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('>')) =>
            {
                arms.push(std::mem::take(&mut cur));
                in_pattern = false;
                j += 2;
                continue;
            }
            _ => {}
        }
        if in_pattern {
            cur.push(t);
        }
        j += 1;
    }
    arms
}

/// Extracts the unified counter registry from `simnet/src/span.rs`: the
/// string values *and* the constant names of `pub const … : &str = "…";`
/// items inside `pub mod counter { … }`. Both spellings are keys — a
/// backend may pass the literal (`"retransmits"`) or the named constant
/// (`counter::RETRANSMITS`, how the per-query admission counters are
/// emitted), and L3 resolves either against the same registry.
pub fn parse_registry(span_rs: &str) -> Vec<String> {
    let lexed = crate::lexer::lex(span_rs);
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    // Find `mod counter {`.
    let mut start = None;
    for i in 0..toks.len() {
        if toks[i].is_ident("mod") && toks.get(i + 1).is_some_and(|t| t.is_ident("counter")) {
            start = Some(i);
            break;
        }
    }
    let Some(start) = start else {
        return out;
    };
    let mut depth = 0isize;
    let mut entered = false;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            entered = true;
        } else if t.is_punct('}') {
            depth -= 1;
            if entered && depth == 0 {
                break;
            }
        } else if t.is_ident("const") {
            // const NAME: &str = "value"; — both NAME and "value" are keys.
            if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                out.push(name.text.clone());
            }
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct(';') {
                if toks[j].kind == TokKind::Str {
                    out.push(toks[j].text.clone());
                    break;
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::build;
    use crate::lexer::lex;

    fn run(src: &str, policy: &FilePolicy, registry: &[String]) -> Vec<Finding> {
        let model = build(lex(src));
        run_file(Path::new("test.rs"), &model, policy, registry)
    }

    fn l1() -> FilePolicy {
        FilePolicy {
            no_panic: true,
            ..FilePolicy::default()
        }
    }

    #[test]
    fn l1_counts_the_panic_family() {
        let findings = run(
            "fn f() {\n    a.unwrap();\n    b.expect(\"x\");\n    panic!(\"y\");\n    \
             unreachable!();\n    todo!();\n}\n",
            &l1(),
            &[],
        );
        assert_eq!(findings.len(), 5);
        assert!(findings.iter().all(|f| f.suppressed.is_none()));
    }

    #[test]
    fn l1_indexing_rules() {
        // Flagged: ident[, )[ , ][ and tuple-number[.
        let flagged = run(
            "fn f() {\n    let a = xs[0];\n    let b = g()[1];\n    let c = m[0][1];\n}\n",
            &l1(),
            &[],
        );
        assert_eq!(flagged.len(), 4);
        // Not flagged: attributes, macros, array types/literals, patterns.
        let clean = run(
            "#[derive(Debug)]\nstruct S;\nfn f(x: [u8; 4]) {\n    let v = vec![1, 2];\n    \
             let [a, b] = (0, 1).into();\n    let w: &[u8] = &v;\n    let z = [0u8; 8];\n}\n",
            &l1(),
            &[],
        );
        assert_eq!(clean.len(), 0, "{clean:?}");
    }

    #[test]
    fn l1_skips_test_code_and_definitions() {
        let findings = run(
            "fn expect(x: u32) {}\n#[cfg(test)]\nmod tests {\n    fn t() { a.unwrap(); \
             b[0]; panic!(); }\n}\n",
            &l1(),
            &[],
        );
        assert_eq!(findings.len(), 0, "{findings:?}");
    }

    #[test]
    fn l1_annotations_suppress_and_tally() {
        let src = "\
fn f() {
    a.unwrap(); // analyze: allow(panic, reason = \"invariant: a is set in new()\")
    b.unwrap();
}
// analyze: allow(panic, reason = \"hot loop, index bounded by construction\")
fn g() {
    let x = xs[0];
    let y = xs[1];
}
";
        let findings = run(src, &l1(), &[]);
        let suppressed: Vec<_> = findings.iter().filter(|f| f.suppressed.is_some()).collect();
        let live: Vec<_> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
        assert_eq!(suppressed.len(), 3, "{findings:?}");
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].line, 3);
    }

    #[test]
    fn l2_flags_wall_clock_only_outside_tests() {
        let policy = FilePolicy {
            no_wall_clock: true,
            ..FilePolicy::default()
        };
        let findings = run(
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); }\n\
             #[cfg(test)]\nmod tests { fn t() { let x = Instant::now(); } }\n",
            &policy,
            &[],
        );
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn l3_flags_unregistered_literals() {
        let policy = FilePolicy {
            counter_registry: true,
            ..FilePolicy::default()
        };
        let registry = vec!["envelopes_sent".to_string()];
        let findings = run(
            "fn f(t: &mut T) { t.count(\"envelopes_sent\", 1); t.count(\"typo_counter\", 1); \
             t.count(name, 1); }\n",
            &policy,
            &registry,
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("typo_counter"));
    }

    #[test]
    fn l4_flags_out_of_order_and_same_class_nesting() {
        let policy = FilePolicy {
            lock_ordering: true,
            ..FilePolicy::default()
        };
        // tracer then collector: wrong order. collector then collector:
        // same-class nesting. collector then tracer: fine.
        let findings = run(
            "fn bad() {\n    let g = self.tracer.lock();\n    let c = collectors[h].lock();\n}\n\
             fn worse(a: &M, b: &M) {\n    let g1 = a_collector.lock();\n    \
             let g2 = b_collector.lock();\n}\n\
             fn good() {\n    let c = collector.lock();\n    let t = spans.lock();\n}\n",
            &policy,
            &[],
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("lock order"));
    }

    #[test]
    fn l4_state_slots_come_before_collectors() {
        let policy = FilePolicy {
            lock_ordering: true,
            ..FilePolicy::default()
        };
        let findings = run(
            "fn good() {\n    let g = slot.lock();\n    let c = shared_collector.lock();\n}\n\
             fn bad() {\n    let c = shared_collector.lock();\n    let g = slot.lock();\n}\n",
            &policy,
            &[],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("state-slot"));
    }

    #[test]
    fn l4_guard_scope_ends_with_block() {
        let policy = FilePolicy {
            lock_ordering: true,
            ..FilePolicy::default()
        };
        let findings = run(
            "fn f() {\n    {\n        let t = tracer.lock();\n    }\n    \
             let c = collector.lock();\n}\n",
            &policy,
            &[],
        );
        assert_eq!(findings.len(), 0, "{findings:?}");
    }

    #[test]
    fn l5_flags_io_paths_and_spawns_everywhere() {
        let policy = FilePolicy {
            sans_io: true,
            ..FilePolicy::default()
        };
        let findings = run(
            "use std::net::TcpStream;\nuse std::thread;\n\
             fn f() {\n    let (tx, rx) = crate::sync::mpmc::bounded(1);\n    \
             let t0 = simnet::time::SimTime::ZERO;\n    thread::spawn(|| {});\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { spawn(|| {}); }\n}\n",
            &policy,
            &[],
        );
        // Four banned paths, two spawns — and the test module is *not*
        // exempt: a sans-IO core stays sans-IO in its tests too.
        assert_eq!(findings.len(), 6, "{findings:?}");
        assert!(findings.iter().all(|f| f.lint == Lint::SansIo));
    }

    #[test]
    fn l5_ignores_pure_state_machine_code() {
        let policy = FilePolicy {
            sans_io: true,
            ..FilePolicy::default()
        };
        let findings = run(
            "use simnet::topology::HostId;\nuse std::collections::HashMap;\n\
             fn step(now: u64) -> Vec<Output> {\n    let spawn = 3;\n    \
             let net = spawn + now as usize;\n    vec![]\n}\n",
            &policy,
            &[],
        );
        assert_eq!(findings.len(), 0, "{findings:?}");
    }

    fn l6() -> FilePolicy {
        FilePolicy {
            output_match: true,
            ..FilePolicy::default()
        }
    }

    #[test]
    fn l6_flags_wildcards_only_in_output_matches() {
        let findings = run(
            "fn drive(out: Output) {\n    match out {\n        Output::Send { to, .. } => \
             send(to),\n        Output::Ack(id) => ack(id),\n        _ => {}\n    }\n    \
             match other {\n        Some(x) => use_it(x),\n        _ => {}\n    }\n}\n",
            &l6(),
            &[],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, Lint::OutputMatch);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn l6_exhaustive_dispatch_is_clean() {
        // Guards, struct patterns, struct literals in unbraced bodies and
        // braced bodies without trailing commas must all parse cleanly —
        // and nested `_` bindings are not wildcards.
        let findings = run(
            "fn drive(out: Output) {\n    match out {\n        Output::Send { env, .. } if \
             env.live => Frame { data: env },\n        Output::Send { to: _, .. } => {}\n        \
             Output::Retire(id) => retire(id),\n    };\n}\n",
            &l6(),
            &[],
        );
        assert_eq!(findings.len(), 0, "{findings:?}");
    }

    #[test]
    fn l6_guarded_wildcard_and_nested_match_are_caught() {
        // A `_ if …` arm still swallows unknown variants; a nested match
        // in an arm body is analyzed on its own.
        let findings = run(
            "fn drive(out: Output) {\n    match out {\n        Output::Ack(id) => ack(id),\n        \
             _ if quiet() => {}\n        Output::Retire(id) => match lookup(id) {\n            \
             Output::Send { .. } => resend(),\n            _ => {}\n        },\n    }\n}\n",
            &l6(),
            &[],
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert_eq!(findings[1].line, 7);
    }

    #[test]
    fn l6_annotations_suppress() {
        let findings = run(
            "fn drive(out: Output) {\n    match out {\n        Output::Ack(id) => ack(id),\n        \
             _ => {} // analyze: allow(output-match, reason = \"migration shim\")\n    }\n}\n",
            &l6(),
            &[],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].suppressed.is_some());
    }

    #[test]
    fn l6_single_applier_flags_output_paths_outside_tests() {
        let policy = FilePolicy {
            single_applier: true,
            ..FilePolicy::default()
        };
        // A `use` of the bare type and a same-named local are fine; naming
        // a variant is not, in a match or anywhere else.
        let findings = run(
            "use crate::protocol::Output;\nfn shim(out: Output<P>) -> bool {\n    \
             matches!(out, Output::Send { .. })\n}\n#[cfg(test)]\nmod tests {\n    \
             fn t(o: Output) { if let Output::Ack { .. } = o {} }\n}\n",
            &policy,
            &[],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, Lint::OutputMatch);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("Output::Send"));
    }

    #[test]
    fn registry_parses_span_module_shape() {
        let src = "pub mod counter {\n    /// Doc.\n    pub const A: &str = \"alpha\";\n    \
                   pub const B: &str = \"beta\";\n}\npub const OUTSIDE: &str = \"nope\";\n";
        // Constant names and string values are both keys (literal and
        // `counter::NAME` emission sites resolve against one registry).
        assert_eq!(parse_registry(src), ["A", "alpha", "B", "beta"]);
    }
}
