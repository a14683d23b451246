//! The tier-1 floor list: the tests tier 1 names, each of which must exist
//! and must run.
//!
//! `cargo test -q` runs every test once, the named ones among them.
//! [`check`] holds each line of [`FLOOR_LIST`] to the tests that `cargo
//! test -- --list` prints for its target, so that a gate a rename, a
//! deletion or an `#[ignore]` took out of the run fails tier 1 instead of
//! passing unnoticed — without running any test a second time.

use std::fmt;

/// The floor list, relative to the workspace root.
pub const FLOOR_LIST: &str = "scripts/gates.txt";

/// A test target: a package's library unit tests, or one of its
/// integration-test targets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Target {
    pub package: String,
    /// The `--test` target; `None` is `--lib`.
    pub test: Option<String>,
}

impl Target {
    /// The arguments that pick this target out for `cargo test`.
    pub fn cargo_args(&self) -> Vec<&str> {
        match &self.test {
            None => vec!["-p", &self.package, "--lib"],
            Some(test) => vec!["-p", &self.package, "--test", test],
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.test {
            None => write!(f, "{} --lib", self.package),
            Some(test) => write!(f, "{} --test {test}", self.package),
        }
    }
}

/// One line of the floor list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// 1-based line number in the list.
    pub line: usize,
    pub target: Target,
    /// A substring of a test's path, as `cargo test <filter>` matches it;
    /// `None` names every test of the target.
    pub filter: Option<String>,
}

/// Parses the floor list. `#` starts a comment line; every other
/// non-blank line is `<package> --lib [filter]` or `<package> --test
/// <target> [filter]`.
///
/// # Errors
///
/// The first malformed line, by number.
pub fn parse(text: &str) -> Result<Vec<Gate>, String> {
    let mut gates = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let (test, rest) = match words.as_slice() {
            [_, "--lib", rest @ ..] => (None, rest),
            [_, "--test", test, rest @ ..] => (Some(test.to_string()), rest),
            _ => {
                return Err(format!(
                    "line {}: not `<package> --lib|--test <target> [filter]`: {line}",
                    i + 1
                ))
            }
        };
        let filter = match rest {
            [] => None,
            [filter] => Some(filter.to_string()),
            _ => return Err(format!("line {}: more than one filter: {line}", i + 1)),
        };
        gates.push(Gate {
            line: i + 1,
            target: Target {
                package: words[0].to_string(),
                test,
            },
            filter,
        });
    }
    Ok(gates)
}

/// The test names a `cargo test -- --list` run printed (its `<name>:
/// test` lines; benchmarks and the summary line are not tests).
pub fn listed(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter_map(|line| line.strip_suffix(": test"))
        .map(str::to_string)
        .collect()
}

/// Checks one gate against every test of its target and the `#[ignore]`d
/// ones among them.
///
/// # Errors
///
/// Why the gate runs nothing: its filter matches no test, or only
/// ignored ones. Otherwise the number of matching tests that run.
pub fn check(gate: &Gate, tests: &[String], ignored: &[String]) -> Result<usize, String> {
    let matches = |name: &&String| {
        gate.filter
            .as_ref()
            .is_none_or(|f| name.contains(f.as_str()))
    };
    let all = tests.iter().filter(matches).count();
    let running = all - ignored.iter().filter(matches).count();
    match (all, running) {
        (0, _) => Err("matches no test".into()),
        (_, 0) => Err(format!("matches {all} test(s), every one #[ignore]d")),
        _ => Ok(running),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn lines_parse_into_targets_and_filters() {
        let gates = parse(
            "# a comment\n\nrelation --lib wire::\n  mem-joins --test alloc_hash\n\
             data-roundabout --test parity seeded_rescale\n",
        )
        .unwrap();
        assert_eq!(gates.len(), 3);
        assert_eq!(gates[0].line, 3);
        assert_eq!(gates[0].target.to_string(), "relation --lib");
        assert_eq!(gates[0].filter.as_deref(), Some("wire::"));
        assert_eq!(
            gates[1].target.cargo_args(),
            ["-p", "mem-joins", "--test", "alloc_hash"]
        );
        assert_eq!(gates[1].filter, None);
        assert_eq!(gates[2].filter.as_deref(), Some("seeded_rescale"));
    }

    #[test]
    fn malformed_lines_are_refused_by_number() {
        assert!(parse("relation\n").unwrap_err().starts_with("line 1:"));
        assert!(parse("# ok\nrelation --test\n")
            .unwrap_err()
            .starts_with("line 2:"));
        assert!(parse("relation --lib a b\n")
            .unwrap_err()
            .contains("more than one filter"));
    }

    #[test]
    fn a_listing_yields_its_tests_only() {
        let out = "hash::radix::tests::zero_bits_is_identity: test\n\
                   some_bench: bench\n\n2 tests, 1 benchmark\n";
        assert_eq!(listed(out), ["hash::radix::tests::zero_bits_is_identity"]);
    }

    /// A renamed or deleted gate matches nothing, an ignored one matches
    /// only what does not run: both fail. A filter matching a running
    /// test passes, as does a whole target with one running test.
    #[test]
    fn a_gate_fails_unless_a_test_it_names_runs() {
        let tests = names(&["a::fast", "a::slow", "b::other"]);
        let ignored = names(&["a::slow"]);
        let gate = |filter: Option<&str>| Gate {
            line: 1,
            target: Target {
                package: "p".into(),
                test: None,
            },
            filter: filter.map(str::to_string),
        };
        assert_eq!(check(&gate(Some("a::")), &tests, &ignored), Ok(1));
        assert_eq!(check(&gate(None), &tests, &ignored), Ok(2));
        assert_eq!(
            check(&gate(Some("renamed")), &tests, &ignored),
            Err("matches no test".into())
        );
        assert!(check(&gate(Some("slow")), &tests, &ignored)
            .unwrap_err()
            .contains("#[ignore]d"));
        assert!(check(&gate(None), &[], &[]).is_err());
    }
}
