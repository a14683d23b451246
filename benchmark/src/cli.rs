//! Command line: one round (the form `../BENCHMARK.json`'s command is
//! run in), and the `run`, `trace` and `compare` subcommands.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::json;
use crate::layers::Budget;
use crate::metrics::{Measured, END_TO_END, PER_LAYER};
use crate::round::{machine_ticks, run_round, Tally};
use crate::suite::Protocol;
use crate::{compare, layers, staged, suite, workloads};

const USAGE: &str = "\
usage:
  ringbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      one round of one workload; the last line of output is its result
      (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
  ringbench run [--seed N] [--out FILE] [--smoke]
      every workload, 12 rounds of 2 s each, interleaved; prints every
      end-to-end metric and writes a result file
  ringbench trace [--seed N] [--smoke]
      every per-layer metric of every workload, and one span file each
  ringbench compare A.json B.json
      two result files side by side, with a verdict per metric";

/// Why the program stops without doing what it was asked.
#[derive(Debug, PartialEq)]
pub enum Error {
    /// The arguments are wrong: exit code 2, with the usage text.
    Usage(String),
    /// The arguments are right and the work failed: exit code 1.
    Failed(String),
}

/// Parsed `--flag value` pairs and positional words.
#[derive(Debug)]
pub struct Args {
    flags: Vec<(String, String)>,
    /// Words that are not flags or their values.
    pub words: Vec<String>,
    /// `--smoke` was given.
    pub smoke: bool,
}

impl Args {
    /// Splits `args` into flags, `--smoke` and positional words.
    ///
    /// # Errors
    ///
    /// A flag without its value, or given twice.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            words: Vec::new(),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--smoke" {
                out.smoke = true;
            } else if let Some(flag) = arg.strip_prefix("--") {
                let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                if out.text(flag).is_some() {
                    return Err(format!("--{flag} is given twice"));
                }
                out.flags.push((flag.to_string(), value.clone()));
            } else {
                out.words.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// Refuses every flag that is not in `known`: a misspelt flag must
    /// not run the defaults in its place.
    ///
    /// # Errors
    ///
    /// Names the first unknown flag.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag --{flag}")),
            None => Ok(()),
        }
    }

    /// The value of `--flag`, parsed, or `default` when absent.
    ///
    /// # Errors
    ///
    /// A value that does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.text(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {v:?}")),
        }
    }

    /// The value of `--flag`, parsed.
    ///
    /// # Errors
    ///
    /// The flag is absent or its value does not parse as `T`.
    pub fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        let v = self.text(flag).ok_or(format!("--{flag} is required"))?;
        v.parse()
            .map_err(|_| format!("--{flag}: cannot read {v:?}"))
    }

    /// The value of `--flag` as given.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }
}

/// Entry point of the binary.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // A failed run or a regression: said on standard output already.
        Ok(false) => ExitCode::FAILURE,
        Err(Error::Failed(message)) => {
            eprintln!("ringbench: {message}");
            ExitCode::FAILURE
        }
        Err(Error::Usage(message)) => {
            eprintln!("ringbench: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// What the arguments ask for.
enum Command {
    Round {
        spec: &'static workloads::Spec,
        seed: u64,
        seconds: f64,
        trace: bool,
        smoke: bool,
    },
    Run {
        seed: u64,
        out: PathBuf,
        smoke: bool,
    },
    Trace {
        seed: u64,
        smoke: bool,
    },
    Compare(String, String),
}

fn command(raw: &[String]) -> Result<Command, String> {
    let args = Args::parse(raw)?;
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    let smoke = args.smoke;
    match words[..] {
        [] if args.text("workload").is_some() => {
            args.only(&["workload", "seed", "seconds", "trace"])?;
            let name = args.text("workload").unwrap_or_default();
            let seconds: f64 = args.required("seconds")?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err("--seconds must be in (0, 600]".into());
            }
            Ok(Command::Round {
                spec: workloads::spec(name).ok_or(format!("unknown workload {name:?}"))?,
                seed: args.required("seed")?,
                seconds,
                trace: match args.required::<u8>("trace")? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                },
                smoke,
            })
        }
        ["run"] => {
            args.only(&["seed", "out"])?;
            let default_out = staged::results_dir().join("result.json");
            Ok(Command::Run {
                seed: args.get("seed", 1)?,
                out: args.text("out").map_or(default_out, Into::into),
                smoke,
            })
        }
        ["trace"] => {
            args.only(&["seed"])?;
            Ok(Command::Trace {
                seed: args.get("seed", 1)?,
                smoke,
            })
        }
        ["compare", a, b] if !smoke => {
            args.only(&[])?;
            Ok(Command::Compare(a.into(), b.into()))
        }
        _ => Err("no such command".into()),
    }
}

/// Does what `raw` asks; `Ok(false)` when it was done and the outcome is
/// a failed run, stages that do not sum, or a regression.
fn dispatch(raw: &[String]) -> Result<bool, Error> {
    perform(command(raw).map_err(Error::Usage)?).map_err(Error::Failed)
}

fn perform(command: Command) -> Result<bool, String> {
    match command {
        Command::Round {
            spec,
            seed,
            seconds,
            trace,
            smoke,
        } => one_round(spec, seed, seconds, trace, smoke),
        Command::Run { seed, out, smoke } => suite::run(Protocol::of(smoke), seed, &out),
        Command::Trace { seed, smoke } => suite::trace(Protocol::of(smoke), seed),
        Command::Compare(a, b) => {
            let read = |path: &str| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let rows = compare::rows(&read(&a)?, &read(&b)?)?;
            print!("{}", compare::render(&rows));
            Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
        }
    }
}

/// The result line of one round: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, the latter holding every
/// `(name, unit)` of `defs`.
///
/// # Errors
///
/// A metric of `defs` that was not measured.
pub fn result_line<'a>(
    tally: Tally,
    defs: impl IntoIterator<Item = (&'a str, &'a str)>,
    measured: &Measured,
) -> Result<String, String> {
    let metrics = defs
        .into_iter()
        .map(|(name, unit)| {
            let value = measured
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            Ok((
                name,
                json::object([("value", json::num(value)), ("unit", json::text(unit))]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(json::object([
        (
            "correct",
            if tally.failed == 0 { "true" } else { "false" }.to_string(),
        ),
        ("attempted", json::num(tally.attempted as f64)),
        ("failed", json::num(tally.failed as f64)),
        ("metrics", json::object(metrics)),
    ]))
}

/// One round. Failed runs are reported in the result line (`correct`,
/// `failed`), which a reader gets only on exit code 0; `Err` is for a
/// round that could not measure at all.
fn one_round(
    spec: &workloads::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<bool, String> {
    if trace {
        let budget = Budget::new(seconds, smoke);
        let mut measured = layers::measure(seed, budget)?;
        let ticks_before = machine_ticks();
        let (staged, spans, tally) = staged::measure(spec, seed, budget);
        let steal = machine_ticks().steal_share_since(ticks_before);
        measured.extend(staged);
        let path = staged::write_spans(spec.name, seed, &spans)?;
        eprintln!("{} spans in {}", spans.len(), path.display());
        // For the `trace` parent, which does not judge the stage sum of a
        // staged run the hypervisor disturbed.
        println!("detail {}", json::object([("steal", json::num(steal))]));
        let defs = PER_LAYER.iter().map(|d| (d.name, d.unit));
        println!("{}", result_line(tally, defs, &measured)?);
    } else {
        let round = run_round(spec, seed, seconds, smoke);
        // For the `run` parent, which pools samples over rounds; the
        // contract reads only the last line.
        let detail = json::object([
            ("samples_s", json::nums(&round.samples)),
            ("virtual_s", json::num(round.virtual_s.unwrap_or(f64::NAN))),
            ("steal", json::num(round.steal)),
        ]);
        println!("detail {detail}");
        let defs = END_TO_END.iter().map(|d| (d.name, d.unit));
        println!("{}", result_line(round.tally, defs, &round.metrics)?);
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_repeated_and_missing_flags_are_usage_errors() {
        for bad in [
            "run --round_s 5",
            "run --rounds 3",
            "run --seed 1 --seed 2",
            "run --seed",
            "run --seed x",
            "trace --seconds 3",
            "compare a.json b.json --seed 1",
            "compare a.json",
            "--workload smallfrag_tcp --seed 1 --seconds 1",
            "--workload smallfrag_tcp --seed 1 --seconds 1 --trace 2",
            "--workload smallfrag_tcp --seed 1 --seconds 0 --trace 0",
            "--workload smallfrag_tcp --seed 1 --seconds 1 --trace 0 --rounds 2",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "frobnicate",
            "",
        ] {
            assert!(
                matches!(dispatch(&words(bad)), Err(Error::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn the_documented_forms_parse() {
        for good in [
            "run",
            "run --seed 7 --out x.json --smoke",
            "trace --seed 7",
            "compare a.json b.json",
            "--workload smallfrag_tcp --seed 1 --seconds 20 --trace 1",
        ] {
            assert!(command(&words(good)).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn a_file_that_cannot_be_read_is_a_failure_not_a_usage_error() {
        let outcome = dispatch(&words("compare /nonexistent/a.json /nonexistent/b.json"));
        assert!(matches!(outcome, Err(Error::Failed(_))), "{outcome:?}");
    }
}
