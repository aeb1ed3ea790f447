//! Command-line arguments: typed parse, typed failure, no panics.

use crate::workload::{Workload, SEED_STRIDE};
use std::fmt;

/// Longest measuring window accepted, seconds: the cap the driver's
/// contract puts on `run_seconds`.
pub const MAX_SECONDS: u64 = 60;

/// Largest accepted `--seed`: every derived episode and tenant seed
/// (`seed * SEED_STRIDE + 0..SEED_STRIDE`) still fits a `u64`.
pub const MAX_SEED: u64 = u64::MAX / SEED_STRIDE;

/// One validated invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Wall-clock budget of the whole run (envelope, traced pass, probes).
    pub seconds: u64,
    /// `--trace 1`: report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

/// Why the command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A required flag is absent.
    Missing(&'static str),
    /// A flag this program does not know.
    UnknownFlag(String),
    /// A flag is the last word, with no value after it.
    NoValue(String),
    /// A flag was given twice.
    Repeated(String),
    /// A value that does not parse or is out of range.
    BadValue {
        flag: &'static str,
        value: String,
        expected: &'static str,
    },
    /// `--workload` names none of the four workloads.
    UnknownWorkload(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Missing(flag) => write!(f, "missing required {flag}"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown option {flag}"),
            ArgError::NoValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Repeated(flag) => write!(f, "{flag} given more than once"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag}: '{value}' is not {expected}"),
            ArgError::UnknownWorkload(name) => {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                write!(f, "unknown workload '{name}' (one of {})", known.join(", "))
            }
        }
    }
}

impl std::error::Error for ArgError {}

fn number<T: std::str::FromStr>(
    flag: &'static str,
    value: &str,
    expected: &'static str,
) -> Result<T, ArgError> {
    value.parse().map_err(|_| ArgError::BadValue {
        flag,
        value: value.to_string(),
        expected,
    })
}

/// Parses the words after the program name.
pub fn parse<I>(words: I) -> Result<Args, ArgError>
where
    I: IntoIterator<Item = String>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut words = words.into_iter();
    while let Some(flag) = words.next() {
        let value = |words: &mut I::IntoIter| words.next().ok_or(ArgError::NoValue(flag.clone()));
        let seen = match flag.as_str() {
            "--workload" => {
                let v = value(&mut words)?;
                let w = Workload::from_name(&v).ok_or(ArgError::UnknownWorkload(v))?;
                workload.replace(w).is_some()
            }
            "--seed" => {
                let v = value(&mut words)?;
                let expected = "a whole number below 2^54";
                let s: u64 = number("--seed", &v, expected)?;
                if s > MAX_SEED {
                    return Err(ArgError::BadValue {
                        flag: "--seed",
                        value: v,
                        expected,
                    });
                }
                seed.replace(s).is_some()
            }
            "--seconds" => {
                let v = value(&mut words)?;
                let expected = "a whole number of seconds from 1 to 60";
                let s: u64 = number("--seconds", &v, expected)?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(ArgError::BadValue {
                        flag: "--seconds",
                        value: v,
                        expected,
                    });
                }
                seconds.replace(s).is_some()
            }
            "--trace" => {
                let v = value(&mut words)?;
                let t = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => {
                        return Err(ArgError::BadValue {
                            flag: "--trace",
                            value: v,
                            expected: "0 or 1",
                        })
                    }
                };
                trace.replace(t).is_some()
            }
            _ => return Err(ArgError::UnknownFlag(flag)),
        };
        if seen {
            return Err(ArgError::Repeated(flag));
        }
    }
    Ok(Args {
        workload: workload.ok_or(ArgError::Missing("--workload"))?,
        seed: seed.ok_or(ArgError::Missing("--seed"))?,
        seconds: seconds.ok_or(ArgError::Missing("--seconds"))?,
        trace: trace.ok_or(ArgError::Missing("--trace"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse(words("--workload city128 --seed 7 --seconds 30 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::City128,
                seed: 7,
                seconds: 30,
                trace: true,
            }
        );
    }

    #[test]
    fn every_malformed_line_fails_typed() {
        let cases: &[(&str, ArgError)] = &[
            ("", ArgError::Missing("--workload")),
            (
                "--workload s1-balb --seed 1 --seconds 5",
                ArgError::Missing("--trace"),
            ),
            (
                "--frobnicate 3",
                ArgError::UnknownFlag("--frobnicate".into()),
            ),
            ("--workload", ArgError::NoValue("--workload".into())),
            (
                "--workload s9 --seed 1 --seconds 5 --trace 0",
                ArgError::UnknownWorkload("s9".into()),
            ),
            (
                "--workload s1-balb --seed 1 --seed 2 --seconds 5 --trace 0",
                ArgError::Repeated("--seed".into()),
            ),
            (
                "--workload s1-balb --seed 1 --seconds 5 --trace 0 --threads 2",
                ArgError::UnknownFlag("--threads".into()),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse(words(line)).as_ref(), Err(want), "{line:?}");
        }
        for line in [
            "--workload s1-balb --seed -1 --seconds 5 --trace 0",
            "--workload s1-balb --seed 1e3 --seconds 5 --trace 0",
            "--workload s1-balb --seed 999999999999999999999 --seconds 5 --trace 0",
            "--workload s1-balb --seed 18014398509481984 --seconds 5 --trace 0",
            "--workload s1-balb --seed 1 --seconds 0 --trace 0",
            "--workload s1-balb --seed 1 --seconds 61 --trace 0",
            "--workload s1-balb --seed 1 --seconds 5 --trace 2",
        ] {
            assert!(
                matches!(parse(words(line)), Err(ArgError::BadValue { .. })),
                "{line:?}"
            );
        }
    }

    #[test]
    fn largest_accepted_seed_cannot_overflow_the_episode_seeds() {
        let line = format!("--workload serve-chaos --seed {MAX_SEED} --seconds 5 --trace 0");
        let args = parse(words(&line)).unwrap();
        let base = args.seed.checked_mul(SEED_STRIDE).expect("base fits");
        assert!(base.checked_add(SEED_STRIDE - 1).is_some());
    }
}
