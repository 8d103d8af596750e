//! Run configuration: one parser for every flag and environment variable.
//!
//! Every entry point reads its settings through [`Sources`]: one lexer for
//! `--name value` / `--name=value` flags, typed getters over those flags and
//! an environment lookup passed in as a function (so parsing is pure), and a
//! leftover check. The experiment binaries read every name into a
//! [`RunConfig`]; README.md's "Configuration" table lists the names, values
//! and defaults. A flag beats its variable and an empty variable counts as
//! unset. A flag without a value, a malformed value, a repeated or unknown
//! flag and a stray argument are each a [`ConfigError`] naming its source;
//! nothing falls back to a default silently.

use std::path::PathBuf;
use std::str::FromStr;

use snia_dataset::DatasetConfig;

use crate::resilience::{FaultPlan, Resilience};

/// Master seed when `SNIA_SEED` (or `snia --seed`) is not given.
pub const DEFAULT_SEED: u64 = 20170101;

/// Scaled experiment knobs: dataset size, training budget, seed, threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset generation parameters.
    pub dataset: DatasetConfig,
    /// Multiplier applied to training budgets (epochs / step counts).
    pub train_scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Data-parallel training threads (see
    /// [`crate::parallel::BatchExecutor`]).
    pub threads: usize,
}

impl ExperimentConfig {
    /// Builds a configuration explicitly (used by tests; [`RunConfig::parse`]
    /// is the production path).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite `scale`; use [`Self::try_build`]
    /// for a fallible variant.
    pub fn build(full: bool, scale: f64, seed: u64) -> Self {
        match Self::try_build(full, scale, seed) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Self::build`]: rejects non-positive or
    /// non-finite scales with a typed error instead of panicking.
    pub fn try_build(full: bool, scale: f64, seed: u64) -> Result<Self, ConfigError> {
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(ConfigError::InvalidScale(scale));
        }
        let mut dataset = if full {
            DatasetConfig::paper_scale()
        } else {
            DatasetConfig::default()
        };
        dataset.seed = seed;
        if !full {
            dataset.n_samples = ((dataset.n_samples as f64 * scale) as usize).max(40);
            dataset.catalog_size = ((dataset.catalog_size as f64 * scale) as usize).max(100);
        }
        Ok(ExperimentConfig {
            dataset,
            train_scale: if full { 4.0 } else { scale },
            seed,
            threads: 1,
        })
    }

    /// Scales an epoch/step budget, with a floor of 1.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.train_scale).round() as usize).max(1)
    }
}

/// Where telemetry events go.
#[derive(Debug, PartialEq, Eq)]
pub enum TelemetrySink {
    /// `--metrics-out <path>`: JSONL events to that file.
    File(PathBuf),
    /// `SNIA_TELEMETRY` on: JSONL events to
    /// `<results dir>/telemetry/<experiment>.jsonl`.
    ResultsDir,
}

/// Everything an experiment binary reads from its flags and environment
/// (see the module docs).
#[derive(Debug)]
pub struct RunConfig {
    /// Dataset size, training budget, seed and threads.
    pub experiment: ExperimentConfig,
    /// Checkpoint root (`--resume` / `SNIA_RESUME`).
    pub resume: Option<PathBuf>,
    /// Faults to inject (`--fault` / `SNIA_FAULT`).
    pub faults: FaultPlan,
    /// Stamp render-cache directory (`--render-cache` / `SNIA_RENDER_CACHE`).
    pub render_cache: Option<PathBuf>,
    /// In-memory render-cache budget in MiB (`SNIA_RENDER_CACHE_MEM_MB`).
    pub render_cache_mem_mb: Option<usize>,
    /// Telemetry sink (`--metrics-out` / `SNIA_TELEMETRY`); `None` is off.
    pub telemetry: Option<TelemetrySink>,
    /// Results directory (`SNIA_RESULTS_DIR`); `None` is the workspace's
    /// `results/`.
    pub results_dir: Option<PathBuf>,
}

impl RunConfig {
    /// Parses `args` (without the program name) and the variables `env`
    /// looks up; the error is the first malformed value, else the first
    /// unknown flag.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, ConfigError> {
        let mut s = Sources::new(args, &env)?;
        let full = s.get(&["SNIA_FULL"], bit)?.unwrap_or(false);
        let scale = s.get(&["SNIA_SCALE"], scale)?.unwrap_or(1.0);
        let seed = s.get(&["SNIA_SEED"], integer)?.unwrap_or(DEFAULT_SEED);
        let mut experiment = ExperimentConfig::try_build(full, scale, seed)?;
        experiment.threads = s
            .get(&["--threads", "SNIA_THREADS"], positive)?
            .unwrap_or(1);
        let telemetry = match s.get(&["--metrics-out"], text)? {
            Some(p) => Some(TelemetrySink::File(p)),
            None if s.get(&["SNIA_TELEMETRY"], switch)? == Some(true) => {
                Some(TelemetrySink::ResultsDir)
            }
            None => None,
        };
        let cfg = RunConfig {
            experiment,
            resume: s.get(&["--resume", "SNIA_RESUME"], text)?,
            faults: s
                .get(&["--fault", "SNIA_FAULT"], FaultPlan::parse)?
                .unwrap_or_default(),
            render_cache: s.get(&["--render-cache", "SNIA_RENDER_CACHE"], text)?,
            render_cache_mem_mb: s.get(&["SNIA_RENDER_CACHE_MEM_MB"], integer)?,
            telemetry,
            results_dir: s.get(&["SNIA_RESULTS_DIR"], text)?,
        };
        s.finish()?;
        Ok(cfg)
    }

    /// The resilience policy of one training stage: it checkpoints into the
    /// `stage` subdirectory of the checkpoint root, so a killed run restarts
    /// mid-pipeline, and injects a fresh copy of the fault plan.
    pub fn resilience(&self, stage: &str) -> Resilience {
        let dir = self.resume.as_ref().map(|root| root.join(stage));
        Resilience::new(dir, self.faults.clone())
    }
}

/// The flags and environment one entry point reads: flags are lexed once,
/// each getter takes the flags it reads, and [`Sources::finish`] rejects
/// the rest.
pub struct Sources<'a> {
    /// `(name, value)` pairs, names with their `--`.
    flags: Vec<(String, Option<String>)>,
    env: &'a dyn Fn(&str) -> Option<String>,
}

impl<'a> Sources<'a> {
    /// Lexes `args` (without the program name) into `--name value` /
    /// `--name=value` flags; `env` looks variables up. An argument that is
    /// neither a flag nor a flag's value, or a repeated flag, is an error.
    pub fn new(
        args: impl IntoIterator<Item = String>,
        env: &'a dyn Fn(&str) -> Option<String>,
    ) -> Result<Self, ConfigError> {
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                return Err(ConfigError::UnexpectedArgument(arg));
            }
            let (name, value) = match arg.split_once('=') {
                Some((name, value)) => (name.to_string(), Some(value.to_string())),
                None => {
                    let value = args.next_if(|v| !v.starts_with("--"));
                    (arg, value)
                }
            };
            if flags.iter().any(|(n, _)| *n == name) {
                return Err(ConfigError::RepeatedFlag(name));
            }
            flags.push((name, value));
        }
        Ok(Sources { flags, env })
    }

    /// The value of the first of `names` that is set, parsed by `parse`;
    /// each name is a `--flag` or an environment variable, tried in order.
    /// `None` when none is set; a flag without a value, or a value `parse`
    /// rejects (its message is the reason), is an error.
    pub fn get<T>(
        &mut self,
        names: &[&'static str],
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, ConfigError> {
        for &name in names {
            let value = if name.starts_with("--") {
                let Some(i) = self.flags.iter().position(|(n, _)| n == name) else {
                    continue;
                };
                match self.flags.remove(i).1.filter(|v| !v.is_empty()) {
                    Some(v) => v,
                    None => return Err(ConfigError::MissingValue(name)),
                }
            } else {
                match (self.env)(name).filter(|v| !v.is_empty()) {
                    Some(v) => v,
                    None => continue,
                }
            };
            return parse(&value)
                .map(Some)
                .map_err(|reason| ConfigError::Invalid {
                    source: name,
                    value,
                    reason,
                });
        }
        Ok(None)
    }

    /// Checks that a getter took every flag: the first one left is a
    /// [`ConfigError::UnknownFlag`].
    pub fn finish(self) -> Result<(), ConfigError> {
        match self.flags.into_iter().next() {
            Some((name, _)) => Err(ConfigError::UnknownFlag(name)),
            None => Ok(()),
        }
    }
}

/// A positive integer (thread, worker and batch counts).
pub fn positive(value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("expected a positive integer".into()),
    }
}

/// A non-negative integer.
pub fn integer<T: FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| "expected a non-negative integer".into())
}

/// Any non-empty value, as a string or a path.
pub fn text<T: for<'a> From<&'a str>>(value: &str) -> Result<T, String> {
    Ok(value.into())
}

/// An on/off switch: `1`/`true`/`on` or `0`/`false`/`off`.
pub fn switch(value: &str) -> Result<bool, String> {
    match value {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err("expected 1/true/on or 0/false/off".into()),
    }
}

/// `1` or `0`: `SNIA_FULL` has only ever meant paper scale as `1`.
fn bit(value: &str) -> Result<bool, String> {
    match value {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err("expected 1 or 0".into()),
    }
}

fn scale(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(s) if s > 0.0 && s.is_finite() => Ok(s),
        _ => Err("expected a positive number".into()),
    }
}

/// Invalid run configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The scale multiplier must be finite and strictly positive.
    InvalidScale(f64),
    /// A value its getter rejects.
    Invalid {
        /// The flag or variable it came from.
        source: &'static str,
        /// The value as given.
        value: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A flag given without a value, or a required flag that is absent.
    MissingValue(&'static str),
    /// A flag no getter of this entry point reads.
    UnknownFlag(String),
    /// A flag given more than once.
    RepeatedFlag(String),
    /// An argument that is neither a flag nor a flag's value.
    UnexpectedArgument(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidScale(s) => write!(f, "invalid scale {s}"),
            ConfigError::Invalid {
                source,
                value,
                reason,
            } => write!(f, "invalid {source} value {value:?}: {reason}"),
            ConfigError::MissingValue(name) => write!(f, "{name} needs a value"),
            ConfigError::UnknownFlag(name) => write!(f, "unknown flag {name}"),
            ConfigError::RepeatedFlag(name) => write!(f, "{name} is given more than once"),
            ConfigError::UnexpectedArgument(arg) => {
                write!(f, "unexpected argument {arg:?}: expected --flag [value]")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_laptop_scale() {
        let c = ExperimentConfig::build(false, 1.0, 1);
        assert_eq!(c.dataset.n_samples, 1200);
        assert_eq!(c.scaled(3), 3);
    }

    #[test]
    fn full_is_paper_scale() {
        let c = ExperimentConfig::build(true, 1.0, 1);
        assert_eq!(c.dataset.n_samples, 12_000);
        assert!(c.train_scale > 1.0);
    }

    #[test]
    fn scale_shrinks_dataset_with_floor() {
        let c = ExperimentConfig::build(false, 0.01, 1);
        assert_eq!(c.dataset.n_samples, 40);
        assert_eq!(c.scaled(10), 1);
    }

    #[test]
    fn seed_propagates() {
        let c = ExperimentConfig::build(false, 1.0, 99);
        assert_eq!(c.dataset.seed, 99);
        assert_eq!(c.seed, 99);
    }

    #[test]
    #[should_panic(expected = "invalid scale")]
    fn bad_scale_panics() {
        ExperimentConfig::build(false, 0.0, 1);
    }

    #[test]
    fn try_build_returns_typed_errors() {
        assert_eq!(
            ExperimentConfig::try_build(false, 0.0, 1).unwrap_err(),
            ConfigError::InvalidScale(0.0)
        );
        assert!(ExperimentConfig::try_build(false, f64::NAN, 1).is_err());
        assert!(ExperimentConfig::try_build(false, f64::INFINITY, 1).is_err());
        let ok = ExperimentConfig::try_build(false, 1.0, 7).unwrap();
        assert_eq!(ok, ExperimentConfig::build(false, 1.0, 7));
    }

    /// Parses `args` against an environment holding exactly `env`.
    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<RunConfig, ConfigError> {
        RunConfig::parse(args.iter().map(|a| a.to_string()), |name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    type Env = &'static [(&'static str, &'static str)];
    type Check = fn(&RunConfig) -> bool;

    #[test]
    fn parse_table_covers_every_name() {
        let defaults = |c: &RunConfig| {
            c.experiment == ExperimentConfig::build(false, 1.0, DEFAULT_SEED)
                && c.resume.is_none()
                && c.faults.is_empty()
                && c.render_cache.is_none()
                && c.render_cache_mem_mb.is_none()
                && c.telemetry.is_none()
                && c.results_dir.is_none()
        };
        let valid: &[(&[&str], Env, Check)] = &[
            (&[], &[], defaults),
            // An empty variable counts as unset.
            (
                &[],
                &[
                    ("SNIA_FULL", ""),
                    ("SNIA_SCALE", ""),
                    ("SNIA_SEED", ""),
                    ("SNIA_THREADS", ""),
                    ("SNIA_RESUME", ""),
                    ("SNIA_FAULT", ""),
                    ("SNIA_RENDER_CACHE", ""),
                    ("SNIA_RENDER_CACHE_MEM_MB", ""),
                    ("SNIA_TELEMETRY", ""),
                    ("SNIA_RESULTS_DIR", ""),
                ],
                defaults,
            ),
            (&[], &[("SNIA_SEED", "7")], |c| {
                c.experiment == ExperimentConfig::build(false, 1.0, 7)
            }),
            (&[], &[("SNIA_FULL", "1")], |c| {
                c.experiment.dataset.n_samples == 12_000
            }),
            (&[], &[("SNIA_FULL", "0")], defaults),
            (&[], &[("SNIA_SCALE", "0.5")], |c| {
                c.experiment == ExperimentConfig::build(false, 0.5, DEFAULT_SEED)
            }),
            (&["--resume", "ckpt"], &[], |c| {
                c.resume == Some("ckpt".into())
            }),
            (&[], &[("SNIA_RESUME", "env")], |c| {
                c.resume == Some("env".into())
            }),
            (&["--fault", "kill@epoch=3"], &[], |c| {
                c.faults.should_kill(3)
            }),
            (&[], &[("SNIA_FAULT", "kill@epoch=1")], |c| {
                c.faults.should_kill(1)
            }),
            (&["--fault=kill@epoch=2"], &[("SNIA_FAULT", "bogus")], |c| {
                c.faults.should_kill(2)
            }),
            (&["--render-cache", "rc"], &[], |c| {
                c.render_cache == Some("rc".into())
            }),
            (&[], &[("SNIA_RENDER_CACHE_MEM_MB", "64")], |c| {
                c.render_cache_mem_mb == Some(64)
            }),
            (&[], &[("SNIA_TELEMETRY", "1")], |c| {
                c.telemetry == Some(TelemetrySink::ResultsDir)
            }),
            (&[], &[("SNIA_TELEMETRY", "off")], defaults),
            (&["--metrics-out=m"], &[("SNIA_TELEMETRY", "maybe")], |c| {
                c.telemetry == Some(TelemetrySink::File("m".into()))
            }),
            (&[], &[("SNIA_RESULTS_DIR", "r")], |c| {
                c.results_dir == Some("r".into())
            }),
        ];
        for (args, env, check) in valid {
            let cfg = parse(args, env).unwrap_or_else(|e| panic!("{args:?} {env:?}: {e}"));
            assert!(check(&cfg), "{args:?} {env:?} parsed to {cfg:?}");
        }

        let invalid = |source: &'static str, value: &str| ConfigError::Invalid {
            source,
            value: value.into(),
            reason: String::new(),
        };
        let malformed: &[(&[&str], Env, ConfigError)] = &[
            (&[], &[("SNIA_SEED", "abc")], invalid("SNIA_SEED", "abc")),
            (&[], &[("SNIA_SEED", "-1")], invalid("SNIA_SEED", "-1")),
            (&[], &[("SNIA_SCALE", "abc")], invalid("SNIA_SCALE", "abc")),
            (&[], &[("SNIA_SCALE", "0")], invalid("SNIA_SCALE", "0")),
            (&[], &[("SNIA_SCALE", "inf")], invalid("SNIA_SCALE", "inf")),
            (&[], &[("SNIA_FULL", "yes")], invalid("SNIA_FULL", "yes")),
            (&[], &[("SNIA_FULL", "true")], invalid("SNIA_FULL", "true")),
            (
                &[],
                &[("SNIA_TELEMETRY", "maybe")],
                invalid("SNIA_TELEMETRY", "maybe"),
            ),
            (
                &[],
                &[("SNIA_RENDER_CACHE_MEM_MB", "lots")],
                invalid("SNIA_RENDER_CACHE_MEM_MB", "lots"),
            ),
            (
                &[],
                &[("SNIA_FAULT", "bogus")],
                invalid("SNIA_FAULT", "bogus"),
            ),
            (
                &["--fault", "kill@epoch=x"],
                &[],
                invalid("--fault", "kill@epoch=x"),
            ),
            (&["--resume"], &[], ConfigError::MissingValue("--resume")),
            (
                &["--render-cache", "--threads", "2"],
                &[],
                ConfigError::MissingValue("--render-cache"),
            ),
            (
                &["--metrics-out"],
                &[],
                ConfigError::MissingValue("--metrics-out"),
            ),
            (
                &["--thraeds", "4"],
                &[],
                ConfigError::UnknownFlag("--thraeds".into()),
            ),
            (
                &["--threads", "1", "--threads", "2"],
                &[],
                ConfigError::RepeatedFlag("--threads".into()),
            ),
            (
                &["--threads", "1", "2"],
                &[],
                ConfigError::UnexpectedArgument("2".into()),
            ),
        ];
        for (args, env, want) in malformed {
            let got = match parse(args, env) {
                Ok(cfg) => panic!("{args:?} {env:?} must be rejected, parsed to {cfg:?}"),
                // The reason text is for people; the table pins source and value.
                Err(ConfigError::Invalid { source, value, .. }) => invalid(source, &value),
                Err(e) => e,
            };
            assert_eq!(&got, want, "{args:?} {env:?}");
        }
    }

    /// The source and value of a rejected value; the reason text is for
    /// people.
    fn rejected(r: Result<RunConfig, ConfigError>) -> Option<(&'static str, String)> {
        match r {
            Err(ConfigError::Invalid { source, value, .. }) => Some((source, value)),
            _ => None,
        }
    }

    #[test]
    fn threads_flag_forms() {
        let threads = |args: &[&str]| parse(args, &[]).map(|c| c.experiment.threads);
        assert_eq!(threads(&["--threads", "4"]), Ok(4));
        assert_eq!(threads(&["--threads=2"]), Ok(2));
        let both = parse(&["--metrics-out", "m.jsonl", "--threads", "8"], &[]).unwrap();
        assert_eq!(both.experiment.threads, 8);
        assert_eq!(both.telemetry, Some(TelemetrySink::File("m.jsonl".into())));
        assert_eq!(threads(&[]), Ok(1));
        for bare in [&["--threads"][..], &["--threads="]] {
            assert_eq!(threads(bare), Err(ConfigError::MissingValue("--threads")));
        }
        for (flags, value) in [
            (&["--threads", "zero"][..], "zero"),
            (&["--threads", "0"], "0"),
            (&["--threads", "foo"], "foo"),
            (&["--threads=0"], "0"),
            (&["--threads=foo"], "foo"),
        ] {
            assert_eq!(
                rejected(parse(flags, &[])),
                Some(("--threads", value.to_string())),
                "{flags:?} must be rejected"
            );
        }
    }

    #[test]
    fn threads_env_fallback_is_checked() {
        let threads = |args: &[&str], env: Env| parse(args, env).map(|c| c.experiment.threads);
        assert_eq!(threads(&[], &[]), Ok(1));
        assert_eq!(threads(&[], &[("SNIA_THREADS", "")]), Ok(1));
        assert_eq!(threads(&[], &[("SNIA_THREADS", "3")]), Ok(3));
        // A valid flag beats its variable, which is then not read.
        assert_eq!(
            threads(&["--threads", "2"], &[("SNIA_THREADS", "3")]),
            Ok(2)
        );
        assert_eq!(
            threads(&["--threads", "2"], &[("SNIA_THREADS", "abc")]),
            Ok(2)
        );
        // The flag wins, but only a valid flag: a bad one is an error, not
        // a fallback to the environment.
        assert_eq!(
            rejected(parse(&["--threads=x"], &[("SNIA_THREADS", "3")])),
            Some(("--threads", "x".to_string()))
        );
        for v in ["abc", "0", "-1", "2.5"] {
            assert_eq!(
                rejected(parse(&[], &[("SNIA_THREADS", v)])),
                Some(("SNIA_THREADS", v.to_string())),
                "SNIA_THREADS={v:?} must be rejected"
            );
        }
    }

    #[test]
    fn render_cache_flag_forms() {
        let dir = |args: &[&str], env: Env| parse(args, env).map(|c| c.render_cache);
        assert_eq!(
            dir(&["--render-cache", "cache/dir"], &[]),
            Ok(Some("cache/dir".into()))
        );
        assert_eq!(
            dir(&["--threads", "2", "--render-cache=rc"], &[]),
            Ok(Some("rc".into()))
        );
        assert_eq!(
            dir(&["--render-cache=rc"], &[("SNIA_RENDER_CACHE", "env")]),
            Ok(Some("rc".into()))
        );
        assert_eq!(
            dir(&[], &[("SNIA_RENDER_CACHE", "env")]),
            Ok(Some("env".into()))
        );
        assert_eq!(dir(&[], &[]), Ok(None));
        for bare in [&["--render-cache"][..], &["--render-cache="]] {
            assert_eq!(
                dir(bare, &[]),
                Err(ConfigError::MissingValue("--render-cache"))
            );
        }
    }

    #[test]
    fn resume_flag_forms() {
        let dir = |args: &[&str], env: Env| parse(args, env).map(|c| c.resume);
        assert_eq!(
            dir(&["--resume", "ckpt/dir"], &[]),
            Ok(Some("ckpt/dir".into()))
        );
        assert_eq!(
            dir(&["--threads", "2", "--resume=out"], &[]),
            Ok(Some("out".into()))
        );
        assert_eq!(
            dir(&["--resume=out"], &[("SNIA_RESUME", "env")]),
            Ok(Some("out".into()))
        );
        assert_eq!(dir(&[], &[]), Ok(None));
        for bare in [&["--resume"][..], &["--resume="]] {
            assert_eq!(dir(bare, &[]), Err(ConfigError::MissingValue("--resume")));
        }
    }

    #[test]
    fn resilience_checkpoints_per_stage_with_fresh_faults() {
        let cfg = parse(&["--resume", "ckpt", "--fault", "nan_loss@step=4"], &[]).unwrap();
        let a = cfg.resilience("flux");
        let b = cfg.resilience("scratch");
        assert_eq!(a.checkpoint_dir, Some(PathBuf::from("ckpt/flux")));
        assert_eq!(b.checkpoint_dir, Some(PathBuf::from("ckpt/scratch")));
        assert!(a.watchdog.is_some());
        assert!(a.faults.fire_nan_loss(4));
        assert!(
            b.faults.fire_nan_loss(4),
            "each stage injects its own faults"
        );
        let plain = parse(&[], &[]).unwrap().resilience("flux");
        assert!(plain.checkpoint_dir.is_none() && plain.watchdog.is_none());
    }
}
