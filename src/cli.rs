//! Shared command-line plumbing for the workspace binaries.
//!
//! `localut-sim`, `bench-runner`, `loadgen`, and `serve-daemon` all parse
//! flags through this one module, which pins the conventions that used to
//! drift between hand-rolled loops:
//!
//! * `--help`/`-h` prints the usage line and **exits 0** everywhere;
//! * usage errors print to stderr and **exit 2** (reserving 1 for "ran
//!   but failed": a figure claim outside its band, a failed request);
//! * common flags spell the same way and validate the same way —
//!   `--threads` is a positive integer, `--seed` a `u64`, `--out` a file
//!   path;
//! * unknown flags echo the usage line.
//!
//! The parsing style stays the flat `while let Some(flag)` loop the
//! binaries always used; this module supplies the loop's plumbing
//! ([`Flags`]) and the process-exit policy ([`CliError`], [`exit`]), not
//! a framework. The one flag *group* two binaries share — the engine
//! topology and cache lifecycle flags of `loadgen` and `serve-daemon` —
//! lives here too ([`EngineFlags`]), with the lines both print about it.

use engine::{CacheStats, Engine, MemoStats};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// Why argument parsing stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h`: carries the usage line; [`exit`] prints it to
    /// stdout and succeeds.
    Help(&'static str),
    /// A real usage problem; [`exit`] prints it to stderr and exits 2.
    Usage(String),
}

/// Terminates argument handling the uniform way: help → usage on stdout,
/// exit 0; error → message on stderr, exit 2.
#[must_use]
pub fn exit(error: &CliError) -> ExitCode {
    match error {
        CliError::Help(usage) => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        CliError::Usage(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// The flag stream a binary's `parse_args` walks.
#[derive(Debug)]
pub struct Flags {
    it: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Flags {
    /// Wraps the process arguments (skipping the binary name).
    #[must_use]
    pub fn from_env(usage: &'static str) -> Flags {
        Flags::from_args(std::env::args().skip(1).collect(), usage)
    }

    /// Wraps an explicit argument vector (tests).
    #[must_use]
    pub fn from_args(args: Vec<String>, usage: &'static str) -> Flags {
        Flags {
            it: args.into_iter(),
            usage,
        }
    }

    /// The next flag, with `--help`/`-h` intercepted uniformly.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on a help flag.
    pub fn next_flag(&mut self) -> Result<Option<String>, CliError> {
        match self.it.next() {
            Some(flag) if flag == "--help" || flag == "-h" => Err(CliError::Help(self.usage)),
            other => Ok(other),
        }
    }

    /// The value following `flag`.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the stream ends instead.
    pub fn value(&mut self, flag: &str) -> Result<String, CliError> {
        self.it
            .next()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed via [`FromStr`]; the type's own
    /// error message is surfaced.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on a missing or unparseable value.
    pub fn parsed<T>(&mut self, flag: &str) -> Result<T, CliError>
    where
        T: FromStr,
        T::Err: Display,
    {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|e| CliError::Usage(format!("bad {flag} '{value}': {e}")))
    }

    /// The value following `flag` as a positive integer (≥ 1) — the
    /// shared contract of `--threads` and every other count flag.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] unless the value parses and is at least 1.
    pub fn positive(&mut self, flag: &str) -> Result<usize, CliError> {
        match self.value(flag)?.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(CliError::Usage(format!(
                "{flag} must be a positive integer"
            ))),
        }
    }

    /// The uniform unknown-flag error, echoing the usage line.
    #[must_use]
    pub fn unknown(&self, flag: &str) -> CliError {
        CliError::Usage(format!("unknown flag '{flag}'\n{}", self.usage))
    }

    /// A usage error that still echoes the usage line (for cross-flag
    /// validation after the loop, e.g. "exactly one of --shape/--model").
    #[must_use]
    pub fn usage_error(&self, message: &str) -> CliError {
        CliError::Usage(format!("{message}\n{}", self.usage))
    }
}

/// The engine flags `loadgen` and `serve-daemon` spell, default and
/// validate the same way: `--ranks N [--banks-per-rank N]` (the ranked
/// machine; 64 banks per rank unless said otherwise) and
/// `--cache-dir DIR` / `--cache-budget BYTES` (the LUT cache lifecycle).
/// None of them moves a simulated number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineFlags {
    /// `--ranks`: serve on the two-level topology.
    pub ranks: Option<u32>,
    /// `--banks-per-rank` (requires `--ranks`).
    pub banks_per_rank: Option<u32>,
    /// `--cache-dir`: warm-restore from, and persist to, this directory.
    pub cache_dir: Option<String>,
    /// `--cache-budget`: byte budget for resident LUT images.
    pub cache_budget: Option<u64>,
}

impl EngineFlags {
    /// Consumes `flag`'s value when `flag` belongs to the group; returns
    /// whether it did, so the caller's `match` falls through otherwise.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on a missing or non-positive value.
    pub fn accept(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, CliError> {
        let count = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        match flag {
            "--ranks" => self.ranks = Some(count(flags.positive(flag)?)),
            "--banks-per-rank" => self.banks_per_rank = Some(count(flags.positive(flag)?)),
            "--cache-dir" => self.cache_dir = Some(flags.value(flag)?),
            "--cache-budget" => self.cache_budget = Some(flags.positive(flag)? as u64),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The group's cross-flag rule, checked after the loop.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for `--banks-per-rank` without `--ranks`.
    pub fn validate(&self, flags: &Flags) -> Result<(), CliError> {
        if self.banks_per_rank.is_some() && self.ranks.is_none() {
            return Err(flags.usage_error("--banks-per-rank requires --ranks N"));
        }
        Ok(())
    }

    /// The ranked topology asked for, as `(ranks, banks_per_rank)` — 64
    /// banks per rank (the paper's server) unless `--banks-per-rank` said
    /// otherwise; `None` without `--ranks`.
    #[must_use]
    pub fn ranked(&self) -> Option<(u32, u32)> {
        self.ranks
            .map(|ranks| (ranks, self.banks_per_rank.unwrap_or(64)))
    }

    /// An engine under these flags: flat by default, the ranked machine
    /// under `--ranks`, with the cache lifecycle knobs applied.
    #[must_use]
    pub fn build_engine(&self, threads: usize) -> Engine {
        let mut builder = Engine::builder().threads(threads);
        if let Some((ranks, banks_per_rank)) = self.ranked() {
            builder = builder.ranks(ranks, banks_per_rank);
        }
        if let Some(budget) = self.cache_budget {
            builder = builder.cache_budget(budget);
        }
        if let Some(dir) = &self.cache_dir {
            builder = builder.cache_dir(dir);
        }
        builder.build()
    }

    /// Says how `engine`'s warm restore went: a warning on stderr when it
    /// failed (a bad cache directory degrades to a cold start, never a
    /// refusal to serve — but the operator asked for warmth, so say why
    /// not), a `warm start` line when images were restored, nothing on a
    /// cold start. `prefix` is the binary's own line prefix.
    pub fn print_restore(&self, engine: &Engine, prefix: &str) {
        let restored = engine.lut_cache_stats().entries;
        if let Some(error) = engine.cache_restore_error() {
            eprintln!("warning: cache restore failed, starting cold: {error}");
        } else if restored > 0 {
            println!(
                "{prefix}warm start: restored {restored} LUT image(s) from {}",
                self.cache_dir.as_deref().unwrap_or("?"),
            );
        }
    }

    /// Saves `engine`'s resident LUT images under `--cache-dir` (a no-op
    /// without one) so the next process pointed there starts warm.
    ///
    /// # Errors
    ///
    /// The store failure, as text: persisting is part of what the
    /// operator asked for, so the binaries treat it as an error.
    pub fn persist(&self, engine: &Engine, prefix: &str) -> Result<(), String> {
        if let Some(dir) = &self.cache_dir {
            let count = engine.persist_cache().map_err(|e| e.to_string())?;
            println!("{prefix}persisted {count} LUT image(s) to {dir}");
        }
        Ok(())
    }
}

/// The two cache lifecycle lines printed at the end of a run: from the
/// engine's own counters in-process, from the wire snapshot after a
/// remote drain. Host-side observables only — nothing here is in any
/// deterministic JSON.
pub fn print_cache_lines(prefix: &str, lut: &CacheStats, memo: &MemoStats) {
    println!(
        "{prefix}lut cache: {} hit(s), {} miss(es), {} eviction(s), {} failed build(s), {} restored; {} resident entr{} ({} B)",
        lut.hits,
        lut.misses,
        lut.evictions,
        lut.failed_builds,
        lut.restored,
        lut.entries,
        if lut.entries == 1 { "y" } else { "ies" },
        lut.resident_bytes
    );
    println!(
        "{prefix}plan memo: {} hit(s), {} miss(es), {} entries",
        memo.hits, memo.misses, memo.entries
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::from_args(args.iter().map(|s| (*s).to_string()).collect(), "USAGE")
    }

    #[test]
    fn help_is_intercepted_wherever_it_appears() {
        let mut f = flags(&["--help"]);
        assert_eq!(f.next_flag(), Err(CliError::Help("USAGE")));

        let mut f = flags(&["--threads", "2", "-h"]);
        assert_eq!(f.next_flag(), Ok(Some("--threads".to_owned())));
        assert_eq!(f.positive("--threads").unwrap(), 2);
        assert_eq!(f.next_flag(), Err(CliError::Help("USAGE")));
    }

    #[test]
    fn positive_rejects_zero_garbage_and_missing() {
        assert!(flags(&["0"]).positive("--threads").is_err());
        assert!(flags(&["two"]).positive("--threads").is_err());
        assert!(flags(&[]).positive("--threads").is_err());
        assert_eq!(flags(&["4"]).positive("--threads").unwrap(), 4);
    }

    #[test]
    fn parsed_surfaces_the_inner_error() {
        let err = flags(&["W9A99"]).parsed::<quant::BitConfig>("--config");
        match err {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("--config"), "names the flag: {msg}");
                assert!(msg.contains("W9A99"), "names the value: {msg}");
            }
            other => panic!("expected Usage, got {other:?}"),
        }
        let seed: u64 = flags(&["42"]).parsed("--seed").unwrap();
        assert_eq!(seed, 42);
    }

    #[test]
    fn unknown_flag_echoes_usage() {
        let f = flags(&[]);
        match f.unknown("--bogus") {
            CliError::Usage(msg) => {
                assert!(msg.contains("--bogus") && msg.contains("USAGE"));
            }
            CliError::Help(_) => panic!("unknown flag is not help"),
        }
    }
    #[test]
    fn engine_flags_accept_their_group_and_nothing_else() {
        let mut f = flags(&["8", "16", "DIR", "4096", "x"]);
        let mut group = EngineFlags::default();
        for flag in [
            "--ranks",
            "--banks-per-rank",
            "--cache-dir",
            "--cache-budget",
        ] {
            assert_eq!(group.accept(flag, &mut f), Ok(true), "{flag}");
        }
        // A foreign flag is left for the caller, its value unconsumed.
        assert_eq!(group.accept("--threads", &mut f), Ok(false));
        assert_eq!(f.value("--threads").unwrap(), "x");
        assert_eq!(
            group,
            EngineFlags {
                ranks: Some(8),
                banks_per_rank: Some(16),
                cache_dir: Some("DIR".to_owned()),
                cache_budget: Some(4096),
            }
        );
        assert!(group.validate(&f).is_ok());
        assert_eq!(group.build_engine(1).default_banks(), 128);

        // Counts are positive; --banks-per-rank needs --ranks.
        assert!(EngineFlags::default()
            .accept("--ranks", &mut flags(&["0"]))
            .is_err());
        let lone = EngineFlags {
            banks_per_rank: Some(4),
            ..EngineFlags::default()
        };
        assert!(lone.validate(&f).is_err());
    }
}
