//! Sim-digest goldens.
//!
//! Everything inside a `RunResult`, `CellSummary` or migration report that
//! is *simulated* (cycles, virtual milliseconds, outputs, page counts) is a
//! pure function of the workload's inputs, so it is compared for exact
//! equality, never reported as a speed. Each workload folds the simulated
//! outputs of its *checked prefix* — a fixed set of operations every run
//! completes, whatever `--seconds` is — into a [`SimLog`]: one line per
//! item (a short hash and a readable label) and a SHA-256 over the lines.
//! `golden/<workload>.<seed>.digest` holds the log of a blessed run.

use std::fmt::Write as _;
use std::path::PathBuf;

use confbench_types::{CellSummary, RunResult};

use crate::layers::sha256_hex;

/// The simulated outputs of a workload's checked prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimLog {
    lines: Vec<String>,
}

impl SimLog {
    fn push(&mut self, label: &str, canonical: &str) {
        self.lines.push(format!("{} {label}", &sha256_hex(canonical.as_bytes())[..16]));
    }

    /// One campaign cell: content address, the five `*_ms` statistics (bit
    /// patterns, so no rounding hides a change) and the output.
    pub fn cell(&mut self, c: &CellSummary) {
        let canonical = format!(
            "{} {:016x} {:016x} {:016x} {:016x} {:016x} {}",
            c.cache_key,
            c.mean_ms.to_bits(),
            c.median_ms.to_bits(),
            c.min_ms.to_bits(),
            c.max_ms.to_bits(),
            c.stddev_ms.to_bits(),
            c.output
        );
        let label = format!(
            "cell {}/{}/{} mean_ms={} output={}",
            c.cell.function.name, c.cell.language, c.cell.kind, c.mean_ms, c.output
        );
        self.push(&label, &canonical);
    }

    /// One `/v1/run` result: per-trial cycles and virtual milliseconds,
    /// and the output.
    pub fn run(&mut self, index: u64, r: &RunResult) {
        let mut canonical = String::new();
        for (cycles, ms) in r.trial_cycles.iter().zip(&r.trial_ms) {
            let _ = write!(canonical, "{} {:016x} ", cycles.get(), ms.to_bits());
        }
        canonical.push_str(&r.output);
        let label = format!(
            "run#{index} {}/{}/{} cycles={} output={}",
            r.function,
            r.language,
            r.target.kind,
            r.trial_cycles.first().map_or(0, |c| c.get()),
            r.output
        );
        self.push(&label, &canonical);
    }

    /// Any other simulated record, already rendered as `key=value` text.
    pub fn record(&mut self, label: &str) {
        self.push(label, label);
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// SHA-256 over the item lines.
    pub fn digest(&self) -> String {
        sha256_hex(self.lines.join("\n").as_bytes())
    }

    fn render(&self) -> String {
        format!("sha256 {}\n{}\n", self.digest(), self.lines.join("\n"))
    }

    /// The first item at which two logs differ, for failure messages.
    #[cfg(test)]
    pub fn first_difference(&self, other: &SimLog) -> Option<String> {
        first_difference(&self.lines, &other.lines)
    }
}

fn first_difference(got: &[String], want: &[String]) -> Option<String> {
    let missing = "<missing>".to_owned();
    (0..got.len().max(want.len())).find_map(|i| {
        let (g, w) = (got.get(i).unwrap_or(&missing), want.get(i).unwrap_or(&missing));
        (g != w).then(|| format!("item {i}: expected `{w}`, got `{g}`"))
    })
}

fn golden_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(format!("benchmark/golden/{workload}.{seed}.digest"))
}

/// Outcome of comparing a run's log with the blessed one.
#[derive(Debug, PartialEq, Eq)]
pub enum Golden {
    /// The digest equals the golden.
    Match,
    /// No golden exists for this workload and seed (only seeds 13 and 14
    /// are blessed); the native-output and self-consistency checks stand
    /// alone.
    Absent,
    /// The simulated outputs changed; the message names the first item.
    Mismatch(String),
}

/// Compares `log` with `golden/<workload>.<seed>.digest`.
pub fn compare(workload: &str, seed: u64, log: &SimLog) -> Golden {
    let Ok(text) = std::fs::read_to_string(golden_path(workload, seed)) else {
        return Golden::Absent;
    };
    if text == log.render() {
        return Golden::Match;
    }
    let want: Vec<String> = text.lines().skip(1).map(str::to_owned).collect();
    Golden::Mismatch(format!(
        "sim digest of {workload} (seed {seed}) differs from its golden: {}; \
         if the simulated outputs were meant to change, rerun with `bless`",
        first_difference(&log.lines, &want).unwrap_or_else(|| "digest line only".into())
    ))
}

/// Rewrites the golden for this workload and seed.
pub fn bless(workload: &str, seed: u64, log: &SimLog) -> std::io::Result<PathBuf> {
    let path = golden_path(workload, seed);
    std::fs::write(&path, log.render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_names_the_first_differing_item() {
        let mut a = SimLog::default();
        let mut b = SimLog::default();
        for i in 0..4 {
            a.record(&format!("migration#{i} pages_total=88"));
            b.record(&format!("migration#{i} pages_total={}", if i == 2 { 89 } else { 88 }));
        }
        assert_eq!(a.first_difference(&a.clone()), None);
        assert_ne!(a.digest(), b.digest());
        let msg = a.first_difference(&b).expect("logs differ");
        assert!(msg.starts_with("item 2:"), "{msg}");
        assert!(msg.contains("pages_total=89") && msg.contains("pages_total=88"), "{msg}");
        b.record("extra");
        assert!(b.first_difference(&a).is_some());
    }
}
