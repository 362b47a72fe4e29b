//! Command-line flags for the three binaries (`confbench-gateway`,
//! `confbench-fleetd`, `confbench-cli`).
//!
//! Each binary declares one table of [`Flag`]s. The table is what
//! [`Flags::parse`] accepts and what [`usage`] prints, so `--help` cannot
//! drift from the parser.

use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

use confbench_vmm::TeeFaultPlan;

/// One row of a flag table: the flag as typed (`--` included), the
/// placeholder for its value in `--help` (empty for a switch), and its
/// one-line description.
pub type Flag = (&'static str, &'static str, &'static str);

/// Whether `args` asks for the usage text.
pub fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// The `--help` text: `synopsis` on the usage line, then one line per flag.
pub fn usage(synopsis: &str, table: &[Flag]) -> String {
    let mut out = format!("usage: {synopsis}\n");
    for (name, value, help) in table {
        let head = format!("{name} {value}");
        out.push_str(&format!("  {head:<28} {help}\n"));
    }
    out
}

/// A command line checked against a flag table.
pub struct Flags {
    given: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Flags {
    /// Splits `args` into flags and positionals.
    ///
    /// # Errors
    ///
    /// `unknown argument F (try --help)` for a `--flag` not in `table`;
    /// `F needs a value` when a valued flag ends the line.
    pub fn parse(table: &'static [Flag], args: Vec<String>) -> Result<Flags, String> {
        let mut flags = Flags { given: Vec::new(), positionals: Vec::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                flags.positionals.push(arg);
                continue;
            }
            let &(name, placeholder, _) = table
                .iter()
                .find(|(name, ..)| *name == arg)
                .ok_or_else(|| format!("unknown argument {arg} (try --help)"))?;
            let value = if placeholder.is_empty() {
                String::new()
            } else {
                args.next().ok_or_else(|| format!("{arg} needs a value"))?
            };
            flags.given.push((name, value));
        }
        Ok(flags)
    }

    /// The non-flag arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Every value given for `flag`, in order (repeatable flags).
    pub fn flag_values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.given.iter().filter(move |(name, _)| *name == flag).map(|(_, v)| v.as_str())
    }

    /// The value of `flag`, when given.
    pub fn flag_value<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.flag_values(flag).next()
    }

    /// Whether `flag` was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flag_value(flag).is_some()
    }

    /// The value of `flag` parsed as `T`; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// `bad WHAT: <parse error>`.
    pub fn parsed<T: FromStr>(&self, flag: &str, what: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.flag_value(flag).map(|v| v.parse().map_err(|e| format!("bad {what}: {e}"))).transpose()
    }

    /// As [`Flags::parsed`] for counts and sizes, which must be at least 1.
    ///
    /// # Errors
    ///
    /// As [`Flags::parsed`], plus `F must be at least 1`.
    pub fn positive<T>(&self, flag: &str, what: &str) -> Result<Option<T>, String>
    where
        T: FromStr + Default + PartialEq,
        T::Err: Display,
    {
        match self.parsed(flag, what)? {
            Some(n) if n == T::default() => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }
}

/// The fault plan both daemons arm with `--chaos-seed N` (nonzero) at
/// `--chaos-rate F` (default 0.1), announced on stderr.
///
/// # Errors
///
/// Unparsable values; a rate outside `[0, 1]`.
pub fn chaos_plan(flags: &Flags) -> Result<Option<Arc<TeeFaultPlan>>, String> {
    let seed: u64 = flags.parsed("--chaos-seed", "chaos seed")?.unwrap_or(0);
    let rate = flags.parsed("--chaos-rate", "chaos rate")?.unwrap_or(0.1);
    if !(0.0..=1.0).contains(&rate) {
        return Err("--chaos-rate must be in [0, 1]".into());
    }
    if seed == 0 {
        return Ok(None);
    }
    eprintln!("chaos armed: seed {seed}, fault rate {rate} per TEE crossing");
    Ok(Some(Arc::new(TeeFaultPlan::new(seed, rate))))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: [Flag; 3] =
        [("--seed", "N", "seed"), ("--host", "ADDR", "repeatable"), ("--wait", "", "switch")];

    // Unknown flags, missing values, bad numbers and `--help` are pinned per
    // binary, against the real tables.
    #[test]
    fn flags_values_switches_and_positionals_are_told_apart_by_the_table() {
        let parse = |line: &str| {
            Flags::parse(&TABLE, line.split_whitespace().map(str::to_owned).collect()).unwrap()
        };
        let flags = parse("run --wait fib --host a --seed 7 --host b -5");
        assert_eq!(flags.positionals(), ["run", "fib", "-5"]);
        assert!(flags.has_flag("--wait") && !flags.has_flag("--nope"));
        assert_eq!(flags.flag_values("--host").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(flags.parsed::<u64>("--seed", "seed"), Ok(Some(7)));
        assert_eq!(flags.parsed::<u64>("--nope", "x"), Ok(None));
        // A valued flag takes the next token whatever it looks like.
        assert_eq!(parse("--host --wait").flag_value("--host"), Some("--wait"));
    }
}
