//! `confbench-bench` — the one front-end to every figure of the paper's
//! evaluation.
//!
//! ```text
//! confbench-bench <figure> [--smoke] [--seed N]   print one figure
//! confbench-bench reproduce                       rewrite results/<figure>.txt
//! ```
//!
//! `--smoke` runs the figure at quick scale (small arguments, 3 trials).
//! `reproduce` regenerates every golden figure at paper scale with its
//! default seed into `./results`, so run it from the repository root;
//! `git diff results/` then shows whether the code still prints what is
//! checked in.

use std::process::ExitCode;

use confbench_bench::{ExperimentConfig, Figure, Scale, FIGURES};
use confbench_types::{Error, Result};

fn usage() -> Error {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    Error::InvalidRequest(format!(
        "usage: confbench-bench <figure> [--smoke] [--seed N] | confbench-bench reproduce\n\
         figures: {}",
        names.join(", ")
    ))
}

/// Parses `[--smoke] [--seed N]` into the figure's configuration.
fn config(figure: &Figure, options: &[String]) -> Result<ExperimentConfig> {
    let mut cfg = ExperimentConfig::paper(figure.seed);
    let mut options = options.iter();
    while let Some(option) = options.next() {
        match option.as_str() {
            "--smoke" => cfg.scale = Scale::Quick,
            "--seed" => cfg.seed = options.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?,
            _ => return Err(usage()),
        }
    }
    Ok(cfg)
}

fn reproduce() -> Result<()> {
    for figure in FIGURES.iter().filter(|f| f.golden) {
        let mut text = Vec::new();
        (figure.render)(ExperimentConfig::paper(figure.seed), &mut text)?;
        let path = format!("results/{}.txt", figure.name);
        std::fs::write(&path, text)?;
        println!("wrote {path}");
    }
    Ok(())
}

fn run(args: &[String]) -> Result<()> {
    let (command, options) = args.split_first().ok_or_else(usage)?;
    if command == "reproduce" && options.is_empty() {
        return reproduce();
    }
    let figure = FIGURES.iter().find(|f| f.name == command).ok_or_else(usage)?;
    (figure.render)(config(figure, options)?, &mut std::io::stdout().lock())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("confbench-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
