//! The repository benchmark: cold compile, warm serving, batched decode
//! and fault recovery, timed end to end and layer by layer from outside
//! the program.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-cold|serve-steady|decode-batched|serve-chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run also
//! writes its span summary to standard error.

mod compile;
mod digest;
mod gen;
mod metrics;
mod serving;
mod spans;

use std::process::ExitCode;

/// Width of the pool the serving engines step their fleets on.
pub const POOL_WIDTH: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileCold,
    ServeSteady,
    DecodeBatched,
    ServeChaos,
}

impl Workload {
    /// Set-up repetitions per run; `setup_s` is their median. Decode's
    /// set-up compiles Whisper-M and is the most expensive, compile-cold's
    /// only builds the zoo.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::CompileCold => 151,
            Workload::ServeSteady | Workload::ServeChaos => 3,
            Workload::DecodeBatched => 2,
        }
    }

    const ALL: [(&'static str, Workload); 4] = [
        ("compile-cold", Workload::CompileCold),
        ("serve-steady", Workload::ServeSteady),
        ("decode-batched", Workload::DecodeBatched),
        ("serve-chaos", Workload::ServeChaos),
    ];
}

#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.iter().find(|(name, _)| *name == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value}"))?.1);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let mut out = metrics::Output::default();
    match args.workload {
        Workload::CompileCold => compile::run(&args, &mut out),
        _ => serving::run(&args, &mut out),
    }
    out.set("host_peak_rss_mib", metrics::peak_rss_mib());
    out.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    for why in &out.failures {
        eprintln!("perfbench: failed: {why}");
    }
    println!("{}", out.to_json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse(argv(
            "--workload serve-chaos --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload, Workload::ServeChaos);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert!(parse(argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse(argv("--workload compile-cold --seconds 1")).is_err());
        assert!(parse(argv("--workload compile-cold --seed 1 --seconds 0")).is_err());
    }
}
