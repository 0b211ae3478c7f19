//! End-to-end benchmark of the mmd workspace. See README.md for the
//! workloads, the metrics and how they interact.
//!
//! ```text
//! mmd-e2ebench --workload solve-web|ingest-drift|serve-churn --seed N
//!              [--instance-seed M] [--churn-seed C] [--seconds S] [--trace 0|1]
//!              [--size full|tiny]
//! ```
//!
//! `--seed` seeds what varies from run to run without changing how much
//! work a run does: the interest drift applied to `solve-web`'s instance
//! and the keys `serve-churn`'s reader queries. The inputs that do change
//! the work are fixed unless given: `--instance-seed` (default 9000) seeds
//! the web instance, `--churn-seed` (default 42) the update traces of
//! `ingest-drift` and `serve-churn`.
//!
//! Prints readable result lines, then one JSON object as the last line of
//! standard output. With `--trace 1` the per-layer metrics are reported and
//! the recorded spans are written to `.bench_out/`.

mod ingest_drift;
mod replay;
mod report;
mod serve_churn;
mod solve_web;
mod trace;

use mmd_core::algo::shard::ShardConfig;
use mmd_core::{Assignment, IngestConfig, Instance, LaneMode};
use mmd_workload::WebConfig;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Instance size: the measured workloads, or a miniature of each that
/// exercises the same code, output schema and checks in about a second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// `full` at the measured size, `tiny` at the smoke size.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    /// The run seed (see the module docs).
    pub seed: u64,
    /// Seed of the generated web instance.
    pub instance_seed: u64,
    /// Seed of the churn workloads' update traces.
    pub churn_seed: u64,
    /// How long one run measures.
    pub seconds: Duration,
    pub trace: bool,
    pub size: Size,
}

const USAGE: &str = "usage: mmd-e2ebench --workload solve-web|ingest-drift|serve-churn \
--seed N [--instance-seed M] [--churn-seed C] [--seconds S] [--trace 0|1] [--size full|tiny]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut instance_seed = DEFAULT_INSTANCE_SEED;
    let mut churn_seed = DEFAULT_CHURN_SEED;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {key}"))?;
        let num = |what: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("invalid {what}: {value}"))
        };
        match key.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num("seed")?),
            "--instance-seed" => instance_seed = num("instance seed")?,
            "--churn-seed" => churn_seed = num("churn seed")?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("invalid seconds: {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid trace flag: {value}")),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("invalid size: {value}")),
                }
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["solve-web", "ingest-drift", "serve-churn"].contains(&workload.as_str()) {
        return Err(format!("unknown workload: {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed,
        instance_seed,
        churn_seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        size,
    })
}

/// The instance seed of the existing `perf` harness's web rungs. Web
/// instances of one size differ in how hard they are to solve (cold solve
/// time varies by a third across instance seeds), so runs share one
/// instance unless told otherwise.
pub const DEFAULT_INSTANCE_SEED: u64 = 9000;

/// The churn seed of the existing `perf` harness's ingest rungs. Trace
/// seeds change the work: under drift-only churn 5 of 20 traces tipped the
/// partition into a mode with a one-point higher gap and costlier applies,
/// and under mixed churn the commit median ranged 577–852 ms across trace
/// seeds 1–5. Runs share one trace unless told otherwise.
pub const DEFAULT_CHURN_SEED: u64 = 42;

/// Set-ups per run: `setup_s` is their median.
pub const SETUPS: usize = 5;

/// A compact-lane web instance of `users` users (and `users / 64`
/// streams); `budget_fraction` overrides the contended default of 0.3.
pub fn web_instance(users: usize, budget_fraction: Option<f64>, seed: u64) -> Instance {
    let mut config = WebConfig::scaled(users).with_lane_mode(LaneMode::Compact);
    if let Some(fraction) = budget_fraction {
        config.budget_fraction = fraction;
    }
    config.generate(seed)
}

/// The two-level shard configuration every workload solves under: 8
/// super-shards of 64-stream inner shards (2 and 24 at the smoke size).
pub fn shard_config(size: Size, threads: usize) -> ShardConfig {
    ShardConfig {
        max_streams: size.pick(64, 24),
        super_shards: size.pick(8, 2),
        threads,
        ..ShardConfig::default()
    }
}

/// The engine configuration of the steady-churn workloads. At web scale any
/// batch dirties every super-shard and the coarse cut fraction is a static
/// property of the connected Zipf graph, so the escalation gates are opened
/// and the engine relies on (super, inner) reuse; escalation never changes
/// the outcome, only the work.
pub fn ingest_config(size: Size) -> IngestConfig {
    IngestConfig {
        shard: shard_config(size, 1),
        max_dirty_fraction: 1.0,
        max_cut_fraction: 1.0,
        ..IngestConfig::default()
    }
}

/// Operations one run performs: enough to take about `seconds` at the
/// first baseline (`nominal` each), and at least `min`. A fixed count keeps
/// every run, and both sides of a comparison, on the same operations, so
/// medians and final brackets do not depend on how fast a run went.
pub fn op_count(seconds: Duration, nominal: Duration, min: usize) -> usize {
    ((seconds.as_secs_f64() / nominal.as_secs_f64()).ceil() as usize).max(min)
}

/// A run that has taken this long stops early, with fewer samples: a
/// severe slowdown still ends well inside the run's time limit.
pub fn time_cap(seconds: Duration) -> Duration {
    seconds * 3
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Checks a solve's output: a feasible assignment and a finite certified
/// bracket `0 ≤ utility ≤ upper_bound`.
pub fn check_solution(
    report: &mut Report,
    what: &str,
    instance: &Instance,
    assignment: &Assignment,
    utility: f64,
    upper_bound: f64,
) {
    report.check(
        assignment.check_feasible(instance).is_ok(),
        &format!("{what}: infeasible assignment"),
    );
    report.check(
        utility.is_finite() && upper_bound.is_finite() && 0.0 <= utility && utility <= upper_bound,
        &format!("{what}: bracket {utility} <= {upper_bound} violated"),
    );
}

/// Records `setup_s` (the median of the set-ups) with its readable line.
pub fn setup_metric(report: &mut Report, workload: &str, setups: &[f64], what: &str) {
    let median = report::median(setups);
    report.e2e("setup_s", median);
    report.line(format!(
        "{workload}  setup_s = {median:.4} s  (median of {} set-ups: {what})",
        setups.len()
    ));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut tr = Tracer::new(args.trace);
    match args.workload.as_str() {
        "solve-web" => solve_web::run(&args, &mut report, &mut tr),
        "ingest-drift" => ingest_drift::run(&args, &mut report, &mut tr),
        _ => serve_churn::run(&args, &mut report, &mut tr),
    }
    if args.trace {
        let path = PathBuf::from(format!(
            ".bench_out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        ));
        match tr.write_jsonl(&path) {
            Ok(()) => report.line(format!(
                "{}  {} spans written to {}",
                args.workload,
                tr.spans().len(),
                path.display()
            )),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{}", report.render(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload solve-web --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.instance_seed, DEFAULT_INSTANCE_SEED);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        assert_eq!(a.size, Size::Full);
        assert_eq!(a.churn_seed, DEFAULT_CHURN_SEED);
        let b =
            args("--workload serve-churn --seed 1 --instance-seed 99 --churn-seed 5 --size tiny")
                .unwrap();
        assert_eq!(b.instance_seed, 99);
        assert_eq!(b.churn_seed, 5);
        assert_eq!(b.size, Size::Tiny);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload solve-web").is_err());
        assert!(args("--workload solve-web --seed x").is_err());
        assert!(args("--workload solve-web --seed 1 --trace 2").is_err());
        assert!(args("--workload solve-web --seed 1 --seconds 0").is_err());
        assert!(args("--workload solve-web --seed").is_err());
    }
}
