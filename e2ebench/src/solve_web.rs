//! `solve-web`: repeated cold two-level `solve_sharded` on a contended
//! web instance at two workers. The planner's cold solve is repair-bound,
//! and this is the only workload where the `mmd_par` fan-out does real
//! work. The solved instance is the generated one after a seeded interest
//! drift: the cold re-plan of a catalog whose audience moved.

use crate::report::{median, peak_rss_mb, Report};
use crate::trace::Tracer;
use crate::{check_solution, ms_since, replay, setup_metric, shard_config, web_instance, Args};
use mmd_core::algo::shard::solve_sharded;
use mmd_core::ingest::Update;
use mmd_core::{Instance, StreamId, UserId};
use mmd_workload::ChurnConfig;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Pool workers of the measured solves.
const WORKERS: usize = 2;

/// Cold solves per run: one about every `NOMINAL_SOLVE` of `--seconds`.
const NOMINAL_SOLVE: Duration = Duration::from_millis(4000);
/// The same at the smoke size.
const NOMINAL_TINY: Duration = Duration::from_millis(25);

/// Interest-drift updates applied to the generated instance.
const DRIFT_UPDATES: usize = 128;

/// `base` with the interest weights set by `updates` (drift-only churn, so
/// every update is an interest change of an existing pair).
fn drifted(base: &Instance, updates: &[Update]) -> Instance {
    let mut weights: BTreeMap<(UserId, StreamId), f64> = BTreeMap::new();
    for update in updates {
        if let Update::InterestChange {
            user,
            stream,
            weight,
        } = *update
        {
            weights.insert((user, stream), weight);
        }
    }
    let mut b = Instance::builder(base.name())
        .server_budgets(base.budgets().to_vec())
        .lane_mode(base.lane_mode());
    for s in base.streams() {
        b.add_stream(base.costs(s).to_vec());
    }
    for u in base.users() {
        let spec = base.user(u);
        b.add_user(spec.utility_cap(), spec.capacities().to_vec());
    }
    for u in base.users() {
        for interest in base.user(u).interests() {
            let s = interest.stream();
            let w = weights.get(&(u, s)).copied().unwrap_or(interest.utility());
            b.add_interest(u, s, w, interest.loads().to_vec())
                .expect("the base instance's interests are unique");
        }
    }
    b.build().expect("drift keeps weights positive and finite")
}

pub fn run(args: &Args, report: &mut Report, tr: &mut Tracer) {
    const NAME: &str = "solve-web";
    let users = args.size.pick(100_000, 3_000);
    let config = shard_config(args.size, WORKERS);

    let mut setups = Vec::new();
    let mut instance = None;
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        let base = web_instance(users, None, args.instance_seed);
        let drift = ChurnConfig::low(DRIFT_UPDATES).generate(&base, args.seed);
        instance = Some(drifted(&base, &drift));
        setups.push(t.elapsed().as_secs_f64());
    }
    let instance = instance.expect("at least one set-up");
    setup_metric(report, NAME, &setups, "instance generation and drift");

    // The traced run splits its solves between untraced solves (the
    // overhead baseline) and traced replays.
    let solves = crate::op_count(args.seconds, args.size.pick(NOMINAL_SOLVE, NOMINAL_TINY), 3);
    let (untraced, replays) = if args.trace {
        ((solves / 2).max(2), (solves / 2).max(2))
    } else {
        (solves, 0)
    };
    let cap = crate::time_cap(args.seconds);
    let mut solve_ms = Vec::new();
    let mut fingerprint = None;
    let mut gap = 0.0;
    let mut dropped = 0;
    let start = Instant::now();
    for i in 0..untraced {
        if i > 0 && start.elapsed() > cap {
            break;
        }
        let t = Instant::now();
        let out = solve_sharded(&instance, &config);
        let ms = ms_since(t);
        let Ok(out) = out else {
            report.op(false);
            solve_ms.push(f64::INFINITY);
            eprintln!("solve failed: {:?}", out.err());
            continue;
        };
        report.op(true);
        solve_ms.push(ms);
        check_solution(
            report,
            "solve",
            &instance,
            &out.assignment,
            out.utility,
            out.upper_bound,
        );
        let fp = (out.utility.to_bits(), out.upper_bound.to_bits());
        report.check(
            *fingerprint.get_or_insert(fp) == fp,
            "repeated solves must be bit-identical",
        );
        gap = out.gap_fraction;
        dropped = out.repaired_streams;
    }
    let rss = peak_rss_mb();
    let p50 = median(&solve_ms);
    let (utility_bits, bound_bits) = fingerprint.unwrap_or_default();

    report.e2e("latency_ms_p50", p50);
    report.e2e("gap_pct", gap * 100.0);
    report.e2e("peak_rss_mb", rss);
    report.line(format!(
        "{NAME}  solve_ms_p50 = {p50:.3} ms  (median of {} cold solves, {users} users, {WORKERS} workers, {} cores)",
        solve_ms.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    report.line(format!(
        "{NAME}  solve samples (ms): {}; repair dropped {dropped} streams",
        solve_ms
            .iter()
            .map(|ms| format!("{ms:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.line(format!("{NAME}  gap_pct = {:.4} %", gap * 100.0));
    report.line(format!("{NAME}  peak_rss_mb = {rss:.1} MiB"));
    report.line(format!(
        "{NAME}  fingerprint utility={:.6} ({utility_bits:#018x}) upper_bound={:.6} ({bound_bits:#018x})",
        f64::from_bits(utility_bits),
        f64::from_bits(bound_bits)
    ));

    if !args.trace {
        return;
    }
    // Worker-count invariance: one solve at one worker.
    match solve_sharded(&instance, &config.with_threads(1)) {
        Ok(out) => report.check(
            (out.utility.to_bits(), out.upper_bound.to_bits()) == (utility_bits, bound_bits),
            "solves at 1 and 2 workers must be bit-identical",
        ),
        Err(e) => report.check(false, &format!("1-worker solve failed: {e:?}")),
    }
    let mut replay_ms = Vec::new();
    let mut last = None;
    let start = Instant::now();
    for i in 0..replays {
        if i > 0 && start.elapsed() > cap {
            break;
        }
        tr.begin_op();
        let t = Instant::now();
        let out = replay::replay_two_level(&instance, &config, tr);
        replay_ms.push(ms_since(t));
        let Ok(out) = out else {
            report.check(false, "replay failed");
            continue;
        };
        check_solution(
            report,
            "replay",
            &instance,
            &out.assignment,
            out.utility,
            out.upper_bound,
        );
        report.check(
            (out.utility.to_bits(), out.upper_bound.to_bits()) == (utility_bits, bound_bits),
            "the traced replay must match solve_sharded bit for bit",
        );
        last = Some(out);
    }
    replay::stage_metrics(tr, report);
    let overhead = (median(&replay_ms) - p50) / p50 * 100.0;
    report.layer("trace.overhead_pct", overhead);
    report.line(format!(
        "{NAME}  trace.overhead_pct = {overhead:.2} %  (median of {} traced replays vs {} untraced solves)",
        replay_ms.len(),
        solve_ms.len()
    ));
    if let Some(last) = last {
        replay::count_metrics(&last, report);
        replay::kernel_speedup(report, &last.subinstances, &config);
    }
}
