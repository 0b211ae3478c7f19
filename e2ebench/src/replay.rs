//! A traced replay of the two-level `algo::solve_sharded` through the
//! public shard API, so that each stage of a cold solve gets its own span
//! without touching the library:
//!
//! `super_partition` → `shard_utility_bound` per super → `split_budgets` →
//! per super `build_shard_instance` / `shard_instance` / inner bounds and
//! `split_budgets` → inner `build_shard_instance` → one flat `solve_batch`
//! → per super merge, `repair_budgets`, `residual_fill` → global merge,
//! `repair_budgets`, `residual_fill`.
//!
//! It runs the same steps in the same order with the same worker count, so
//! its utility and upper bound must be bit-identical to `solve_sharded` on
//! the same instance; the workloads check that, which is what lets the
//! per-stage split be trusted.

use crate::report::{median, Report};
use crate::trace::Tracer;
use mmd_core::algo::shard::{
    build_shard_instance, repair_budgets, shard_instance, shard_utility_bound, split_budgets,
    super_partition, ShardConfig, Sharding,
};
use mmd_core::algo::{reduction::residual_fill, solve_batch};
use mmd_core::{Assignment, Instance, SolveError, UserId};
use std::time::Instant;

/// The certified result of one replay plus the partition counts.
pub struct Replayed {
    /// The final feasible assignment.
    pub assignment: Assignment,
    /// Its capped utility.
    pub utility: f64,
    /// `Σ super bounds + super cut mass + quantization mass`.
    pub upper_bound: f64,
    /// Super-shards after head-splitting.
    pub supers: usize,
    /// Inner shards across all super-shards (= kernel sub-instances).
    pub inner_shards: usize,
    /// Interests cut at both levels.
    pub cut_edges: usize,
    /// Skew ratio of the super level.
    pub skew_ratio: f64,
    /// Streams dropped by the per-super and global repair passes.
    pub repair_dropped: usize,
    /// The inner sub-instances handed to `solve_batch`, kept so the kernel
    /// can be re-timed at another worker count.
    pub subinstances: Vec<Instance>,
}

/// One super-shard's plan: its sub-instance, inner partition and shares.
struct Plan {
    sub: Instance,
    inner: Sharding,
    inner_shares: Vec<Vec<f64>>,
}

/// What finishing one super-shard produced, with the worker-side timings.
struct Finished {
    merged: Assignment,
    dropped: usize,
    repair: (Instant, Instant),
    fill: (Instant, Instant),
}

/// Replays `solve_sharded(instance, config)` for `config.super_shards ≥ 2`,
/// recording one span per stage in `tr`.
///
/// # Errors
///
/// Propagates a sub-instance solve failure (none occur for valid
/// instances).
pub fn replay_two_level(
    instance: &Instance,
    config: &ShardConfig,
    tr: &mut Tracer,
) -> Result<Replayed, SolveError> {
    assert!(
        config.super_shards > 1,
        "the replay covers the two-level path"
    );
    tr.span("shard.solve_replay", |tr| {
        let supers = tr.span("shard.super_partition", |_| {
            super_partition(instance, config)
        });
        let bounds: Vec<f64> = tr.span("shard.bounds", |_| {
            (0..supers.num_shards())
                .map(|k| shard_utility_bound(instance, &supers, k))
                .collect()
        });
        let shares = tr.span("shard.waterfill", |_| {
            split_budgets(instance, &supers, &bounds, config.budget_slack)
        });
        let plans: Vec<Plan> = tr.span("shard.plan", |_| {
            mmd_par::parallel_map(config.threads, &shares, |k, share| {
                let sub = build_shard_instance(instance, &supers.shards[k], share, "super");
                let inner = shard_instance(&sub, config.max_streams);
                let inner_bounds: Vec<f64> = (0..inner.num_shards())
                    .map(|j| shard_utility_bound(&sub, &inner, j))
                    .collect();
                let inner_shares = split_budgets(&sub, &inner, &inner_bounds, config.budget_slack);
                Plan {
                    sub,
                    inner,
                    inner_shares,
                }
            })
        });
        let owners: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(k, p)| (0..p.inner.num_shards()).map(move |j| (k, j)))
            .collect();
        let subinstances: Vec<Instance> = tr.span("shard.build", |_| {
            mmd_par::parallel_map(config.threads, &owners, |_, &(k, j)| {
                let p = &plans[k];
                build_shard_instance(&p.sub, &p.inner.shards[j], &p.inner_shares[j], "inner")
            })
        });
        let results = tr.span("batch.solve_batch", |_| {
            solve_batch(&subinstances, &config.mmd, config.threads)
        });
        let mut locals: Vec<Vec<Assignment>> = plans.iter().map(|_| Vec::new()).collect();
        for (&(k, _), result) in owners.iter().zip(results) {
            locals[k].push(result?.assignment);
        }
        let finished: Vec<Finished> = tr.span("shard.finish", |tr| {
            let idx: Vec<usize> = (0..plans.len()).collect();
            let finished = mmd_par::parallel_map(config.threads, &idx, |_, &k| {
                finish_super(&plans[k], &locals[k], config.global_fill)
            });
            for f in &finished {
                tr.record("shard.finish_repair", f.repair.0, f.repair.1);
                tr.record("reduction.finish_fill", f.fill.0, f.fill.1);
            }
            finished
        });
        let mut repair_dropped: usize = finished.iter().map(|f| f.dropped).sum();
        let mut merged = tr.span("shard.merge", |_| {
            let mut merged = Assignment::for_instance(instance);
            for (shard, f) in supers.shards.iter().zip(&finished) {
                for (lu, &gu) in shard.users.iter().enumerate() {
                    for ls in f.merged.streams_of(UserId::new(lu)) {
                        merged.assign(gu, shard.streams[ls.index()]);
                    }
                }
            }
            merged
        });
        repair_dropped += tr.span("shard.repair", |_| repair_budgets(instance, &mut merged));
        tr.span("reduction.residual_fill", |_| {
            if config.global_fill && merged.check_feasible(instance).is_ok() {
                residual_fill(instance, &mut merged);
            }
        });
        let utility = merged.utility(instance);
        let upper_bound =
            bounds.iter().sum::<f64>() + supers.cut_mass + instance.quantization_error();
        Ok(Replayed {
            assignment: merged,
            utility,
            upper_bound,
            supers: supers.num_shards(),
            inner_shards: owners.len(),
            cut_edges: supers.cut.len() + plans.iter().map(|p| p.inner.cut.len()).sum::<usize>(),
            skew_ratio: supers.skew_ratio(),
            repair_dropped,
            subinstances,
        })
    })
}

/// Merges a super-shard's inner solutions, repairs its share budgets and
/// fills the residue, timing the repair and the fill on the worker thread.
fn finish_super(plan: &Plan, locals: &[Assignment], global_fill: bool) -> Finished {
    let mut merged = Assignment::for_instance(&plan.sub);
    for (shard, local) in plan.inner.shards.iter().zip(locals) {
        for (lu, &gu) in shard.users.iter().enumerate() {
            for ls in local.streams_of(UserId::new(lu)) {
                merged.assign(gu, shard.streams[ls.index()]);
            }
        }
    }
    let t0 = Instant::now();
    let dropped = repair_budgets(&plan.sub, &mut merged);
    let t1 = Instant::now();
    if global_fill && merged.check_feasible(&plan.sub).is_ok() {
        residual_fill(&plan.sub, &mut merged);
    }
    let t2 = Instant::now();
    Finished {
        merged,
        dropped,
        repair: (t0, t1),
        fill: (t1, t2),
    }
}

/// Per-layer metrics of the replays recorded in `tr`: the per-operation
/// median of each stage, in the report's names.
pub fn stage_metrics(tr: &Tracer, report: &mut Report) {
    const STAGES: &[(&str, &str)] = &[
        ("shard.super_partition", "shard.super_partition_ms"),
        ("shard.bounds", "shard.bounds_ms"),
        ("shard.waterfill", "shard.waterfill_ms"),
        ("shard.plan", "shard.plan_ms"),
        ("shard.build", "shard.build_ms"),
        ("shard.finish", "shard.finish_ms"),
        ("shard.merge", "shard.merge_ms"),
        ("shard.repair", "shard.repair_ms"),
        ("shard.finish_repair", "shard.finish_repair_ms"),
        ("reduction.residual_fill", "reduction.residual_fill_ms"),
        ("reduction.finish_fill", "reduction.finish_fill_ms"),
        ("batch.solve_batch", "batch.solve_batch_ms"),
    ];
    for &(span, metric) in STAGES {
        report.layer(metric, median(&tr.per_op_ms(span)));
    }
}

/// Records the partition counts of one replay as per-layer metrics.
pub fn count_metrics(r: &Replayed, report: &mut Report) {
    report.layer("shard.supers", r.supers as f64);
    report.layer("shard.inner_shards", r.inner_shards as f64);
    report.layer("shard.cut_edges", r.cut_edges as f64);
    report.layer("shard.skew_ratio", r.skew_ratio);
    report.layer("shard.repair_dropped", r.repair_dropped as f64);
    report.layer("batch.subinstances", r.subinstances.len() as f64);
}

/// `par.solve_batch_speedup`: the same kernel sub-instances through
/// `solve_batch` at one and at two workers, whose results must agree bit
/// for bit.
pub fn kernel_speedup(report: &mut Report, subinstances: &[Instance], config: &ShardConfig) {
    let run = |threads: usize| {
        let t = Instant::now();
        let results = solve_batch(subinstances, &config.mmd, threads);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let bits: Vec<u64> = results
            .iter()
            .map(|r| r.as_ref().map_or(u64::MAX, |o| o.utility.to_bits()))
            .collect();
        (ms, bits)
    };
    let (ms1, bits1) = run(1);
    let (ms2, bits2) = run(2);
    report.check(
        bits1 == bits2,
        "kernel results at 1 and 2 workers must be bit-identical",
    );
    report.layer("par.solve_batch_speedup", ms1 / ms2);
    report.line(format!(
        "par.solve_batch_speedup = {:.3} x  ({} sub-instances: {ms1:.1} ms at 1 worker, {ms2:.1} ms at 2)",
        ms1 / ms2,
        subinstances.len()
    ));
}
