//! `ingest-drift`: steady in-process `IngestEngine::apply` under drift-only
//! churn on an amply provisioned web instance. This is the incremental
//! path: it bypasses repair (no stream is dropped) and re-solves only the
//! inner shards the batch touched, so re-partitioning dominates.

use crate::replay::{self, Replayed};
use crate::report::{median, peak_rss_mb, Report};
use crate::trace::Tracer;
use crate::{check_solution, ingest_config, ms_since, setup_metric, web_instance, Args};
use mmd_core::algo::shard::solve_sharded;
use mmd_core::ingest::Update;
use mmd_core::{IngestEngine, IngestOutcome};
use mmd_workload::ChurnConfig;
use std::time::{Duration, Instant};

/// Updates per `apply`.
pub const BATCH: usize = 16;
/// Batches replayed before the clock starts: the first drift batches can
/// resettle the coarse partition wholesale, a one-time cost.
const WARMUP_BATCHES: usize = 2;
/// Batches per run: one about every `NOMINAL_APPLY` of `--seconds`.
const NOMINAL_APPLY: Duration = Duration::from_millis(1250);
/// The same at the smoke size.
const NOMINAL_TINY: Duration = Duration::from_millis(40);

pub fn run(args: &Args, report: &mut Report, tr: &mut Tracer) {
    const NAME: &str = "ingest-drift";
    let users = args.size.pick(100_000, 3_000);
    let config = ingest_config(args.size);

    let batches = crate::op_count(args.seconds, args.size.pick(NOMINAL_APPLY, NOMINAL_TINY), 8);
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        let instance = web_instance(users, Some(1.5), args.instance_seed);
        let churn = ChurnConfig::low((WARMUP_BATCHES + batches) * BATCH)
            .generate(&instance, args.churn_seed);
        let engine = IngestEngine::new(instance, config).expect("web instances are valid");
        setups.push(t.elapsed().as_secs_f64());
        built = Some((engine, churn));
    }
    let (mut engine, churn) = built.expect("at least one set-up");
    setup_metric(
        report,
        NAME,
        &setups,
        "instance and churn generation, engine construction",
    );

    let (warm, steady) = churn.split_at(WARMUP_BATCHES * BATCH);
    for batch in warm.chunks(BATCH) {
        let ok = engine.push_batch(batch.iter().cloned()).is_ok() && engine.apply().is_ok();
        report.check(ok, "warm-up batches apply cleanly");
    }

    let mut layers = IngestLayers::default();
    let mut apply_ms = Vec::new();
    let mut updates = 0usize;
    let cap = crate::time_cap(args.seconds);
    let start = Instant::now();
    for batch in steady.chunks(BATCH) {
        if !apply_ms.is_empty() && start.elapsed() > cap {
            break;
        }
        tr.begin_op();
        let Some((outcome, push, apply)) = push_and_apply(&mut engine, batch, tr) else {
            // A rejected batch misses every latency limit.
            report.op(false);
            apply_ms.push(f64::INFINITY);
            continue;
        };
        report.op(true);
        apply_ms.push(apply);
        updates += outcome.updates_applied;
        check_solution(
            report,
            "apply",
            engine.current_instance(),
            engine.assignment(),
            outcome.utility,
            outcome.upper_bound,
        );
        if tr.enabled() {
            layers.after_apply(&engine, &outcome, push, apply, tr, report);
        }
    }
    let rss = peak_rss_mb();

    // Engine ≡ scratch, outside the clock.
    let t = Instant::now();
    let scratch = solve_sharded(engine.current_instance(), &config.shard);
    let scratch_ms = ms_since(t);
    let last = *engine.last_outcome();
    match &scratch {
        Ok(s) => report.check(
            (s.utility.to_bits(), s.upper_bound.to_bits())
                == (last.utility.to_bits(), last.upper_bound.to_bits()),
            "the engine's bracket must equal solve_sharded(current_instance()) bit for bit",
        ),
        Err(e) => report.check(false, &format!("scratch solve failed: {e:?}")),
    }

    let p50 = median(&apply_ms);
    let summed_s: f64 = apply_ms.iter().sum::<f64>() / 1e3;
    let updates_per_s = updates as f64 / summed_s;
    report.e2e("latency_ms_p50", p50);
    report.e2e("gap_pct", last.gap_fraction * 100.0);
    report.e2e("peak_rss_mb", rss);
    report.line(format!(
        "{NAME}  apply_ms_p50 = {p50:.3} ms  (median of {} applies of {BATCH} updates, {users} users, 1 worker)",
        apply_ms.len()
    ));
    report.line(format!(
        "{NAME}  apply samples (ms): {}",
        apply_ms
            .iter()
            .map(|ms| format!("{ms:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.line(format!(
        "{NAME}  updates_per_s = {updates_per_s:.2} 1/s  ({updates} updates over {summed_s:.3} s of apply)"
    ));
    report.line(format!(
        "{NAME}  gap_pct = {:.4} %",
        last.gap_fraction * 100.0
    ));
    report.line(format!("{NAME}  peak_rss_mb = {rss:.1} MiB"));
    report.line(format!(
        "{NAME}  final utility={:.6} upper_bound={:.6}; scratch solve of the final instance {scratch_ms:.1} ms",
        last.utility, last.upper_bound
    ));

    if tr.enabled() {
        report.layer("ingest.updates_per_s", updates_per_s);
        layers.finish(&engine, scratch_ms, tr, report);
    }
}

/// Pushes one batch and applies it; returns the outcome with the push and
/// apply wall times in ms, or `None` (reported on stderr) on a rejection.
pub fn push_and_apply(
    engine: &mut IngestEngine,
    batch: &[Update],
    tr: &mut Tracer,
) -> Option<(IngestOutcome, f64, f64)> {
    let t = Instant::now();
    let pushed = tr.span("ingest.push", |_| engine.push_batch(batch.iter().cloned()));
    let push = ms_since(t);
    if let Err(e) = pushed {
        eprintln!("push rejected: {e}");
        return None;
    }
    let t = Instant::now();
    let applied = tr.span("ingest.apply", |_| engine.apply());
    let apply = ms_since(t);
    match applied {
        Ok(outcome) => Some((outcome, push, apply)),
        Err(e) => {
            eprintln!("apply rejected: {e}");
            engine.clear_pending();
            None
        }
    }
}

/// The traced run's per-apply shadow measurements of an ingest engine: the
/// commit snapshot the async backend would take, and a traced from-scratch
/// replay of the committed instance (outside the apply span), which must
/// reproduce the engine's bracket bit for bit.
#[derive(Default)]
pub struct IngestLayers {
    push_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    shard_fraction: Vec<f64>,
    super_fraction: Vec<f64>,
    partition_share: Vec<f64>,
    scratch_ms: Vec<f64>,
    speedup: Vec<f64>,
    last: Option<(Replayed, f64)>,
}

impl IngestLayers {
    /// Records one committed apply (`push`/`apply` in ms).
    pub fn after_apply(
        &mut self,
        engine: &IngestEngine,
        outcome: &IngestOutcome,
        push: f64,
        apply: f64,
        tr: &mut Tracer,
        report: &mut Report,
    ) {
        self.push_ms.push(push);
        let t = Instant::now();
        let snapshot = tr.span("ingest.snapshot", |_| engine.snapshot(0));
        self.snapshot_ms.push(ms_since(t));
        drop(snapshot);
        self.shard_fraction
            .push(outcome.resolved_shards as f64 / outcome.num_shards.max(1) as f64);
        self.super_fraction
            .push(outcome.resolved_supers as f64 / outcome.super_shards.max(1) as f64);

        let spans_before = tr.spans().len();
        let t = Instant::now();
        let replayed =
            replay::replay_two_level(engine.current_instance(), &engine.config().shard, tr);
        let scratch = ms_since(t);
        let Ok(replayed) = replayed else {
            report.check(false, "shadow replay failed");
            return;
        };
        report.check(
            (replayed.utility.to_bits(), replayed.upper_bound.to_bits())
                == (outcome.utility.to_bits(), outcome.upper_bound.to_bits()),
            "the engine's bracket must equal a scratch replay of its instance",
        );
        let partition: f64 = tr.spans()[spans_before..]
            .iter()
            .filter(|s| s.name == "shard.super_partition")
            .map(|s| s.ms())
            .sum();
        self.partition_share.push(partition / apply);
        self.scratch_ms.push(scratch);
        self.speedup.push(scratch / apply);
        self.last = Some((replayed, scratch));
    }

    /// Writes the `ingest.*`, `shard.*`, `batch.*` and `par.*` metrics.
    /// `scratch_ms` is the untraced `solve_sharded` of the final instance,
    /// the baseline of `trace.overhead_pct` (the last shadow replay ran on
    /// the same instance).
    pub fn finish(self, engine: &IngestEngine, scratch_ms: f64, tr: &Tracer, report: &mut Report) {
        replay::stage_metrics(tr, report);
        let m = engine.metrics();
        let attempts = m.inner_cache_hits + m.inner_cache_misses;
        report.layer("ingest.push_ms", median(&self.push_ms));
        report.layer("ingest.snapshot_ms", median(&self.snapshot_ms));
        report.layer(
            "ingest.resolved_shard_fraction",
            median(&self.shard_fraction),
        );
        report.layer(
            "ingest.resolved_super_fraction",
            median(&self.super_fraction),
        );
        report.layer(
            "ingest.inner_cache_hit_ratio",
            m.inner_cache_hits as f64 / attempts.max(1) as f64,
        );
        report.layer("ingest.full_resolves", m.full_resolves as f64);
        report.layer("ingest.partition_share", median(&self.partition_share));
        report.layer("ingest.scratch_solve_ms", median(&self.scratch_ms));
        report.layer("ingest.incremental_speedup", median(&self.speedup));
        report.line(format!(
            "ingest shadow: {} applies; resolved shard fraction {:.3}, super fraction {:.3}, \
             inner cache hits {} of {attempts}, partition share {:.3}, scratch {:.1} ms, speedup {:.3} x",
            self.push_ms.len(),
            median(&self.shard_fraction),
            median(&self.super_fraction),
            m.inner_cache_hits,
            median(&self.partition_share),
            median(&self.scratch_ms),
            median(&self.speedup)
        ));
        if let Some((last, replay_ms)) = self.last {
            let overhead = (replay_ms - scratch_ms) / scratch_ms * 100.0;
            report.layer("trace.overhead_pct", overhead);
            report.line(format!(
                "trace.overhead_pct = {overhead:.2} %  (traced replay {replay_ms:.1} ms vs solve_sharded {scratch_ms:.1} ms, final instance)"
            ));
            replay::count_metrics(&last, report);
            replay::kernel_speedup(report, &last.subinstances, &engine.config().shard);
        }
    }
}
