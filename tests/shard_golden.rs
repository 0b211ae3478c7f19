//! Golden pin of the sharded solver and the ingest engine at both
//! partition depths.
//!
//! The differential suites (`shard_equivalence`, `ingest_churn`,
//! `hierarchical_ingest`, `govern_degrade`) compare the engine against a
//! scratch `solve_sharded`, so they would still pass if both sides moved
//! together. This table fixes the values themselves: for cold
//! `solve_sharded` runs and for 20-batch churn replays through
//! `IngestEngine`, single-level (depth 1) and two-level (depth 2),
//! ungoverned and under a hard work-unit budget with every
//! `DegradeAction`, it records the exact bits of every certificate term, a
//! hash of every assignment and every partition and governance counter.
//!
//! Only work budgets are used: wall-clock trips depend on the machine.
//! On a mismatch the assertion prints the whole computed table in the
//! format of `GOLDEN`.

use mmd::core::algo::shard::{solve_sharded, ShardConfig, ShardedOutcome};
use mmd::core::govern::{DegradeAction, SolveBudget};
use mmd::core::ingest::{IngestConfig, IngestEngine, IngestMetrics, IngestOutcome};
use mmd::core::{Assignment, Instance, LaneMode, UserId};
use mmd::workload::{ChurnConfig, ClusteredConfig, WebConfig};

/// FNV-1a over 64-bit words: a hash that is stable across toolchains,
/// unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn assignment_hash(a: &Assignment) -> u64 {
    let mut h = Fnv::new();
    for u in 0..a.num_users() {
        h.word(u as u64);
        for s in a.streams_of(UserId::new(u)) {
            h.word(s.index() as u64);
        }
    }
    h.0
}

fn clustered() -> Instance {
    ClusteredConfig::contended(6, 5, 6).generate(11)
}

fn web() -> Instance {
    WebConfig::scaled(3_000)
        .with_lane_mode(LaneMode::Compact)
        .generate(5)
}

fn shard_config(cap: usize, supers: usize, slack: f64, threads: usize) -> ShardConfig {
    ShardConfig {
        max_streams: cap,
        super_shards: supers,
        budget_slack: slack,
        ..ShardConfig::default()
    }
    .with_threads(threads)
}

fn solve_row(name: &str, out: &ShardedOutcome) -> String {
    format!(
        "solve {name}: u={:016x} ub={:016x} gap={:016x} a={:016x} rep={} shards={} largest={} cut={} cutmass={:016x} skew={:016x}",
        out.utility.to_bits(),
        out.upper_bound.to_bits(),
        out.gap_fraction.to_bits(),
        assignment_hash(&out.assignment),
        out.repaired_streams,
        out.num_shards,
        out.largest_shard,
        out.cut_edges,
        out.cut_mass.to_bits(),
        out.skew_ratio.to_bits(),
    )
}

fn outcome_words(o: &IngestOutcome, h: &mut Fnv) {
    for w in [
        o.updates_applied as u64,
        o.num_shards as u64,
        o.dirty_shards as u64,
        o.resolved_shards as u64,
        o.super_shards as u64,
        o.dirty_supers as u64,
        o.resolved_supers as u64,
        u64::from(o.full_resolve),
        o.utility.to_bits(),
        o.upper_bound.to_bits(),
        o.gap_fraction.to_bits(),
        o.cut_edges as u64,
        o.cut_mass.to_bits(),
        o.repaired_streams as u64,
        u64::from(o.degraded),
        u64::from(o.soft_tripped),
        u64::from(o.hard_tripped),
        o.skipped_shards as u64,
        u64::from(o.stale),
        o.stale_gap_fraction.to_bits(),
        u64::from(o.deferred_full),
    ] {
        h.word(w);
    }
}

/// Every counter of the metrics frame except the two wall-clock ones.
fn metrics_words(m: &IngestMetrics) -> [u64; 15] {
    [
        m.applies,
        m.updates_applied,
        m.full_resolves,
        m.resolved_shards,
        m.shard_slots,
        m.super_slots,
        m.resolved_supers,
        m.inner_cache_hits,
        m.inner_cache_misses,
        m.rejected_batches,
        m.rejected_updates,
        m.budget_soft_trips,
        m.budget_hard_trips,
        m.degraded_applies,
        m.deferred_full_resolves,
    ]
}

/// Replays a 20-batch churn trace (`mixed`: 6 updates of every kind per
/// batch, which escalates most applies to a full re-solve; `low`: 2
/// drift updates per batch, which stays incremental), running a full
/// refresh whenever governance asks for one, and digests every outcome
/// and assignment on the way.
fn engine_row(
    name: &str,
    mixed: bool,
    supers: usize,
    threads: usize,
    budget: SolveBudget,
) -> String {
    let inst = clustered();
    let (churn, batch) = if mixed {
        (ChurnConfig::mixed(20 * 6), 6)
    } else {
        (ChurnConfig::low(20 * 2), 2)
    };
    let trace = churn.generate(&inst, 23);
    let cfg = IngestConfig {
        shard: shard_config(4, supers, 0.2, threads),
        budget,
        ..IngestConfig::default()
    };
    let mut engine = IngestEngine::new(inst, cfg).unwrap();
    let mut h = Fnv::new();
    outcome_words(engine.last_outcome(), &mut h);
    h.word(assignment_hash(engine.assignment()));
    let mut refreshes = 0usize;
    let mut skipped = 0usize;
    for chunk in trace.chunks(batch) {
        engine.push_batch(chunk.iter().cloned()).unwrap();
        let out = engine.apply().unwrap();
        skipped += out.skipped_shards;
        outcome_words(&out, &mut h);
        h.word(assignment_hash(engine.assignment()));
        if engine.refresh_wanted() {
            refreshes += 1;
            let out = engine.refresh_full().unwrap();
            outcome_words(&out, &mut h);
            h.word(assignment_hash(engine.assignment()));
        }
    }
    let last = engine.last_outcome();
    let metrics = metrics_words(engine.metrics());
    for w in metrics {
        h.word(w);
    }
    format!(
        "engine {name}: u={:016x} ub={:016x} stale={:016x} a={:016x} rep={} shards={} cut={} skipped={} supers={}/{}/{} skipped_total={skipped} refreshes={} trace={:016x} metrics={metrics:?}",
        last.utility.to_bits(),
        last.upper_bound.to_bits(),
        last.stale_gap_fraction.to_bits(),
        assignment_hash(engine.assignment()),
        last.repaired_streams,
        last.num_shards,
        last.cut_edges,
        last.skipped_shards,
        last.super_shards,
        last.dirty_supers,
        last.resolved_supers,
        refreshes,
        h.0,
    )
}

fn computed_table() -> Vec<String> {
    let mut rows = Vec::new();
    let inst = clustered();
    for (cap, supers) in [(0usize, 0usize), (4, 0), (4, 3)] {
        for slack in [0.0, 0.2, 0.5] {
            let cfg = shard_config(cap, supers, slack, 1);
            let out = solve_sharded(&inst, &cfg).unwrap();
            rows.push(solve_row(
                &format!("clustered cap{cap} supers{supers} slack{slack}"),
                &out,
            ));
        }
    }
    let inst = web();
    for supers in [0usize, 4] {
        for threads in [1usize, 2] {
            let cfg = shard_config(8, supers, 0.2, threads);
            let out = solve_sharded(&inst, &cfg).unwrap();
            rows.push(solve_row(
                &format!("web cap8 supers{supers} threads{threads}"),
                &out,
            ));
        }
    }
    for (mixed, kind) in [(true, "mixed"), (false, "low")] {
        for supers in [0usize, 3] {
            for threads in [1usize, 2] {
                rows.push(engine_row(
                    &format!("{kind} supers{supers} ungoverned threads{threads}"),
                    mixed,
                    supers,
                    threads,
                    SolveBudget::unlimited(),
                ));
            }
            // 60 units trips inside most applies; 120 lets a shed engine
            // commit now and then.
            for work in [60u64, 120] {
                for action in [
                    DegradeAction::WidenGap,
                    DegradeAction::DeferFull,
                    DegradeAction::ShedToCache,
                ] {
                    let budget = SolveBudget::unlimited()
                        .with_hard_work(work)
                        .with_hard_action(action);
                    rows.push(engine_row(
                        &format!("{kind} supers{supers} hard{work} {action:?}"),
                        mixed,
                        supers,
                        1,
                        budget,
                    ));
                }
            }
        }
    }
    rows
}

const GOLDEN: &[&str] = &[
    "solve clustered cap0 supers0 slack0: u=40641ffb49461fbc ub=40658b1ef88f8500 gap=3fb0db2c632b8fe8 a=02e4927eec56f6e5 rep=0 shards=1 largest=30 cut=0 cutmass=0000000000000000 skew=3ff0000000000000",
    "solve clustered cap0 supers0 slack0.2: u=40641ffb49461fbc ub=40658b1ef88f8500 gap=3fb0db2c632b8fe8 a=02e4927eec56f6e5 rep=3 shards=1 largest=30 cut=0 cutmass=0000000000000000 skew=3ff0000000000000",
    "solve clustered cap0 supers0 slack0.5: u=40641ffb49461fbc ub=40658b1ef88f8500 gap=3fb0db2c632b8fe8 a=02e4927eec56f6e5 rep=6 shards=1 largest=30 cut=0 cutmass=0000000000000000 skew=3ff0000000000000",
    "solve clustered cap4 supers0 slack0: u=40641ffb49461fbc ub=406e0d57012b7777 gap=3fd52429e1cbfdbc a=69d54fbb6a813714 rep=0 shards=8 largest=4 cut=85 cutmass=40422f9d5bd241b8 skew=3ff1111111111111",
    "solve clustered cap4 supers0 slack0.2: u=40641ffb49461fbc ub=406e0d57012b7777 gap=3fd52429e1cbfdbc a=69d54fbb6a813714 rep=0 shards=8 largest=4 cut=85 cutmass=40422f9d5bd241b8 skew=3ff1111111111111",
    "solve clustered cap4 supers0 slack0.5: u=40641ffb49461fbc ub=406e0d57012b7777 gap=3fd52429e1cbfdbc a=69d54fbb6a813714 rep=6 shards=8 largest=4 cut=85 cutmass=40422f9d5bd241b8 skew=3ff1111111111111",
    "solve clustered cap4 supers3 slack0: u=40641ffb49461fbc ub=406b5456939c50d4 gap=3fd0df1b965100b2 a=69d54fbb6a813714 rep=1 shards=9 largest=4 cut=86 cutmass=404247fbac2bb5f0 skew=3ff0000000000000",
    "solve clustered cap4 supers3 slack0.2: u=40641ffb49461fbc ub=406b5456939c50d4 gap=3fd0df1b965100b2 a=ed765270d7a97f9e rep=4 shards=9 largest=4 cut=86 cutmass=404247fbac2bb5f0 skew=3ff0000000000000",
    "solve clustered cap4 supers3 slack0.5: u=40641ffb49461fbc ub=406b5456939c50d4 gap=3fd0df1b965100b2 a=ed765270d7a97f9e rep=11 shards=9 largest=4 cut=86 cutmass=404247fbac2bb5f0 skew=3ff0000000000000",
    "solve web cap8 supers0 threads1: u=40dfd54adcabe5c3 ub=40e7a16ffe6f5af8 gap=3fd4e46d8935ce5d a=f5ca0de43530da1f rep=3 shards=8 largest=8 cut=13552 cutmass=40dd8dcbc42bd99e skew=3ff0000000000000",
    "solve web cap8 supers0 threads2: u=40dfd54adcabe5c3 ub=40e7a16ffe6f5af8 gap=3fd4e46d8935ce5d a=f5ca0de43530da1f rep=3 shards=8 largest=8 cut=13552 cutmass=40dd8dcbc42bd99e skew=3ff0000000000000",
    "solve web cap8 supers4 threads1: u=40dfb5a7c8221361 ub=40e790724103c282 gap=3fd4f04eb90d750a a=0cb4b6dbc5874878 rep=10 shards=8 largest=8 cut=13741 cutmass=40ddedff0780c852 skew=3ff0000000000000",
    "solve web cap8 supers4 threads2: u=40dfb5a7c8221361 ub=40e790724103c282 gap=3fd4f04eb90d750a a=0cb4b6dbc5874878 rep=10 shards=8 largest=8 cut=13741 cutmass=40ddedff0780c852 skew=3ff0000000000000",
    "engine mixed supers0 ungoverned threads1: u=405dc98f933a0d09 ub=40615bd625727e9a stale=0000000000000000 a=ecdac4c293e82dde rep=1 shards=9 cut=32 skipped=0 supers=0/0/0 skipped_total=0 refreshes=0 trace=1cb80e28db3a304c metrics=[20, 120, 20, 167, 167, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
    "engine mixed supers0 ungoverned threads2: u=405dc98f933a0d09 ub=40615bd625727e9a stale=0000000000000000 a=ecdac4c293e82dde rep=1 shards=9 cut=32 skipped=0 supers=0/0/0 skipped_total=0 refreshes=0 trace=1cb80e28db3a304c metrics=[20, 120, 20, 167, 167, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
    "engine mixed supers0 hard60 WidenGap: u=405dc98f933a0d09 ub=40615bd625727e9a stale=0000000000000000 a=ecdac4c293e82dde rep=1 shards=9 cut=32 skipped=0 supers=0/0/0 skipped_total=101 refreshes=20 trace=a5ac6cc67fe3da4a metrics=[40, 120, 20, 213, 334, 0, 0, 0, 0, 0, 0, 0, 20, 20, 20]",
    "engine mixed supers0 hard60 DeferFull: u=405dc98f933a0d09 ub=40615bd625727e9a stale=0000000000000000 a=ecdac4c293e82dde rep=1 shards=9 cut=32 skipped=0 supers=0/0/0 skipped_total=101 refreshes=20 trace=a5ac6cc67fe3da4a metrics=[40, 120, 20, 213, 334, 0, 0, 0, 0, 0, 0, 0, 20, 20, 20]",
    "engine mixed supers0 hard60 ShedToCache: u=40641ffb49461fbc ub=406e0d57012b7777 stale=3ff0000000000000 a=69d54fbb6a813714 rep=0 shards=8 cut=85 skipped=0 supers=0/0/0 skipped_total=0 refreshes=0 trace=77fb9d39014addf9 metrics=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 20, 0]",
    "engine mixed supers0 hard120 WidenGap: u=405dc98f933a0d09 ub=40615bd625727e9a stale=0000000000000000 a=ecdac4c293e82dde rep=1 shards=9 cut=32 skipped=0 supers=0/0/0 skipped_total=38 refreshes=17 trace=2f7e8120f5b1ae25 metrics=[37, 120, 20, 253, 307, 0, 0, 0, 0, 0, 0, 0, 16, 17, 17]",
    "engine mixed supers0 hard120 DeferFull: u=405dc98f933a0d09 ub=40615bd625727e9a stale=0000000000000000 a=ecdac4c293e82dde rep=1 shards=9 cut=32 skipped=0 supers=0/0/0 skipped_total=38 refreshes=17 trace=2f7e8120f5b1ae25 metrics=[37, 120, 20, 253, 307, 0, 0, 0, 0, 0, 0, 0, 16, 17, 17]",
    "engine mixed supers0 hard120 ShedToCache: u=405e194ab87b020a ub=4062228ab5cc45c1 stale=3ff0000000000000 a=cf8283a65001a938 rep=0 shards=9 cut=38 skipped=0 supers=0/0/0 skipped_total=0 refreshes=0 trace=a6c7fc00c416858b metrics=[3, 114, 3, 27, 27, 0, 0, 0, 0, 0, 0, 0, 17, 17, 0]",
    "engine mixed supers3 ungoverned threads1: u=405e75ccebcda50d ub=40614b98b1af68d0 stale=0000000000000000 a=7b05a83b2dd423ab rep=4 shards=10 cut=34 skipped=0 supers=4/4/4 skipped_total=0 refreshes=0 trace=fc9aa914128a9040 metrics=[20, 120, 18, 184, 195, 79, 75, 3, 184, 0, 0, 0, 0, 0, 0]",
    "engine mixed supers3 ungoverned threads2: u=405e75ccebcda50d ub=40614b98b1af68d0 stale=0000000000000000 a=7b05a83b2dd423ab rep=4 shards=10 cut=34 skipped=0 supers=4/4/4 skipped_total=0 refreshes=0 trace=fc9aa914128a9040 metrics=[20, 120, 18, 184, 195, 79, 75, 3, 184, 0, 0, 0, 0, 0, 0]",
    "engine mixed supers3 hard60 WidenGap: u=405e75ccebcda50d ub=40614b98b1af68d0 stale=0000000000000000 a=7b05a83b2dd423ab rep=4 shards=10 cut=34 skipped=0 supers=4/4/4 skipped_total=89 refreshes=18 trace=33e5e4b160fc6367 metrics=[38, 120, 18, 231, 371, 150, 141, 38, 231, 0, 0, 0, 20, 20, 18]",
    "engine mixed supers3 hard60 DeferFull: u=405e75ccebcda50d ub=40614b98b1af68d0 stale=0000000000000000 a=7b05a83b2dd423ab rep=4 shards=10 cut=34 skipped=0 supers=4/4/4 skipped_total=89 refreshes=20 trace=08e2f3648800da91 metrics=[40, 120, 20, 250, 390, 158, 149, 38, 250, 0, 0, 0, 20, 20, 20]",
    "engine mixed supers3 hard60 ShedToCache: u=40641ffb49461fbc ub=406b5456939c50d4 stale=3ff0000000000000 a=ed765270d7a97f9e rep=4 shards=9 cut=86 skipped=0 supers=3/3/3 skipped_total=0 refreshes=0 trace=b336400994fe9138 metrics=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 20, 0]",
    "engine mixed supers3 hard120 WidenGap: u=405e75ccebcda50d ub=40614b98b1af68d0 stale=0000000000000000 a=7b05a83b2dd423ab rep=4 shards=10 cut=34 skipped=0 supers=4/4/4 skipped_total=9 refreshes=18 trace=a0a6e5edf124848c metrics=[38, 120, 18, 311, 371, 150, 141, 38, 311, 0, 0, 0, 5, 18, 18]",
    "engine mixed supers3 hard120 DeferFull: u=405e75ccebcda50d ub=40614b98b1af68d0 stale=0000000000000000 a=7b05a83b2dd423ab rep=4 shards=10 cut=34 skipped=0 supers=4/4/4 skipped_total=9 refreshes=18 trace=a0a6e5edf124848c metrics=[38, 120, 18, 311, 371, 150, 141, 38, 311, 0, 0, 0, 5, 18, 18]",
    "engine mixed supers3 hard120 ShedToCache: u=405e75ccebcda50d ub=40614b98b1af68d0 stale=0000000000000000 a=7b05a83b2dd423ab rep=4 shards=10 cut=34 skipped=0 supers=4/4/4 skipped_total=0 refreshes=7 trace=7e1ed7994539c71e metrics=[15, 120, 7, 127, 148, 58, 55, 16, 127, 0, 0, 0, 12, 19, 7]",
    "engine low supers0 ungoverned threads1: u=4063597ac286e3c5 ub=406e0b901d31d8ce stale=0000000000000000 a=65348a50d7eb37be rep=0 shards=9 cut=86 skipped=0 supers=0/0/0 skipped_total=0 refreshes=0 trace=70b5fe37c7c0209c metrics=[20, 40, 5, 76, 161, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
    "engine low supers0 ungoverned threads2: u=4063597ac286e3c5 ub=406e0b901d31d8ce stale=0000000000000000 a=65348a50d7eb37be rep=0 shards=9 cut=86 skipped=0 supers=0/0/0 skipped_total=0 refreshes=0 trace=70b5fe37c7c0209c metrics=[20, 40, 5, 76, 161, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
    "engine low supers0 hard60 WidenGap: u=4063597ac286e3c5 ub=406e0b901d31d8ce stale=0000000000000000 a=65348a50d7eb37be rep=0 shards=9 cut=86 skipped=0 supers=0/0/0 skipped_total=27 refreshes=5 trace=0d464b8697bd1e9f metrics=[25, 40, 5, 90, 202, 0, 0, 0, 0, 0, 0, 0, 11, 11, 5]",
    "engine low supers0 hard60 DeferFull: u=4063597ac286e3c5 ub=406e0b901d31d8ce stale=0000000000000000 a=65348a50d7eb37be rep=0 shards=9 cut=86 skipped=0 supers=0/0/0 skipped_total=24 refreshes=8 trace=afd0a41a69e2db6c metrics=[28, 40, 8, 113, 226, 0, 0, 0, 0, 0, 0, 0, 8, 8, 8]",
    "engine low supers0 hard60 ShedToCache: u=40641ffb49461fbc ub=406e0d57012b7777 stale=3ff0000000000000 a=69d54fbb6a813714 rep=0 shards=8 cut=85 skipped=0 supers=0/0/0 skipped_total=0 refreshes=0 trace=77fb9d39014addf9 metrics=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 20, 0]",
    "engine low supers0 hard120 WidenGap: u=4063597ac286e3c5 ub=406e0b901d31d8ce stale=0000000000000000 a=65348a50d7eb37be rep=0 shards=9 cut=86 skipped=0 supers=0/0/0 skipped_total=6 refreshes=5 trace=ac669037a0c7916d metrics=[25, 40, 5, 107, 202, 0, 0, 0, 0, 0, 0, 0, 5, 5, 5]",
    "engine low supers0 hard120 DeferFull: u=4063597ac286e3c5 ub=406e0b901d31d8ce stale=0000000000000000 a=65348a50d7eb37be rep=0 shards=9 cut=86 skipped=0 supers=0/0/0 skipped_total=6 refreshes=5 trace=ac669037a0c7916d metrics=[25, 40, 5, 107, 202, 0, 0, 0, 0, 0, 0, 0, 5, 5, 5]",
    "engine low supers0 hard120 ShedToCache: u=40641ffb49461fbc ub=406e0d57012b7777 stale=3ff0000000000000 a=69d54fbb6a813714 rep=0 shards=8 cut=85 skipped=0 supers=0/0/0 skipped_total=0 refreshes=0 trace=77fb9d39014addf9 metrics=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 20, 0]",
    "engine low supers3 ungoverned threads1: u=4063cbd3807d253f ub=406b517a28aa0e2b stale=0000000000000000 a=f7246404f58749d4 rep=6 shards=10 cut=87 skipped=0 supers=3/1/1 skipped_total=0 refreshes=0 trace=b5169c129f0c52f2 metrics=[20, 40, 11, 119, 184, 60, 42, 10, 119, 0, 0, 0, 0, 0, 0]",
    "engine low supers3 ungoverned threads2: u=4063cbd3807d253f ub=406b517a28aa0e2b stale=0000000000000000 a=f7246404f58749d4 rep=6 shards=10 cut=87 skipped=0 supers=3/1/1 skipped_total=0 refreshes=0 trace=b5169c129f0c52f2 metrics=[20, 40, 11, 119, 184, 60, 42, 10, 119, 0, 0, 0, 0, 0, 0]",
    "engine low supers3 hard60 WidenGap: u=4063cbd3807d253f ub=406b517a28aa0e2b stale=0000000000000000 a=f7246404f58749d4 rep=6 shards=10 cut=87 skipped=0 supers=3/1/1 skipped_total=11 refreshes=11 trace=fa0bfa7a4bfbb3be metrics=[31, 40, 11, 148, 285, 93, 67, 47, 148, 0, 0, 0, 5, 11, 11]",
    "engine low supers3 hard60 DeferFull: u=4063cbd3807d253f ub=406b517a28aa0e2b stale=0000000000000000 a=f7246404f58749d4 rep=6 shards=10 cut=87 skipped=0 supers=3/1/1 skipped_total=11 refreshes=11 trace=fa0bfa7a4bfbb3be metrics=[31, 40, 11, 148, 285, 93, 67, 47, 148, 0, 0, 0, 5, 11, 11]",
    "engine low supers3 hard60 ShedToCache: u=40641ffb49461fbc ub=406b5456939c50d4 stale=3ff0000000000000 a=ed765270d7a97f9e rep=4 shards=9 cut=86 skipped=0 supers=3/3/3 skipped_total=0 refreshes=0 trace=b336400994fe9138 metrics=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 20, 0]",
    "engine low supers3 hard120 WidenGap: u=4063cbd3807d253f ub=406b517a28aa0e2b stale=0000000000000000 a=f7246404f58749d4 rep=6 shards=10 cut=87 skipped=0 supers=3/1/1 skipped_total=0 refreshes=11 trace=39558f72a2769d71 metrics=[31, 40, 11, 159, 285, 93, 67, 47, 159, 0, 0, 0, 0, 11, 11]",
    "engine low supers3 hard120 DeferFull: u=4063cbd3807d253f ub=406b517a28aa0e2b stale=0000000000000000 a=f7246404f58749d4 rep=6 shards=10 cut=87 skipped=0 supers=3/1/1 skipped_total=0 refreshes=11 trace=39558f72a2769d71 metrics=[31, 40, 11, 159, 285, 93, 67, 47, 159, 0, 0, 0, 0, 11, 11]",
    "engine low supers3 hard120 ShedToCache: u=4063cbd3807d253f ub=406b517a28aa0e2b stale=0000000000000000 a=f7246404f58749d4 rep=6 shards=10 cut=87 skipped=0 supers=3/1/1 skipped_total=0 refreshes=11 trace=39558f72a2769d71 metrics=[31, 40, 11, 159, 285, 93, 67, 47, 159, 0, 0, 0, 0, 11, 11]",
];

#[test]
fn sharded_solves_and_engine_replays_match_the_golden_table() {
    let got = computed_table();
    assert_eq!(
        got,
        GOLDEN,
        "golden table drifted; computed table:\n{}",
        got.iter()
            .map(|r| format!("    \"{r}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
