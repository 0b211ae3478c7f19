//! Property-based tests of the core invariants, over randomly generated
//! instances.

use mmd::core::algo::reduction::{interval_partition, residual_fill, solve_mmd, MmdConfig};
use mmd::core::algo::shard::{
    repair_budgets, repair_budgets_reference, shard_instance, solve_sharded, ShardConfig,
};
use mmd::core::algo::{self, Feasibility};
use mmd::core::coverage;
use mmd::core::{Assignment, Instance, StreamId, UserId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a small random smd (single-budget) instance.
fn smd_instance() -> impl Strategy<Value = Instance> {
    (
        2usize..8,    // streams
        1usize..5,    // users
        0.2f64..0.9,  // budget fraction
        any::<u64>(), // value seed
    )
        .prop_map(|(ns, nu, frac, seed)| {
            // Derive all values deterministically from the seed.
            let mut x = seed;
            let mut next = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
            };
            let costs: Vec<f64> = (0..ns).map(|_| 0.5 + 4.0 * next()).collect();
            let total: f64 = costs.iter().sum();
            let budget = (total * frac).max(costs.iter().cloned().fold(0.0, f64::max));
            let mut b = Instance::builder("prop").server_budgets(vec![budget]);
            let streams: Vec<StreamId> = costs.iter().map(|&c| b.add_stream(vec![c])).collect();
            for _ in 0..nu {
                let cap = 1.0 + 8.0 * next();
                let u = b.add_user(cap, vec![cap]);
                for &s in &streams {
                    if next() < 0.6 {
                        let w = (0.2 + 3.0 * next()).min(cap);
                        b.add_interest(u, s, w, vec![w]).unwrap();
                    }
                }
            }
            b.build().unwrap()
        })
}

/// Strategy: a small random multi-budget instance plus the assignment that
/// gives every interest — the input shape of the global repair pass. It
/// covers 1–3 server measures, zero budgets (their positive-cost streams
/// take the tier-0 infinite-pressure path), zero-cost streams (pressure 0,
/// never dropped) and both finite and infinite user caps.
fn repair_case() -> impl Strategy<Value = (Instance, Assignment)> {
    (1usize..4, 2usize..12, 1usize..8, any::<u64>()).prop_map(|(m, ns, nu, seed)| {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
        };
        let zero_budget: Vec<bool> = (0..m).map(|_| next() < 0.25).collect();
        let costs: Vec<Vec<f64>> = (0..ns)
            .map(|_| {
                let free = next() < 0.2;
                zero_budget
                    .iter()
                    .map(|&zero| match (free, zero) {
                        (true, _) => 0.0,
                        // Within the builder's tolerance of a zero budget,
                        // but three of them together violate it.
                        (false, true) if next() < 0.6 => 4e-10,
                        (false, true) => 0.0,
                        (false, false) => 0.5 + 4.0 * next(),
                    })
                    .collect()
            })
            .collect();
        let budgets: Vec<f64> = (0..m)
            .map(|i| {
                if zero_budget[i] {
                    return 0.0;
                }
                let total: f64 = costs.iter().map(|c| c[i]).sum();
                let max = costs.iter().map(|c| c[i]).fold(0.0, f64::max);
                (total * (0.2 + 0.7 * next())).max(max)
            })
            .collect();
        let mut b = Instance::builder("repair").server_budgets(budgets);
        let streams: Vec<StreamId> = costs.into_iter().map(|c| b.add_stream(c)).collect();
        for _ in 0..nu {
            let cap = if next() < 0.3 {
                f64::INFINITY
            } else {
                1.0 + 6.0 * next()
            };
            let u = b.add_user(cap, vec![]);
            for &s in &streams {
                if next() < 0.5 {
                    b.add_interest(u, s, 0.2 + 3.0 * next(), vec![]).unwrap();
                }
            }
        }
        let inst = b.build().unwrap();
        let mut everything = Assignment::for_instance(&inst);
        for u in inst.users() {
            for interest in inst.user(u).interests() {
                everything.assign(u, interest.stream());
            }
        }
        (inst, everything)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The incremental global repair drops exactly what the full-rescan
    /// reference drops: same count, same final assignment, and every
    /// server budget restored.
    #[test]
    fn repair_budgets_matches_reference((inst, start) in repair_case()) {
        let mut reference = start.clone();
        let expected = repair_budgets_reference(&inst, &mut reference);
        let mut repaired = start;
        let dropped = repair_budgets(&inst, &mut repaired);
        prop_assert_eq!(dropped, expected);
        prop_assert_eq!(&repaired, &reference);
        for i in 0..inst.num_measures() {
            let cost = repaired.server_cost(i, &inst);
            prop_assert!(
                mmd::core::num::approx_le(cost, inst.budget(i)),
                "measure {} still over budget: {} > {}", i, cost, inst.budget(i)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 2.1: the capped utility set function is submodular and
    /// nondecreasing on every instance.
    #[test]
    fn coverage_submodular(inst in smd_instance(), mask_t in any::<u32>(), mask_tp in any::<u32>()) {
        let n = inst.num_streams();
        let set = |mask: u32| -> BTreeSet<StreamId> {
            (0..n).filter(|i| mask & (1 << (i % 32)) != 0).map(StreamId::new).collect()
        };
        let t = set(mask_t);
        let tp = set(mask_tp);
        let union: BTreeSet<_> = t.union(&tp).copied().collect();
        let inter: BTreeSet<_> = t.intersection(&tp).copied().collect();
        let lhs = coverage::eval_set(&inst, &t) + coverage::eval_set(&inst, &tp);
        let rhs = coverage::eval_set(&inst, &union) + coverage::eval_set(&inst, &inter);
        prop_assert!(lhs >= rhs - 1e-9);
        // Monotone: w(T) <= w(T ∪ T').
        prop_assert!(coverage::eval_set(&inst, &t) <= coverage::eval_set(&inst, &union) + 1e-9);
    }

    /// Greedy output is always server-feasible; strict mode output is fully
    /// feasible; the semi-feasible utility dominates the strict one.
    #[test]
    fn greedy_feasibility(inst in smd_instance()) {
        let semi = algo::solve_smd_unit(&inst, Feasibility::SemiFeasible).unwrap();
        prop_assert!(semi.assignment.check_semi_feasible(&inst).is_ok());
        let strict = algo::solve_smd_unit(&inst, Feasibility::Strict).unwrap();
        prop_assert!(strict.assignment.check_feasible(&inst).is_ok());
        prop_assert!(semi.utility >= strict.utility - 1e-9);
        // Strict keeps at least 1/3 of semi (A1+A2+Amax argument).
        prop_assert!(strict.utility * 3.0 >= semi.utility - 1e-9);
    }

    /// The full pipeline always returns a feasible assignment whose utility
    /// matches its report.
    #[test]
    fn pipeline_report_consistent(inst in smd_instance()) {
        let out = solve_mmd(&inst, &MmdConfig::default()).unwrap();
        prop_assert!(out.assignment.check_feasible(&inst).is_ok());
        let recomputed = out.assignment.utility(&inst);
        prop_assert!((out.utility - recomputed).abs() < 1e-9);
    }

    /// Residual fill never lowers utility and never breaks feasibility.
    #[test]
    fn residual_fill_monotone(inst in smd_instance()) {
        let out = solve_mmd(&inst, &MmdConfig {
            residual_fill: false,
            ..MmdConfig::default()
        }).unwrap();
        let before = out.assignment.utility(&inst);
        let mut filled = out.assignment.clone();
        residual_fill(&inst, &mut filled);
        prop_assert!(filled.utility(&inst) >= before - 1e-9);
        prop_assert!(filled.check_feasible(&inst).is_ok());
    }

    /// Fig. 3 invariants: partition in order, non-singleton groups within
    /// the threshold, group count bounded.
    #[test]
    fn interval_partition_invariants(
        costs in proptest::collection::vec(0.0f64..2.0, 0..24),
        threshold in 0.5f64..4.0,
    ) {
        let groups = interval_partition(&costs, threshold);
        let flat: Vec<usize> = groups.iter().flatten().copied().collect();
        prop_assert_eq!(flat, (0..costs.len()).collect::<Vec<_>>());
        for g in &groups {
            if g.len() > 1 {
                let total: f64 = g.iter().map(|&i| costs[i]).sum();
                prop_assert!(total <= threshold + 1e-6);
            }
        }
        let total: f64 = costs.iter().sum();
        let bound = 2 * (total / threshold).ceil() as usize + 1;
        prop_assert!(groups.len() <= bound.max(1));
    }

    /// The online allocator (faithful, no guard) keeps every budget on any
    /// instance whose streams satisfy the smallness hypothesis (Lemma 5.1),
    /// regardless of arrival order.
    #[test]
    fn online_lemma_5_1_property(seed in any::<u64>(), order_seed in any::<u64>()) {
        use mmd::core::algo::online::{OnlineAllocator, OnlineConfig};
        use mmd::workload::special::small_streams;
        let inst = small_streams(24, 4, 1, seed % 1000);
        // Arbitrary deterministic permutation of the arrival order.
        let mut order: Vec<StreamId> = inst.streams().collect();
        let n = order.len();
        let mut x = order_seed | 1;
        for i in (1..n).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let report = OnlineAllocator::run(&inst, order, OnlineConfig::default()).unwrap();
        prop_assert!(report.smallness.ok);
        prop_assert!(report.assignment.check_feasible(&inst).is_ok());
    }

    /// Shard partitioner invariants (any instance, any cap): every stream
    /// and every user lands in exactly one shard; no shard exceeds the
    /// stream cap; the shard interests plus the cut interests reassemble
    /// the original instance's interests exactly; `cut_mass` is their
    /// utility sum; and an uncapped sharding never cuts anything.
    #[test]
    fn shard_partition_invariants(inst in smd_instance(), cap in 0usize..6) {
        let sharding = shard_instance(&inst, cap);

        // Exact partition of streams and users.
        let mut stream_seen = vec![0usize; inst.num_streams()];
        let mut user_seen = vec![0usize; inst.num_users()];
        for shard in &sharding.shards {
            for s in &shard.streams {
                stream_seen[s.index()] += 1;
            }
            for u in &shard.users {
                user_seen[u.index()] += 1;
            }
            if cap > 0 {
                prop_assert!(shard.streams.len() <= cap.max(1));
            }
        }
        prop_assert!(stream_seen.iter().all(|&n| n == 1));
        prop_assert!(user_seen.iter().all(|&n| n == 1));

        // The membership maps agree with the shard lists.
        for (k, shard) in sharding.shards.iter().enumerate() {
            for s in &shard.streams {
                prop_assert_eq!(sharding.shard_of_stream[s.index()], k);
            }
            for u in &shard.users {
                prop_assert_eq!(sharding.shard_of_user[u.index()], k);
            }
        }

        // Reassembly: intra-shard interests + cut interests = original.
        let mut original: BTreeSet<(usize, usize)> = BTreeSet::new();
        for u in inst.users() {
            for interest in inst.user(u).interests() {
                original.insert((u.index(), interest.stream().index()));
            }
        }
        let mut reassembled: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut mass = 0.0f64;
        for u in inst.users() {
            let k = sharding.shard_of_user[u.index()];
            for interest in inst.user(u).interests() {
                if sharding.shard_of_stream[interest.stream().index()] == k {
                    prop_assert!(reassembled.insert((u.index(), interest.stream().index())));
                }
            }
        }
        for cut in &sharding.cut {
            prop_assert_ne!(
                sharding.shard_of_user[cut.user.index()],
                sharding.shard_of_stream[cut.stream.index()]
            );
            prop_assert!(reassembled.insert((cut.user.index(), cut.stream.index())));
            mass += cut.utility;
        }
        prop_assert_eq!(&reassembled, &original);
        prop_assert!((mass - sharding.cut_mass).abs() < 1e-9);

        if cap == 0 {
            prop_assert!(sharding.cut.is_empty());
            prop_assert_eq!(sharding.cut_mass, 0.0);
        }
    }

    /// The sharded solver always returns a feasible assignment whose
    /// utility matches its report and sits inside its own certificate.
    #[test]
    fn sharded_outcome_certified(inst in smd_instance(), cap in 0usize..6) {
        let out = solve_sharded(&inst, &ShardConfig {
            max_streams: cap,
            ..ShardConfig::default()
        }).unwrap();
        prop_assert!(out.assignment.check_feasible(&inst).is_ok());
        let recomputed = out.assignment.utility(&inst);
        prop_assert!((out.utility - recomputed).abs() < 1e-9);
        prop_assert!(out.utility <= out.upper_bound + 1e-9 * out.upper_bound.max(1.0));
        prop_assert!((0.0..=1.0).contains(&out.gap_fraction));
    }

    /// Differential: on random instances and random gain/add/remove
    /// sequences, the struct-of-arrays kernel, the preserved scalar
    /// reference kernel and a from-scratch [`eval_set`] recomputation agree
    /// on every intermediate `gain`, realized delta, `user_raw` and
    /// `value` (to ULP-scale tolerance; the kernels differ only in
    /// accumulation order and compensation). The solver-level 1–8 thread
    /// determinism suite (`tests/parallel_determinism.rs`) pins the same
    /// kernel underneath every solver family at every thread count.
    #[test]
    fn coverage_kernels_differentially_equal(inst in smd_instance(), seed in any::<u64>()) {
        let mut soa = coverage::CoverageState::new(&inst);
        let mut scalar = coverage::ScalarCoverageState::new(&inst);
        let n = inst.num_streams();
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let tol = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        for _ in 0..200 {
            let s = StreamId::new(next() as usize % n);
            let g_soa = soa.gain(s);
            let g_scalar = scalar.gain(s);
            prop_assert!(tol(g_soa, g_scalar), "gain {} vs {}", g_soa, g_scalar);
            if soa.set().contains(&s) && next() % 4 != 0 {
                soa.remove(s);
                scalar.remove(s);
            } else {
                let a = soa.add(s);
                let b = scalar.add(s);
                prop_assert!(tol(a, b), "add {} vs {}", a, b);
            }
            prop_assert_eq!(soa.set(), scalar.set());
            prop_assert!(tol(soa.value(), scalar.value()));
            let exact = coverage::eval_set(&inst, soa.set());
            prop_assert!(tol(soa.value(), exact), "soa {} vs eval {}", soa.value(), exact);
            for u in inst.users() {
                prop_assert!(tol(soa.user_raw(u), scalar.user_raw(u)));
                let head = soa.headroom(u);
                let cap = inst.user(u).utility_cap();
                prop_assert!(tol(head, (cap - soa.user_raw(u)).max(0.0)));
            }
        }
    }

    /// Regression (float drift): long add/remove interleavings must keep the
    /// incremental `value` in tight agreement with an exact [`eval_set`]
    /// recomputation. The pre-SoA kernel accumulated `+=`/`-=` deltas into
    /// plain `f64` accumulators, so a heavy stream whose weight dwarfs the
    /// light ones systematically absorbed their low-order bits (both in the
    /// per-user raw sums and in `value`), and sweeps like partial
    /// enumeration or shard repair drifted away from `eval_set`.
    #[test]
    fn coverage_value_no_drift_under_interleaving(seed in any::<u64>()) {
        let mut b = Instance::builder("drift").server_budgets(vec![f64::INFINITY]);
        // One heavy stream (utility 1e16) and two dozen light ones (O(1))
        // sharing two users: an uncapped user (value-accumulator drift) and
        // a finite-cap user (raw-accumulator drift through the cap clamp).
        let heavy = b.add_stream(vec![1.0]);
        let light: Vec<StreamId> = (0..24).map(|_| b.add_stream(vec![1.0])).collect();
        let u_free = b.add_user(f64::INFINITY, vec![]);
        let u_capped = b.add_user(8.0, vec![]);
        b.add_interest(u_free, heavy, 1e16, vec![]).unwrap();
        b.add_interest(u_capped, heavy, 1e16, vec![]).unwrap();
        for (i, &s) in light.iter().enumerate() {
            let w = 0.1 + (i as f64) * 0.017 + 1.0 / 3.0;
            b.add_interest(u_free, s, w, vec![]).unwrap();
            b.add_interest(u_capped, s, w * 0.25, vec![]).unwrap();
        }
        let inst = b.build().unwrap();

        let mut state = coverage::CoverageState::new(&inst);
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for step in 0..10_000u32 {
            // Toggle a random stream, with the heavy one toggled often so
            // light contributions keep crossing the 1e16 magnitude cliff.
            let r = next();
            let s = if r % 3 == 0 {
                heavy
            } else {
                light[(r / 3) as usize % light.len()]
            };
            if state.set().contains(&s) {
                state.remove(s);
            } else {
                let predicted = state.gain(s);
                let realized = state.add(s);
                prop_assert!(
                    (predicted - realized).abs() <= 1e-9 * predicted.abs().max(1.0),
                    "step {}: gain {} != add {}", step, predicted, realized
                );
            }
            if step % 499 == 0 {
                let exact = coverage::eval_set(&inst, state.set());
                prop_assert!(
                    (state.value() - exact).abs() <= 1e-6 * exact.abs().max(1.0),
                    "step {}: incremental {} drifted from exact {}",
                    step, state.value(), exact
                );
            }
        }
        // Final check at full precision of the recomputation.
        let exact = coverage::eval_set(&inst, state.set());
        prop_assert!(
            (state.value() - exact).abs() <= 1e-6 * exact.abs().max(1.0),
            "final: incremental {} drifted from exact {}", state.value(), exact
        );
    }

    /// Assignment bookkeeping: range refcounts survive arbitrary assign /
    /// unassign interleavings.
    #[test]
    fn assignment_refcounting(ops in proptest::collection::vec(
        (0usize..4, 0usize..6, any::<bool>()), 0..60))
    {
        let mut a = Assignment::new(4);
        let mut model: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); 4];
        for (u, s, add) in ops {
            let user = UserId::new(u);
            let stream = StreamId::new(s);
            if add {
                a.assign(user, stream);
                model[u].insert(s);
            } else {
                a.unassign(user, stream);
                model[u].remove(&s);
            }
        }
        for (u, set) in model.iter().enumerate() {
            let got: BTreeSet<usize> =
                a.streams_of(UserId::new(u)).map(StreamId::index).collect();
            prop_assert_eq!(set, &got);
        }
        let expect_range: BTreeSet<usize> =
            model.iter().flatten().copied().collect();
        let got_range: BTreeSet<usize> = a.range().map(StreamId::index).collect();
        prop_assert_eq!(expect_range, got_range);
    }
}
