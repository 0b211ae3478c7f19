//! Differential tests of the partitioners.
//!
//! `super_partition` sorts the interests once and head-splits on the
//! parent partition's edge order. The oracle below is the head-split loop
//! it replaced, rebuilt from the public `shard_instance` and
//! `build_shard_instance`: every round builds the head's sub-instance and
//! partitions it from scratch. The two must agree bit for bit. A second
//! property pins the cut-list contract of both partitioners: the cut is
//! exactly the interests crossing two shards, in `(user, stream)` order.

use mmd::core::algo::shard::{
    build_shard_instance, shard_instance, super_partition, CutInterest, Shard, ShardConfig,
    Sharding,
};
use mmd::core::{Instance, StreamId, UserId};
use proptest::prelude::*;

/// The head-split partition as one sub-instance build and one fresh
/// `shard_instance` per round.
fn oracle_super_partition(instance: &Instance, config: &ShardConfig) -> Sharding {
    let super_cap = instance
        .num_streams()
        .div_ceil(config.super_shards.max(1))
        .max(config.max_streams.max(1));
    let mut supering = shard_instance(instance, super_cap);
    let threshold = config.head_split_skew;
    if threshold <= 0.0 || !threshold.is_finite() {
        return supering;
    }
    let floor = config.max_streams.max(1);
    let mut split_any = false;
    while supering.skew_ratio() > threshold {
        let mut head = 0usize;
        for (k, s) in supering.shards.iter().enumerate() {
            if s.streams.len() > supering.shards[head].streams.len() {
                head = k;
            }
        }
        let head_streams = supering.shards[head].streams.len();
        let cap = head_streams.div_ceil(2).max(floor);
        if cap >= head_streams {
            break;
        }
        let shard = supering.shards[head].clone();
        let sub = build_shard_instance(instance, &shard, instance.budgets(), "oracle-head");
        let parts = shard_instance(&sub, cap);
        let new_shards: Vec<Shard> = parts
            .shards
            .iter()
            .map(|p| Shard {
                streams: p
                    .streams
                    .iter()
                    .map(|ls| shard.streams[ls.index()])
                    .collect(),
                users: p.users.iter().map(|lu| shard.users[lu.index()]).collect(),
            })
            .collect();
        supering.cut.extend(parts.cut.iter().map(|c| CutInterest {
            user: shard.users[c.user.index()],
            stream: shard.streams[c.stream.index()],
            utility: c.utility,
        }));
        supering.cut_mass += parts.cut_mass;
        supering.shards.splice(head..=head, new_shards);
        split_any = true;
    }
    if split_any {
        supering.cut.sort_by_key(|c| (c.user, c.stream));
        for (k, shard) in supering.shards.iter().enumerate() {
            for &s in &shard.streams {
                supering.shard_of_stream[s.index()] = k;
            }
            for &u in &shard.users {
                supering.shard_of_user[u.index()] = k;
            }
        }
    }
    supering
}

/// Strategy: a random instance with a Zipf-like popular head (so coarse
/// partitions are skewed and get head-split), tied utilities, streams no
/// user wants and users who want nothing.
fn skewed_instance() -> impl Strategy<Value = Instance> {
    (1usize..40, 0usize..30, any::<u64>()).prop_map(|(ns, nu, seed)| {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
        };
        let mut b = Instance::builder("oracle").server_budgets(vec![10.0]);
        let streams: Vec<StreamId> = (0..ns).map(|_| b.add_stream(vec![1.0])).collect();
        for _ in 0..nu {
            let u = b.add_user(f64::INFINITY, vec![]);
            let degree = (next() * 6.0) as usize; // 0 for about a sixth of users
            let mut picked: Vec<usize> = (0..degree)
                .map(|_| ((next() * next() * ns as f64) as usize).min(ns - 1))
                .collect();
            picked.sort_unstable();
            picked.dedup();
            for s in picked {
                let utility = if next() < 0.5 {
                    [1.0, 2.0][usize::from(next() < 0.5)]
                } else {
                    0.1 + 3.0 * next()
                };
                b.add_interest(u, streams[s], utility, vec![]).unwrap();
            }
        }
        b.build().unwrap()
    })
}

/// Strategy: a two-level partition configuration, with the head-split
/// threshold drawn from disabled (`≤ 0`, non-finite), always-split (`1.0`)
/// and ordinary values.
fn partition_config() -> impl Strategy<Value = ShardConfig> {
    (0usize..8, 0usize..9, 0usize..8).prop_map(|(max_streams, super_shards, skew)| {
        let head_split_skew = [-1.0, 0.0, 1.0, 1.01, 1.5, 2.0, 3.0, f64::NAN][skew];
        ShardConfig {
            max_streams,
            super_shards,
            head_split_skew,
            ..ShardConfig::default()
        }
    })
}

/// The interests crossing two shards, scanned in `(user, stream)` order,
/// with their utilities as bits.
fn crossing(instance: &Instance, sharding: &Sharding) -> Vec<(UserId, StreamId, u64)> {
    let mut out = Vec::new();
    for u in instance.users() {
        for interest in instance.user(u).interests() {
            let s = interest.stream();
            if sharding.shard_of_user[u.index()] != sharding.shard_of_stream[s.index()] {
                out.push((u, s, interest.utility().to_bits()));
            }
        }
    }
    out
}

fn cut_bits(sharding: &Sharding) -> Vec<(UserId, StreamId, u64)> {
    sharding
        .cut
        .iter()
        .map(|c| (c.user, c.stream, c.utility.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// One sort plus per-round Kruskal on the parent's edge order yields
    /// the oracle's partition exactly: shards, cut list (utilities as
    /// bits), `cut_mass` bits and both membership maps.
    #[test]
    fn super_partition_matches_the_rebuild_per_round_oracle(
        inst in skewed_instance(),
        config in partition_config(),
    ) {
        let fast = super_partition(&inst, &config);
        let oracle = oracle_super_partition(&inst, &config);
        prop_assert_eq!(&fast.shards, &oracle.shards);
        prop_assert_eq!(cut_bits(&fast), cut_bits(&oracle));
        prop_assert_eq!(fast.cut_mass.to_bits(), oracle.cut_mass.to_bits());
        prop_assert_eq!(&fast.shard_of_stream, &oracle.shard_of_stream);
        prop_assert_eq!(&fast.shard_of_user, &oracle.shard_of_user);
    }

    /// Both partitioners report as cut exactly the interests whose user
    /// and stream landed in different shards, in `(user, stream)` order.
    #[test]
    fn cut_is_exactly_the_crossing_interests(
        inst in skewed_instance(),
        config in partition_config(),
    ) {
        let flat = shard_instance(&inst, config.max_streams);
        prop_assert_eq!(cut_bits(&flat), crossing(&inst, &flat));
        let supers = super_partition(&inst, &config);
        prop_assert_eq!(cut_bits(&supers), crossing(&inst, &supers));
    }
}

/// The property instances do exercise head-splitting: for many of them a
/// split round re-cuts the head and cuts interests while doing it.
#[test]
fn the_strategy_reaches_cutting_head_splits() {
    let config = ShardConfig {
        max_streams: 1,
        super_shards: 2,
        head_split_skew: 1.0,
        ..ShardConfig::default()
    };
    let unsplit = ShardConfig {
        head_split_skew: 0.0,
        ..config
    };
    let mut cutting_splits = 0;
    for case in 0..64 {
        let inst = skewed_instance().generate(&mut proptest::TestRng::for_case(case));
        let raw = super_partition(&inst, &unsplit);
        let split = super_partition(&inst, &config);
        if split.num_shards() > raw.num_shards() && split.cut.len() > raw.cut.len() {
            cutting_splits += 1;
        }
    }
    assert!(
        cutting_splits > 8,
        "only {cutting_splits} of 64 instances had a cutting head split"
    );
}
