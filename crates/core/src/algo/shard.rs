//! **Sharded solving** of instances too big for one core: partition the
//! stream–audience graph into near-independent shards, solve the shards
//! concurrently with [`solve_batch`], and reconcile the shared server
//! budgets.
//!
//! Streams interact in two ways only: through shared users (captured by the
//! bipartite connectivity of [`crate::graph`]) and through the shared server
//! budgets `B_i`. [`shard_instance`] makes the first interaction vanish by
//! splitting along connected components — and, when a component exceeds the
//! configured size cap, by cutting its *lowest-utility* interests first
//! (heaviest edges are merged first under a component-size cap, Kruskal
//! style) while recording the total utility of the cut interests as
//! `cut_mass`. [`solve_sharded`] then handles the second interaction with a
//! budget reconciler: each finite budget is water-filled across shards in
//! proportion to their utility upper bounds, capped at demand (uncontended
//! measures fund every shard fully), slightly over-provisioned
//! ([`ShardConfig::budget_slack`]) and floored so every stream still fits
//! its own shard's budget; the shards are solved concurrently, one global
//! repair pass restores feasibility where the slack or the floors
//! oversubscribed a budget, and a global [`residual_fill`] re-adds cut
//! interests and spends leftover budget.
//!
//! # The gap certificate
//!
//! The returned [`ShardedOutcome`] is *certified*: its assignment is
//! feasible in the original instance, so `utility` is a true lower bound on
//! the optimum, and `upper_bound` is a true upper bound, by Lemma 2.1's
//! submodularity/subadditivity of the capped utility `w(T)`. Concretely,
//! restricting an optimal assignment to one shard keeps it feasible for the
//! *full* budgets, every cross-shard (user, stream) pair is one of the cut
//! interests, and `min(W_u, a + b) ≤ min(W_u, a) + min(W_u, b)`, so
//!
//! ```text
//! OPT ≤ Σ_k ub(shard_k) + cut_mass,
//! ```
//!
//! where `ub(shard)` is the cheap per-shard bound of
//! [`utility_upper_bound`]: the smaller of the cap-sum bound
//! `Σ_u min(W_u, Σ_S w_u(S))` and, per finite budget measure, a fractional
//! knapsack over singleton utilities. `tests/theorem_bounds.rs` checks the
//! certificate against `mmd-exact`; `tests/shard_equivalence.rs` pins the
//! shard-vs-monolithic differential behaviour.
//!
//! # The partition tree
//!
//! Every sharded solve — [`solve_sharded`] and each ingest-engine apply —
//! runs through one tree ([`HierarchicalSharding`]) at one of two depths,
//! chosen by [`ShardConfig::super_shards`]:
//!
//! * **Depth 2** (`super_shards ≥ 2`): a *coarse* partition at cap
//!   `⌈|S| / super_shards⌉` (head-split while its
//!   [`Sharding::skew_ratio`] exceeds [`ShardConfig::head_split_skew`], so
//!   a Zipf catalog head cannot pin one super-shard as the critical path),
//!   a single water-fill of every finite budget across the few
//!   super-shards, and per super-shard an *inner* partition at
//!   `max_streams` granularity with its own water-fill of the super-shard's
//!   share and its own merge, repair and fill.
//! * **Depth 1** (`super_shards ≤ 1`): the flat partition
//!   [`shard_instance`]`(instance, max_streams)` with no head-split. Each
//!   super-shard is its own single inner shard and is solved directly
//!   under the share the water-fill gave it: the share is passed through,
//!   with no re-partition, no second water-fill and no per-super tail.
//!
//! At either depth all inner shards across all super-shards are solved
//! through **one flat [`solve_batch`] fan-out**, so workers steal
//! inner-shard solves across super-shards and the outcome stays
//! bit-identical at any thread count. The global repair and fill are the
//! only tail shared by all super-shards. Certificate terms come from the
//! top level only — per-super-shard bounds under the FULL budgets plus the
//! top-level `cut_mass` (plus the compact-lane quantization mass) —
//! because budget-restricted inner bounds would not be valid for the
//! full-budget optimum.

use crate::algo::batch::solve_batch;
use crate::algo::reduction::{residual_fill, MmdConfig};
use crate::assignment::Assignment;
use crate::error::SolveError;
use crate::govern::{DegradeAction, SolveBudget};
use crate::graph::{collect_components, UnionFind};
use crate::ids::{StreamId, UserId};
use crate::ingest::{IngestConfig, IngestOutcome, Touched, Universe};
use crate::instance::Instance;
use crate::num;
use std::time::Instant;

/// Configuration for [`solve_sharded`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardConfig {
    /// Target maximum number of streams per shard. Components larger than
    /// this are split by cutting their lowest-utility interests. `0` means
    /// "component granularity": no cap, nothing is ever cut.
    pub max_streams: usize,
    /// Worker threads across shard solves (`0` = all cores, `1` =
    /// sequential). Shards are independent sub-instances solved through
    /// [`solve_batch`], so the outcome is bit-identical at any thread
    /// count.
    pub threads: usize,
    /// The Theorem 1.1 pipeline configuration applied to every shard. Its
    /// own `threads` knobs default to 1 so shard-level parallelism is not
    /// multiplied by intra-solve parallelism.
    pub mmd: MmdConfig,
    /// Run a global [`residual_fill`] over the *original* instance after
    /// reconciliation: recovers cut interests and leftover budget. On by
    /// default; disable to measure the raw shard/reconcile loss.
    pub global_fill: bool,
    /// Resource-augmentation factor on contended budget shares: each shard
    /// receives `(1 + budget_slack) ×` its water-filled share (still capped
    /// at its demand), deliberately oversubscribing the budget so that the
    /// *global* repair pass — not the local split — arbitrates the marginal
    /// streams across shards. `0.0` disables the augmentation. Uncontended
    /// measures are never inflated, so exactly-decomposable instances stay
    /// bit-identical to the monolithic solve.
    pub budget_slack: f64,
    /// Number of super-shards for two-level sharding. `0` or `1` (the
    /// default) is depth 1 of the [`HierarchicalSharding`] tree: the flat
    /// partition at `max_streams`, each shard solved directly under its
    /// water-filled share (no re-water-fill, no per-super tail). With
    /// `k ≥ 2`, the catalog is first partitioned at the coarse cap
    /// `⌈|S| / k⌉`: each finite budget is water-filled *once* across the
    /// few super-shards, every super-shard is partitioned again at
    /// `max_streams` granularity, and all inner shards across all
    /// super-shards are solved through one flat [`solve_batch`] fan-out
    /// (workers steal inner-shard solves across super-shards, so a skewed
    /// super-shard cannot pin a worker).
    /// The water-fill's refill loop is worst-case quadratic in the number
    /// of parties, so splitting it across two levels (`k` outer +
    /// `shards/k` inner parties instead of `shards`) is what keeps
    /// partition + water-fill subquadratic at 10⁵–10⁶ users. The
    /// certificate stays valid by the same Lemma 2.1 subadditivity, taken
    /// at the super-shard level (see [`solve_sharded`]).
    pub super_shards: usize,
    /// Skew threshold for head-splitting the coarse partition (two-level
    /// mode only): while the super level's stream-weighted skew ratio
    /// ([`Sharding::skew_ratio`]: largest / mean streams per shard)
    /// exceeds this, the largest super-shard is re-cut at half its stream
    /// count (floored at `max_streams`). Without it a Zipf(θ≈1) catalog
    /// head leaves one super-shard holding most of the work. `≤ 0`
    /// disables splitting. Deterministic and thread-count invariant.
    pub head_split_skew: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            max_streams: 0,
            threads: 1,
            mmd: MmdConfig::default(),
            global_fill: true,
            budget_slack: 0.2,
            super_shards: 0,
            head_split_skew: 2.0,
        }
    }
}

impl ShardConfig {
    /// Sets the shard-level worker thread count (the [`solve_batch`]
    /// fan-out). Per-shard solves stay sequential, mirroring the batch
    /// convention.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables two-level sharding with the given number of super-shards
    /// (`0` or `1` keeps depth 1, the flat partition).
    #[must_use]
    pub fn with_super_shards(mut self, super_shards: usize) -> Self {
        self.super_shards = super_shards;
        self
    }
}

/// One shard: a subset of streams and users (original ids, ascending).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Streams in the shard, ascending.
    pub streams: Vec<StreamId>,
    /// Users in the shard, ascending.
    pub users: Vec<UserId>,
}

/// An interest removed by the size-capped splitter: its user and stream
/// ended up in different shards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutInterest {
    /// The user side of the cut interest.
    pub user: UserId,
    /// The stream side of the cut interest.
    pub stream: StreamId,
    /// The utility `w_u(S)` lost if nothing re-adds the pair.
    pub utility: f64,
}

/// The result of [`shard_instance`]: a partition of all streams and users
/// into shards, plus the interests cut to enforce the size cap.
#[derive(Clone, Debug)]
pub struct Sharding {
    /// The shards; every stream and every user appears in exactly one.
    pub shards: Vec<Shard>,
    /// Exactly the interests whose user and stream landed in different
    /// shards, in `(user, stream)` order. Each is an interest the splitter
    /// could not merge under the cap; no other interest crosses shards.
    pub cut: Vec<CutInterest>,
    /// Total utility of the cut interests (`Σ w_u(S)` over [`Self::cut`]).
    pub cut_mass: f64,
    /// For each stream (by index), the shard it belongs to.
    pub shard_of_stream: Vec<usize>,
    /// For each user (by index), the shard it belongs to.
    pub shard_of_user: Vec<usize>,
}

impl Sharding {
    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Stream count of the largest shard (0 when there are no shards).
    #[must_use]
    pub fn largest_shard_streams(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.streams.len())
            .max()
            .unwrap_or(0)
    }

    /// Stream-weighted skew ratio of the partition: largest / mean streams
    /// per shard. `1.0` means perfectly balanced; a Zipf catalog head
    /// typically pushes the coarse partition well above it. `0.0` when the
    /// partition has no shards or no streams. This is the observable that
    /// triggers head-splitting ([`ShardConfig::head_split_skew`]).
    #[must_use]
    pub fn skew_ratio(&self) -> f64 {
        skew_ratio(&self.shards)
    }
}

/// [`Sharding::skew_ratio`] of a bare shard list.
fn skew_ratio(shards: &[Shard]) -> f64 {
    let total: usize = shards.iter().map(|s| s.streams.len()).sum();
    if shards.is_empty() || total == 0 {
        return 0.0;
    }
    let largest = shards.iter().map(|s| s.streams.len()).max().unwrap_or(0);
    largest as f64 / (total as f64 / shards.len() as f64)
}

/// Partitions an instance into shards along stream–audience connectivity.
///
/// With `max_streams == 0` the shards are exactly the connected components
/// of the bipartite graph (no interest is ever cut). With a cap, interests
/// are processed in decreasing utility order and merged Kruskal-style under
/// the constraint that no shard exceeds `max_streams` streams; interests
/// whose endpoints cannot be merged are *cut* and reported with their total
/// utility (`cut_mass`). Streams that end up without any user (no audience,
/// or all their interests cut) are packed into cap-sized residual shards;
/// users without any surviving interest ride along in the first residual
/// shard so that the shards always partition the full instance.
#[must_use]
pub fn shard_instance(instance: &Instance, max_streams: usize) -> Sharding {
    let edges = interest_edges(instance, max_streams > 0);
    let split = capped_kruskal(
        instance.num_streams(),
        instance.num_users(),
        max_streams,
        &edges,
    );
    finish_sharding(instance, split.shards, split.cut_mass)
}

/// Every interest of `instance` as a `(utility, user, stream)` edge. With
/// `merge_order`, sorted the way the capped Kruskal merges them: heaviest
/// first, so the cap cuts low-weight edges, ties by user then stream. The
/// keys are unique, so the unstable sort is deterministic.
fn interest_edges(instance: &Instance, merge_order: bool) -> Vec<(f64, usize, usize)> {
    let mut edges = Vec::with_capacity(instance.num_interests());
    for u in instance.users() {
        for interest in instance.user(u).interests() {
            edges.push((interest.utility(), u.index(), interest.stream().index()));
        }
    }
    if merge_order {
        edges.sort_unstable_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
    }
    edges
}

/// The result of one [`capped_kruskal`] run, in the run's local ids.
struct KruskalSplit {
    /// The shards (local ids, ascending).
    shards: Vec<Shard>,
    /// Per input edge: whether its endpoints ended up in one shard.
    kept: Vec<bool>,
    /// Total utility of the edges not kept, summed in input order.
    cut_mass: f64,
}

/// The capped-Kruskal core of [`shard_instance`] and of every head-split
/// round of [`super_partition`]. Merges `edges` — `(utility, user,
/// stream)` over dense local ids, streams `0..ns` and users `0..nu` — in
/// the order given, refusing any merge that would put more than `cap`
/// streams in one component (`0` = no cap). Components with both sides
/// populated become shards; the rest are packed into cap-sized residual
/// shards, with the users that have no surviving interest riding along in
/// the first one.
fn capped_kruskal(ns: usize, nu: usize, cap: usize, edges: &[(f64, usize, usize)]) -> KruskalSplit {
    // Node layout: streams 0..ns (weight 1), users ns..ns+nu (weight 0),
    // so a component's weight is its stream count.
    let mut weights = vec![1usize; ns];
    weights.extend(std::iter::repeat_n(0usize, nu));
    let mut uf = UnionFind::new(weights);
    for &(_, u, s) in edges {
        uf.union_capped(s, ns + u, cap);
    }

    // An edge refused earlier can still be connected through later merges,
    // so whether it is cut is decided on the final forest.
    let mut cut_mass = 0.0f64;
    let kept = edges
        .iter()
        .map(|&(w, u, s)| {
            let kept = uf.connected(s, ns + u);
            if !kept {
                cut_mass += w;
            }
            kept
        })
        .collect();

    let mut shards: Vec<Shard> = Vec::new();
    let mut residual_streams: Vec<StreamId> = Vec::new();
    let mut residual_users: Vec<UserId> = Vec::new();
    for comp in collect_components(&mut uf, ns, nu) {
        if !comp.streams.is_empty() && !comp.users.is_empty() {
            shards.push(Shard {
                streams: comp.streams,
                users: comp.users,
            });
        } else {
            residual_streams.extend(comp.streams);
            residual_users.extend(comp.users);
        }
    }
    if !residual_streams.is_empty() {
        let chunk = if cap > 0 { cap } else { residual_streams.len() };
        let mut first = true;
        for streams in residual_streams.chunks(chunk) {
            shards.push(Shard {
                streams: streams.to_vec(),
                users: if first {
                    std::mem::take(&mut residual_users)
                } else {
                    Vec::new()
                },
            });
            first = false;
        }
    } else if !residual_users.is_empty() {
        shards.push(Shard {
            streams: Vec::new(),
            users: residual_users,
        });
    }
    KruskalSplit {
        shards,
        kept,
        cut_mass,
    }
}

/// Completes a partition of `instance` (global ids) into a [`Sharding`]:
/// the membership maps and the cut list.
///
/// The cut is exactly the set of interests crossing two shards. That is
/// the same set as the interests the Kruskal runs left unconnected: a user
/// weighs 0, so its first interest always merges it into a stream's
/// component, and only interest-less users reach a stream-less residual
/// shard. Scanning users in id order and their stream-sorted interests
/// therefore lists the cut in `(user, stream)` order with no sort.
fn finish_sharding(instance: &Instance, shards: Vec<Shard>, cut_mass: f64) -> Sharding {
    let mut shard_of_stream = vec![usize::MAX; instance.num_streams()];
    let mut shard_of_user = vec![usize::MAX; instance.num_users()];
    for (k, shard) in shards.iter().enumerate() {
        for &s in &shard.streams {
            shard_of_stream[s.index()] = k;
        }
        for &u in &shard.users {
            shard_of_user[u.index()] = k;
        }
    }
    debug_assert!(shard_of_stream.iter().all(|&k| k != usize::MAX));
    debug_assert!(shard_of_user.iter().all(|&k| k != usize::MAX));

    let mut cut = Vec::new();
    for u in instance.users() {
        let home = shard_of_user[u.index()];
        for interest in instance.user(u).interests() {
            if shard_of_stream[interest.stream().index()] != home {
                cut.push(CutInterest {
                    user: u,
                    stream: interest.stream(),
                    utility: interest.utility(),
                });
            }
        }
    }
    Sharding {
        shards,
        cut,
        cut_mass,
        shard_of_stream,
        shard_of_user,
    }
}

/// Water-fills each finite server budget across the shards.
///
/// Shares are proportional to `weights` (the caller's estimate of each
/// shard's utility potential — [`solve_sharded`] uses the per-shard
/// [`utility_upper_bound`]), but capped at the shard's *demand* in that
/// measure: a shard never receives more budget than its streams can spend,
/// and the freed remainder is re-filled across the still-unsaturated
/// shards. When a measure is uncontended every shard is simply fully
/// funded, so the split is demand-exact regardless of the weights — the
/// property the exactly-decomposable differential test relies on.
///
/// On contended measures each share is additionally inflated by
/// `(1 + slack)` (capped at the shard's demand): the deliberate
/// oversubscription of [`ShardConfig::budget_slack`], resolved by the
/// global repair pass. Every share is floored at the shard's costliest
/// single stream so the shard instance satisfies the model assumption
/// `c_i(S) ≤ B_i`; the floors too can oversubscribe a contended budget,
/// which the repair pass of [`solve_sharded`] undoes globally.
///
/// # Panics
///
/// Panics if `weights.len()` differs from the number of shards.
#[must_use]
pub fn split_budgets(
    instance: &Instance,
    sharding: &Sharding,
    weights: &[f64],
    slack: f64,
) -> Vec<Vec<f64>> {
    assert_eq!(weights.len(), sharding.shards.len(), "one weight per shard");
    let m = instance.num_measures();
    let n = sharding.shards.len();
    let mut out = vec![vec![0.0f64; m]; n];
    for i in 0..m {
        let budget = instance.budget(i);
        if budget.is_infinite() {
            for share in &mut out {
                share[i] = f64::INFINITY;
            }
            continue;
        }
        let demands: Vec<f64> = sharding
            .shards
            .iter()
            .map(|sh| sh.streams.iter().map(|&s| instance.cost(s, i)).sum())
            .collect();
        let total: f64 = demands.iter().sum();
        let shares = if num::approx_le(total, budget) {
            demands.clone()
        } else {
            let mut filled = waterfill(budget, &demands, weights);
            for (share, &demand) in filled.iter_mut().zip(&demands) {
                *share = (*share * (1.0 + slack.max(0.0))).min(demand);
            }
            filled
        };
        for (k, share) in out.iter_mut().enumerate() {
            let floor = sharding.shards[k]
                .streams
                .iter()
                .map(|&s| instance.cost(s, i))
                .fold(0.0f64, f64::max);
            share[i] = shares[k].max(floor);
        }
    }
    out
}

/// Splits `budget` across shards proportionally to `weights`, capping each
/// share at the shard's `demand` and re-filling the freed remainder among
/// the unsaturated shards until no cap is newly hit (classic water-filling;
/// terminates in at most one round per shard).
fn waterfill(budget: f64, demands: &[f64], weights: &[f64]) -> Vec<f64> {
    let n = demands.len();
    let mut shares = vec![0.0f64; n];
    let mut saturated = vec![false; n];
    let mut remaining = budget;
    loop {
        let active_weight: f64 = weights
            .iter()
            .zip(&saturated)
            .filter(|&(_, &s)| !s)
            .map(|(&w, _)| w.max(0.0))
            .sum();
        if remaining <= 0.0 || active_weight <= 0.0 {
            // Degenerate weights (e.g. every shard's utility potential is
            // 0): never divide by the zero weight total — fall back to
            // demand-proportional shares among whatever is still
            // unsaturated, and when the demands are degenerate too, to an
            // equal split capped at demand (the function's share ≤ demand
            // contract; all-zero demands therefore get all-zero shares).
            // No division below ever has a zero denominator.
            if remaining > 0.0 {
                let active_demand: f64 = demands
                    .iter()
                    .zip(&saturated)
                    .filter(|&(_, &s)| !s)
                    .map(|(&d, _)| d)
                    .sum();
                let active_n = saturated.iter().filter(|&&s| !s).count();
                for k in 0..n {
                    if !saturated[k] {
                        shares[k] = if active_demand > 0.0 {
                            remaining * demands[k] / active_demand
                        } else if active_n > 0 {
                            (remaining / active_n as f64).min(demands[k])
                        } else {
                            0.0
                        };
                    }
                }
            }
            return shares;
        }
        let mut hit_cap = false;
        for k in 0..n {
            if saturated[k] {
                continue;
            }
            let offer = remaining * weights[k].max(0.0) / active_weight;
            if num::approx_ge(offer, demands[k]) {
                shares[k] = demands[k];
                saturated[k] = true;
                hit_cap = true;
            }
        }
        if hit_cap {
            remaining = budget
                - shares
                    .iter()
                    .zip(&saturated)
                    .fold(0.0, |acc, (&s, &sat)| if sat { acc + s } else { acc });
            continue;
        }
        for k in 0..n {
            if !saturated[k] {
                shares[k] = remaining * weights[k].max(0.0) / active_weight;
            }
        }
        return shares;
    }
}

/// Builds the standalone [`Instance`] of one shard: same costs, caps and
/// capacities, only the shard's streams/users, only intra-shard interests,
/// and the given per-measure budgets. Local ids are dense in the order of
/// `shard.streams` / `shard.users`.
#[must_use]
pub fn build_shard_instance(
    instance: &Instance,
    shard: &Shard,
    budgets: &[f64],
    name: &str,
) -> Instance {
    let mut local_stream = vec![usize::MAX; instance.num_streams()];
    for (li, &s) in shard.streams.iter().enumerate() {
        local_stream[s.index()] = li;
    }
    build_shard_instance_with(instance, shard, budgets, name, &|s| {
        let li = local_stream[s.index()];
        (li != usize::MAX).then_some(li)
    })
}

/// The membership-parameterized core of [`build_shard_instance`]:
/// `local_of` maps a global stream id to its dense local index within the
/// shard, or `None` for streams outside it. [`solve_sharded`] passes a
/// lookup backed by [`Sharding`]'s precomputed maps so that building every
/// shard costs O(shard), not O(instance) each.
fn build_shard_instance_with(
    instance: &Instance,
    shard: &Shard,
    budgets: &[f64],
    name: &str,
    local_of: &dyn Fn(StreamId) -> Option<usize>,
) -> Instance {
    let mut b = Instance::builder(name)
        .server_budgets(budgets.to_vec())
        .lane_mode(instance.lane_mode());
    for &s in &shard.streams {
        b.add_stream(instance.costs(s).to_vec());
    }
    for &gu in &shard.users {
        let spec = instance.user(gu);
        b.add_user(spec.utility_cap(), spec.capacities().to_vec());
    }
    for (lu, &gu) in shard.users.iter().enumerate() {
        for interest in instance.user(gu).interests() {
            let Some(ls) = local_of(interest.stream()) else {
                continue; // cut interest: stream lives in another shard
            };
            b.add_interest(
                UserId::new(lu),
                StreamId::new(ls),
                interest.utility(),
                interest.loads().to_vec(),
            )
            .expect("shard interests are unique and ids valid");
        }
    }
    b.build().expect("shard instances inherit validity")
}

/// A cheap, certified upper bound on the capped utility achievable using
/// only `streams` and `users` of `instance` under its full server budgets:
/// the smaller of the cap-sum bound `Σ_u min(W_u, Σ_S w_u(S))` and, for
/// every finite positive budget measure, a fractional knapsack over the
/// streams' singleton utilities (valid since `w(T) ≤ Σ_{S∈T} w({S})` by
/// subadditivity). Interests crossing the boundary of the given sets are
/// ignored — account for them separately (see the module docs).
#[must_use]
pub fn utility_upper_bound(instance: &Instance, streams: &[StreamId], users: &[UserId]) -> f64 {
    let mut member = vec![false; instance.num_users()];
    for &u in users {
        member[u.index()] = true;
    }
    let mut stream_member = vec![false; instance.num_streams()];
    for &s in streams {
        stream_member[s.index()] = true;
    }
    utility_upper_bound_with(instance, streams, users, &|u| member[u.index()], &|s| {
        stream_member[s.index()]
    })
}

/// The membership-parameterized core of [`utility_upper_bound`].
/// [`solve_sharded`] passes lookups backed by [`Sharding`]'s precomputed
/// maps so that bounding every shard costs O(shard), not O(instance) each.
fn utility_upper_bound_with(
    instance: &Instance,
    streams: &[StreamId],
    users: &[UserId],
    user_in: &dyn Fn(UserId) -> bool,
    stream_in: &dyn Fn(StreamId) -> bool,
) -> f64 {
    // Cap-sum bound.
    let mut cap_sum = 0.0f64;
    for &u in users {
        let spec = instance.user(u);
        let total: f64 = spec
            .interests()
            .iter()
            .filter(|i| stream_in(i.stream()))
            .map(|i| i.utility())
            .sum();
        cap_sum += total.min(spec.utility_cap());
    }

    // Per-measure fractional knapsack over singleton utilities. Iterates
    // the exact audience pairs (not the kernel lanes) so the bound is
    // computed from exact `f64` weights in every lane mode — certificates
    // must never inherit quantization from the compact lanes.
    let caps = instance.user_caps();
    let singleton = |s: StreamId| -> f64 {
        instance
            .audience(s)
            .iter()
            .filter(|&&(u, _)| user_in(u))
            .map(|&(u, w)| w.min(caps[u.index()]))
            .sum()
    };
    let values: Vec<f64> = streams.iter().map(|&s| singleton(s)).collect();
    let mut best = cap_sum;
    for i in 0..instance.num_measures() {
        let budget = instance.budget(i);
        if !budget.is_finite() {
            continue;
        }
        let mut items: Vec<(f64, f64)> = streams
            .iter()
            .zip(&values)
            .map(|(&s, &v)| (v, instance.cost(s, i)))
            .filter(|&(v, _)| v > 0.0)
            .collect();
        // Densest first; free items are infinitely dense.
        items.sort_by(|a, b| {
            let da = if a.1 <= 0.0 { f64::INFINITY } else { a.0 / a.1 };
            let db = if b.1 <= 0.0 { f64::INFINITY } else { b.0 / b.1 };
            db.total_cmp(&da)
        });
        let mut room = budget;
        let mut bound = 0.0f64;
        for (v, c) in items {
            if c <= 0.0 {
                bound += v;
            } else if c <= room {
                bound += v;
                room -= c;
            } else {
                bound += v * (room / c).max(0.0);
                break;
            }
        }
        best = best.min(bound);
    }
    best
}

/// The per-shard upper bound of [`utility_upper_bound`], computed through a
/// [`Sharding`]'s precomputed membership maps so that bounding one shard
/// costs O(shard), not O(instance). This is the bound [`solve_sharded`]
/// derives internally for every shard; the ingest engine calls it per
/// *dirty* shard to refresh its cached certificate terms incrementally.
///
/// # Panics
///
/// Panics if `k` is not a valid shard index of `sharding`.
#[must_use]
pub fn shard_utility_bound(instance: &Instance, sharding: &Sharding, k: usize) -> f64 {
    let shard = &sharding.shards[k];
    utility_upper_bound_with(
        instance,
        &shard.streams,
        &shard.users,
        &|u| sharding.shard_of_user[u.index()] == k,
        &|s| sharding.shard_of_stream[s.index()] == k,
    )
}

/// The coarse (super) level of the two-level partition: the catalog
/// partitioned at cap `⌈|S| / super_shards⌉` (never coarser than
/// `max_streams`), then head-split while the stream-weighted skew ratio
/// exceeds [`ShardConfig::head_split_skew`]. Deterministic and
/// thread-count invariant; the ingest engine and [`solve_sharded`] both
/// partition through this function, which their bit-for-bit equivalence
/// depends on.
///
/// The interests are sorted into merge order once. Each head-split round
/// re-cuts the largest shard (ties to the smallest index) at half its
/// stream count, floored at the inner cap, by running the same capped
/// Kruskal over the head's own interests, in the parent partition's edge
/// order and on the head's dense local ids. Local ids are a monotone map
/// of global ones, so a round splits the head exactly as a fresh
/// [`shard_instance`] of the head's sub-instance would: it cuts the head's
/// lowest-utility interests first, and their utility is added to
/// `cut_mass` one round at a time.
#[must_use]
pub fn super_partition(instance: &Instance, config: &ShardConfig) -> Sharding {
    let ns = instance.num_streams();
    let nu = instance.num_users();
    let super_cap = ns
        .div_ceil(config.super_shards.max(1))
        .max(config.max_streams.max(1));
    let edges = interest_edges(instance, true);
    let coarse = capped_kruskal(ns, nu, super_cap, &edges);
    let mut shards = coarse.shards;
    let mut cut_mass = coarse.cut_mass;
    let threshold = config.head_split_skew;
    if threshold <= 0.0 || !threshold.is_finite() || skew_ratio(&shards) <= threshold {
        return finish_sharding(instance, shards, cut_mass);
    }

    let mut buckets = bucket_kept_edges(
        &shards,
        ns,
        edges.iter().enumerate().map(|(i, e)| (i, e.2)),
        &coarse.kept,
    );
    // Dense local ids of the current head's members, refilled per round.
    let mut local_stream = vec![0usize; ns];
    let mut local_user = vec![0usize; nu];
    let floor = config.max_streams.max(1);
    while skew_ratio(&shards) > threshold {
        let mut head = 0usize;
        for (k, s) in shards.iter().enumerate() {
            if s.streams.len() > shards[head].streams.len() {
                head = k;
            }
        }
        let shard = &shards[head];
        let cap = shard.streams.len().div_ceil(2).max(floor);
        if cap >= shard.streams.len() {
            break; // the head is already at the inner cap: nothing to gain
        }
        for (li, &s) in shard.streams.iter().enumerate() {
            local_stream[s.index()] = li;
        }
        for (li, &u) in shard.users.iter().enumerate() {
            local_user[u.index()] = li;
        }
        let bucket = std::mem::take(&mut buckets[head]);
        let local: Vec<(f64, usize, usize)> = bucket
            .iter()
            .map(|&i| {
                let (w, u, s) = edges[i];
                (w, local_user[u], local_stream[s])
            })
            .collect();
        let split = capped_kruskal(shard.streams.len(), shard.users.len(), cap, &local);
        cut_mass += split.cut_mass;

        let parts_buckets = bucket_kept_edges(
            &split.shards,
            shard.streams.len(),
            bucket.iter().zip(&local).map(|(&i, e)| (i, e.2)),
            &split.kept,
        );
        // Back to global ids; the monotone map keeps every id list
        // ascending.
        let parts: Vec<Shard> = split
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
        shards.splice(head..=head, parts);
        buckets.splice(head..=head, parts_buckets);
    }
    finish_sharding(instance, shards, cut_mass)
}

/// Each part's intra-part edges: the indices of the kept `edges` — given as
/// `(index, stream)` over the parts' ids, with `kept` from the Kruskal run
/// that produced `parts` — grouped by the part of their stream, in input
/// order. A kept edge lies inside one part.
fn bucket_kept_edges(
    parts: &[Shard],
    ns: usize,
    edges: impl Iterator<Item = (usize, usize)>,
    kept: &[bool],
) -> Vec<Vec<usize>> {
    let mut part_of_stream = vec![0usize; ns];
    for (p, part) in parts.iter().enumerate() {
        for &s in &part.streams {
            part_of_stream[s.index()] = p;
        }
    }
    let mut buckets = vec![Vec::new(); parts.len()];
    for ((i, s), &kept) in edges.zip(kept) {
        if kept {
            buckets[part_of_stream[s]].push(i);
        }
    }
    buckets
}

/// The top level of the partition tree, with its certificate terms and
/// water-filled budget shares. Every sharded solve runs through it —
/// [`solve_sharded`] builds one per call, the ingest engine one per apply
/// (reusing cached bounds) — at one of two depths:
///
/// * **depth 2** (`super_shards ≥ 2`): the super-shards of
///   [`super_partition`], each re-partitioned at `max_streams` with its
///   share water-filled again across its inner shards, and finished by a
///   per-super merge, repair and fill;
/// * **depth 1** (`super_shards ≤ 1`): the flat partition
///   [`shard_instance`]`(instance, max_streams)`, with no head-split. Each
///   super-shard is its own single inner shard and is solved directly
///   under its share as water-filled here: no re-partition, no second
///   water-fill, no per-super tail.
///
/// `bounds[k]` is [`shard_utility_bound`] of super-shard `k` under the
/// **full** server budgets. It serves double duty: as the water-fill
/// weight steering `shares[k]`, and as the only per-shard certificate
/// contribution — `Σ bounds + supers.cut_mass (+ quantization mass)` is
/// the certified upper bound, with inner-level bounds deliberately
/// excluded (budget-restricted inner bounds are not valid for the
/// full-budget optimum).
#[derive(Clone, Debug)]
pub struct HierarchicalSharding {
    /// The top-level partition over global ids.
    pub supers: Sharding,
    /// Per-super-shard utility bound under the full budgets: water-fill
    /// weight and certificate term at once.
    pub bounds: Vec<f64>,
    /// Per-super-shard water-filled budget share (one entry per measure).
    pub shares: Vec<Vec<f64>>,
}

impl HierarchicalSharding {
    /// Builds the top level for `instance` at the depth `config` selects:
    /// partition, full-budget bounds, water-filled shares.
    #[must_use]
    pub fn new(instance: &Instance, config: &ShardConfig) -> Self {
        Self::with_bounds(instance, config, Self::partition(instance, config), |_| {
            None
        })
    }

    /// The top-level partition: [`super_partition`] at depth 2, the flat
    /// [`shard_instance`] at depth 1.
    fn partition(instance: &Instance, config: &ShardConfig) -> Sharding {
        if config.super_shards > 1 {
            super_partition(instance, config)
        } else {
            shard_instance(instance, config.max_streams)
        }
    }

    /// Completes the level for an existing partition: `cached(k)` supplies
    /// the still-valid bound of super-shard `k`, every other bound is
    /// computed, and the shares are water-filled from the bounds.
    fn with_bounds(
        instance: &Instance,
        config: &ShardConfig,
        supers: Sharding,
        cached: impl Fn(usize) -> Option<f64>,
    ) -> Self {
        let bounds: Vec<f64> = (0..supers.num_shards())
            .map(|k| cached(k).unwrap_or_else(|| shard_utility_bound(instance, &supers, k)))
            .collect();
        let shares = split_budgets(instance, &supers, &bounds, config.budget_slack);
        HierarchicalSharding {
            supers,
            bounds,
            shares,
        }
    }

    /// Number of super-shards.
    #[must_use]
    pub fn num_supers(&self) -> usize {
        self.supers.num_shards()
    }

    /// The certified upper bound these terms imply for `instance`:
    /// `Σ bounds + super cut_mass + quantization mass`.
    #[must_use]
    pub fn upper_bound(&self, instance: &Instance) -> f64 {
        self.bounds.iter().sum::<f64>() + self.supers.cut_mass + instance.quantization_error()
    }
}

/// Everything needed to solve one super-shard at depth 2: its standalone
/// sub-instance (budgets = the super-shard's water-filled share), the
/// inner partition of that sub-instance at `max_streams` granularity, and
/// the inner-level water-fill of the share across the inner shards. Built
/// by [`plan_super`] identically in cold and incremental solves — (super,
/// inner) cache reuse is sound because an unchanged (membership, content,
/// share) triple reproduces this plan bit-for-bit.
struct SuperPlan {
    /// The super-shard's standalone instance (local ids, share budgets).
    sub: Instance,
    /// The inner partition of [`Self::sub`].
    inner: Sharding,
    /// Water-filled share of the super-shard's budgets per inner shard.
    inner_shares: Vec<Vec<f64>>,
    /// Dense local index of each of `sub`'s streams within its inner shard.
    local_of_stream: Vec<usize>,
}

/// Builds the [`SuperPlan`] of super-shard `k`: sub-instance named
/// `"{instance}#super{k}"`, inner partition at `config.max_streams`, inner
/// bounds (water-fill weights only — never certificate terms) and inner
/// shares. `local_of_stream` maps global stream ids to their dense local
/// index within their super-shard, so the build costs O(super-shard).
fn plan_super(
    instance: &Instance,
    supers: &Sharding,
    local_of_stream: &[usize],
    k: usize,
    share: &[f64],
    config: &ShardConfig,
) -> SuperPlan {
    let shard = &supers.shards[k];
    let sub = build_shard_instance_with(
        instance,
        shard,
        share,
        &format!("{}#super{k}", instance.name()),
        &|s| (supers.shard_of_stream[s.index()] == k).then(|| local_of_stream[s.index()]),
    );
    let inner = shard_instance(&sub, config.max_streams);
    let mut local = vec![0usize; sub.num_streams()];
    for ish in &inner.shards {
        for (li, &s) in ish.streams.iter().enumerate() {
            local[s.index()] = li;
        }
    }
    let inner_bounds: Vec<f64> = (0..inner.num_shards())
        .map(|j| shard_utility_bound(&sub, &inner, j))
        .collect();
    let inner_shares = split_budgets(&sub, &inner, &inner_bounds, config.budget_slack);
    SuperPlan {
        sub,
        inner,
        inner_shares,
        local_of_stream: local,
    }
}

/// Builds the standalone instance of inner shard `j` of a planned
/// super-shard, named `"{instance}#super{k}#shard{j}"` (the name is a
/// label only — solve results never depend on it).
fn build_inner_instance(plan: &SuperPlan, j: usize) -> Instance {
    build_shard_instance_with(
        &plan.sub,
        &plan.inner.shards[j],
        &plan.inner_shares[j],
        &format!("{}#shard{j}", plan.sub.name()),
        &|s| (plan.inner.shard_of_stream[s.index()] == j).then(|| plan.local_of_stream[s.index()]),
    )
}

/// The per-super-shard tail at depth 2: merge the inner-shard solutions
/// (one entry per inner shard, inner-local ids) into one
/// assignment over the super-shard's sub-instance, repair the share
/// budgets, and optionally run the residual fill. Returns the merged
/// assignment (sub-local ids) and the number of streams the repair pass
/// dropped.
fn finish_super(plan: &SuperPlan, inner: &[InnerEntry], global_fill: bool) -> (Assignment, usize) {
    let mut merged = Assignment::for_instance(&plan.sub);
    for (shard, entry) in plan.inner.shards.iter().zip(inner) {
        for (lu, &gu) in shard.users.iter().enumerate() {
            for ls in entry.local.streams_of(UserId::new(lu)) {
                merged.assign(gu, shard.streams[ls.index()]);
            }
        }
    }
    let repaired = repair_budgets(&plan.sub, &mut merged);
    if global_fill && merged.check_feasible(&plan.sub).is_ok() {
        residual_fill(&plan.sub, &mut merged);
    }
    (merged, repaired)
}

/// Result of [`solve_sharded`]: a feasible assignment plus the certificate
/// bracketing the optimum (`utility ≤ OPT ≤ upper_bound`).
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// The final merged, repaired, feasible assignment.
    pub assignment: Assignment,
    /// Capped utility of [`Self::assignment`] — the certified lower bound.
    pub utility: f64,
    /// Certified upper bound on the optimum:
    /// `Σ_k ub(shard_k) + cut_mass + quantization mass`, where the last term
    /// is [`Instance::quantization_error`] (0 under exact lanes; see the
    /// module docs).
    pub upper_bound: f64,
    /// Relative optimality gap `(upper_bound − utility) / upper_bound`
    /// (0 when the upper bound is 0).
    pub gap_fraction: f64,
    /// Number of shards solved.
    pub num_shards: usize,
    /// Stream count of the largest shard.
    pub largest_shard: usize,
    /// Number of interests cut by the size-capped splitter.
    pub cut_edges: usize,
    /// Total utility of the cut interests.
    pub cut_mass: f64,
    /// Streams dropped by the budget repair pass.
    pub repaired_streams: usize,
    /// Stream-weighted skew ratio ([`Sharding::skew_ratio`]) of the
    /// partition the solve fanned out over: the flat partition in
    /// single-level mode, the coarse super level (after head-splitting) in
    /// two-level mode.
    pub skew_ratio: f64,
}

/// Solves one instance by sharding: partition ([`shard_instance`], or
/// [`super_partition`] plus an inner partition per super-shard in
/// two-level mode), solve the shards concurrently ([`solve_batch`] at
/// `config.threads` workers over water-filled budget splits), merge,
/// repair the shared budgets, and optionally run a global
/// [`residual_fill`]. This is the ingest engine's solve with nothing
/// cached and no solve-cost budget.
///
/// The outcome is deterministic and bit-identical at any thread count. On
/// an instance whose components are disjoint and whose budgets are
/// uncontended, the result is bit-identical to [`solve_mmd`]
/// (`tests/shard_equivalence.rs` pins this).
///
/// [`solve_mmd`]: crate::algo::reduction::solve_mmd
///
/// # Examples
///
/// ```
/// use mmd_core::algo::shard::{solve_sharded, ShardConfig};
/// use mmd_core::Instance;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two disjoint one-stream communities sharing one server budget.
/// let mut b = Instance::builder("shards").server_budgets(vec![4.0]);
/// let s0 = b.add_stream(vec![2.0]);
/// let s1 = b.add_stream(vec![2.0]);
/// let u0 = b.add_user(5.0, vec![]);
/// let u1 = b.add_user(5.0, vec![]);
/// b.add_interest(u0, s0, 3.0, vec![])?;
/// b.add_interest(u1, s1, 4.0, vec![])?;
/// let inst = b.build()?;
///
/// let out = solve_sharded(&inst, &ShardConfig::default())?;
/// // The outcome is certified: utility ≤ OPT ≤ upper_bound.
/// assert!(out.assignment.check_feasible(&inst).is_ok());
/// assert!(out.utility <= out.upper_bound);
/// assert_eq!(out.num_shards, 2);
/// assert_eq!(out.utility, 7.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`SolveError`]s from the per-shard pipeline (none occur for
/// well-formed instances).
pub fn solve_sharded(
    instance: &Instance,
    config: &ShardConfig,
) -> Result<ShardedOutcome, SolveError> {
    let cold = IngestConfig {
        shard: *config,
        ..IngestConfig::default()
    };
    let tree = solve_cold(instance, &cold)?;
    let o = tree.outcome;
    Ok(ShardedOutcome {
        assignment: tree.assignment,
        utility: o.utility,
        upper_bound: o.upper_bound,
        gap_fraction: o.gap_fraction,
        num_shards: o.num_shards,
        largest_shard: tree.largest_shard,
        cut_edges: o.cut_edges,
        cut_mass: o.cut_mass,
        repaired_streams: o.repaired_streams,
        skew_ratio: tree.skew_ratio,
    })
}

/// [`solve_tree`] with nothing cached and no solve-cost budget.
pub(crate) fn solve_cold(
    instance: &Instance,
    config: &IngestConfig,
) -> Result<SolvedTree, SolveError> {
    let touched = Touched::new(Universe::of(instance), true);
    let solved = solve_tree(
        instance,
        config,
        SolveBudget::unlimited(),
        Instant::now(),
        &TreeCache::default(),
        &touched,
    )?;
    match solved {
        TreeSolve::Solved(tree) => Ok(*tree),
        TreeSolve::Shed { .. } => unreachable!("an unlimited budget never sheds"),
    }
}

/// The solved tree of the last committed state, keyed by membership: what
/// the next solve reuses where nothing changed. Empty for a cold solve.
#[derive(Clone, Debug, Default)]
pub(crate) struct TreeCache {
    supers: Vec<SuperEntry>,
    super_of_stream: Vec<usize>,
    super_of_user: Vec<usize>,
}

impl TreeCache {
    /// The cached super-shard that held `shard`'s first stream (or, for a
    /// stream-less shard, its first user).
    fn candidate(&self, shard: &Shard) -> Option<usize> {
        let j = match shard.streams.first() {
            Some(s) => self.super_of_stream.get(s.index()),
            None => shard
                .users
                .first()
                .and_then(|u| self.super_of_user.get(u.index())),
        };
        j.copied().filter(|&j| j < self.supers.len())
    }
}

/// One solved super-shard. The entry carries both the finished assignment
/// (reused wholesale when the super-shard is clean) and the inner-shard
/// solutions (reused one by one inside a *dirty* super-shard whose fresh
/// plan reproduces an inner shard's `(membership, content, share)` key).
#[derive(Clone, Debug)]
struct SuperEntry {
    streams: Vec<StreamId>,
    users: Vec<UserId>,
    /// The water-filled share the entry was solved under.
    share: Vec<f64>,
    /// The bound under the FULL budgets (water-fill weight and the only
    /// per-shard certificate term).
    bound: f64,
    /// The per-super tail's merged, repaired, filled assignment (sub-local
    /// ids) at depth 2. `None` at depth 1, where the single inner
    /// solution is merged unchanged.
    finished: Option<Assignment>,
    /// Counters of the entry's inner level, folded into every outcome that
    /// reuses it.
    num_inner: usize,
    largest_inner: usize,
    inner_cut_edges: usize,
    inner_cut_mass: f64,
    repaired: usize,
    inner: Vec<InnerEntry>,
    /// `true` when any inner solve was skipped by a budget trip. Stale
    /// entries never match as clean, so the next affordable apply solves
    /// them again.
    stale: bool,
}

/// One inner-shard solve, keyed by the triple that fully determines its
/// sub-instance (up to the name, which is a label): global membership,
/// member content, and the share it ran under. Ids are global so the key
/// survives re-planning of its super-shard.
#[derive(Clone, Debug)]
struct InnerEntry {
    streams: Vec<StreamId>,
    users: Vec<UserId>,
    share: Vec<f64>,
    /// The inner-local solution.
    local: Assignment,
    /// `true` when `local` is a budget-skip fallback rather than a fresh
    /// solve (never reused as a hit).
    stale: bool,
}

/// What [`solve_tree`] produced: a solved tree, or the signal that a hard
/// budget trip shed the solve ([`DegradeAction::ShedToCache`]).
pub(crate) enum TreeSolve {
    Solved(Box<SolvedTree>),
    Shed { soft_tripped: bool },
}

/// A solved tree: the certified outcome (with `updates_applied = 0`), the
/// assignment, the cache to commit, and the values only
/// [`ShardedOutcome`] or the engine's metrics report.
pub(crate) struct SolvedTree {
    pub outcome: IngestOutcome,
    pub assignment: Assignment,
    pub cache: TreeCache,
    pub largest_shard: usize,
    pub skew_ratio: f64,
    /// Inner-cache hits and misses (both 0 at depth 1).
    pub inner_cache: (u64, u64),
}

/// `x / upper_bound`, or 0 when the bound is 0 or not finite.
fn bound_fraction(x: f64, upper_bound: f64) -> f64 {
    if upper_bound.is_finite() && upper_bound > 0.0 {
        x / upper_bound
    } else {
        0.0
    }
}

/// Work units of one shard solve: streams × users, floored at one so even
/// degenerate shards register against a work budget.
fn work_units(streams: usize, users: usize) -> u64 {
    (streams as u64).saturating_mul(users as u64).max(1)
}

/// The one sharded solve behind [`solve_sharded`] and the ingest engine:
/// top-level partition ([`HierarchicalSharding`]), reuse of clean cached
/// super-shards and inner shards, one chunked solve loop over everything
/// else, per-super tails (depth 2 only), merge, global repair and fill.
///
/// A super-shard is *clean* when its membership, its content (no touched
/// member) and its water-filled share are unchanged and its cached solve
/// was not skipped; its finished assignment and counters are then reused
/// wholesale, and its bound too unless a budget was touched. Inside a dirty
/// super-shard, an inner shard whose `(global membership, untouched
/// content, share)` key matches a fresh cached entry skips its solve. When
/// the dirty fraction or the cut fraction exceeds the configured trigger,
/// nothing is reused.
///
/// Shard solves run in chunks with `budget` checked at each chunk
/// boundary, never mid-kernel: one chunk holding the whole batch when the
/// budget is unlimited, `mmd_par::resolve(threads)` shards otherwise. A
/// skipped solve falls back to the membership-identical cached local (or
/// an empty one), which reaches the global repair unrepaired; its fresh
/// bound stays in the certificate, so the bracket is sound either way.
///
/// The certificate is the top level's alone: full-budget super bounds +
/// the top-level cut mass + quantization mass (see the module docs).
pub(crate) fn solve_tree(
    instance: &Instance,
    config: &IngestConfig,
    budget: SolveBudget,
    started: Instant,
    cache: &TreeCache,
    touched: &Touched,
) -> Result<TreeSolve, SolveError> {
    let shard_config = &config.shard;
    let two_level = shard_config.super_shards > 1;
    let threads = shard_config.threads;
    let governed = !budget.is_unlimited();
    let supers = HierarchicalSharding::partition(instance, shard_config);
    let n = supers.num_shards();

    let untouched = |streams: &[StreamId], users: &[UserId]| {
        !streams.iter().any(|s| touched.streams[s.index()])
            && !users.iter().any(|u| touched.users[u.index()])
    };
    // `candidate` keeps the raw match even when the super-shard is dirty:
    // inner-level reuse and the stale fallback look in it.
    let candidate: Vec<Option<usize>> = supers.shards.iter().map(|s| cache.candidate(s)).collect();
    let matched: Vec<Option<usize>> = supers
        .shards
        .iter()
        .zip(&candidate)
        .map(|(shard, &c)| {
            c.filter(|&j| {
                let e = &cache.supers[j];
                !e.stale
                    && e.streams == shard.streams
                    && e.users == shard.users
                    && untouched(&shard.streams, &shard.users)
            })
        })
        .collect();
    let h = HierarchicalSharding::with_bounds(instance, shard_config, supers, |k| {
        matched[k]
            .filter(|_| !touched.budgets)
            .map(|j| cache.supers[j].bound)
    });

    // Dirty = content changed, or the water-fill moved the share.
    let pre_dirty: Vec<bool> = (0..n)
        .map(|k| matched[k].is_none_or(|j| cache.supers[j].share != h.shares[k]))
        .collect();
    let dirty_supers = pre_dirty.iter().filter(|&&d| d).count();
    let upper_bound = h.upper_bound(instance);
    let dirty_fraction = if n > 0 {
        dirty_supers as f64 / n as f64
    } else {
        0.0
    };
    let mut full_resolve = dirty_fraction > config.max_dirty_fraction
        || bound_fraction(h.supers.cut_mass, upper_bound) > config.max_cut_fraction;
    let mut deferred_full = false;
    if full_resolve && governed {
        // DeferFull rung of the ladder: when the escalated full re-solve
        // cannot fit the budget, stay incremental and ask background
        // maintenance to catch up instead.
        let full_work: u64 = h
            .supers
            .shards
            .iter()
            .map(|s| work_units(s.streams.len(), s.users.len()))
            .sum();
        let elapsed = started.elapsed();
        if budget.trips_soft(elapsed, 0, full_work) || budget.trips_hard(elapsed, 0, full_work) {
            full_resolve = false;
            deferred_full = true;
        }
    }
    let dirty: Vec<bool> = pre_dirty.iter().map(|&d| d || full_resolve).collect();
    let dirty_idx: Vec<usize> = (0..n).filter(|&k| dirty[k]).collect();

    // Dense local index of every stream within its super-shard, so every
    // per-shard build costs O(shard) instead of O(instance).
    let mut local_of_stream = vec![0usize; instance.num_streams()];
    for shard in &h.supers.shards {
        for (li, &s) in shard.streams.iter().enumerate() {
            local_of_stream[s.index()] = li;
        }
    }
    let plans: Vec<Option<SuperPlan>> = mmd_par::parallel_map(threads, &dirty_idx, |_, &k| {
        two_level.then(|| {
            plan_super(
                instance,
                &h.supers,
                &local_of_stream,
                k,
                &h.shares[k],
                shard_config,
            )
        })
    });

    // The inner shards of the dirty super-shards, keyed by global
    // membership and share: cache hits, or owners of a slot in the solve
    // batch (their `local` is filled in once the batch has run).
    let mut inner: Vec<Vec<InnerEntry>> = Vec::with_capacity(plans.len());
    let mut owners: Vec<(usize, usize)> = Vec::new();
    let mut dirty_shards = 0usize;
    let mut inner_hits = 0usize;
    for (p, &k) in dirty_idx.iter().enumerate() {
        let shard = &h.supers.shards[k];
        let count = plans[p].as_ref().map_or(1, |plan| plan.inner.num_shards());
        let mut entries = Vec::with_capacity(count);
        for j in 0..count {
            let (streams, users, share): (Vec<StreamId>, Vec<UserId>, Vec<f64>) = match &plans[p] {
                Some(plan) => {
                    let ish = &plan.inner.shards[j];
                    (
                        ish.streams
                            .iter()
                            .map(|ls| shard.streams[ls.index()])
                            .collect(),
                        ish.users.iter().map(|lu| shard.users[lu.index()]).collect(),
                        plan.inner_shares[j].clone(),
                    )
                }
                None => (
                    shard.streams.clone(),
                    shard.users.clone(),
                    h.shares[k].clone(),
                ),
            };
            let hit = candidate[k].filter(|_| !full_resolve).and_then(|c| {
                cache.supers[c].inner.iter().find(|e| {
                    !e.stale
                        && e.share == share
                        && e.streams == streams
                        && e.users == users
                        && untouched(&streams, &users)
                })
            });
            let local = match hit {
                Some(e) => {
                    inner_hits += 1;
                    e.local.clone()
                }
                None => {
                    owners.push((p, j));
                    dirty_shards += usize::from(pre_dirty[k]);
                    Assignment::new(0)
                }
            };
            entries.push(InnerEntry {
                streams,
                users,
                share,
                local,
                stale: false,
            });
        }
        inner.push(entries);
    }
    let subs: Vec<Instance> = mmd_par::parallel_map(threads, &owners, |_, &(p, j)| {
        let k = dirty_idx[p];
        match &plans[p] {
            Some(plan) => build_inner_instance(plan, j),
            None => build_shard_instance_with(
                instance,
                &h.supers.shards[k],
                &h.shares[k],
                &format!("{}#shard{k}", instance.name()),
                &|s| (h.supers.shard_of_stream[s.index()] == k).then(|| local_of_stream[s.index()]),
            ),
        }
    });

    // Per-shard solves are independent, so chunking changes no result.
    let chunk = if governed {
        mmd_par::resolve(threads).max(1)
    } else {
        subs.len().max(1)
    };
    let mut solved: Vec<Option<Assignment>> = Vec::with_capacity(subs.len());
    let mut soft_tripped = false;
    let mut hard_tripped = false;
    let mut spent = 0u64;
    for batch in subs.chunks(chunk) {
        let next_work: u64 = batch
            .iter()
            .map(|s| work_units(s.num_streams(), s.num_users()))
            .sum();
        let elapsed = started.elapsed();
        if !hard_tripped && budget.trips_hard(elapsed, spent, next_work) {
            hard_tripped = true;
            match budget.hard_action {
                DegradeAction::ShedToCache => return Ok(TreeSolve::Shed { soft_tripped }),
                DegradeAction::DeferFull => deferred_full = true,
                DegradeAction::WidenGap => {}
            }
        }
        if !soft_tripped && !hard_tripped && budget.trips_soft(elapsed, spent, next_work) {
            soft_tripped = true;
        }
        if soft_tripped || hard_tripped {
            solved.extend(batch.iter().map(|_| None));
            continue;
        }
        for outcome in solve_batch(batch, &shard_config.mmd, threads) {
            solved.push(Some(outcome?.assignment));
        }
        spent = spent.saturating_add(next_work);
    }

    let mut skipped_shards = 0usize;
    for (&(p, j), result) in owners.iter().zip(solved) {
        let slot = &mut inner[p][j];
        slot.local = match result {
            Some(local) => local,
            None => {
                skipped_shards += 1;
                slot.stale = true;
                candidate[dirty_idx[p]]
                    .and_then(|c| {
                        cache.supers[c]
                            .inner
                            .iter()
                            .find(|e| e.streams == slot.streams && e.users == slot.users)
                    })
                    .map_or_else(|| Assignment::new(slot.users.len()), |e| e.local.clone())
            }
        };
    }
    let idx: Vec<usize> = (0..plans.len()).collect();
    let finished: Vec<Option<(Assignment, usize)>> =
        mmd_par::parallel_map(threads, &idx, |_, &p| {
            plans[p]
                .as_ref()
                .map(|plan| finish_super(plan, &inner[p], shard_config.global_fill))
        });

    // Rebuild the cache — dirty super-shards from their fresh solves, clean
    // ones wholesale — while merging in super-shard order.
    let mut merged = Assignment::for_instance(instance);
    let mut num_shards = 0usize;
    let mut largest_shard = 0usize;
    let mut cut_edges = h.supers.cut.len();
    let mut cut_mass = h.supers.cut_mass;
    let mut repaired_streams = 0usize;
    let mut skipped_bound = 0.0f64;
    let mut entries: Vec<SuperEntry> = Vec::with_capacity(n);
    let mut fresh = plans.iter().zip(finished).zip(inner);
    for k in 0..n {
        let entry = if dirty[k] {
            let ((plan, finished), inner) = fresh.next().expect("one solve per dirty super-shard");
            let shard = &h.supers.shards[k];
            let stale = inner.iter().any(|e| e.stale);
            if stale {
                skipped_bound += h.bounds[k];
            }
            let (finished, repaired) = finished.map_or((None, 0), |(a, r)| (Some(a), r));
            SuperEntry {
                streams: shard.streams.clone(),
                users: shard.users.clone(),
                share: h.shares[k].clone(),
                bound: h.bounds[k],
                finished,
                num_inner: plan.as_ref().map_or(1, |pl| pl.inner.num_shards()),
                largest_inner: plan
                    .as_ref()
                    .map_or(shard.streams.len(), |pl| pl.inner.largest_shard_streams()),
                inner_cut_edges: plan.as_ref().map_or(0, |pl| pl.inner.cut.len()),
                inner_cut_mass: plan.as_ref().map_or(0.0, |pl| pl.inner.cut_mass),
                repaired,
                inner,
                stale,
            }
        } else {
            let mut entry =
                cache.supers[matched[k].expect("clean super-shards are matched")].clone();
            entry.bound = h.bounds[k];
            entry
        };
        num_shards += entry.num_inner;
        largest_shard = largest_shard.max(entry.largest_inner);
        cut_edges += entry.inner_cut_edges;
        cut_mass += entry.inner_cut_mass;
        repaired_streams += entry.repaired;
        let local = entry.finished.as_ref().unwrap_or(&entry.inner[0].local);
        for (lu, &gu) in entry.users.iter().enumerate() {
            for ls in local.streams_of(UserId::new(lu)) {
                merged.assign(gu, entry.streams[ls.index()]);
            }
        }
        entries.push(entry);
    }

    repaired_streams += repair_budgets(instance, &mut merged);
    if shard_config.global_fill && merged.check_feasible(instance).is_ok() {
        residual_fill(instance, &mut merged);
    }
    let utility = merged.utility(instance);
    debug_assert!(
        merged.check_feasible(instance).is_ok(),
        "sharded output must be feasible: {:?}",
        merged.check_feasible(instance)
    );

    let resolved_shards = owners.len() - skipped_shards;
    let resolved_supers = dirty_idx.len();
    // Single-level outcomes report no super level and no inner cache.
    let depth2 = |v: usize| if two_level { v } else { 0 };
    let outcome = IngestOutcome {
        updates_applied: 0,
        num_shards,
        dirty_shards,
        resolved_shards,
        super_shards: depth2(n),
        dirty_supers: depth2(dirty_supers),
        resolved_supers: depth2(resolved_supers),
        full_resolve,
        utility,
        upper_bound,
        gap_fraction: bound_fraction(upper_bound - utility, upper_bound).clamp(0.0, 1.0),
        cut_edges,
        cut_mass,
        repaired_streams,
        degraded: soft_tripped || hard_tripped || deferred_full,
        soft_tripped,
        hard_tripped,
        skipped_shards,
        stale: false,
        stale_gap_fraction: bound_fraction(skipped_bound, upper_bound).clamp(0.0, 1.0),
        deferred_full,
    };
    let skew_ratio = h.supers.skew_ratio();
    Ok(TreeSolve::Solved(Box::new(SolvedTree {
        outcome,
        assignment: merged,
        cache: TreeCache {
            supers: entries,
            super_of_stream: h.supers.shard_of_stream,
            super_of_user: h.supers.shard_of_user,
        },
        largest_shard,
        skew_ratio,
        inner_cache: (depth2(inner_hits) as u64, depth2(resolved_shards) as u64),
    })))
}

/// The global repair pass: while some server budget is violated, drop the
/// transmitted stream with the smallest capped-utility loss per unit of
/// violating (budget-normalized) cost, deterministically (ties by id).
/// Returns the number of streams dropped. User capacities are never
/// violated by shard merges (users are never split across shards), so only
/// the server side needs repair.
///
/// Drops exactly the streams [`repair_budgets_reference`] drops, in the same
/// order, with bit-identical scores, so both leave the same assignment. A
/// feasible input costs `O(m·|S(A)|)` and allocates nothing. Otherwise the
/// set-up is `O(U + E)`: every user's raw utility, a flag per audience pair
/// of every transmitted stream ("still assigned"), and every stream's score.
/// Each drop then re-sums the raw utility of the users that lost the stream,
/// rescans only the audiences of the streams still assigned to one of them
/// (a stream's loss reads only its assigned audience's raw utility), and
/// picks the next drop with one `O(|S(A)|)` scan. All scores are recomputed
/// only when the violated set changes, at most `m` times.
pub fn repair_budgets(instance: &Instance, assignment: &mut Assignment) -> usize {
    let mut violated = violated_budgets(instance, assignment);
    if violated.is_empty() {
        return 0;
    }
    let mut raw: Vec<f64> = instance
        .users()
        .map(|u| assignment.user_raw_utility(u, instance))
        .collect();
    // The transmitted streams in id order, and per stream a flag lane
    // parallel to its audience: `assigned[start[s] + k]` is whether the
    // k-th audience user still receives `s`.
    let mut live: Vec<StreamId> = assignment.range().collect();
    let mut start = vec![0usize; instance.num_streams()];
    let mut assigned = Vec::new();
    for &s in &live {
        start[s.index()] = assigned.len();
        assigned.extend(
            instance
                .audience(s)
                .iter()
                .map(|&(u, _)| assignment.contains(u, s)),
        );
    }
    let lane = |s: StreamId| start[s.index()]..start[s.index()] + instance.audience(s).len();
    let mut score: Vec<Option<(u8, f64)>> = vec![None; instance.num_streams()];
    for &s in &live {
        score[s.index()] = repair_score(instance, s, &violated, &raw, &assigned[lane(s)]);
    }
    // `seen[s] == dropped` marks `s` as already rescored for this drop.
    let mut seen = vec![0usize; instance.num_streams()];
    let mut lost = Vec::new();
    let mut dropped = 0usize;
    loop {
        // Ties go to the smallest id via the ascending scan.
        let mut best: Option<((u8, f64), StreamId)> = None;
        for &s in &live {
            let Some(sc) = score[s.index()] else { continue };
            let better = best.is_none_or(|(bs, _)| sc.0 < bs.0 || (sc.0 == bs.0 && sc.1 < bs.1));
            if better {
                best = Some((sc, s));
            }
        }
        let Some((_, s)) = best else {
            // No stream can relieve the violation (cannot happen for
            // instances built through the validating builder).
            return dropped;
        };
        lost.clear();
        for &u in instance.audience_users(s) {
            let u = UserId::new(u as usize);
            if assignment.unassign(u, s) {
                lost.push(u);
            }
        }
        assigned[lane(s)].fill(false);
        dropped += 1;
        for &u in &lost {
            // Re-summed, not decremented: `raw - w` is not bit-exact.
            raw[u.index()] = assignment.user_raw_utility(u, instance);
        }
        if !assignment.in_range(s) {
            live.retain(|&t| t != s);
        }
        let now = violated_budgets(instance, assignment);
        if now.is_empty() {
            return dropped;
        }
        if now != violated {
            violated = now;
            for &t in &live {
                score[t.index()] = repair_score(instance, t, &violated, &raw, &assigned[lane(t)]);
            }
            continue;
        }
        let touched = lost.iter().flat_map(|&u| assignment.streams_of(u));
        for t in std::iter::once(s).chain(touched) {
            if seen[t.index()] != dropped && assignment.in_range(t) {
                seen[t.index()] = dropped;
                score[t.index()] = repair_score(instance, t, &violated, &raw, &assigned[lane(t)]);
            }
        }
    }
}

/// The server measures whose budget `assignment` violates, in order.
fn violated_budgets(instance: &Instance, assignment: &Assignment) -> Vec<usize> {
    (0..instance.num_measures())
        .filter(|&i| !num::approx_le(assignment.server_cost(i, instance), instance.budget(i)))
        .collect()
}

/// One stream's repair score under the `violated` measures, or `None` when
/// dropping it cannot relieve any violation. Two tiers: streams costing
/// into a zero budget must go regardless of loss (tier 0, ordered by loss),
/// everything else is ordered by loss per unit of violating pressure
/// (tier 1). `assigned` flags which of `instance.audience(s)` still receive
/// `s`; the loss sums over exact audience pairs, so repair decisions stay
/// exact in every lane mode.
fn repair_score(
    instance: &Instance,
    s: StreamId,
    violated: &[usize],
    raw: &[f64],
    assigned: &[bool],
) -> Option<(u8, f64)> {
    let pressure: f64 = violated
        .iter()
        .map(|&i| {
            let b = instance.budget(i);
            if b > 0.0 {
                instance.cost(s, i) / b
            } else if instance.cost(s, i) > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        })
        .sum();
    if pressure <= 0.0 {
        return None;
    }
    let caps = instance.user_caps();
    let mut loss = 0.0f64;
    for (&(u, w), &on) in instance.audience(s).iter().zip(assigned) {
        if on {
            let cap = caps[u.index()];
            let r = raw[u.index()];
            loss += r.min(cap) - (r - w).min(cap);
        }
    }
    Some(if pressure.is_infinite() {
        (0u8, loss)
    } else {
        (1u8, loss / pressure)
    })
}

/// The pre-incremental repair pass, preserved verbatim as the differential
/// reference for [`repair_budgets`]: every drop recomputes every user's raw
/// utility and rescans every transmitted stream's audience, so it costs
/// `O(drops × (U + E))`. The proptests and unit tests assert that both
/// passes return the same count and leave the same assignment.
pub fn repair_budgets_reference(instance: &Instance, assignment: &mut Assignment) -> usize {
    let m = instance.num_measures();
    let mut dropped = 0usize;
    loop {
        let violated: Vec<usize> = (0..m)
            .filter(|&i| !num::approx_le(assignment.server_cost(i, instance), instance.budget(i)))
            .collect();
        if violated.is_empty() {
            return dropped;
        }
        let raw: Vec<f64> = instance
            .users()
            .map(|u| assignment.user_raw_utility(u, instance))
            .collect();
        // Two-tier selection: streams costing into a zero budget must go
        // regardless of loss (tier 0, ordered by loss), everything else is
        // ordered by loss per unit of violating pressure (tier 1). Ties go
        // to the smallest id via the ascending range iteration.
        let mut best: Option<((u8, f64), StreamId)> = None;
        for s in assignment.range().collect::<Vec<_>>() {
            let pressure: f64 = violated
                .iter()
                .map(|&i| {
                    let b = instance.budget(i);
                    if b > 0.0 {
                        instance.cost(s, i) / b
                    } else if instance.cost(s, i) > 0.0 {
                        f64::INFINITY
                    } else {
                        0.0
                    }
                })
                .sum();
            if pressure <= 0.0 {
                continue; // dropping this stream cannot relieve any violation
            }
            let mut loss = 0.0f64;
            let caps = instance.user_caps();
            // Exact audience pairs: repair decisions and their losses stay
            // exact in every lane mode.
            for &(u, w) in instance.audience(s) {
                if assignment.contains(u, s) {
                    let cap = caps[u.index()];
                    let r = raw[u.index()];
                    loss += r.min(cap) - (r - w).min(cap);
                }
            }
            let score = if pressure.is_infinite() {
                (0u8, loss)
            } else {
                (1u8, loss / pressure)
            };
            let better =
                best.is_none_or(|(bs, _)| score.0 < bs.0 || (score.0 == bs.0 && score.1 < bs.1));
            if better {
                best = Some((score, s));
            }
        }
        let Some((_, s)) = best else {
            // No stream can relieve the violation (cannot happen for
            // instances built through the validating builder).
            return dropped;
        };
        for &u in instance.audience_users(s) {
            assignment.unassign(UserId::new(u as usize), s);
        }
        dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::reduction::solve_mmd;
    use crate::num::approx_eq;

    fn sid(i: usize) -> StreamId {
        StreamId::new(i)
    }
    fn uid(i: usize) -> UserId {
        UserId::new(i)
    }

    /// Two disjoint components (2 streams + 1 user each) with an
    /// uncontended budget.
    fn two_components() -> Instance {
        let mut b = Instance::builder("2c").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..4).map(|i| b.add_stream(vec![2.0 + i as f64])).collect();
        let u0 = b.add_user(f64::INFINITY, vec![]);
        let u1 = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u0, s[0], 4.0, vec![]).unwrap();
        b.add_interest(u0, s[1], 3.0, vec![]).unwrap();
        b.add_interest(u1, s[2], 5.0, vec![]).unwrap();
        b.add_interest(u1, s[3], 2.0, vec![]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn components_become_shards() {
        let inst = two_components();
        let sharding = shard_instance(&inst, 0);
        assert_eq!(sharding.num_shards(), 2);
        assert!(sharding.cut.is_empty());
        assert_eq!(sharding.cut_mass, 0.0);
        assert_eq!(sharding.shards[0].streams, vec![sid(0), sid(1)]);
        assert_eq!(sharding.shards[0].users, vec![uid(0)]);
        assert_eq!(sharding.shards[1].streams, vec![sid(2), sid(3)]);
        assert_eq!(sharding.shards[1].users, vec![uid(1)]);
        assert_eq!(sharding.shard_of_stream, vec![0, 0, 1, 1]);
        assert_eq!(sharding.shard_of_user, vec![0, 1]);
        assert_eq!(sharding.largest_shard_streams(), 2);
    }

    #[test]
    fn cap_cuts_lowest_utility_edges() {
        // Chain s0 -u0- s1 -u1- s2, with the u1–s2 edge the lightest.
        let mut b = Instance::builder("chain").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..3).map(|_| b.add_stream(vec![1.0])).collect();
        let u0 = b.add_user(f64::INFINITY, vec![]);
        let u1 = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u0, s[0], 5.0, vec![]).unwrap();
        b.add_interest(u0, s[1], 4.0, vec![]).unwrap();
        b.add_interest(u1, s[1], 0.5, vec![]).unwrap();
        b.add_interest(u1, s[2], 0.4, vec![]).unwrap();
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 2);
        // The heavy pair {s0, s1} fills the cap; u1 joins it via its 0.5
        // edge; the 0.4 edge to s2 is cut and s2 becomes a residual shard.
        assert_eq!(sharding.cut.len(), 1);
        assert_eq!(sharding.cut[0].user, uid(1));
        assert_eq!(sharding.cut[0].stream, sid(2));
        assert!(approx_eq(sharding.cut_mass, 0.4));
        assert_eq!(sharding.num_shards(), 2);
        assert_eq!(sharding.shards[0].streams, vec![sid(0), sid(1)]);
        assert_eq!(sharding.shards[0].users, vec![uid(0), uid(1)]);
        assert_eq!(sharding.shards[1].streams, vec![sid(2)]);
        assert!(sharding.shards[1].users.is_empty());
        // Cap respected everywhere.
        assert!(sharding.largest_shard_streams() <= 2);
    }

    #[test]
    fn sharded_matches_monolithic_on_disjoint_components() {
        let inst = two_components();
        let mono = solve_mmd(&inst, &MmdConfig::default()).unwrap();
        for threads in [1usize, 2, 4] {
            let out = solve_sharded(&inst, &ShardConfig::default().with_threads(threads)).unwrap();
            assert_eq!(out.assignment, mono.assignment, "threads {threads}");
            assert_eq!(out.utility.to_bits(), mono.utility.to_bits());
            assert_eq!(out.num_shards, 2);
            assert_eq!(out.cut_edges, 0);
            assert_eq!(out.repaired_streams, 0);
        }
    }

    #[test]
    fn repair_restores_shared_budget_feasibility() {
        // Two components, each one stream of cost 10, budget 10: the floors
        // fund both shards fully, so the merge oversubscribes and repair
        // must drop the weaker stream.
        let mut b = Instance::builder("repair").server_budgets(vec![10.0]);
        let s0 = b.add_stream(vec![10.0]);
        let s1 = b.add_stream(vec![10.0]);
        let u0 = b.add_user(f64::INFINITY, vec![]);
        let u1 = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u0, s0, 7.0, vec![]).unwrap();
        b.add_interest(u1, s1, 3.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let out = solve_sharded(&inst, &ShardConfig::default()).unwrap();
        assert!(out.assignment.check_feasible(&inst).is_ok());
        assert_eq!(out.repaired_streams, 1);
        // The higher-utility stream survives.
        assert!(out.assignment.contains(u0, s0));
        assert!(!out.assignment.in_range(s1));
        assert!(approx_eq(out.utility, 7.0));
    }

    #[test]
    fn certificate_brackets_the_optimum() {
        let inst = two_components();
        let out = solve_sharded(&inst, &ShardConfig::default()).unwrap();
        // Uncontended: everything is served; the cap-sum bound is tight.
        assert!(approx_eq(out.utility, 14.0));
        assert!(out.upper_bound >= out.utility - 1e-9);
        assert!((0.0..=1.0).contains(&out.gap_fraction));
    }

    #[test]
    fn upper_bound_respects_budget_knapsack() {
        // Budget 5, two streams cost 5 each, utilities 8 and 6: OPT = 8,
        // knapsack bound = 8 (take the denser fully), cap-sum would say 14.
        let mut b = Instance::builder("knap").server_budgets(vec![5.0]);
        let s0 = b.add_stream(vec![5.0]);
        let s1 = b.add_stream(vec![5.0]);
        let u = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u, s0, 8.0, vec![]).unwrap();
        b.add_interest(u, s1, 6.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let streams: Vec<_> = inst.streams().collect();
        let users: Vec<_> = inst.users().collect();
        let ub = utility_upper_bound(&inst, &streams, &users);
        assert!(approx_eq(ub, 8.0), "ub = {ub}");
    }

    #[test]
    fn empty_instance_yields_empty_outcome() {
        let inst = Instance::builder("e")
            .server_budgets(vec![1.0])
            .build()
            .unwrap();
        let out = solve_sharded(&inst, &ShardConfig::default()).unwrap();
        assert_eq!(out.num_shards, 0);
        assert_eq!(out.utility, 0.0);
        assert_eq!(out.upper_bound, 0.0);
        assert_eq!(out.gap_fraction, 0.0);
    }

    #[test]
    fn coverless_streams_and_idle_users_are_partitioned() {
        let mut b = Instance::builder("res").server_budgets(vec![10.0]);
        for _ in 0..5 {
            b.add_stream(vec![1.0]); // no audience
        }
        b.add_user(1.0, vec![]); // no interests
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 2);
        // 5 coverless streams chunked to cap 2 → shards of 2, 2, 1; the
        // idle user rides in the first.
        assert_eq!(sharding.num_shards(), 3);
        assert!(sharding.shards.iter().all(|s| s.streams.len() <= 2));
        assert_eq!(sharding.shards[0].users, vec![uid(0)]);
        let total: usize = sharding.shards.iter().map(|s| s.streams.len()).sum();
        assert_eq!(total, 5);
        // Solving it is a no-op but must not fail.
        let out = solve_sharded(
            &inst,
            &ShardConfig {
                max_streams: 2,
                ..ShardConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.utility, 0.0);
    }

    #[test]
    fn waterfill_zero_weights_fall_back_to_demand_split() {
        // Every shard's utility potential is 0: instead of 0/0 = NaN
        // shares, the fill must degrade to a demand-proportional split.
        let shares = waterfill(6.0, &[9.0, 3.0], &[0.0, 0.0]);
        assert!(shares.iter().all(|s| s.is_finite()), "{shares:?}");
        assert!(approx_eq(shares[0], 4.5));
        assert!(approx_eq(shares[1], 1.5));
    }

    #[test]
    fn waterfill_fully_degenerate_stays_finite_and_demand_capped() {
        // Zero weights AND zero demands with budget left: the equal-split
        // fallback is capped at the (zero) demands — finite zero shares,
        // never NaN, never exceeding what a shard can spend.
        let shares = waterfill(6.0, &[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0]);
        assert!(shares.iter().all(|s| s.is_finite()), "{shares:?}");
        assert_eq!(shares, vec![0.0, 0.0, 0.0]);
        // Zero weights, mixed demands: demand-proportional, still capped.
        let mixed = waterfill(6.0, &[9.0, 0.0], &[0.0, 0.0]);
        assert!(approx_eq(mixed[0], 6.0), "{mixed:?}");
        assert_eq!(mixed[1], 0.0);
        // And with no budget at all: all-zero shares.
        let none = waterfill(0.0, &[1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(none, vec![0.0, 0.0]);
    }

    #[test]
    fn repair_is_a_noop_on_feasible_assignments() {
        // Hot path under ingest: every applied batch runs the global repair
        // pass, and on low-churn batches the merged assignment is already
        // feasible — repair must return 0 and leave it untouched.
        let inst = two_components();
        let solved = solve_mmd(&inst, &MmdConfig::default()).unwrap();
        let mut assignment = solved.assignment.clone();
        assert!(assignment.check_feasible(&inst).is_ok());
        assert_eq!(repair_budgets(&inst, &mut assignment), 0);
        assert_eq!(assignment, solved.assignment);
        // Same for the trivial empty assignment.
        let mut empty = Assignment::for_instance(&inst);
        assert_eq!(repair_budgets(&inst, &mut empty), 0);
        assert!(empty.is_empty());
    }

    /// Every interest of `inst` assigned, repaired by both passes: the
    /// incremental one must match the reference drop for drop.
    fn repair_both(inst: &Instance) -> (Assignment, usize) {
        let mut full = Assignment::for_instance(inst);
        for u in inst.users() {
            for interest in inst.user(u).interests() {
                full.assign(u, interest.stream());
            }
        }
        let mut reference = full.clone();
        let expected = repair_budgets_reference(inst, &mut reference);
        let dropped = repair_budgets(inst, &mut full);
        assert_eq!(dropped, expected);
        assert_eq!(full, reference);
        (full, dropped)
    }

    #[test]
    fn repair_rescores_everything_when_the_violated_set_shrinks() {
        // Both measures start violated. Dropping s0 relieves measure 1, so
        // every pressure changes: s1 (loss 1 / pressure ½) now beats s3
        // (1.5 / ½), although under the stale two-measure pressures s3
        // (1.5 / 1) would beat s1 (1 / ½). The users are disjoint, so only
        // the rescore-all path can see the change.
        let mut b = Instance::builder("shrink").server_budgets(vec![2.0, 2.0]);
        let costs = [[1.0, 2.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]];
        let weights = [1.0, 1.0, 2.0, 1.5];
        for (c, &w) in costs.iter().zip(&weights) {
            let s = b.add_stream(c.to_vec());
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, s, w, vec![]).unwrap();
        }
        let inst = b.build().unwrap();
        let (repaired, dropped) = repair_both(&inst);
        assert_eq!(dropped, 2);
        let kept: Vec<StreamId> = repaired.range().collect();
        assert_eq!(kept, vec![sid(2), sid(3)]);
    }

    #[test]
    fn repair_breaks_score_ties_by_smallest_id() {
        // s1 and s2 tie on loss per pressure (both 1 / ½); the smaller id
        // goes first and its drop already restores the budget.
        let mut b = Instance::builder("tie").server_budgets(vec![2.0]);
        for w in [5.0, 1.0, 1.0] {
            let s = b.add_stream(vec![1.0]);
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, s, w, vec![]).unwrap();
        }
        let inst = b.build().unwrap();
        let (repaired, dropped) = repair_both(&inst);
        assert_eq!(dropped, 1);
        let kept: Vec<StreamId> = repaired.range().collect();
        assert_eq!(kept, vec![sid(0), sid(2)]);
    }

    #[test]
    fn split_budgets_with_a_zero_demand_shard() {
        // Mid-churn a shard can lose all its live streams (every one
        // departed, costs zeroed): its demand in every measure is 0. The
        // split must give it a zero share (never negative, never NaN) and
        // hand the full budget to the shards that can spend it.
        let mut b = Instance::builder("zd").server_budgets(vec![6.0]);
        let s: Vec<_> = [4.0, 4.0, 0.0, 0.0]
            .iter()
            .map(|&c| b.add_stream(vec![c]))
            .collect();
        let u0 = b.add_user(10.0, vec![]);
        let u1 = b.add_user(10.0, vec![]);
        b.add_interest(u0, s[0], 1.0, vec![]).unwrap();
        b.add_interest(u0, s[1], 1.0, vec![]).unwrap();
        // Shard 1: only zero-cost (departed-like) streams.
        b.add_interest(u1, s[2], 1.0, vec![]).unwrap();
        b.add_interest(u1, s[3], 1.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 0);
        assert_eq!(sharding.num_shards(), 2);
        let zero_shard = (0..2)
            .find(|&k| {
                sharding.shards[k]
                    .streams
                    .iter()
                    .all(|&st| inst.cost(st, 0) == 0.0)
            })
            .expect("one shard has only zero-cost streams");
        let budgets = split_budgets(&inst, &sharding, &[1.0, 1.0], 0.2);
        for share in &budgets {
            assert!(
                share.iter().all(|v| v.is_finite() && *v >= 0.0),
                "{share:?}"
            );
        }
        assert_eq!(budgets[zero_shard][0], 0.0, "zero demand gets zero share");
        // The demanding shard takes the whole budget, inflated by the 0.2
        // slack (resolved later by the global repair pass), capped at its
        // demand: min(6.0 × 1.2, 8.0) = 7.2.
        let other = 1 - zero_shard;
        assert!(approx_eq(budgets[other][0], 7.2), "{budgets:?}");
        // The full sharded solve over this shape stays well-formed.
        let out = solve_sharded(&inst, &ShardConfig::default()).unwrap();
        assert!(out.assignment.check_feasible(&inst).is_ok());
        assert!(out.utility > 0.0);
    }

    #[test]
    fn shard_bound_helper_matches_direct_bound() {
        let inst = two_components();
        let sharding = shard_instance(&inst, 0);
        for k in 0..sharding.num_shards() {
            let direct = utility_upper_bound(
                &inst,
                &sharding.shards[k].streams,
                &sharding.shards[k].users,
            );
            let via_maps = shard_utility_bound(&inst, &sharding, k);
            assert_eq!(direct.to_bits(), via_maps.to_bits(), "shard {k}");
        }
    }

    #[test]
    fn all_zero_utility_instance_is_nan_free() {
        // Streams with real costs on a contended budget, but every
        // interest has zero utility (the builder drops them): all shard
        // potentials are 0, the splitter sees only coverless streams, and
        // every reported number must still be finite with gap 0.
        let mut b = Instance::builder("zero").server_budgets(vec![5.0]);
        for i in 0..6 {
            let s = b.add_stream(vec![2.0 + (i % 3) as f64]);
            let _ = s;
        }
        let u = b.add_user(10.0, vec![]);
        let _ = u;
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 2);
        let weights = vec![0.0; sharding.num_shards()];
        let budgets = split_budgets(&inst, &sharding, &weights, 0.2);
        for share in &budgets {
            assert!(share.iter().all(|s| s.is_finite()), "{share:?}");
        }
        let out = solve_sharded(
            &inst,
            &ShardConfig {
                max_streams: 2,
                ..ShardConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.utility, 0.0);
        assert_eq!(out.upper_bound, 0.0);
        assert_eq!(out.gap_fraction, 0.0, "doc claim: 0 when ub is 0");
        assert!(!out.gap_fraction.is_nan());
    }

    #[test]
    fn upper_bound_zero_budget_counts_only_free_streams() {
        // Budget 0 forces every stream's cost to 0 (model assumption), so
        // the knapsack's "free items are infinitely dense" arm is the only
        // one taken — no division by the zero cost, no NaN.
        let mut b = Instance::builder("zb").server_budgets(vec![0.0]);
        let s0 = b.add_stream(vec![0.0]);
        let s1 = b.add_stream(vec![0.0]);
        let u = b.add_user(5.0, vec![]);
        b.add_interest(u, s0, 3.0, vec![]).unwrap();
        b.add_interest(u, s1, 4.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let streams: Vec<_> = inst.streams().collect();
        let users: Vec<_> = inst.users().collect();
        let ub = utility_upper_bound(&inst, &streams, &users);
        assert!(ub.is_finite());
        // Cap-sum bound: min(5, 7) = 5; knapsack bound: both free = 7.
        assert!(approx_eq(ub, 5.0), "ub = {ub}");
    }

    #[test]
    fn upper_bound_mixes_free_and_paid_items() {
        // A free stream plus paid ones under a tight budget: the free item
        // is always counted in full, the paid ones fractionally.
        let mut b = Instance::builder("mix").server_budgets(vec![4.0]);
        let free = b.add_stream(vec![0.0]);
        let paid = b.add_stream(vec![4.0]);
        let big = b.add_stream(vec![4.0]);
        let u = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u, free, 2.0, vec![]).unwrap();
        b.add_interest(u, paid, 6.0, vec![]).unwrap();
        b.add_interest(u, big, 3.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let streams: Vec<_> = inst.streams().collect();
        let users: Vec<_> = inst.users().collect();
        let ub = utility_upper_bound(&inst, &streams, &users);
        // free (2) + densest paid fully (6), budget exhausted: 8.
        assert!(approx_eq(ub, 8.0), "ub = {ub}");
    }

    #[test]
    fn split_budgets_waterfills_contended_measures() {
        // Contended: budget 6, demands 9 and 3, equal weights → 3 and 3;
        // the second shard saturates at its demand and the floors kick in.
        let mut b = Instance::builder("wf").server_budgets(vec![6.0]);
        let s: Vec<_> = [4.5, 4.5, 3.0]
            .iter()
            .map(|&c| b.add_stream(vec![c]))
            .collect();
        let u0 = b.add_user(10.0, vec![]);
        let u1 = b.add_user(10.0, vec![]);
        b.add_interest(u0, s[0], 1.0, vec![]).unwrap();
        b.add_interest(u0, s[1], 1.0, vec![]).unwrap();
        b.add_interest(u1, s[2], 1.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 0);
        let budgets = split_budgets(&inst, &sharding, &[1.0, 1.0], 0.0);
        // Shard 1's offer (3.0) saturates its demand; shard 0 takes the
        // remaining 3.0, floored up to its costliest stream (4.5).
        assert!(approx_eq(budgets[0][0], 4.5));
        assert!(approx_eq(budgets[1][0], 3.0));
        // A value-heavy shard 0 pulls the whole remainder.
        let weighted = split_budgets(&inst, &sharding, &[5.0, 0.0], 0.0);
        assert!(approx_eq(weighted[0][0], 6.0));
        assert!(approx_eq(weighted[1][0], 3.0), "floored at its stream");
        // Uncontended measure: full demand regardless of weights.
        let mut b2 = Instance::builder("wf2").server_budgets(vec![100.0]);
        let t0 = b2.add_stream(vec![4.0]);
        let u = b2.add_user(10.0, vec![]);
        b2.add_interest(u, t0, 1.0, vec![]).unwrap();
        let inst2 = b2.build().unwrap();
        let sh2 = shard_instance(&inst2, 0);
        // Uncontended: slack must not inflate anything.
        let bd2 = split_budgets(&inst2, &sh2, &[0.0], 0.5);
        assert!(approx_eq(bd2[0][0], 4.0));
    }

    #[test]
    fn two_level_matches_monolithic_on_disjoint_components() {
        // Coarse cap 2 recovers exactly the two components, and the inner
        // level re-solves each at component granularity, so the two-level
        // result collapses to the single-level (and monolithic) one.
        let inst = two_components();
        let mono = solve_mmd(&inst, &MmdConfig::default()).unwrap();
        for threads in [1usize, 2, 4] {
            let cfg = ShardConfig::default()
                .with_threads(threads)
                .with_super_shards(2);
            let out = solve_sharded(&inst, &cfg).unwrap();
            assert_eq!(out.assignment, mono.assignment, "threads {threads}");
            assert_eq!(out.utility.to_bits(), mono.utility.to_bits());
            assert_eq!(out.num_shards, 2, "one inner shard per super-shard");
            assert_eq!(out.cut_edges, 0);
            assert!(out.utility <= out.upper_bound);
        }
    }

    #[test]
    fn skew_ratio_reports_largest_over_mean() {
        let inst = two_components();
        let balanced = shard_instance(&inst, 0);
        // Two shards of two streams each: perfectly balanced.
        assert!(approx_eq(balanced.skew_ratio(), 1.0));
        // No shards / no streams: defined as 0.
        let empty = Instance::builder("e")
            .server_budgets(vec![1.0])
            .build()
            .unwrap();
        assert_eq!(shard_instance(&empty, 0).skew_ratio(), 0.0);
    }

    /// One heavy 4-stream community plus four singleton pairs: the coarse
    /// partition at `super_shards = 2` (cap 4) yields shard sizes
    /// [4, 1, 1, 1, 1] — skew 2.5 — so head-splitting must re-cut the head
    /// at cap 2 and settle at skew 1.5.
    fn skewed_instance() -> Instance {
        let mut b = Instance::builder("skew").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..8).map(|_| b.add_stream(vec![1.0])).collect();
        let hub = b.add_user(f64::INFINITY, vec![]);
        for (i, &hs) in s.iter().take(4).enumerate() {
            b.add_interest(hub, hs, 9.0 - i as f64, vec![]).unwrap();
        }
        for (i, &ts) in s.iter().skip(4).enumerate() {
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, ts, 1.0 + i as f64 * 0.1, vec![]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn head_splitting_rebalances_the_coarse_partition() {
        let inst = skewed_instance();
        let cfg = ShardConfig {
            super_shards: 2,
            ..ShardConfig::default()
        };
        let supers = super_partition(&inst, &cfg);
        assert!(
            supers.skew_ratio() <= cfg.head_split_skew,
            "post-split skew {} must be at or under the threshold",
            supers.skew_ratio()
        );
        assert!(supers.largest_shard_streams() <= 2);
        // Disabled threshold keeps the skewed head intact.
        let raw = super_partition(
            &inst,
            &ShardConfig {
                head_split_skew: 0.0,
                ..cfg
            },
        );
        assert_eq!(raw.largest_shard_streams(), 4);
        assert!(raw.skew_ratio() > 2.0);
        // Splitting cut interests are folded into the certificate terms.
        assert!(supers.cut_mass >= raw.cut_mass);
        // Membership maps were rebuilt consistently.
        for (k, shard) in supers.shards.iter().enumerate() {
            for &s in &shard.streams {
                assert_eq!(supers.shard_of_stream[s.index()], k);
            }
            for &u in &shard.users {
                assert_eq!(supers.shard_of_user[u.index()], k);
            }
        }
    }

    /// Regression: with a threshold the partition can never satisfy (every
    /// shard ends at the inner-cap floor while the singletons keep the skew
    /// above it), head-splitting exits the loop *after* having spliced the
    /// shard list at least once. The membership maps must still be rebuilt
    /// on that path — a stale `shard_of_stream` entry pointing at a
    /// pre-split index corrupts every downstream local-id translation.
    #[test]
    fn head_split_floor_exit_keeps_membership_maps_consistent() {
        let inst = skewed_instance();
        let cfg = ShardConfig {
            super_shards: 2,
            max_streams: 2,
            head_split_skew: 1.01,
            ..ShardConfig::default()
        };
        let supers = super_partition(&inst, &cfg);
        // The floor stops splitting before the skew target is met.
        assert!(supers.skew_ratio() > cfg.head_split_skew);
        assert!(supers.largest_shard_streams() <= 2);
        let mut stream_seen = vec![false; inst.num_streams()];
        let mut user_seen = vec![false; inst.num_users()];
        for (k, shard) in supers.shards.iter().enumerate() {
            for &s in &shard.streams {
                assert_eq!(supers.shard_of_stream[s.index()], k, "stream {s:?}");
                assert!(!stream_seen[s.index()], "stream {s:?} listed twice");
                stream_seen[s.index()] = true;
            }
            for &u in &shard.users {
                assert_eq!(supers.shard_of_user[u.index()], k, "user {u:?}");
                assert!(!user_seen[u.index()], "user {u:?} listed twice");
                user_seen[u.index()] = true;
            }
        }
        assert!(stream_seen.iter().all(|&v| v), "every stream stays listed");
        assert!(user_seen.iter().all(|&v| v), "every user stays listed");
    }

    #[test]
    fn head_split_two_level_solve_stays_certified_and_thread_invariant() {
        let inst = skewed_instance();
        let cfg = ShardConfig {
            super_shards: 2,
            ..ShardConfig::default()
        };
        let base = solve_sharded(&inst, &cfg).unwrap();
        assert!(base.assignment.check_feasible(&inst).is_ok());
        assert!(base.utility > 0.0);
        assert!(base.utility <= base.upper_bound + 1e-9, "bracket must hold");
        assert!(base.skew_ratio <= cfg.head_split_skew);
        for threads in [2usize, 4, 8] {
            let out = solve_sharded(&inst, &ShardConfig { threads, ..cfg }).unwrap();
            assert_eq!(out.assignment, base.assignment, "threads {threads}");
            assert_eq!(out.utility.to_bits(), base.utility.to_bits());
            assert_eq!(out.upper_bound.to_bits(), base.upper_bound.to_bits());
        }
    }

    #[test]
    fn two_level_stays_certified_under_contention() {
        // 8 streams chained through shared users against a tight shared
        // budget: the coarse partition cuts interests and the merge needs
        // repair, but the certificate must still bracket and the result
        // must be feasible and thread-count invariant.
        let mut b = Instance::builder("2lvl").server_budgets(vec![12.0]);
        let s: Vec<_> = (0..8)
            .map(|i| b.add_stream(vec![2.0 + (i % 3) as f64]))
            .collect();
        let users: Vec<_> = (0..8).map(|_| b.add_user(9.0, vec![])).collect();
        for i in 0..8 {
            b.add_interest(users[i], s[i], 3.0 + i as f64 * 0.25, vec![])
                .unwrap();
            b.add_interest(users[i], s[(i + 1) % 8], 1.0 + i as f64 * 0.125, vec![])
                .unwrap();
        }
        let inst = b.build().unwrap();
        let cfg = ShardConfig {
            max_streams: 2,
            super_shards: 3,
            ..ShardConfig::default()
        };
        let base = solve_sharded(&inst, &cfg).unwrap();
        assert!(base.assignment.check_feasible(&inst).is_ok());
        assert!(base.utility > 0.0);
        assert!(base.utility <= base.upper_bound, "bracket must hold");
        assert!((0.0..=1.0).contains(&base.gap_fraction));
        // The super cut and the inner cuts are both accounted.
        assert!(base.num_shards >= 3);
        assert!(base.largest_shard <= 2);
        for threads in [2usize, 4] {
            let out = solve_sharded(&inst, &ShardConfig { threads, ..cfg }).unwrap();
            assert_eq!(out.assignment, base.assignment, "threads {threads}");
            assert_eq!(out.utility.to_bits(), base.utility.to_bits());
            assert_eq!(out.upper_bound.to_bits(), base.upper_bound.to_bits());
        }
    }
}
