//! The `mmd` problem input: streams, server budgets, users, capacities and
//! utilities (Fig. 2 of the paper).
//!
//! An [`Instance`] is immutable once built; construct it through
//! [`InstanceBuilder`], which validates the model assumptions:
//!
//! * `c_i(S) ≤ B_i` for every stream `S` and server measure `i`;
//! * `w_u(S) = 0` whenever some load exceeds the user's capacity
//!   (`k^u_j(S) > K^u_j`) — such interests are dropped;
//! * all quantities are nonnegative, and budgets/capacities may be
//!   `f64::INFINITY` ("unconstrained").

use crate::error::BuildError;
use crate::ids::{StreamId, UserId};
use crate::num;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A user's interest in one stream: the utility `w_u(S)` it derives and the
/// loads `k^u_j(S)` the stream places on each of the user's capacity
/// measures.
#[derive(Clone, Debug, PartialEq)]
pub struct Interest {
    stream: StreamId,
    utility: f64,
    loads: Vec<f64>,
}

impl Interest {
    /// The stream this interest refers to.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The utility `w_u(S)` the user derives from receiving the stream.
    pub fn utility(&self) -> f64 {
        self.utility
    }

    /// The loads `k^u_j(S)` on the user's capacity measures (length `m_c`).
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }
}

/// One user (client): its utility cap `W_u`, capacities `K^u_j`, and sparse
/// interests.
#[derive(Clone, Debug, PartialEq)]
pub struct UserSpec {
    utility_cap: f64,
    capacities: Vec<f64>,
    interests: Vec<Interest>,
}

impl UserSpec {
    /// The bound `W_u` on the utility this user can generate.
    pub fn utility_cap(&self) -> f64 {
        self.utility_cap
    }

    /// The user's capacities `K^u_j` (length `m_c`, possibly zero).
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Number of capacity measures `m_c` at this user.
    pub fn num_capacities(&self) -> usize {
        self.capacities.len()
    }

    /// All interests with positive utility, sorted by stream id.
    pub fn interests(&self) -> &[Interest] {
        &self.interests
    }

    /// Looks up this user's interest in `stream`, if any.
    pub fn interest(&self, stream: StreamId) -> Option<&Interest> {
        self.interests
            .binary_search_by_key(&stream, |i| i.stream)
            .ok()
            .map(|idx| &self.interests[idx])
    }
}

/// Summary statistics of an instance (see [`Instance::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstanceStats {
    /// Number of streams `|S|`.
    pub streams: usize,
    /// Number of users `|U|`.
    pub users: usize,
    /// Number of server cost measures `m`.
    pub measures: usize,
    /// Maximum number of capacity constraints at any user, `m_c`.
    pub max_user_measures: usize,
    /// Number of positive-utility (user, stream) pairs.
    pub interests: usize,
    /// The input length proxy `n = |S| + |U| + #interests`.
    pub input_length: usize,
}

/// The representation of the derived CSR audience/cap lanes.
///
/// [`Exact`](LaneMode::Exact) (the default) stores `f64` weight and cap
/// lanes: every kernel sweep reads the same bits the model was built with.
/// [`Compact`](LaneMode::Compact) stores `f32` weight and cap lanes
/// instead — half the hot-loop bytes per interest, sized for 10⁵–10⁶-user
/// catalogs — and records the total quantization mass
/// `Σ |w − f64(f32(w))|` per stream plus the cap rounding, available as
/// [`Instance::quantization_error`] so certificates can widen their upper
/// bound by it and stay valid. The primary model (interests, audiences,
/// caps) stays `f64` in both modes, so exact recomputations
/// ([`crate::Assignment::utility`], the shard bounds) are unaffected by the
/// mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LaneMode {
    /// Bit-exact `f64` lanes (the default).
    #[default]
    Exact,
    /// Quantized `f32` weight/cap lanes with a certified error bound.
    Compact,
}

/// The `u32` ceiling on lane offsets and user indices.
const LANE_LIMIT: usize = u32::MAX as usize;

/// Checked `usize → u32` conversion for the CSR lane build path: every
/// narrowing on that path funnels through here so an oversized instance
/// surfaces [`BuildError::TooLarge`] instead of silently wrapping. Covers
/// the builder, deserialize-then-rebuild, and ingest-grown instances alike
/// (they all rebuild through [`AudienceLanes::build`]).
fn lane_index(what: &'static str, value: usize) -> Result<u32, BuildError> {
    u32::try_from(value).map_err(|_| BuildError::TooLarge {
        what,
        value,
        limit: LANE_LIMIT,
    })
}

/// Struct-of-arrays (CSR) view of the per-stream audiences: one contiguous
/// `u32` user-index lane and one contiguous weight lane (`f64` or quantized
/// `f32` depending on [`LaneMode`]), with row pointers per stream. This is
/// the memory layout the coverage kernel's inner loops sweep (see
/// [`crate::coverage`]): the scalar layout pays two pointer chases per
/// audience element (`Vec<Vec<(UserId, f64)>>` plus a [`UserSpec`] lookup
/// for the cap), the lanes pay none.
#[derive(Clone, Debug, PartialEq, Default)]
struct AudienceLanes {
    /// CSR row pointers, length `num_streams + 1`.
    offsets: Vec<u32>,
    /// User indices, concatenated per stream in ascending user order.
    users: Vec<u32>,
    /// Utilities `w_u(S)`, parallel to `users` (exact mode; empty in
    /// compact mode).
    weights: Vec<f64>,
    /// Quantized utilities, parallel to `users` (compact mode; empty in
    /// exact mode).
    weights32: Vec<f32>,
    /// Per-stream quantization mass `Σ_u |w_u(S) − f64(f32(w_u(S)))|`
    /// (compact mode; empty in exact mode).
    stream_err: Vec<f64>,
    /// Which weight lane is populated.
    mode: LaneMode,
}

impl AudienceLanes {
    /// Builds the lanes. Errors (instead of panicking — the construction
    /// paths are fallible) when the interest count, the user count, or any
    /// individual offset/user index exceeds the `u32` lane limit.
    fn build(
        audiences: &[Vec<(UserId, f64)>],
        num_users: usize,
        mode: LaneMode,
    ) -> Result<AudienceLanes, BuildError> {
        let total: usize = audiences.iter().map(Vec::len).sum();
        lane_index("interest count", total)?;
        lane_index("user count", num_users)?;
        let mut offsets = Vec::with_capacity(audiences.len() + 1);
        let mut users = Vec::with_capacity(total);
        let mut weights = Vec::new();
        let mut weights32 = Vec::new();
        let mut stream_err = Vec::new();
        match mode {
            LaneMode::Exact => weights.reserve_exact(total),
            LaneMode::Compact => {
                weights32.reserve_exact(total);
                stream_err.reserve_exact(audiences.len());
            }
        }
        offsets.push(0u32);
        for audience in audiences {
            let mut err = 0.0f64;
            let mut err_c = 0.0f64;
            for &(u, w) in audience {
                users.push(lane_index("user index", u.index())?);
                match mode {
                    LaneMode::Exact => weights.push(w),
                    LaneMode::Compact => {
                        let q = w as f32;
                        num::comp_add(&mut err, &mut err_c, (w - f64::from(q)).abs());
                        weights32.push(q);
                    }
                }
            }
            offsets.push(lane_index("lane offset", users.len())?);
            if mode == LaneMode::Compact {
                stream_err.push(err + err_c);
            }
        }
        Ok(AudienceLanes {
            offsets,
            users,
            weights,
            weights32,
            stream_err,
            mode,
        })
    }

    fn range(&self, stream: StreamId) -> std::ops::Range<usize> {
        let lo = self.offsets[stream.index()] as usize;
        let hi = self.offsets[stream.index() + 1] as usize;
        lo..hi
    }

    /// Heap bytes held by the lanes themselves.
    fn bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.users.len() * 4
            + self.weights.len() * 8
            + self.weights32.len() * 4
            + self.stream_err.len() * 8
    }
}

/// An immutable `mmd` problem instance.
///
/// See the [module documentation](self) and the crate quick start for
/// construction examples.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    name: String,
    budgets: Vec<f64>,
    stream_costs: Vec<Vec<f64>>,
    users: Vec<UserSpec>,
    /// Per stream: the users that derive positive utility from it, with that
    /// utility. Kept sorted by user id.
    audiences: Vec<Vec<(UserId, f64)>>,
    /// The same audiences as contiguous CSR lanes (derived, rebuilt on
    /// deserialization).
    lanes: AudienceLanes,
    /// Contiguous lane of `W_u` utility caps (derived from `users`).
    user_caps: Vec<f64>,
    /// Quantized cap lane (compact mode; empty in exact mode).
    user_caps32: Vec<f32>,
    /// Total quantization mass of the `f32` lanes (0 in exact mode): the
    /// certified amount by which any lane-derived quantity can differ from
    /// its exact counterpart. See [`Instance::quantization_error`].
    quant_error: f64,
    dropped_interests: usize,
}

/// Derives every lane from the primary model: the CSR audience lanes, the
/// exact cap lane, and — in compact mode — the quantized cap lane plus the
/// total quantization error (weights and caps, compensated accumulation,
/// inflated by a few ULPs so the accumulation's own rounding can never
/// under-report the bound).
fn derive_lanes(
    audiences: &[Vec<(UserId, f64)>],
    users: &[UserSpec],
    mode: LaneMode,
) -> Result<(AudienceLanes, Vec<f64>, Vec<f32>, f64), BuildError> {
    let lanes = AudienceLanes::build(audiences, users.len(), mode)?;
    let user_caps: Vec<f64> = users.iter().map(|u| u.utility_cap).collect();
    let (user_caps32, quant_error) = match mode {
        LaneMode::Exact => (Vec::new(), 0.0),
        LaneMode::Compact => {
            let caps32: Vec<f32> = user_caps.iter().map(|&c| c as f32).collect();
            let mut e = 0.0f64;
            let mut ec = 0.0f64;
            for &werr in &lanes.stream_err {
                num::comp_add(&mut e, &mut ec, werr);
            }
            for (&c, &q) in user_caps.iter().zip(&caps32) {
                // Infinite caps quantize to infinite caps: no error (and no
                // `inf − inf = NaN`).
                if c.is_finite() {
                    num::comp_add(&mut e, &mut ec, (c - f64::from(q)).abs());
                }
            }
            (caps32, (e + ec) * (1.0 + 4.0 * f64::EPSILON))
        }
    };
    Ok((lanes, user_caps, user_caps32, quant_error))
}

impl Instance {
    /// Starts building an instance with the given (diagnostic) name.
    pub fn builder(name: impl Into<String>) -> InstanceBuilder {
        InstanceBuilder {
            name: name.into(),
            budgets: Vec::new(),
            stream_costs: Vec::new(),
            users: Vec::new(),
            stream_sets: HashMap::new(),
            lane_mode: LaneMode::Exact,
        }
    }

    /// Diagnostic name of the instance.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of streams `|S|`.
    pub fn num_streams(&self) -> usize {
        self.stream_costs.len()
    }

    /// Number of users `|U|`.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of server cost measures `m`.
    pub fn num_measures(&self) -> usize {
        self.budgets.len()
    }

    /// Iterator over all stream ids in order.
    pub fn streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        (0..self.num_streams()).map(StreamId::new)
    }

    /// Iterator over all user ids in order.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.num_users()).map(UserId::new)
    }

    /// The server budget `B_i` (may be `f64::INFINITY`).
    ///
    /// # Panics
    ///
    /// Panics if `measure >= m`.
    pub fn budget(&self, measure: usize) -> f64 {
        self.budgets[measure]
    }

    /// All server budgets.
    pub fn budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// The cost `c_i(S)` of one stream in one measure.
    ///
    /// # Panics
    ///
    /// Panics if the stream id or measure is out of range.
    pub fn cost(&self, stream: StreamId, measure: usize) -> f64 {
        self.stream_costs[stream.index()][measure]
    }

    /// All costs of one stream (length `m`).
    ///
    /// # Panics
    ///
    /// Panics if the stream id is out of range.
    pub fn costs(&self, stream: StreamId) -> &[f64] {
        &self.stream_costs[stream.index()]
    }

    /// The specification of one user.
    ///
    /// # Panics
    ///
    /// Panics if the user id is out of range.
    pub fn user(&self, user: UserId) -> &UserSpec {
        &self.users[user.index()]
    }

    /// The utility `w_u(S)`; zero when the user has no interest in the
    /// stream.
    pub fn utility(&self, user: UserId, stream: StreamId) -> f64 {
        self.users[user.index()]
            .interest(stream)
            .map_or(0.0, |i| i.utility)
    }

    /// The load `k^u_j(S)`; zero when the user has no interest in the stream.
    ///
    /// # Panics
    ///
    /// Panics if the user exists but `measure >= m_c(u)` while the user has
    /// an interest in the stream.
    pub fn load(&self, user: UserId, stream: StreamId, measure: usize) -> f64 {
        self.users[user.index()]
            .interest(stream)
            .map_or(0.0, |i| i.loads[measure])
    }

    /// The users that derive positive utility from `stream`, with that
    /// utility, sorted by user id.
    pub fn audience(&self, stream: StreamId) -> &[(UserId, f64)] {
        &self.audiences[stream.index()]
    }

    /// The audience of `stream` as a contiguous lane of user indices
    /// (ascending), parallel to [`audience_weights`](Self::audience_weights).
    /// This is the struct-of-arrays view the coverage kernel and the solver
    /// hot loops sweep; it carries the same pairs as
    /// [`audience`](Self::audience).
    pub fn audience_users(&self, stream: StreamId) -> &[u32] {
        &self.lanes.users[self.lanes.range(stream)]
    }

    /// The utilities `w_u(S)` of the audience of `stream`, parallel to
    /// [`audience_users`](Self::audience_users).
    ///
    /// # Panics
    ///
    /// Panics in [`LaneMode::Compact`] — the `f64` weight lane does not
    /// exist there; sweep [`audience_weights_f32`](Self::audience_weights_f32)
    /// or iterate the exact [`audience`](Self::audience) pairs instead.
    pub fn audience_weights(&self, stream: StreamId) -> &[f64] {
        assert_eq!(
            self.lanes.mode,
            LaneMode::Exact,
            "audience_weights is the exact-mode lane; compact instances carry f32 lanes"
        );
        &self.lanes.weights[self.lanes.range(stream)]
    }

    /// The quantized utilities of the audience of `stream`, parallel to
    /// [`audience_users`](Self::audience_users).
    ///
    /// # Panics
    ///
    /// Panics in [`LaneMode::Exact`] — the quantized lane only exists in
    /// compact mode.
    pub fn audience_weights_f32(&self, stream: StreamId) -> &[f32] {
        assert_eq!(
            self.lanes.mode,
            LaneMode::Compact,
            "audience_weights_f32 is the compact-mode lane"
        );
        &self.lanes.weights32[self.lanes.range(stream)]
    }

    /// Contiguous lane of utility caps `W_u`, indexed by user index — the
    /// `cap` lane of the coverage kernel. Exact in both modes.
    pub fn user_caps(&self) -> &[f64] {
        &self.user_caps
    }

    /// Contiguous lane of quantized utility caps, indexed by user index.
    ///
    /// # Panics
    ///
    /// Panics in [`LaneMode::Exact`].
    pub fn user_caps_f32(&self) -> &[f32] {
        assert_eq!(
            self.lanes.mode,
            LaneMode::Compact,
            "user_caps_f32 is the compact-mode lane"
        );
        &self.user_caps32
    }

    /// The lane representation this instance carries.
    pub fn lane_mode(&self) -> LaneMode {
        self.lanes.mode
    }

    /// Total quantization mass of the compact lanes:
    /// `Σ_S Σ_u |w_u(S) − f64(f32(w_u(S)))| + Σ_u |W_u − f64(f32(W_u))|`
    /// (0 in exact mode; infinite caps contribute 0). Any quantity a kernel
    /// derives from the quantized lanes differs from its exact counterpart
    /// by at most this, because `|min(a, x) − min(ã, x̃)| ≤ |a − ã| + |x − x̃|`
    /// — so a certificate computed against the quantized view stays valid
    /// after widening its upper bound by this amount.
    pub fn quantization_error(&self) -> f64 {
        self.quant_error
    }

    /// One stream's share of the quantization mass (0 in exact mode).
    pub fn stream_quantization_error(&self, stream: StreamId) -> f64 {
        match self.lanes.mode {
            LaneMode::Exact => 0.0,
            LaneMode::Compact => self.lanes.stream_err[stream.index()],
        }
    }

    /// Heap bytes of the derived hot-loop lanes (CSR offsets/users/weights
    /// plus the cap lanes) — the working set the coverage kernel streams,
    /// and the quantity the perf ladder's bytes/user gates divide by the
    /// user count.
    pub fn lane_bytes(&self) -> usize {
        self.lanes.bytes() + self.user_caps.len() * 8 + self.user_caps32.len() * 4
    }

    /// Rebuilds this instance's derived lanes in another [`LaneMode`],
    /// leaving the primary model untouched. Exact computations (utilities,
    /// bounds from the audience pairs) are bit-identical across modes; only
    /// the kernel lanes change representation.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError::TooLarge`] from the lane rebuild (cannot
    /// occur for an instance that already built its lanes once).
    pub fn with_lane_mode(&self, mode: LaneMode) -> Result<Instance, BuildError> {
        let (lanes, user_caps, user_caps32, quant_error) =
            derive_lanes(&self.audiences, &self.users, mode)?;
        Ok(Instance {
            lanes,
            user_caps,
            user_caps32,
            quant_error,
            ..self.clone()
        })
    }

    /// Total raw utility `w(S) = Σ_u w_u(S)` of one stream (Fig. 2).
    /// Computed from the exact audience pairs, so it is mode-independent.
    pub fn stream_total_utility(&self, stream: StreamId) -> f64 {
        self.audience(stream).iter().map(|&(_, w)| w).sum()
    }

    /// Capped utility of transmitting only `stream`:
    /// `Σ_u min(W_u, w_u(S))` — the value of the `A_max` single-stream
    /// assignment of §2.2. Computed from the exact audience pairs, so it is
    /// mode-independent.
    pub fn singleton_utility(&self, stream: StreamId) -> f64 {
        self.audience(stream)
            .iter()
            .map(|&(u, w)| w.min(self.user_caps[u.index()]))
            .sum()
    }

    /// Maximum number of capacity constraints at any user (`m_c` in the
    /// paper's theorem statements). Zero when no user has capacities.
    pub fn max_user_measures(&self) -> usize {
        self.users
            .iter()
            .map(UserSpec::num_capacities)
            .max()
            .unwrap_or(0)
    }

    /// Number of positive-utility (user, stream) pairs.
    pub fn num_interests(&self) -> usize {
        self.users.iter().map(|u| u.interests.len()).sum()
    }

    /// The input-length proxy `n = |S| + |U| + #interests` used in the
    /// paper's running-time statements.
    pub fn input_length(&self) -> usize {
        self.num_streams() + self.num_users() + self.num_interests()
    }

    /// Number of interests dropped at build time because a load exceeded the
    /// user's capacity (the paper's assumption `w_u(S) = 0` if
    /// `k^u_j(S) > K^u_j`) or because the utility was zero.
    pub fn dropped_interests(&self) -> usize {
        self.dropped_interests
    }

    /// `true` when the instance is a single-budget instance (`smd`):
    /// one server measure and at most one capacity constraint per user.
    pub fn is_single_budget(&self) -> bool {
        self.num_measures() == 1 && self.max_user_measures() <= 1
    }

    /// `true` when there are no streams or no users.
    pub fn is_empty(&self) -> bool {
        self.num_streams() == 0 || self.num_users() == 0
    }

    /// Re-validates the model assumptions on an instance that was obtained
    /// without the builder (e.g. deserialized from disk): cost vector
    /// lengths, `c_i(S) ≤ B_i`, load vector lengths, nonnegative finite
    /// values, interests sorted by stream with positive utility within
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns the first violated assumption.
    pub fn validate(&self) -> Result<(), BuildError> {
        let rebuilt = {
            let mut b = Instance::builder(self.name.clone())
                .server_budgets(self.budgets.clone())
                .lane_mode(self.lanes.mode);
            for costs in &self.stream_costs {
                b.add_stream(costs.clone());
            }
            for (ui, spec) in self.users.iter().enumerate() {
                let u = b.add_user(spec.utility_cap, spec.capacities.clone());
                debug_assert_eq!(u.index(), ui);
                for interest in &spec.interests {
                    b.add_interest(u, interest.stream, interest.utility, interest.loads.clone())?;
                }
            }
            b.build()?
        };
        if rebuilt.dropped_interests > 0 {
            return Err(BuildError::InvalidValue {
                what: "interest (zero utility or load above capacity)",
                value: rebuilt.dropped_interests as f64,
            });
        }
        Ok(())
    }

    /// Summary statistics.
    pub fn stats(&self) -> InstanceStats {
        InstanceStats {
            streams: self.num_streams(),
            users: self.num_users(),
            measures: self.num_measures(),
            max_user_measures: self.max_user_measures(),
            interests: self.num_interests(),
            input_length: self.input_length(),
        }
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "{}: {} streams, {} users, m={}, m_c={}, {} interests",
            self.name, s.streams, s.users, s.measures, s.max_user_measures, s.interests
        )
    }
}

/// Incremental builder for [`Instance`] (see crate-level example).
///
/// Call [`server_budgets`](Self::server_budgets) once, then
/// [`add_stream`](Self::add_stream) / [`add_user`](Self::add_user) /
/// [`add_interest`](Self::add_interest) in any order (streams and users must
/// exist before interests referencing them), and finish with
/// [`build`](Self::build).
#[derive(Clone, Debug)]
pub struct InstanceBuilder {
    name: String,
    budgets: Vec<f64>,
    stream_costs: Vec<Vec<f64>>,
    users: Vec<UserSpec>,
    /// Duplicate-check index of the users with more than
    /// [`SCAN_LIMIT`] interests that took an out-of-order insert: user
    /// index → (the streams of the user's first `filled` interests,
    /// `filled`). Filled lazily, by the out-of-order inserts only.
    stream_sets: HashMap<usize, (HashSet<usize>, usize)>,
    lane_mode: LaneMode,
}

/// Up to this many interests, a user's out-of-order duplicate check is a
/// linear scan; past it, a hash set of the user's streams.
const SCAN_LIMIT: usize = 32;

impl InstanceBuilder {
    /// Declares the server budgets `B_1..B_m`, fixing the number of cost
    /// measures `m`. Use `f64::INFINITY` for unconstrained measures.
    #[must_use]
    pub fn server_budgets(mut self, budgets: Vec<f64>) -> Self {
        self.budgets = budgets;
        self
    }

    /// Selects the derived-lane representation of the built instance
    /// (default [`LaneMode::Exact`]). See [`LaneMode`] for when the compact
    /// quantized lanes are sound.
    #[must_use]
    pub fn lane_mode(mut self, mode: LaneMode) -> Self {
        self.lane_mode = mode;
        self
    }

    /// Adds a stream with costs `c_1(S)..c_m(S)` and returns its id.
    pub fn add_stream(&mut self, costs: Vec<f64>) -> StreamId {
        let id = StreamId::new(self.stream_costs.len());
        self.stream_costs.push(costs);
        id
    }

    /// Adds a user with utility cap `W_u` and capacities `K^u_1..K^u_{m_c}`,
    /// returning its id. Pass an empty capacity vector for a user limited
    /// only by its utility cap.
    pub fn add_user(&mut self, utility_cap: f64, capacities: Vec<f64>) -> UserId {
        let id = UserId::new(self.users.len());
        self.users.push(UserSpec {
            utility_cap,
            capacities,
            interests: Vec::new(),
        });
        id
    }

    /// Declares that `user` derives `utility` from `stream`, loading the
    /// user's capacity measures by `loads` (must match the user's `m_c`).
    ///
    /// Adding a user's interests in ascending stream order is the fast
    /// path: a stream above every stream the user already declared cannot
    /// be a duplicate, so the check costs one comparison. An out-of-order
    /// insert scans the user's interests while they are few and otherwise
    /// looks the stream up in a per-user hash set, filled lazily, so any
    /// insertion order stays linear overall. A rejected call records
    /// nothing, so the builder stays usable.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownStream`] / [`BuildError::UnknownUser`]
    /// for dangling ids, [`BuildError::DuplicateInterest`] when the pair was
    /// already declared, and [`BuildError::LoadLenMismatch`] when `loads`
    /// does not match the user's number of capacities.
    pub fn add_interest(
        &mut self,
        user: UserId,
        stream: StreamId,
        utility: f64,
        loads: Vec<f64>,
    ) -> Result<(), BuildError> {
        if stream.index() >= self.stream_costs.len() {
            return Err(BuildError::UnknownStream(stream));
        }
        if user.index() >= self.users.len() {
            return Err(BuildError::UnknownUser(user));
        }
        // Invariant: a user's last interest holds its largest stream.
        let ascending = self.users[user.index()]
            .interests
            .last()
            .is_none_or(|last| stream > last.stream);
        if !ascending && self.declared(user, stream) {
            return Err(BuildError::DuplicateInterest { user, stream });
        }
        let spec = &mut self.users[user.index()];
        if loads.len() != spec.capacities.len() {
            return Err(BuildError::LoadLenMismatch {
                user,
                stream,
                got: loads.len(),
                expected: spec.capacities.len(),
            });
        }
        spec.interests.push(Interest {
            stream,
            utility,
            loads,
        });
        if !ascending {
            // Keep the largest stream last; `build` sorts by stream anyway.
            let n = spec.interests.len();
            spec.interests.swap(n - 2, n - 1);
            if let Some((set, filled)) = self.stream_sets.get_mut(&user.index()) {
                set.insert(stream.index());
                *filled = n;
            }
        }
        Ok(())
    }

    /// Whether `user` already declared `stream`. The caller has ruled out
    /// the ascending fast path.
    fn declared(&mut self, user: UserId, stream: StreamId) -> bool {
        let interests = &self.users[user.index()].interests;
        if interests.len() <= SCAN_LIMIT {
            return interests.iter().any(|i| i.stream == stream);
        }
        let (set, filled) = self.stream_sets.entry(user.index()).or_default();
        set.extend(interests[*filled..].iter().map(|i| i.stream.index()));
        *filled = interests.len();
        set.contains(&stream.index())
    }

    /// Validates and finalizes the instance.
    ///
    /// Interests whose utility is zero, or where some load exceeds the
    /// user's capacity (the paper assumes `w_u(S) = 0` then), are dropped;
    /// their count is available via [`Instance::dropped_interests`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when a cost vector has the wrong length,
    /// a cost exceeds its budget (`c_i(S) ≤ B_i` is a model assumption), or
    /// any value is negative/NaN.
    pub fn build(self) -> Result<Instance, BuildError> {
        let m = self.budgets.len();
        for (i, &b) in self.budgets.iter().enumerate() {
            if b.is_nan() || b < 0.0 {
                let _ = i;
                return Err(BuildError::InvalidValue {
                    what: "server budget",
                    value: b,
                });
            }
        }
        for (si, costs) in self.stream_costs.iter().enumerate() {
            let stream = StreamId::new(si);
            if costs.len() != m {
                return Err(BuildError::CostLenMismatch {
                    stream,
                    got: costs.len(),
                    expected: m,
                });
            }
            for (i, &c) in costs.iter().enumerate() {
                if !c.is_finite() || c < 0.0 {
                    return Err(BuildError::InvalidValue {
                        what: "stream cost",
                        value: c,
                    });
                }
                if !num::approx_le(c, self.budgets[i]) {
                    return Err(BuildError::CostExceedsBudget {
                        stream,
                        measure: i,
                        cost: c,
                        budget: self.budgets[i],
                    });
                }
            }
        }
        let mut dropped = 0usize;
        let mut users = self.users;
        for spec in &mut users {
            if spec.utility_cap.is_nan() || spec.utility_cap < 0.0 {
                return Err(BuildError::InvalidValue {
                    what: "utility cap",
                    value: spec.utility_cap,
                });
            }
            for &k in &spec.capacities {
                if k.is_nan() || k < 0.0 {
                    return Err(BuildError::InvalidValue {
                        what: "user capacity",
                        value: k,
                    });
                }
            }
            for interest in &spec.interests {
                if !interest.utility.is_finite() || interest.utility < 0.0 {
                    return Err(BuildError::InvalidValue {
                        what: "utility",
                        value: interest.utility,
                    });
                }
                for &l in &interest.loads {
                    if !l.is_finite() || l < 0.0 {
                        return Err(BuildError::InvalidValue {
                            what: "load",
                            value: l,
                        });
                    }
                }
            }
            let before = spec.interests.len();
            let caps = spec.capacities.clone();
            spec.interests.retain(|interest| {
                interest.utility > 0.0
                    && interest
                        .loads
                        .iter()
                        .zip(&caps)
                        .all(|(&l, &k)| num::approx_le(l, k))
            });
            dropped += before - spec.interests.len();
            spec.interests.sort_by_key(Interest::stream);
        }
        let mut audiences = vec![Vec::new(); self.stream_costs.len()];
        for (ui, spec) in users.iter().enumerate() {
            for interest in &spec.interests {
                audiences[interest.stream.index()].push((UserId::new(ui), interest.utility));
            }
        }
        let (lanes, user_caps, user_caps32, quant_error) =
            derive_lanes(&audiences, &users, self.lane_mode)?;
        Ok(Instance {
            name: self.name,
            budgets: self.budgets,
            stream_costs: self.stream_costs,
            users,
            audiences,
            lanes,
            user_caps,
            user_caps32,
            quant_error,
            dropped_interests: dropped,
        })
    }
}

/// JSON-compatible (de)serialization of the problem model, against the
/// vendored `serde` stand-in's [`Value`](serde::Value) data model.
///
/// JSON cannot represent `f64::INFINITY`, so unbounded budgets and
/// capacities round-trip as `null`. Only the primary fields are persisted;
/// the derived `audiences` index is rebuilt on deserialization, and
/// [`Instance::validate`] re-checks the model assumptions after a load
/// (deserialization bypasses the builder).
#[cfg(feature = "serde")]
mod serde_impls {
    use super::{Instance, Interest, LaneMode, UserSpec};
    use crate::ids::UserId;
    use serde::{DeError, Deserialize, Serialize, Value};

    /// `null` for unbounded values.
    fn inf_to_value(x: f64) -> Value {
        if x.is_finite() {
            Value::Number(x)
        } else {
            Value::Null
        }
    }

    fn inf_from_value(value: &Value) -> Result<f64, DeError> {
        Ok(Option::<f64>::from_value(value)?.unwrap_or(f64::INFINITY))
    }

    fn field<'v>(value: &'v Value, name: &str) -> Result<&'v Value, DeError> {
        value.get(name).ok_or_else(|| DeError::missing(name))
    }

    impl Serialize for Interest {
        fn to_value(&self) -> Value {
            Value::Object(vec![
                ("stream".into(), self.stream.to_value()),
                ("utility".into(), self.utility.to_value()),
                ("loads".into(), self.loads.to_value()),
            ])
        }
    }

    impl Deserialize for Interest {
        fn from_value(value: &Value) -> Result<Self, DeError> {
            Ok(Interest {
                stream: Deserialize::from_value(field(value, "stream")?)?,
                utility: Deserialize::from_value(field(value, "utility")?)?,
                loads: Deserialize::from_value(field(value, "loads")?)?,
            })
        }
    }

    impl Serialize for UserSpec {
        fn to_value(&self) -> Value {
            Value::Object(vec![
                ("utility_cap".into(), inf_to_value(self.utility_cap)),
                (
                    "capacities".into(),
                    Value::Array(self.capacities.iter().copied().map(inf_to_value).collect()),
                ),
                ("interests".into(), self.interests.to_value()),
            ])
        }
    }

    impl Deserialize for UserSpec {
        fn from_value(value: &Value) -> Result<Self, DeError> {
            let capacities = match field(value, "capacities")? {
                Value::Array(items) => items
                    .iter()
                    .map(inf_from_value)
                    .collect::<Result<Vec<_>, _>>()?,
                other => return Err(DeError::expected("array", other)),
            };
            let mut interests: Vec<Interest> = Deserialize::from_value(field(value, "interests")?)?;
            // `UserSpec::interest` binary-searches by stream id; restore the
            // builder's sorted-by-stream invariant rather than trusting the
            // file's order. Duplicates are caught later by
            // `Instance::validate`'s rebuild through the builder.
            interests.sort_by_key(Interest::stream);
            Ok(UserSpec {
                utility_cap: inf_from_value(field(value, "utility_cap")?)?,
                capacities,
                interests,
            })
        }
    }

    impl Serialize for Instance {
        fn to_value(&self) -> Value {
            let mut fields = vec![
                ("name".into(), self.name.to_value()),
                (
                    "budgets".into(),
                    Value::Array(self.budgets.iter().copied().map(inf_to_value).collect()),
                ),
                ("stream_costs".into(), self.stream_costs.to_value()),
                ("users".into(), self.users.to_value()),
                (
                    "dropped_interests".into(),
                    self.dropped_interests.to_value(),
                ),
            ];
            // Only the non-default mode is persisted, so exact-mode frames
            // stay byte-identical to the pre-compact wire format.
            if self.lanes.mode == LaneMode::Compact {
                fields.push(("lane_mode".into(), Value::String("compact".into())));
            }
            Value::Object(fields)
        }
    }

    impl Deserialize for Instance {
        fn from_value(value: &Value) -> Result<Self, DeError> {
            let budgets = match field(value, "budgets")? {
                Value::Array(items) => items
                    .iter()
                    .map(inf_from_value)
                    .collect::<Result<Vec<_>, _>>()?,
                other => return Err(DeError::expected("array", other)),
            };
            let stream_costs: Vec<Vec<f64>> =
                Deserialize::from_value(field(value, "stream_costs")?)?;
            let users: Vec<UserSpec> = Deserialize::from_value(field(value, "users")?)?;
            // Rebuild the derived audience index (and its CSR lanes) instead
            // of trusting the file to keep them consistent.
            let mut audiences = vec![Vec::new(); stream_costs.len()];
            for (ui, spec) in users.iter().enumerate() {
                for interest in &spec.interests {
                    let slot = audiences.get_mut(interest.stream.index()).ok_or_else(|| {
                        DeError(format!("interest references unknown {}", interest.stream))
                    })?;
                    slot.push((UserId::new(ui), interest.utility));
                }
            }
            let mode = match value.get("lane_mode") {
                None | Some(Value::Null) => LaneMode::Exact,
                Some(Value::String(s)) if s == "exact" => LaneMode::Exact,
                Some(Value::String(s)) if s == "compact" => LaneMode::Compact,
                Some(other) => return Err(DeError::expected("lane mode string", other)),
            };
            let (lanes, user_caps, user_caps32, quant_error) =
                super::derive_lanes(&audiences, &users, mode)
                    .map_err(|e| DeError(e.to_string()))?;
            Ok(Instance {
                name: Deserialize::from_value(field(value, "name")?)?,
                budgets,
                stream_costs,
                users,
                audiences,
                lanes,
                user_caps,
                user_caps32,
                quant_error,
                dropped_interests: Deserialize::from_value(field(value, "dropped_interests")?)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Instance {
        let mut b = Instance::builder("tiny").server_budgets(vec![10.0, 4.0]);
        let s0 = b.add_stream(vec![2.0, 1.0]);
        let s1 = b.add_stream(vec![8.0, 3.0]);
        let u0 = b.add_user(6.0, vec![12.0]);
        let u1 = b.add_user(3.0, vec![]);
        b.add_interest(u0, s0, 2.0, vec![2.0]).unwrap();
        b.add_interest(u0, s1, 5.0, vec![8.0]).unwrap();
        b.add_interest(u1, s1, 4.0, vec![]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let inst = tiny();
        assert_eq!(inst.num_streams(), 2);
        assert_eq!(inst.num_users(), 2);
        assert_eq!(inst.num_measures(), 2);
        assert_eq!(inst.max_user_measures(), 1);
        assert_eq!(inst.num_interests(), 3);
        assert_eq!(inst.input_length(), 2 + 2 + 3);
        assert_eq!(inst.budget(1), 4.0);
        assert_eq!(inst.cost(StreamId::new(1), 0), 8.0);
        assert_eq!(inst.utility(UserId::new(0), StreamId::new(1)), 5.0);
        assert_eq!(inst.load(UserId::new(0), StreamId::new(1), 0), 8.0);
        assert_eq!(inst.utility(UserId::new(1), StreamId::new(0)), 0.0);
    }

    #[test]
    fn audience_is_sorted_and_positive() {
        let inst = tiny();
        let aud = inst.audience(StreamId::new(1));
        assert_eq!(aud.len(), 2);
        assert!(aud[0].0 < aud[1].0);
    }

    #[test]
    fn csr_lanes_mirror_audiences() {
        let inst = tiny();
        for s in inst.streams() {
            let aud = inst.audience(s);
            let us = inst.audience_users(s);
            let ws = inst.audience_weights(s);
            assert_eq!(aud.len(), us.len());
            assert_eq!(aud.len(), ws.len());
            for ((&(u, w), &lu), &lw) in aud.iter().zip(us).zip(ws) {
                assert_eq!(u.index(), lu as usize);
                assert_eq!(w, lw);
            }
        }
        assert_eq!(inst.user_caps().len(), inst.num_users());
        for u in inst.users() {
            assert_eq!(inst.user_caps()[u.index()], inst.user(u).utility_cap());
        }
    }

    #[test]
    fn stream_utilities() {
        let inst = tiny();
        assert_eq!(inst.stream_total_utility(StreamId::new(1)), 9.0);
        // u1 is capped at 3.0 < 4.0.
        assert_eq!(inst.singleton_utility(StreamId::new(1)), 5.0 + 3.0);
    }

    #[test]
    fn drops_interest_exceeding_capacity() {
        let mut b = Instance::builder("drop").server_budgets(vec![10.0]);
        let s = b.add_stream(vec![1.0]);
        let u = b.add_user(5.0, vec![1.0]);
        // Load 2.0 > capacity 1.0: the paper assumes w_u(S) = 0 then.
        b.add_interest(u, s, 3.0, vec![2.0]).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.num_interests(), 0);
        assert_eq!(inst.dropped_interests(), 1);
        assert_eq!(inst.utility(u, s), 0.0);
    }

    #[test]
    fn drops_zero_utility_interest() {
        let mut b = Instance::builder("zero").server_budgets(vec![10.0]);
        let s = b.add_stream(vec![1.0]);
        let u = b.add_user(5.0, vec![]);
        b.add_interest(u, s, 0.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.num_interests(), 0);
        assert_eq!(inst.dropped_interests(), 1);
    }

    #[test]
    fn rejects_cost_exceeding_budget() {
        let mut b = Instance::builder("bad").server_budgets(vec![5.0]);
        b.add_stream(vec![6.0]);
        match b.build() {
            Err(BuildError::CostExceedsBudget { measure: 0, .. }) => {}
            other => panic!("expected CostExceedsBudget, got {other:?}"),
        }
    }

    #[test]
    fn rejects_cost_len_mismatch() {
        let mut b = Instance::builder("bad").server_budgets(vec![5.0, 5.0]);
        b.add_stream(vec![1.0]);
        assert!(matches!(
            b.build(),
            Err(BuildError::CostLenMismatch {
                got: 1,
                expected: 2,
                ..
            })
        ));
    }

    #[test]
    fn rejects_load_len_mismatch() {
        let mut b = Instance::builder("bad").server_budgets(vec![5.0]);
        let s = b.add_stream(vec![1.0]);
        let u = b.add_user(1.0, vec![1.0, 2.0]);
        let err = b.add_interest(u, s, 1.0, vec![1.0]).unwrap_err();
        assert!(matches!(
            err,
            BuildError::LoadLenMismatch {
                got: 1,
                expected: 2,
                ..
            }
        ));
    }

    #[test]
    fn rejects_duplicate_interest() {
        let mut b = Instance::builder("dup").server_budgets(vec![5.0]);
        let s = b.add_stream(vec![1.0]);
        let u = b.add_user(1.0, vec![]);
        b.add_interest(u, s, 1.0, vec![]).unwrap();
        assert!(matches!(
            b.add_interest(u, s, 2.0, vec![]),
            Err(BuildError::DuplicateInterest { .. })
        ));
    }

    /// Adds `stream` to user 0 of `b` with unit utility.
    fn add(b: &mut InstanceBuilder, stream: usize) -> Result<(), BuildError> {
        b.add_interest(UserId::new(0), StreamId::new(stream), 1.0, vec![])
    }

    fn is_duplicate(result: Result<(), BuildError>, stream: usize) -> bool {
        matches!(
            result,
            Err(BuildError::DuplicateInterest { user, stream: s })
                if user == UserId::new(0) && s == StreamId::new(stream)
        )
    }

    /// Duplicates are rejected by the very call that repeats the pair, at
    /// every position of the insertion order and on both sides of the
    /// scan/hash-set threshold, and each rejection leaves the builder
    /// usable.
    #[test]
    fn duplicate_checks_cover_every_insertion_order() {
        for extra in [0usize, SCAN_LIMIT + 8] {
            let mut b = Instance::builder("dup-order").server_budgets(vec![5.0]);
            for _ in 0..100 {
                b.add_stream(vec![1.0]);
            }
            b.add_user(f64::INFINITY, vec![]);
            // Ascending inserts, then a repeat of the last one.
            for s in [10, 20, 30] {
                add(&mut b, s).unwrap();
            }
            assert!(is_duplicate(add(&mut b, 30), 30), "extra {extra}");
            // Pads the user past the scan threshold for the second pass.
            for s in 31..31 + extra {
                add(&mut b, s).unwrap();
            }
            // Out-of-order insert, then a repeat of it and of the maximum.
            add(&mut b, 15).unwrap();
            assert!(is_duplicate(add(&mut b, 15), 15), "extra {extra}");
            let max = 30 + extra;
            assert!(is_duplicate(add(&mut b, max), max), "extra {extra}");
            assert!(is_duplicate(add(&mut b, 20), 20), "extra {extra}");
            // A repeat of the very first interest.
            assert!(is_duplicate(add(&mut b, 10), 10), "extra {extra}");
            // Still usable: fresh pairs in either direction are accepted.
            add(&mut b, 5).unwrap();
            add(&mut b, 99).unwrap();
            let inst = b.build().unwrap();
            let streams: Vec<usize> = inst
                .user(UserId::new(0))
                .interests()
                .iter()
                .map(|i| i.stream().index())
                .collect();
            let mut expected = vec![5, 10, 15, 20, 30];
            expected.extend(31..31 + extra);
            expected.push(99);
            assert_eq!(streams, expected, "extra {extra}");
        }
    }

    /// A rejected call records nothing: a pair refused for its loads can
    /// be declared again with the right ones.
    #[test]
    fn rejected_interest_is_not_recorded() {
        let mut b = Instance::builder("retry").server_budgets(vec![5.0]);
        let s = b.add_stream(vec![1.0]);
        let u = b.add_user(1.0, vec![1.0]);
        assert!(matches!(
            b.add_interest(u, s, 1.0, vec![]),
            Err(BuildError::LoadLenMismatch { .. })
        ));
        b.add_interest(u, s, 1.0, vec![0.5]).unwrap();
        assert_eq!(b.build().unwrap().num_interests(), 1);
    }

    /// One heavy user declared in descending stream order takes the
    /// out-of-order path on every insert and still builds correctly.
    #[test]
    fn heavy_user_in_descending_order_builds() {
        const N: usize = 20_000;
        let mut b = Instance::builder("heavy").server_budgets(vec![5.0]);
        for _ in 0..N {
            b.add_stream(vec![1.0]);
        }
        b.add_user(f64::INFINITY, vec![]);
        for s in (0..N).rev() {
            b.add_interest(UserId::new(0), StreamId::new(s), 1.0 + s as f64, vec![])
                .unwrap();
        }
        assert!(is_duplicate(add(&mut b, N / 2), N / 2));
        let inst = b.build().unwrap();
        let interests = inst.user(UserId::new(0)).interests();
        assert_eq!(interests.len(), N);
        for (s, interest) in interests.iter().enumerate() {
            assert_eq!(interest.stream(), StreamId::new(s));
            assert_eq!(interest.utility(), 1.0 + s as f64);
        }
    }

    #[test]
    fn rejects_dangling_ids() {
        let mut b = Instance::builder("dangling").server_budgets(vec![5.0]);
        let s = b.add_stream(vec![1.0]);
        let u = b.add_user(1.0, vec![]);
        assert!(matches!(
            b.add_interest(u, StreamId::new(9), 1.0, vec![]),
            Err(BuildError::UnknownStream(_))
        ));
        assert!(matches!(
            b.add_interest(UserId::new(9), s, 1.0, vec![]),
            Err(BuildError::UnknownUser(_))
        ));
    }

    #[test]
    fn rejects_negative_and_nan_values() {
        let mut b = Instance::builder("neg").server_budgets(vec![5.0]);
        b.add_stream(vec![-1.0]);
        assert!(matches!(b.build(), Err(BuildError::InvalidValue { .. })));

        let mut b = Instance::builder("nan").server_budgets(vec![f64::NAN]);
        b.add_stream(vec![1.0]);
        assert!(matches!(b.build(), Err(BuildError::InvalidValue { .. })));
    }

    #[test]
    fn infinite_budget_allows_any_cost() {
        let mut b = Instance::builder("inf").server_budgets(vec![f64::INFINITY]);
        b.add_stream(vec![1e12]);
        assert!(b.build().is_ok());
    }

    #[test]
    fn single_budget_detection() {
        let inst = tiny();
        assert!(!inst.is_single_budget());
        let mut b = Instance::builder("smd").server_budgets(vec![5.0]);
        let s = b.add_stream(vec![1.0]);
        let u = b.add_user(1.0, vec![2.0]);
        b.add_interest(u, s, 1.0, vec![1.0]).unwrap();
        let inst = b.build().unwrap();
        assert!(inst.is_single_budget());
    }

    #[test]
    fn empty_instance_detection() {
        let b = Instance::builder("empty").server_budgets(vec![1.0]);
        let inst = b.build().unwrap();
        assert!(inst.is_empty());
    }

    #[test]
    fn display_mentions_shape() {
        let inst = tiny();
        let text = inst.to_string();
        assert!(text.contains("2 streams"));
        assert!(text.contains("m=2"));
    }

    #[test]
    fn lane_index_accepts_exactly_the_u32_range() {
        // The pure checked conversion every CSR narrowing funnels through,
        // probed at the exact u32 edge (no 4-billion-entry allocation
        // needed).
        assert_eq!(lane_index("interest count", 0), Ok(0));
        assert_eq!(
            lane_index("interest count", u32::MAX as usize),
            Ok(u32::MAX)
        );
        match lane_index("interest count", u32::MAX as usize + 1) {
            Err(BuildError::TooLarge { what, value, limit }) => {
                assert_eq!(what, "interest count");
                assert_eq!(value, u32::MAX as usize + 1);
                assert_eq!(limit, u32::MAX as usize);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_user_count_surfaces_too_large() {
        // The deserialize-then-rebuild and ingest-grown paths funnel
        // through AudienceLanes::build too; an oversized user count must
        // surface TooLarge without allocating anything.
        let err = AudienceLanes::build(&[], u32::MAX as usize + 1, LaneMode::Exact).unwrap_err();
        assert!(matches!(
            err,
            BuildError::TooLarge {
                what: "user count",
                ..
            }
        ));
        let ok = AudienceLanes::build(&[], 7, LaneMode::Exact).unwrap();
        assert_eq!(ok.offsets, vec![0]);
    }

    #[test]
    fn compact_lanes_mirror_audiences_quantized() {
        let mut b = Instance::builder("q").server_budgets(vec![10.0]);
        let s = b.add_stream(vec![1.0]);
        let u0 = b.add_user(0.3, vec![]);
        let u1 = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u0, s, 0.1, vec![]).unwrap();
        b.add_interest(u1, s, 0.2, vec![]).unwrap();
        let inst = b.lane_mode(LaneMode::Compact).build().unwrap();
        assert_eq!(inst.lane_mode(), LaneMode::Compact);
        assert_eq!(inst.audience_weights_f32(s), &[0.1f32, 0.2f32]);
        assert_eq!(inst.user_caps_f32(), &[0.3f32, f32::INFINITY]);
        // Exact caps survive untouched alongside the quantized lane.
        assert_eq!(inst.user_caps(), &[0.3, f64::INFINITY]);
        // 0.1, 0.2 and 0.3 are inexact in f32, the infinite cap is free.
        let expected = (0.1 - f64::from(0.1f32)).abs()
            + (0.2 - f64::from(0.2f32)).abs()
            + (0.3 - f64::from(0.3f32)).abs();
        assert!(inst.quantization_error() >= expected);
        assert!(inst.quantization_error() <= expected * (1.0 + 1e-9));
        assert!(inst.stream_quantization_error(s) > 0.0);
        // Exact-path computations are mode-independent.
        let exact = inst.with_lane_mode(LaneMode::Exact).unwrap();
        assert_eq!(exact.quantization_error(), 0.0);
        assert_eq!(
            inst.stream_total_utility(s).to_bits(),
            exact.stream_total_utility(s).to_bits()
        );
        assert_eq!(
            inst.singleton_utility(s).to_bits(),
            exact.singleton_utility(s).to_bits()
        );
        // Compact lanes are smaller once the interest count dominates the
        // per-stream/per-user bookkeeping (the web-workload regime; tiny
        // instances can go the other way because of the error lane).
        let mut d = Instance::builder("dense").server_budgets(vec![10.0]);
        let streams: Vec<_> = (0..2).map(|_| d.add_stream(vec![1.0])).collect();
        let dusers: Vec<_> = (0..8).map(|_| d.add_user(1.0, vec![])).collect();
        for &du in &dusers {
            for &ds in &streams {
                d.add_interest(du, ds, 0.1, vec![]).unwrap();
            }
        }
        let dense = d.lane_mode(LaneMode::Compact).build().unwrap();
        let dense_exact = dense.with_lane_mode(LaneMode::Exact).unwrap();
        assert!(dense.lane_bytes() < dense_exact.lane_bytes());
    }

    #[test]
    #[should_panic(expected = "exact-mode lane")]
    fn exact_weight_lane_is_absent_in_compact_mode() {
        let mut b = Instance::builder("q").server_budgets(vec![10.0]);
        let s = b.add_stream(vec![1.0]);
        let u = b.add_user(1.0, vec![]);
        b.add_interest(u, s, 0.5, vec![]).unwrap();
        let inst = b.lane_mode(LaneMode::Compact).build().unwrap();
        let _ = inst.audience_weights(s);
    }

    #[test]
    fn interests_sorted_by_stream() {
        let mut b = Instance::builder("sorted").server_budgets(vec![10.0]);
        let s0 = b.add_stream(vec![1.0]);
        let s1 = b.add_stream(vec![1.0]);
        let s2 = b.add_stream(vec![1.0]);
        let u = b.add_user(10.0, vec![]);
        b.add_interest(u, s2, 1.0, vec![]).unwrap();
        b.add_interest(u, s0, 1.0, vec![]).unwrap();
        b.add_interest(u, s1, 1.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let order: Vec<_> = inst
            .user(u)
            .interests()
            .iter()
            .map(|i| i.stream())
            .collect();
        assert_eq!(order, vec![s0, s1, s2]);
    }
}
