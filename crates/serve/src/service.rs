//! The request handler: one [`Service`] owns the ingest state and maps
//! protocol requests to engine operations.
//!
//! A `Service` is strictly single-threaded — the daemon runs exactly one,
//! on a dedicated engine thread, and serializes every request through it
//! (see [`crate::server`]). That is what makes the daemon deterministic:
//! requests are decided in queue order, so the committed state after any
//! request prefix is a pure function of that prefix, and the equivalence
//! contract of [`IngestEngine`] (bit-identical to a from-scratch
//! [`solve_sharded`]) lifts to the whole daemon.
//!
//! The engine itself lives on a dedicated solver thread behind an
//! [`AsyncIngest`]. `update` frames are validated and queued here;
//! `apply` frames submit the queue as an epoch and return a
//! [`Handled::Deferred`] marker the connection handler resolves via an
//! [`ApplyWaiter`]; queries answer from the latest committed
//! [`IngestSnapshot`](mmd_core::IngestSnapshot) — so update frames keep
//! getting acks while a re-solve is in flight. The solver applies epochs
//! strictly in submission order, so every committed state is
//! bit-identical to an [`IngestEngine`] driven inline by the same
//! push/apply sequence.
//!
//! [`solve_sharded`]: mmd_core::algo::shard::solve_sharded

use crate::protocol::{
    Admission, ErrorCode, HealthSnapshot, MetricsSnapshot, Request, Response, WireOutcome,
};
use mmd_core::algo::online::{OfferOutcome, OnlineConfig};
use mmd_core::ingest::Update;
use mmd_core::{
    ApplyWaiter, AsyncIngest, IngestConfig, IngestEngine, IngestError, IngestOutcome, Instance,
    StreamId, UserId,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Daemon configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// The ingest engine's configuration (shard size, threads, triggers).
    pub ingest: IngestConfig,
    /// The §5 online allocator's configuration for provisional admissions.
    pub online: OnlineConfig,
    /// Capacity of the bounded request queue between connection handlers
    /// and the engine thread; a full queue bounces requests with an
    /// `overloaded` error frame (backpressure).
    pub queue_capacity: usize,
    /// Maximum updates accepted in one `update` frame; larger frames are
    /// rejected as `invalid` without being enqueued. It also sizes the
    /// per-line byte cap of the connection handlers.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ingest: IngestConfig::default(),
            online: OnlineConfig::default(),
            queue_capacity: 64,
            max_batch: 1024,
        }
    }
}

/// Serving-layer counters, shared between the connection handlers (which
/// count rejected frames and backpressure) and the engine thread (which
/// snapshots them into `metrics` responses). All monotone except
/// [`queue_depth`](Self::queue_depth), a gauge.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Request frames processed by the engine thread.
    pub requests: AtomicU64,
    /// Lines rejected before reaching the engine (parse errors and lines
    /// over the length cap).
    pub frames_rejected: AtomicU64,
    /// Requests bounced by backpressure (queue full).
    pub overloaded: AtomicU64,
    /// Provisional admission checks run.
    pub admission_checks: AtomicU64,
    /// Pending arrivals provisionally admitted.
    pub admitted: AtomicU64,
    /// Pending arrivals provisionally dropped.
    pub admission_rejects: AtomicU64,
    /// Requests currently in the bounded queue (gauge).
    pub queue_depth: AtomicUsize,
}

/// Maps an engine error to its wire error class.
fn error_code(e: &IngestError) -> ErrorCode {
    match e {
        IngestError::UnknownStream(_)
        | IngestError::UnknownUser(_)
        | IngestError::UnknownMeasure(_)
        | IngestError::InvalidWeight { .. }
        | IngestError::InvalidBudget { .. } => ErrorCode::Invalid,
        IngestError::CostExceedsBudget { .. } => ErrorCode::Rejected,
        IngestError::Build(_) | IngestError::Solve(_) => ErrorCode::Internal,
        // A deferred apply whose outcome aged out of the async retention
        // window: the epoch was processed, only the record is gone.
        IngestError::OutcomeExpired { .. } => ErrorCode::Unavailable,
    }
}

fn error_response(e: &IngestError) -> Response {
    Response::Error {
        code: error_code(e),
        message: e.to_string(),
    }
}

fn admission(offer: &OfferOutcome) -> Admission {
    Admission {
        stream: offer.stream.index(),
        admitted: !offer.assigned.is_empty(),
        users: offer.assigned.iter().map(|u| u.index()).collect(),
        gained: offer.gained,
    }
}

/// The engine thread's verdict on one request (see
/// [`Service::handle_detached`]).
#[derive(Debug)]
pub enum Handled {
    /// The response is ready now (boxed: the ready arm is much larger
    /// than the deferred epoch).
    Now(Box<Response>),
    /// An asynchronous apply was submitted as this epoch; the caller
    /// resolves the response off the engine thread via an [`ApplyWaiter`]
    /// (see [`Service::apply_waiter`]).
    Deferred(u64),
}

/// The daemon's request handler (see the [module docs](self)).
#[derive(Debug)]
pub struct Service {
    ingest: AsyncIngest,
    /// Validated updates not yet submitted: they stay on the engine thread
    /// until an `apply` frame submits them as an epoch.
    pending: Vec<Update>,
    config: ServeConfig,
    counters: Arc<ServeCounters>,
    full_resolve_scheduled: bool,
    draining: bool,
}

impl Service {
    /// Creates a service over `instance` — solving the initial state fully
    /// — with fresh counters.
    ///
    /// # Errors
    ///
    /// Propagates the initial solve's [`IngestError`].
    pub fn new(instance: Instance, config: ServeConfig) -> Result<Self, IngestError> {
        let engine = IngestEngine::new(instance, config.ingest)?;
        Ok(Service {
            ingest: AsyncIngest::new(engine),
            pending: Vec::new(),
            config,
            counters: Arc::new(ServeCounters::default()),
            full_resolve_scheduled: false,
            draining: false,
        })
    }

    /// The serving counters, shareable with connection handlers.
    pub fn counters(&self) -> Arc<ServeCounters> {
        Arc::clone(&self.counters)
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Consumes the service and returns the ingest engine with every
    /// committed update applied — draining and joining the solver thread
    /// first. The post-shutdown differential hook.
    #[must_use]
    pub fn into_engine(self) -> IngestEngine {
        self.ingest.shutdown()
    }

    /// A handle for resolving [`Handled::Deferred`] replies off the engine
    /// thread.
    pub fn apply_waiter(&self) -> ApplyWaiter {
        self.ingest.waiter()
    }

    /// Updates accepted but not yet applied.
    pub fn pending_updates(&self) -> usize {
        self.pending.len()
    }

    /// The committed certificate (the last applied batch's outcome).
    pub fn certificate(&self) -> IngestOutcome {
        *self.ingest.snapshot().last_outcome()
    }

    /// Whether `shutdown` has been requested.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Handles one request to completion, blocking on deferred applies.
    /// Never panics on malformed input — every failure maps to an error
    /// frame. The daemon's engine loop uses
    /// [`handle_detached`](Self::handle_detached) instead so it never
    /// blocks on a re-solve; this wrapper is for in-process callers and
    /// tests, and is response-identical to the deferred path.
    pub fn handle(&mut self, request: &Request) -> Response {
        match self.handle_detached(request) {
            Handled::Now(response) => *response,
            Handled::Deferred(epoch) => resolve_deferred(&self.apply_waiter(), epoch),
        }
    }

    /// Handles one request without ever blocking on a re-solve: an `apply`
    /// returns [`Handled::Deferred`] as soon as its epoch is enqueued,
    /// everything else answers immediately.
    pub fn handle_detached(&mut self, request: &Request) -> Handled {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        if self.draining && !matches!(request, Request::Health | Request::Metrics) {
            return Handled::Now(Box::new(Response::Error {
                code: ErrorCode::Unavailable,
                message: "server is draining".to_string(),
            }));
        }
        let response = match request {
            Request::Update { updates, admit } => self.handle_update(updates, *admit),
            // Submit even when empty: an empty epoch re-certifies the
            // committed state, exactly like an engine apply with nothing
            // pending. Taking the queue means a rejected batch cannot wedge
            // later clients' applies with this client's poison updates.
            Request::Apply => match self.ingest.apply_async(std::mem::take(&mut self.pending)) {
                Ok(epoch) => return Handled::Deferred(epoch),
                // Unreachable in practice: updates were validated at push
                // time against the same universe.
                Err(e) => error_response(&e),
            },
            Request::QueryUser { user } => self.handle_query_user(*user),
            Request::QueryStream { stream } => self.handle_query_stream(*stream),
            Request::Allocation => {
                self.with_committed(|instance, assignment, last| Response::Allocation {
                    utility: last.utility,
                    users: instance
                        .users()
                        .map(|u| assignment.streams_of(u).map(|s| s.index()).collect())
                        .collect(),
                })
            }
            Request::Certificate => {
                let last = self.certificate();
                Response::Certificate {
                    utility: last.utility,
                    upper_bound: last.upper_bound,
                    gap_fraction: last.gap_fraction,
                }
            }
            Request::Admissions => match self.provisional() {
                Ok(admissions) => Response::Admissions { admissions },
                Err(e) => error_response(&e),
            },
            Request::Health => Response::Health(self.health()),
            Request::Metrics => Response::Metrics(Box::new(self.metrics_snapshot())),
            Request::Resolve => {
                self.full_resolve_scheduled = true;
                Response::Resolve { scheduled: true }
            }
            Request::Shutdown => {
                self.draining = true;
                Response::Shutdown
            }
        };
        Handled::Now(Box::new(response))
    }

    fn handle_update(&mut self, updates: &[Update], admit: bool) -> Response {
        if updates.len() > self.config.max_batch {
            return Response::Error {
                code: ErrorCode::Invalid,
                message: format!(
                    "update frame carries {} updates, above the {}-update limit",
                    updates.len(),
                    self.config.max_batch
                ),
            };
        }
        if let Err(e) = self.ingest.validate_batch(updates) {
            return Response::Error {
                code: ErrorCode::Invalid,
                message: e.to_string(),
            };
        }
        self.pending.extend(updates.iter().cloned());
        let admissions = if admit {
            match self.provisional() {
                Ok(a) => Some(a),
                Err(e) => return error_response(&e),
            }
        } else {
            None
        };
        Response::Pushed {
            pending: self.pending_updates(),
            admissions,
        }
    }

    fn provisional(&self) -> Result<Vec<Admission>, IngestError> {
        self.counters
            .admission_checks
            .fetch_add(1, Ordering::Relaxed);
        let offers = self
            .ingest
            .snapshot()
            .provisional_admissions(&self.pending, self.config.online)?;
        let admissions: Vec<Admission> = offers.iter().map(admission).collect();
        let admitted = admissions.iter().filter(|a| a.admitted).count() as u64;
        self.counters
            .admitted
            .fetch_add(admitted, Ordering::Relaxed);
        self.counters
            .admission_rejects
            .fetch_add(admissions.len() as u64 - admitted, Ordering::Relaxed);
        Ok(admissions)
    }

    /// Runs `f` over the committed `(instance, assignment, certificate)` of
    /// the latest published snapshot (never waiting on an in-flight
    /// re-solve).
    fn with_committed<R>(
        &self,
        f: impl FnOnce(&Instance, &mmd_core::Assignment, &IngestOutcome) -> R,
    ) -> R {
        let snapshot = self.ingest.snapshot();
        f(
            snapshot.current_instance(),
            snapshot.assignment(),
            snapshot.last_outcome(),
        )
    }

    fn handle_query_user(&self, user: usize) -> Response {
        self.with_committed(|instance, assignment, _| {
            if user >= instance.num_users() {
                return Response::Error {
                    code: ErrorCode::Invalid,
                    message: format!("unknown user {user}"),
                };
            }
            let u = UserId::new(user);
            Response::UserAllocation {
                user,
                streams: assignment.streams_of(u).map(|s| s.index()).collect(),
                utility: assignment.user_utility(u, instance),
            }
        })
    }

    fn handle_query_stream(&self, stream: usize) -> Response {
        self.with_committed(|instance, assignment, _| {
            if stream >= instance.num_streams() {
                return Response::Error {
                    code: ErrorCode::Invalid,
                    message: format!("unknown stream {stream}"),
                };
            }
            let s = StreamId::new(stream);
            Response::StreamAllocation {
                stream,
                live: assignment.in_range(s),
                users: instance
                    .users()
                    .filter(|&u| assignment.contains(u, s))
                    .map(|u| u.index())
                    .collect(),
            }
        })
    }

    /// Runs deferred maintenance — the scheduled background full re-solve —
    /// and returns whether any work was done. The engine thread calls this
    /// only when the request queue is empty, so maintenance never delays a
    /// live request (graceful scheduling). The refresh is merely
    /// *submitted* here (the solver thread does the work). A full re-solve
    /// that governance deferred (`DegradeAction::DeferFull`) needs no poll
    /// here: the solver thread picks it up at its own idle point.
    pub fn idle(&mut self) -> bool {
        if self.draining || !self.full_resolve_scheduled {
            return false;
        }
        self.full_resolve_scheduled = false;
        // A refresh after a degraded apply re-solves the stale shards and
        // can only tighten the bracket; otherwise the equivalence contract
        // keeps the committed state unchanged. A failure (not reachable
        // for well-formed instances) only means the refresh did not happen.
        let _ = self.ingest.refresh_async();
        true
    }

    /// The current `health` body.
    pub fn health(&self) -> HealthSnapshot {
        let snapshot = self.ingest.snapshot();
        HealthSnapshot {
            status: if self.draining { "draining" } else { "ok" }.to_string(),
            live_streams: snapshot.num_live(),
            num_streams: snapshot.current_instance().num_streams(),
            num_users: snapshot.current_instance().num_users(),
            pending_updates: self.pending_updates(),
            queue_depth: self.counters.queue_depth.load(Ordering::Relaxed),
            queue_capacity: self.config.queue_capacity,
            full_resolve_scheduled: self.full_resolve_scheduled,
            apply_queue_lag: self.ingest.queue_lag(),
            epoch_in_flight: self.ingest.in_flight_epoch().unwrap_or(0),
        }
    }

    /// The current `metrics` body: engine counters, serving counters, pool
    /// gauges and the committed certificate.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = self.ingest.metrics();
        let snapshot = self.ingest.snapshot();
        let last = snapshot.last_outcome();
        let pool = mmd_par::Pool::global();
        let c = &self.counters;
        MetricsSnapshot {
            applies: m.applies,
            updates_applied: m.updates_applied,
            full_resolves: m.full_resolves,
            resolved_shards: m.resolved_shards,
            shard_slots: m.shard_slots,
            dirty_fraction: m.dirty_fraction(),
            super_shards: self.config.ingest.shard.super_shards as u64,
            dirty_super_fraction: m.dirty_super_fraction(),
            inner_cache_hits: m.inner_cache_hits,
            inner_cache_misses: m.inner_cache_misses,
            rejected_batches: m.rejected_batches,
            rejected_updates: m.rejected_updates,
            last_apply_micros: m.last_apply_nanos / 1_000,
            total_apply_micros: m.total_apply_nanos / 1_000,
            requests: c.requests.load(Ordering::Relaxed),
            frames_rejected: c.frames_rejected.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            admission_checks: c.admission_checks.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            admission_rejects: c.admission_rejects.load(Ordering::Relaxed),
            queue_depth: c.queue_depth.load(Ordering::Relaxed),
            queue_capacity: self.config.queue_capacity,
            utility: last.utility,
            upper_bound: last.upper_bound,
            gap_fraction: last.gap_fraction,
            pool_workers: pool.workers() as u64,
            pool_depth: pool.depth() as u64,
            apply_queue_lag: self.ingest.queue_lag(),
            epoch_submitted: self.ingest.submitted_epoch(),
            epoch_committed: self.ingest.committed_epoch(),
            epoch_in_flight: self.ingest.in_flight_epoch().unwrap_or(0),
            lane_mode: match snapshot.current_instance().lane_mode() {
                mmd_core::LaneMode::Exact => "exact",
                mmd_core::LaneMode::Compact => "compact",
            }
            .to_string(),
            peak_rss_bytes: peak_rss_bytes(),
            budget_soft_trips: m.budget_soft_trips,
            budget_hard_trips: m.budget_hard_trips,
            degraded_applies: m.degraded_applies,
            stale_gap_fraction: last.stale_gap_fraction,
            deferred_full_resolves: m.deferred_full_resolves,
        }
    }
}

/// Peak resident set size of this process in bytes: `VmHWM` from
/// `/proc/self/status` on Linux, 0 on platforms without that interface.
/// A 0 therefore means "unknown", never "no memory used".
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kib: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kib * 1024;
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Resolves a [`Handled::Deferred`] apply into its response frame by
/// waiting on the epoch — run off the engine thread by connection
/// handlers (and by the blocking [`Service::handle`] wrapper).
pub fn resolve_deferred(waiter: &ApplyWaiter, epoch: u64) -> Response {
    match waiter.wait(epoch) {
        Ok(outcome) => Response::Applied {
            outcome: WireOutcome::from(outcome),
        },
        Err(e) => error_response(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmd_core::ingest::Update;

    fn demo_instance() -> Instance {
        let mut b = Instance::builder("svc").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..6).map(|i| b.add_stream(vec![2.0 + i as f64])).collect();
        for c in 0..3 {
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, s[2 * c], 4.0 + c as f64, vec![]).unwrap();
            b.add_interest(u, s[2 * c + 1], 3.0, vec![]).unwrap();
        }
        b.build().unwrap()
    }

    fn service() -> Service {
        Service::new(demo_instance(), ServeConfig::default()).unwrap()
    }

    fn depart(stream: usize) -> Request {
        Request::Update {
            updates: vec![Update::StreamDeparture(StreamId::new(stream))],
            admit: false,
        }
    }

    #[test]
    fn update_apply_query_round() {
        let mut svc = service();
        let pushed = svc.handle(&depart(0));
        assert_eq!(
            pushed,
            Response::Pushed {
                pending: 1,
                admissions: None
            }
        );
        let Response::Applied { outcome } = svc.handle(&Request::Apply) else {
            panic!("apply failed");
        };
        assert_eq!(outcome.updates_applied, 1);
        let Response::StreamAllocation { live, users, .. } =
            svc.handle(&Request::QueryStream { stream: 0 })
        else {
            panic!("query failed");
        };
        assert!(!live);
        assert!(users.is_empty());
        let Response::UserAllocation { streams, .. } = svc.handle(&Request::QueryUser { user: 0 })
        else {
            panic!("query failed");
        };
        assert_eq!(streams, vec![1], "only the community's second stream left");
    }

    #[test]
    fn invalid_updates_and_queries_are_error_frames() {
        let mut svc = service();
        let r = svc.handle(&Request::Update {
            updates: vec![Update::StreamArrival(StreamId::new(99))],
            admit: false,
        });
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::Invalid,
                ..
            }
        ));
        assert!(matches!(
            svc.handle(&Request::QueryUser { user: 42 }),
            Response::Error {
                code: ErrorCode::Invalid,
                ..
            }
        ));
        assert!(matches!(
            svc.handle(&Request::QueryStream { stream: 42 }),
            Response::Error {
                code: ErrorCode::Invalid,
                ..
            }
        ));
    }

    #[test]
    fn oversized_update_frame_is_rejected_without_enqueue() {
        let mut svc = Service::new(
            demo_instance(),
            ServeConfig {
                max_batch: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let r = svc.handle(&Request::Update {
            updates: vec![
                Update::StreamDeparture(StreamId::new(0)),
                Update::StreamDeparture(StreamId::new(1)),
                Update::StreamDeparture(StreamId::new(2)),
            ],
            admit: false,
        });
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::Invalid,
                ..
            }
        ));
        assert_eq!(svc.pending_updates(), 0);
    }

    #[test]
    fn rejected_apply_clears_the_poisoned_queue() {
        let mut svc = service();
        // Budget below live costs: stateful rejection at apply time.
        svc.handle(&Request::Update {
            updates: vec![Update::BudgetChange {
                measure: 0,
                budget: 1.0,
            }],
            admit: false,
        });
        let r = svc.handle(&Request::Apply);
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::Rejected,
                ..
            }
        ));
        // The queue was cleared: the next client's apply is a clean no-op,
        // not a replay of this client's poison.
        assert!(matches!(
            svc.handle(&Request::Apply),
            Response::Applied { .. }
        ));
    }

    #[test]
    fn admissions_cover_pending_arrivals() {
        let mut svc = service();
        svc.handle(&depart(0));
        svc.handle(&Request::Apply);
        let r = svc.handle(&Request::Update {
            updates: vec![Update::StreamArrival(StreamId::new(0))],
            admit: true,
        });
        let Response::Pushed {
            admissions: Some(admissions),
            ..
        } = r
        else {
            panic!("expected admissions, got {r:?}");
        };
        assert_eq!(admissions.len(), 1);
        assert!(admissions[0].admitted, "uncontended arrival is admitted");
        assert_eq!(svc.metrics_snapshot().admitted, 1);
    }

    #[test]
    fn resolve_schedules_and_idle_runs_it() {
        let mut svc = service();
        assert!(!svc.idle(), "nothing scheduled");
        assert_eq!(
            svc.handle(&Request::Resolve),
            Response::Resolve { scheduled: true }
        );
        assert!(svc.health().full_resolve_scheduled);
        let utility = svc.certificate().utility;
        assert!(svc.idle(), "scheduled work was submitted");
        assert!(!svc.idle(), "and is consumed");
        // The refresh runs on the solver thread — poll for it to commit
        // the refresh epoch.
        let mut resolves = 0;
        for _ in 0..500 {
            resolves = svc.metrics_snapshot().full_resolves;
            if resolves == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(resolves, 1);
        assert_eq!(svc.certificate().utility.to_bits(), utility.to_bits());
    }

    #[test]
    fn draining_rejects_everything_but_observability() {
        let mut svc = service();
        assert_eq!(svc.handle(&Request::Shutdown), Response::Shutdown);
        assert!(svc.draining());
        assert!(matches!(
            svc.handle(&Request::Apply),
            Response::Error {
                code: ErrorCode::Unavailable,
                ..
            }
        ));
        let Response::Health(health) = svc.handle(&Request::Health) else {
            panic!("health must answer while draining");
        };
        assert_eq!(health.status, "draining");
        assert!(matches!(
            svc.handle(&Request::Metrics),
            Response::Metrics(_)
        ));
    }

    /// The service answers every frame exactly as a plain [`IngestEngine`]
    /// driven inline by the same push/apply sequence: same acks, same
    /// outcomes and rejections, same committed bracket and assignment.
    #[test]
    fn async_service_answers_like_an_inline_engine() {
        // `(updates, admit)` pushes; `None` is an apply.
        let steps: Vec<Option<(Vec<Update>, bool)>> = vec![
            Some((vec![Update::StreamDeparture(StreamId::new(0))], false)),
            None,
            Some((vec![Update::StreamArrival(StreamId::new(0))], true)),
            None,
            Some((vec![Update::StreamArrival(StreamId::new(99))], false)),
            Some((
                vec![Update::BudgetChange {
                    measure: 0,
                    budget: 1.0,
                }],
                false,
            )),
            None,
            None,
        ];
        let config = ServeConfig::default();
        let mut svc = service();
        let mut engine = IngestEngine::new(demo_instance(), config.ingest).unwrap();
        let offers = |engine: &IngestEngine| -> Vec<Admission> {
            engine
                .snapshot(0)
                .provisional_admissions(engine.pending(), config.online)
                .unwrap()
                .iter()
                .map(admission)
                .collect()
        };
        for step in steps {
            match step {
                Some((updates, admit)) => {
                    let got = svc.handle(&Request::Update {
                        updates: updates.clone(),
                        admit,
                    });
                    match engine.push_batch(updates) {
                        Ok(_) => assert_eq!(
                            got,
                            Response::Pushed {
                                pending: engine.pending().len(),
                                admissions: admit.then(|| offers(&engine)),
                            }
                        ),
                        Err(e) => assert_eq!(
                            got,
                            Response::Error {
                                code: ErrorCode::Invalid,
                                message: e.to_string(),
                            }
                        ),
                    }
                }
                None => {
                    let got = svc.handle(&Request::Apply);
                    match engine.apply() {
                        Ok(outcome) => assert_eq!(
                            got,
                            Response::Applied {
                                outcome: WireOutcome::from(outcome),
                            }
                        ),
                        Err(e) => {
                            // The protocol discards a rejected queue.
                            engine.clear_pending();
                            assert_eq!(got, error_response(&e));
                        }
                    }
                }
            }
        }

        let last = engine.last_outcome();
        let Response::Certificate {
            utility,
            upper_bound,
            ..
        } = svc.handle(&Request::Certificate)
        else {
            panic!("certificate failed");
        };
        assert_eq!(utility.to_bits(), last.utility.to_bits());
        assert_eq!(upper_bound.to_bits(), last.upper_bound.to_bits());
        let Response::Allocation { utility, users } = svc.handle(&Request::Allocation) else {
            panic!("allocation failed");
        };
        assert_eq!(utility.to_bits(), last.utility.to_bits());
        for (u, streams) in users.iter().enumerate() {
            let expected: Vec<usize> = engine
                .assignment()
                .streams_of(UserId::new(u))
                .map(|s| s.index())
                .collect();
            assert_eq!(streams, &expected, "user {u}");
        }
        let Response::UserAllocation { utility, .. } = svc.handle(&Request::QueryUser { user: 1 })
        else {
            panic!("query failed");
        };
        let expected = engine
            .assignment()
            .user_utility(UserId::new(1), engine.current_instance());
        assert_eq!(utility.to_bits(), expected.to_bits());
        let Response::StreamAllocation { live, .. } =
            svc.handle(&Request::QueryStream { stream: 3 })
        else {
            panic!("query failed");
        };
        assert_eq!(live, engine.assignment().in_range(StreamId::new(3)));
        assert_eq!(
            svc.handle(&Request::Admissions),
            Response::Admissions {
                admissions: offers(&engine)
            }
        );

        let sm = svc.metrics_snapshot();
        let em = engine.metrics();
        assert_eq!(sm.applies, em.applies);
        assert_eq!(sm.updates_applied, em.updates_applied);
        assert_eq!(sm.rejected_batches, em.rejected_batches);
        assert_eq!(sm.rejected_updates, em.rejected_updates);
        assert_eq!(sm.utility.to_bits(), last.utility.to_bits());
        assert_eq!(sm.upper_bound.to_bits(), last.upper_bound.to_bits());
        let served = svc.into_engine();
        assert_eq!(served.utility().to_bits(), engine.utility().to_bits());
        assert_eq!(served.assignment(), engine.assignment());
    }

    /// `lane_mode` names the layout of the instance the engine serves,
    /// which the engine materializes itself, not the input's layout.
    #[test]
    fn metrics_report_the_served_lane_layout() {
        let compact = demo_instance()
            .with_lane_mode(mmd_core::LaneMode::Compact)
            .unwrap();
        let svc = Service::new(compact, ServeConfig::default()).unwrap();
        let reported = svc.metrics_snapshot().lane_mode;
        let served = svc.into_engine().current_instance().lane_mode();
        let expected = match served {
            mmd_core::LaneMode::Exact => "exact",
            mmd_core::LaneMode::Compact => "compact",
        };
        assert_eq!(reported, expected);
    }

    #[test]
    fn health_and_metrics_reflect_state() {
        let mut svc = service();
        let h = svc.health();
        assert_eq!(h.status, "ok");
        assert_eq!(h.live_streams, 6);
        assert_eq!(h.num_users, 3);
        assert_eq!(h.pending_updates, 0);

        svc.handle(&depart(0));
        svc.handle(&Request::Apply);
        let m = svc.metrics_snapshot();
        assert_eq!(m.applies, 1);
        assert_eq!(m.updates_applied, 1);
        assert_eq!(m.requests, 2);
        assert_eq!(m.queue_capacity, 64);
        assert!(m.utility > 0.0);
        assert!(m.upper_bound >= m.utility);
    }
}
