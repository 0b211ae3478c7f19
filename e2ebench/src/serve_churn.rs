//! `serve-churn`: an in-process `mmd-serve` daemon (async backend) on an
//! ephemeral localhost port, driven through the shipped `WireClient` by
//! two open-loop generators on their own connections:
//!
//! * a writer that, once per tick, sends one mixed-churn `update` frame and
//!   then `apply`, at a fixed rate below saturation;
//! * a reader that sends `certificate` and `query_user` frames at a fixed
//!   rate while applies are in flight.
//!
//! Every latency is timed from the frame's due time, so a stall also
//! charges the frames queued behind it, and the generators report how late
//! they ran. The client is used unchanged: its per-frame write pattern is
//! part of what a user of the daemon pays.

use crate::ingest_drift::{push_and_apply, IngestLayers, BATCH};
use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::trace::Tracer;
use crate::{ingest_config, ms_since, setup_metric, web_instance, Args};
use mmd_core::algo::shard::solve_sharded;
use mmd_core::ingest::Update;
use mmd_core::{IngestEngine, Instance};
use mmd_serve::protocol::{Request, Response};
use mmd_serve::{ServeConfig, ServerHandle, Service, WireClient};
use mmd_workload::ChurnConfig;
use std::time::{Duration, Instant};

/// Idle `health` round trips timed before the clock (traced run).
const HEALTH_PINGS: usize = 20;

/// What the writer saw.
#[derive(Default)]
struct Writer {
    ack_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    /// Indices of the batches the daemon acknowledged and committed.
    applied: Vec<usize>,
    /// `(utility, upper_bound)` bits of every committed bracket.
    brackets: Vec<(u64, u64)>,
    frames_ok: usize,
    frames_failed: usize,
    /// `(name, due, reply)` of every answered frame.
    spans: Vec<(&'static str, Instant, Instant)>,
    engine_apply_ms: Vec<f64>,
    commit_wait_ms: Vec<f64>,
    apply_queue_lag_max: u64,
    queue_depth_max: usize,
}

/// What the reader saw.
#[derive(Default)]
struct Reader {
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    /// `(utility, upper_bound, gap_fraction)` of every certificate read.
    certificates: Vec<(f64, f64, f64)>,
    bad_replies: usize,
    frames_ok: usize,
    frames_failed: usize,
    /// `(due, reply)` of every answered frame.
    spans: Vec<(Instant, Instant)>,
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn connect(handle: &ServerHandle) -> WireClient {
    WireClient::connect(handle.addr()).expect("the daemon listens on localhost")
}

/// Asks the daemon to shut down and joins it (and its solver thread).
fn stop(handle: ServerHandle) -> Result<(), String> {
    connect(&handle).shutdown().map_err(|e| e.to_string())?;
    drop(handle.join().into_engine());
    Ok(())
}

pub fn run(args: &Args, report: &mut Report, tr: &mut Tracer) {
    const NAME: &str = "serve-churn";
    let users = args.size.pick(50_000, 3_000);
    let period = args
        .size
        .pick(Duration::from_millis(1500), Duration::from_millis(300));
    let read_every = args
        .size
        .pick(Duration::from_millis(100), Duration::from_millis(100));
    let config = ServeConfig {
        ingest: ingest_config(args.size),
        ..ServeConfig::default()
    };
    let ticks = (args.seconds.as_secs_f64() / period.as_secs_f64()).ceil() as usize;

    let mut setups = Vec::new();
    let mut built: Option<(Instance, Vec<Update>, ServerHandle)> = None;
    for _ in 0..crate::SETUPS {
        if let Some((_, _, handle)) = built.take() {
            if let Err(e) = stop(handle) {
                report.check(false, &format!("daemon shutdown failed: {e}"));
            }
        }
        let t = Instant::now();
        let instance = web_instance(users, Some(1.5), args.instance_seed);
        let churn = ChurnConfig::mixed(ticks * BATCH).generate(&instance, args.churn_seed);
        let service = Service::new(instance.clone(), config).expect("web instances are valid");
        let handle = mmd_serve::spawn(service, "127.0.0.1:0").expect("bind an ephemeral port");
        setups.push(t.elapsed().as_secs_f64());
        built = Some((instance, churn, handle));
    }
    let (instance, churn, handle) = built.expect("at least one set-up");
    setup_metric(
        report,
        NAME,
        &setups,
        "instance and churn generation, daemon construction",
    );

    let mut control = connect(&handle);
    if tr.enabled() {
        let mut rtt = Vec::new();
        for _ in 0..HEALTH_PINGS {
            let t = Instant::now();
            let ok = control.health().is_ok();
            report.op(ok);
            rtt.push(if ok { ms_since(t) } else { f64::INFINITY });
        }
        let rtt = median(&rtt);
        report.layer("client.health_rtt_ms", rtt);
        report.line(format!(
            "client.health_rtt_ms = {rtt:.3} ms  (median of {HEALTH_PINGS} idle round trips)"
        ));
    }
    let initial = control.certificate();
    report.op(initial.is_ok());
    let initial = initial.map(|(u, ub, _)| (u.to_bits(), ub.to_bits()));

    // Both generators start on the same schedule origin.
    let origin = Instant::now() + Duration::from_millis(50);
    let traced = tr.enabled();
    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| write_loop(&handle, &churn, origin, period, args.seconds, traced));
        let reader =
            s.spawn(|| read_loop(&handle, users, args.seed, origin, read_every, args.seconds));
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    for (ok, failed) in [
        (writer.frames_ok, writer.frames_failed),
        (reader.frames_ok, reader.frames_failed),
    ] {
        (0..ok).for_each(|_| report.op(true));
        (0..failed).for_each(|_| report.op(false));
    }
    let rss = peak_rss_mb();
    for &(name, due, reply) in &writer.spans {
        if name == "client.update" {
            tr.begin_op();
        }
        tr.record(name, due, reply);
    }
    for &(due, reply) in &reader.spans {
        tr.begin_op();
        tr.record("client.read", due, reply);
    }

    let last = control.certificate();
    let last_metrics = if traced { control.metrics().ok() } else { None };
    if let Err(e) = control.shutdown() {
        report.check(false, &format!("daemon shutdown failed: {e}"));
    }
    // The daemon joins its connection handlers, which end at end of stream.
    drop(control);
    drop(handle.join().into_engine());
    report.check(last.is_ok(), "final certificate request");
    let (utility, upper_bound, gap) = last.unwrap_or((f64::NAN, f64::NAN, f64::NAN));

    // Every certificate the reader saw is a valid bracket, and one the
    // daemon actually committed.
    report.check(
        reader.bad_replies == 0,
        "query replies answer the asked user",
    );
    let mut committed = writer.brackets.clone();
    committed.extend(initial.ok());
    for &(u, ub, g) in &reader.certificates {
        let valid =
            u.is_finite() && ub.is_finite() && 0.0 <= u && u <= ub && (0.0..=1.0).contains(&g);
        report.check(
            valid,
            &format!("certificate {u} <= {ub} (gap {g}) is not a bracket"),
        );
        report.check(
            committed.contains(&(u.to_bits(), ub.to_bits())),
            "every certificate read is a committed bracket",
        );
    }

    // The daemon's final certificate equals an in-process replay of the
    // same batches, outside the clock.
    let mut twin = IngestEngine::new(instance, config.ingest).expect("web instances are valid");
    let mut layers = IngestLayers::default();
    let mut twin_ok = true;
    let mut twin_updates = 0usize;
    let mut twin_apply_ms = 0.0;
    for &k in &writer.applied {
        tr.begin_op();
        let batch = &churn[k * BATCH..(k + 1) * BATCH];
        let Some((outcome, push, apply)) = push_and_apply(&mut twin, batch, tr) else {
            twin_ok = false;
            break;
        };
        twin_updates += outcome.updates_applied;
        twin_apply_ms += apply;
        if traced {
            layers.after_apply(&twin, &outcome, push, apply, tr, report);
        }
    }
    let twin_last = *twin.last_outcome();
    report.check(
        twin_ok
            && (twin_last.utility.to_bits(), twin_last.upper_bound.to_bits())
                == (utility.to_bits(), upper_bound.to_bits()),
        "the daemon's final certificate must equal an in-process replay of its batches",
    );

    let commit_p50 = median(&writer.commit_ms);
    let ack_p50 = median(&writer.ack_ms);
    let query_p50 = median(&reader.latency_ms);
    let query_p90 = percentile(&reader.latency_ms, 90.0);
    let late_max = writer
        .lateness_ms
        .iter()
        .chain(&reader.lateness_ms)
        .copied()
        .fold(0.0f64, f64::max);
    report.e2e("latency_ms_p50", commit_p50);
    report.e2e("gap_pct", gap * 100.0);
    report.e2e("peak_rss_mb", rss);
    let n_commits = writer.commit_ms.len();
    let n_reads = reader.latency_ms.len();
    report.line(format!(
        "{NAME}  ack_ms_p50 = {ack_p50:.3} ms  (median of {} update frames, due -> pushed)",
        writer.ack_ms.len()
    ));
    report.line(format!(
        "{NAME}  commit_ms_p50 = {commit_p50:.3} ms  (median of {n_commits} applies, update due -> applied; one {BATCH}-update batch every {} ms)",
        period.as_millis()
    ));
    report.line(format!(
        "{NAME}  commit samples (ms): {}",
        writer
            .commit_ms
            .iter()
            .map(|ms| format!("{ms:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.line(format!(
        "{NAME}  commit gaps (%): {}",
        writer
            .brackets
            .iter()
            .map(|&(u, ub)| {
                let (u, ub) = (f64::from_bits(u), f64::from_bits(ub));
                format!("{:.3}", (ub - u) / ub * 100.0)
            })
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.line(format!(
        "{NAME}  query_ms_p50 = {query_p50:.3} ms, query_ms_p90 = {query_p90:.3} ms  ({n_reads} certificate/query frames, one every {} ms, due -> reply)",
        read_every.as_millis()
    ));
    report.line(format!("{NAME}  generator lateness max = {late_max:.3} ms"));
    report.line(format!("{NAME}  gap_pct = {:.4} %", gap * 100.0));
    report.line(format!(
        "{NAME}  peak_rss_mb = {rss:.1} MiB  ({users} users)"
    ));

    if !traced {
        return;
    }
    report.layer("client.ack_ms_p50", ack_p50);
    report.layer("client.query_ms_p50", query_p50);
    report.layer("client.query_ms_p90", query_p90);
    report.layer("client.lateness_ms_max", late_max);
    report.layer("serve.engine_apply_ms", median(&writer.engine_apply_ms));
    report.layer("serve.commit_wait_ms", median(&writer.commit_wait_ms));
    report.layer(
        "serve.apply_queue_lag_max",
        writer.apply_queue_lag_max as f64,
    );
    report.layer("serve.queue_depth_max", writer.queue_depth_max as f64);
    if let Some(m) = last_metrics {
        report.layer("serve.overloaded", m.overloaded as f64);
        report.layer("serve.frames_rejected", m.frames_rejected as f64);
    }
    report.line(format!(
        "serve: engine apply {:.3} ms, commit wait {:.3} ms (medians of {n_commits}), apply queue lag max {}, queue depth max {}",
        median(&writer.engine_apply_ms),
        median(&writer.commit_wait_ms),
        writer.apply_queue_lag_max,
        writer.queue_depth_max
    ));
    report.layer(
        "ingest.updates_per_s",
        twin_updates as f64 / (twin_apply_ms / 1e3),
    );
    let t = Instant::now();
    let scratch = solve_sharded(twin.current_instance(), &config.ingest.shard);
    let scratch_ms = ms_since(t);
    report.check(scratch.is_ok(), "scratch solve of the final instance");
    layers.finish(&twin, scratch_ms, tr, report);
}

/// The open-loop writer: one `update` + `apply` per tick, `period` apart,
/// until `seconds` have passed. With `traced`, a `metrics` frame on a
/// connection of its own after each commit samples the engine's own apply
/// time and the queues.
fn write_loop(
    handle: &ServerHandle,
    churn: &[Update],
    origin: Instant,
    period: Duration,
    seconds: Duration,
    traced: bool,
) -> Writer {
    let mut client = connect(handle);
    // Samples go over a connection of their own, so the writer's
    // connection carries the same frames in the traced and untraced runs.
    let mut monitor = traced.then(|| connect(handle));
    let mut w = Writer::default();
    for (k, batch) in churn.chunks(BATCH).enumerate() {
        let offset = period * u32::try_from(k).expect("tick count fits u32");
        if offset >= seconds {
            break;
        }
        let due = origin + offset;
        sleep_until(due);
        w.lateness_ms.push(ms_since(due));
        // A failed frame misses every latency limit.
        if let Err(e) = client.push(batch.to_vec(), false) {
            eprintln!("update frame failed: {e}");
            w.frames_failed += 1;
            w.ack_ms.push(f64::INFINITY);
            w.commit_ms.push(f64::INFINITY);
            continue;
        }
        w.frames_ok += 1;
        w.ack_ms.push(ms_since(due));
        w.spans.push(("client.update", due, Instant::now()));
        let outcome = match client.apply() {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("apply frame failed: {e}");
                w.frames_failed += 1;
                w.commit_ms.push(f64::INFINITY);
                // The pushed batch stays pending and rides with the next
                // apply; the replay check then fails, as it should.
                continue;
            }
        };
        w.frames_ok += 1;
        let commit = ms_since(due);
        w.spans.push(("client.commit", due, Instant::now()));
        w.commit_ms.push(commit);
        w.applied.push(k);
        w.brackets
            .push((outcome.utility.to_bits(), outcome.upper_bound.to_bits()));
        if let Some(monitor) = monitor.as_mut() {
            if let Ok(m) = monitor.metrics() {
                let engine_ms = m.last_apply_micros as f64 / 1e3;
                w.engine_apply_ms.push(engine_ms);
                w.commit_wait_ms.push(commit - engine_ms);
                w.apply_queue_lag_max = w.apply_queue_lag_max.max(m.apply_queue_lag);
                w.queue_depth_max = w.queue_depth_max.max(m.queue_depth);
            }
        }
    }
    w
}

/// The open-loop reader: alternating `certificate` and `query_user` frames
/// every `every`, until `seconds` have passed.
fn read_loop(
    handle: &ServerHandle,
    users: usize,
    seed: u64,
    origin: Instant,
    every: Duration,
    seconds: Duration,
) -> Reader {
    let mut client = connect(handle);
    let mut r = Reader::default();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for j in 0u32.. {
        let offset = every * j;
        if offset >= seconds {
            break;
        }
        let due = origin + offset;
        sleep_until(due);
        r.lateness_ms.push(ms_since(due));
        let ok = if j % 2 == 0 {
            match client.certificate() {
                Ok(c) => {
                    r.certificates.push(c);
                    true
                }
                Err(e) => {
                    eprintln!("certificate frame failed: {e}");
                    false
                }
            }
        } else {
            // A deterministic pseudo-random user (64-bit LCG).
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let user = usize::try_from(state >> 33).unwrap_or(0) % users;
            match client.request(&Request::QueryUser { user }) {
                Ok(Response::UserAllocation { user: got, .. }) => {
                    r.bad_replies += usize::from(got != user);
                    true
                }
                Ok(other) => {
                    eprintln!("query frame answered {other:?}");
                    false
                }
                Err(e) => {
                    eprintln!("query frame failed: {e}");
                    false
                }
            }
        };
        if ok {
            r.latency_ms.push(ms_since(due));
            r.spans.push((due, Instant::now()));
            r.frames_ok += 1;
        } else {
            r.latency_ms.push(f64::INFINITY);
            r.frames_failed += 1;
        }
    }
    r
}
