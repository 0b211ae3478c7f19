//! The TCP daemon: accept loop, per-connection line handlers, and the
//! single engine thread.
//!
//! Threading model:
//!
//! * **one engine thread** owns the [`Service`] and processes requests
//!   strictly in queue order (determinism — see [`crate::service`]);
//! * **one accept thread** hands each connection to a handler thread;
//! * **per-connection handler threads** read NDJSON lines, parse them
//!   ([`parse_request`]), and forward them through a **bounded**
//!   [`sync_channel`] to the engine thread. A full channel is backpressure:
//!   the request is bounced immediately with an `overloaded` error frame
//!   instead of being buffered without limit.
//!
//! Parse failures are answered directly by the connection handler (the
//! engine never sees malformed lines); everything else round-trips through
//! the engine. Between requests — only when the queue is empty — the
//! engine thread runs [`Service::idle`], which performs the scheduled
//! graceful background full re-solve.
//!
//! The engine thread never blocks on a re-solve: an `apply` comes back as
//! a *deferred* epoch, and the connection handler that submitted it waits
//! for the commit on its own thread while the engine keeps answering other
//! clients' frames (health, queries, more updates) against the last
//! committed snapshot.
//!
//! A request line may be at most `256 × max_batch + 4096` bytes (see
//! [`ServeConfig::max_batch`](crate::ServeConfig::max_batch)): a handler
//! never buffers more than that per line. A longer line gets one
//! `invalid` error frame, and that connection is closed.
//!
//! Shutdown: a `shutdown` frame drains the service (subsequent requests
//! answer `unavailable`), stops the accept loop, and [`ServerHandle::join`]
//! returns once in-flight connections close.
//!
//! [`sync_channel`]: std::sync::mpsc::sync_channel

use crate::protocol::{parse_request, print_response, ErrorCode, Request, Response};
use crate::service::{resolve_deferred, Handled, ServeCounters, Service};
use mmd_core::ApplyWaiter;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One queued request and the channel the engine's verdict goes back on:
/// a finished response, or an epoch the *connection handler* waits on (so
/// the engine thread keeps acking frames while the re-solve runs).
struct Job {
    request: Request,
    reply: SyncSender<Handled>,
}

/// Bytes one update may take on the wire, with room for whitespace and
/// long float spellings; the largest encoded update is under 100 bytes.
const UPDATE_BYTES: usize = 256;

/// Line allowance beyond the updates: the `update` frame's own keys, and
/// every other request, whose size does not grow with the instance.
const FRAME_SLACK_BYTES: usize = 4096;

/// The longest request line a connection handler reads, without its
/// newline: a full `max_batch` update frame plus framing slack.
fn max_line_bytes(max_batch: usize) -> usize {
    max_batch
        .saturating_mul(UPDATE_BYTES)
        .saturating_add(FRAME_SLACK_BYTES)
}

/// A running daemon: join handles plus the bound address.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    engine: JoinHandle<Service>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the daemon is listening on (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown from outside the protocol (e.g. on a signal):
    /// stops the accept loop; in-flight connections finish.
    pub fn shutdown(&self) {
        stop_accepting(&self.stop, self.addr);
    }

    /// Blocks until the daemon has fully stopped (accept loop exited, all
    /// connections closed, engine thread drained), returning the final
    /// [`Service`] state for inspection.
    pub fn join(self) -> Service {
        let _ = self.accept.join();
        self.engine.join().expect("engine thread must not panic")
    }
}

fn stop_accepting(stop: &AtomicBool, addr: SocketAddr) {
    if !stop.swap(true, Ordering::SeqCst) {
        // The accept loop blocks in `accept`; a throwaway connection wakes
        // it so it can observe the flag and exit.
        let _ = TcpStream::connect(addr);
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and spawns
/// the daemon threads.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(service: Service, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let counters = service.counters();
    let queue_capacity = service.config().queue_capacity;
    let max_line = max_line_bytes(service.config().max_batch);
    // Taken before the service moves onto the engine thread; handlers use
    // it to resolve deferred apply replies without blocking the engine.
    let waiter = service.apply_waiter();
    let (tx, rx) = sync_channel::<Job>(queue_capacity);
    let stop = Arc::new(AtomicBool::new(false));

    let engine = std::thread::spawn(move || engine_loop(service, &rx));

    let accept = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let tx = tx.clone();
                let counters = Arc::clone(&counters);
                let stop = Arc::clone(&stop);
                let waiter = waiter.clone();
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &tx, &counters, &stop, addr, &waiter, max_line);
                }));
            }
            // `tx` drops here; the engine loop ends once every handler's
            // clone is gone too.
            drop(tx);
            for h in handlers {
                let _ = h.join();
            }
        })
    };

    Ok(ServerHandle {
        addr,
        stop,
        engine,
        accept,
    })
}

/// The engine thread: strictly ordered request processing, idle-time
/// maintenance only when the queue is empty.
fn engine_loop(mut service: Service, rx: &Receiver<Job>) -> Service {
    let counters = service.counters();
    loop {
        // Fast path: take queued work without blocking.
        let job = match rx.try_recv() {
            Ok(job) => job,
            Err(std::sync::mpsc::TryRecvError::Empty) => {
                if service.idle() {
                    continue; // maintenance ran; re-check the queue
                }
                match rx.recv() {
                    Ok(job) => job,
                    Err(_) => break, // every sender gone
                }
            }
            Err(std::sync::mpsc::TryRecvError::Disconnected) => break,
        };
        counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let _ = job.reply.send(service.handle_detached(&job.request));
    }
    service
}

/// One connection: read a line, answer a line, until EOF, shutdown or a
/// line longer than `max_line` bytes.
fn handle_connection(
    stream: TcpStream,
    tx: &SyncSender<Job>,
    counters: &ServeCounters,
    stop: &AtomicBool,
    addr: SocketAddr,
    waiter: &ApplyWaiter,
    max_line: usize,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        let line = match read_line(&mut reader, max_line) {
            Line::Frame(line) => line,
            Line::Closed => break,
            Line::TooLong => {
                counters.frames_rejected.fetch_add(1, Ordering::Relaxed);
                let frame = Response::Error {
                    code: ErrorCode::Invalid,
                    message: format!(
                        "request line exceeds {max_line} bytes; closing the connection"
                    ),
                };
                let _ = write_frame(&mut writer, &frame);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(e) => {
                counters.frames_rejected.fetch_add(1, Ordering::Relaxed);
                let frame = Response::Error {
                    code: e.code,
                    message: e.message,
                };
                if write_frame(&mut writer, &frame).is_err() {
                    break;
                }
                continue;
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        let response = dispatch(request, tx, counters, waiter);
        if write_frame(&mut writer, &response).is_err() {
            break;
        }
        if shutdown && !matches!(response, Response::Error { .. }) {
            stop_accepting(stop, addr);
        }
    }
}

/// One read from a connection (see [`read_line`]).
enum Line {
    /// A complete line, its `\n` or `\r\n` stripped.
    Frame(String),
    /// The line runs past the cap; reading stopped there.
    TooLong,
    /// End of stream, a read error, or a line that is not UTF-8.
    Closed,
}

/// Reads one line of at most `max_line` bytes, buffering no more than
/// `max_line + 1`.
fn read_line(reader: &mut BufReader<TcpStream>, max_line: usize) -> Line {
    let mut buf = Vec::new();
    let limit = u64::try_from(max_line).map_or(u64::MAX, |n| n.saturating_add(1));
    match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
        Ok(0) | Err(_) => return Line::Closed,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > max_line {
        return Line::TooLong;
    }
    String::from_utf8(buf).map_or(Line::Closed, Line::Frame)
}

/// Forwards one request through the bounded queue and waits for the
/// engine's reply. A full queue bounces with `overloaded` immediately.
/// A deferred reply (an `apply`) is resolved *here*, on the
/// connection's own thread, so the engine stays free to ack other frames
/// while the re-solve is in flight.
fn dispatch(
    request: Request,
    tx: &SyncSender<Job>,
    counters: &ServeCounters,
    waiter: &ApplyWaiter,
) -> Response {
    let (reply_tx, reply_rx) = sync_channel::<Handled>(1);
    counters.queue_depth.fetch_add(1, Ordering::Relaxed);
    let depth = counters.queue_depth.load(Ordering::Relaxed);
    match tx.try_send(Job {
        request,
        reply: reply_tx,
    }) {
        Ok(()) => match reply_rx.recv() {
            Ok(Handled::Now(response)) => *response,
            Ok(Handled::Deferred(epoch)) => resolve_deferred(waiter, epoch),
            Err(_) => Response::Error {
                code: ErrorCode::Unavailable,
                message: "server is shutting down".to_string(),
            },
        },
        Err(err) => {
            counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            match err {
                TrySendError::Full(_) => {
                    counters.overloaded.fetch_add(1, Ordering::Relaxed);
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        message: format!("request queue full (depth {depth}); retry later"),
                    }
                }
                TrySendError::Disconnected(_) => Response::Error {
                    code: ErrorCode::Unavailable,
                    message: "server is shutting down".to_string(),
                },
            }
        }
    }
}

fn write_frame(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut line = print_response(response);
    line.push('\n');
    writer.write_all(line.as_bytes())
}
