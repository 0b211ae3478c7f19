//! A blocking line-protocol client for `mmd-serve`.
//!
//! [`WireClient`] wraps one TCP connection: every call writes one request
//! frame and reads one response frame (the protocol is strictly
//! request–response per connection). The typed helpers unwrap the expected
//! response kind and turn error frames into [`ClientError::Server`].

use crate::protocol::{
    parse_response, print_request, Admission, ErrorCode, FrameError, HealthSnapshot,
    MetricsSnapshot, Request, Response, WireOutcome,
};
use mmd_core::ingest::Update;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure of one request.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's line did not parse as a response frame.
    Frame(FrameError),
    /// The server answered with an error frame.
    Server {
        /// The frame's error class.
        code: ErrorCode,
        /// The frame's message.
        message: String,
    },
    /// The connection closed before a response line arrived.
    Closed,
    /// The response parsed but was not the kind the helper expected.
    UnexpectedResponse(Box<Response>),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Frame(e) => write!(f, "bad response frame: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Closed => write!(f, "connection closed mid-request"),
            ClientError::UnexpectedResponse(r) => write!(f, "unexpected response {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One client connection (see the [module docs](self)).
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let writer = TcpStream::connect(addr)?;
        // Every request is one small frame followed by a blocking read of
        // the reply, so there is nothing for Nagle's algorithm to coalesce:
        // left on, it holds a frame back until the server's delayed ACK.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(WireClient { reader, writer })
    }

    /// Sends one raw line (no trailing newline needed) and returns the raw
    /// response line — the transcript-level entry point of the `client`
    /// CLI subcommand.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] / [`ClientError::Closed`] only; the response
    /// line is returned verbatim even if it is an error frame.
    pub fn raw_line(&mut self, line: &str) -> Result<String, ClientError> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(ClientError::Closed);
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Sends one typed request and parses the typed response. Error frames
    /// are returned as `Ok(Response::Error { .. })`, not `Err`.
    ///
    /// # Errors
    ///
    /// Transport and frame-parse failures only.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let line = self.raw_line(&print_request(request))?;
        Ok(parse_response(&line)?)
    }

    /// As [`request`](Self::request), but turns error frames into
    /// [`ClientError::Server`].
    fn expect(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            response => Ok(response),
        }
    }

    /// Pushes an update batch; returns the server's pending count and, when
    /// `admit` is set, the provisional admission verdicts.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the batch is rejected (atomically —
    /// nothing was enqueued), plus transport failures.
    pub fn push(
        &mut self,
        updates: Vec<Update>,
        admit: bool,
    ) -> Result<(usize, Option<Vec<Admission>>), ClientError> {
        match self.expect(&Request::Update { updates, admit })? {
            Response::Pushed {
                pending,
                admissions,
            } => Ok((pending, admissions)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Applies the pending batch; returns the refreshed outcome.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the batch is rejected, plus transport
    /// failures.
    pub fn apply(&mut self) -> Result<WireOutcome, ClientError> {
        match self.expect(&Request::Apply)? {
            Response::Applied { outcome } => Ok(outcome),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// The committed certified bracket `(utility, upper_bound, gap)`.
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn certificate(&mut self) -> Result<(f64, f64, f64), ClientError> {
        match self.expect(&Request::Certificate)? {
            Response::Certificate {
                utility,
                upper_bound,
                gap_fraction,
            } => Ok((utility, upper_bound, gap_fraction)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// The full committed allocation `(utility, per-user stream lists)`.
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn allocation(&mut self) -> Result<(f64, Vec<Vec<usize>>), ClientError> {
        match self.expect(&Request::Allocation)? {
            Response::Allocation { utility, users } => Ok((utility, users)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// The daemon's health snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn health(&mut self) -> Result<HealthSnapshot, ClientError> {
        match self.expect(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// The daemon's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.expect(&Request::Metrics)? {
            Response::Metrics(m) => Ok(*m),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Schedules a graceful background full re-solve.
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn resolve(&mut self) -> Result<bool, ClientError> {
        match self.expect(&Request::Resolve)? {
            Response::Resolve { scheduled } => Ok(scheduled),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Shutdown)? {
            Response::Shutdown => Ok(()),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }
}
