//! A blocking client for the `ntp-serve` wire protocol.

use crate::wire::{self, ErrorCode, Request, Response, WireError};
use ntp_core::{PredictorStats, Source, Target};
use ntp_telemetry::Snapshot;
use ntp_trace::TraceRecord;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default client-side frame limit (matches the server default).
pub const CLIENT_MAX_FRAME: u32 = crate::config::DEFAULT_MAX_FRAME;

/// Default connect timeout.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Default read/write timeout.
pub const DEFAULT_RW_TIMEOUT: Duration = Duration::from_secs(30);

/// How a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, EOF mid-reply).
    Io(std::io::Error),
    /// The deadline ([`Client::connect`]'s defaults or
    /// [`Client::connect_with_timeout`]'s) expired while connecting or
    /// waiting for a reply.
    Timeout {
        /// How long the call had been underway when it expired.
        elapsed: Duration,
    },
    /// The server's reply violated the protocol.
    Protocol(String),
    /// The server refused the request with a typed error.
    Server {
        /// Refusal class from the wire.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The shard queue stayed full through every retry, or the retries
    /// ran past the total wall-clock budget ([`Client::busy_deadline`]).
    Busy {
        /// How long the client kept retrying before giving up.
        elapsed: Duration,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Timeout { elapsed } => {
                write!(f, "timed out after {elapsed:?}")
            }
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Busy { elapsed } => write!(
                f,
                "server busy: shard queue stayed full through {elapsed:?} of retries"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// True for the error kinds a socket timeout surfaces as (Unix reports
/// `WouldBlock`, Windows `TimedOut`).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A blocking connection to an `ntp-serve` server.
///
/// One request is in flight at a time (the protocol is strictly
/// request/reply per connection). Methods that hit backpressure
/// ([`Response::Busy`]) retry with a short linear backoff, giving up
/// with [`ClientError::Busy`] after [`Client::busy_retries`] attempts
/// *or* once [`Client::busy_deadline`] of wall-clock time has passed —
/// whichever comes first, so a slow server cannot stretch a bounded
/// retry count into an unbounded wait.
pub struct Client {
    stream: TcpStream,
    max_frame: u32,
    /// Reusable frame buffer: each request is encoded and framed in
    /// place, then written with a single syscall — no per-request
    /// allocation, no separate header/body/checksum writes.
    scratch: Vec<u8>,
    /// Busy retries before giving up.
    pub busy_retries: u32,
    /// Pause between busy retries.
    pub busy_backoff: Duration,
    /// Total wall-clock budget across all busy retries of one request.
    pub busy_deadline: Duration,
}

impl Client {
    /// Connects with the default deadlines: [`DEFAULT_CONNECT_TIMEOUT`]
    /// (5s) and [`DEFAULT_RW_TIMEOUT`] (30s read/write).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with_timeout(addr, DEFAULT_CONNECT_TIMEOUT, DEFAULT_RW_TIMEOUT)
    }

    /// Connects with explicit deadlines: `connect` bounds the TCP
    /// handshake (tried against each resolved address in turn),
    /// `read_write` bounds every subsequent socket read and write. A
    /// router's backend probes use sub-second deadlines here so one
    /// dead backend cannot stall the probe loop.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        connect: Duration,
        read_write: Duration,
    ) -> Result<Client, ClientError> {
        let started = Instant::now();
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut last: Option<std::io::Error> = None;
        let mut stream = None;
        for a in &addrs {
            match TcpStream::connect_timeout(a, connect) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let stream = match (stream, last) {
            (Some(s), _) => s,
            (None, Some(e)) if is_timeout(&e) => {
                return Err(ClientError::Timeout {
                    elapsed: started.elapsed(),
                })
            }
            (None, Some(e)) => return Err(ClientError::Io(e)),
            (None, None) => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to nothing",
                )))
            }
        };
        stream.set_read_timeout(Some(read_write))?;
        stream.set_write_timeout(Some(read_write))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            max_frame: CLIENT_MAX_FRAME,
            scratch: Vec::with_capacity(256),
            busy_retries: 200,
            busy_backoff: Duration::from_millis(2),
            busy_deadline: Duration::from_secs(5),
        })
    }

    /// Raises the client-side frame limit (e.g. for `Migrate` replies
    /// carrying large session snapshots). Clamped to the protocol's
    /// hard cap.
    pub fn set_max_frame(&mut self, max_frame: u32) {
        self.max_frame = max_frame.clamp(wire::MIN_FRAME_CAP, wire::HARD_FRAME_CAP);
    }

    /// Sends one request and reads one reply (no busy retry).
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let started = Instant::now();
        wire::frame_request(&mut self.scratch, req);
        let io = self
            .stream
            .write_all(&self.scratch)
            .and_then(|()| self.stream.flush());
        if let Err(e) = io {
            return Err(if is_timeout(&e) {
                ClientError::Timeout {
                    elapsed: started.elapsed(),
                }
            } else {
                ClientError::Io(e)
            });
        }
        match wire::read_frame(&mut self.stream, self.max_frame) {
            Ok(body) => wire::decode_response(&body).map_err(ClientError::Protocol),
            Err(WireError::Io(e)) if is_timeout(&e) => Err(ClientError::Timeout {
                elapsed: started.elapsed(),
            }),
            Err(WireError::Io(e)) => Err(ClientError::Io(e)),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }

    /// [`Client::request`] with busy retries; returns the first
    /// non-`Busy` reply. Gives up after [`Client::busy_retries`]
    /// attempts or [`Client::busy_deadline`] of elapsed time.
    fn request_patient(&mut self, req: &Request) -> Result<Response, ClientError> {
        let started = Instant::now();
        for attempt in 0..=self.busy_retries {
            match self.request(req)? {
                Response::Busy => {
                    // Stop before a sleep that would overrun the budget;
                    // the per-request transport time counts too, so a
                    // server answering `Busy` slowly still hits the cap.
                    if attempt == self.busy_retries
                        || started.elapsed() + self.busy_backoff > self.busy_deadline
                    {
                        break;
                    }
                    std::thread::sleep(self.busy_backoff);
                }
                resp => return Ok(resp),
            }
        }
        Err(ClientError::Busy {
            elapsed: started.elapsed(),
        })
    }

    /// Opens session `session` with a `paper(bits, depth)` predictor;
    /// returns the owning shard.
    pub fn hello(&mut self, session: u64, bits: u32, depth: u32) -> Result<u32, ClientError> {
        match self.request_patient(&Request::Hello {
            session,
            bits,
            depth,
        })? {
            Response::HelloOk { shard, .. } => Ok(shard),
            resp => Err(unexpected("HelloOk", resp)),
        }
    }

    /// Reads the session's current prediction without training.
    pub fn predict(&mut self, session: u64) -> Result<(Option<Target>, Source), ClientError> {
        match self.request_patient(&Request::Predict { session })? {
            Response::Predicted { target, source } => Ok((target, source)),
            resp => Err(unexpected("Predicted", resp)),
        }
    }

    /// One replay step; returns whether the pre-update prediction was
    /// correct.
    pub fn update(&mut self, session: u64, record: &TraceRecord) -> Result<bool, ClientError> {
        match self.request_patient(&Request::Update {
            session,
            record: *record,
        })? {
            Response::Updated { correct } => Ok(correct),
            resp => Err(unexpected("Updated", resp)),
        }
    }

    /// Applies a whole chunk; returns `(predictions, correct)`.
    pub fn batch(
        &mut self,
        session: u64,
        records: &[TraceRecord],
    ) -> Result<(u64, u64), ClientError> {
        match self.request_patient(&Request::Batch {
            session,
            records: records.to_vec(),
        })? {
            Response::BatchDone {
                predictions,
                correct,
            } => Ok((predictions, correct)),
            resp => Err(unexpected("BatchDone", resp)),
        }
    }

    /// Reads the session's accumulated statistics.
    pub fn stats(&mut self, session: u64) -> Result<PredictorStats, ClientError> {
        match self.request_patient(&Request::Stats { session })? {
            Response::StatsOk { stats } => Ok(stats),
            resp => Err(unexpected("StatsOk", resp)),
        }
    }

    /// Extracts session `session` from the server for migration: the
    /// server serializes it as a checksummed single-session snapshot,
    /// removes it, and returns the payload bytes
    /// (`ntp_tracefile::decode_session_wire` decodes them).
    pub fn migrate_out(&mut self, session: u64) -> Result<Vec<u8>, ClientError> {
        match self.request_patient(&Request::Migrate {
            session,
            snapshot: None,
        })? {
            Response::MigrateOk {
                snapshot: Some(bytes),
                ..
            } => Ok(bytes),
            resp => Err(unexpected("MigrateOk(with payload)", resp)),
        }
    }

    /// Installs an extracted session snapshot into this server; the
    /// session must not already exist here.
    pub fn migrate_in(&mut self, session: u64, snapshot: Vec<u8>) -> Result<(), ClientError> {
        match self.request_patient(&Request::Migrate {
            session,
            snapshot: Some(snapshot),
        })? {
            Response::MigrateOk { snapshot: None, .. } => Ok(()),
            resp => Err(unexpected("MigrateOk", resp)),
        }
    }

    /// Reads the server's (or a router's) merged runtime-metrics
    /// snapshot: sections per shard plus `server`/`total`, or `router`
    /// plus `backend<k>`; see OBSERVABILITY.md "Live serving metrics"
    /// for the schema. A reply that does not decode is a
    /// [`ClientError::Protocol`].
    pub fn metrics(&mut self) -> Result<Snapshot, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { json } => json
                .parse()
                .map_err(|e| ClientError::Protocol(format!("undecodable metrics reply: {e}"))),
            resp => Err(unexpected("Metrics", resp)),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            resp => Err(unexpected("Bye", resp)),
        }
    }
}

fn unexpected(wanted: &str, resp: Response) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Server { code, message },
        other => ClientError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}
