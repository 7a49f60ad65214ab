//! The binary wire protocol: length-framed, FNV-1a-64-checksummed
//! request/response frames.
//!
//! ```text
//! frame    body length u32 | body | FNV-1a 64 checksum of body (u64)
//! body     kind u8 | payload
//! ```
//!
//! All integers are little-endian — the same framing discipline as the
//! `.ntc` section codec in `ntp-tracefile` (length field, then payload,
//! then an FNV-1a 64 checksum), reusing the identical hash from
//! [`ntp_hash`]. The reader is *validating*: a flipped bit anywhere in the
//! body fails the checksum, a bad length is refused before any allocation,
//! and every decoded value is range-checked. Unlike the on-disk codec,
//! a refused frame is **not** fatal: the stream stays framed (the reader
//! always consumes exactly `4 + len + 8` bytes), so the server can reply
//! with an [`Response::Error`] and keep the connection alive.
//!
//! Request kinds: `Hello`, `Predict`, `Update`, `Stats`, `Shutdown`,
//! `Metrics`, `Migrate`. Response kinds mirror them, plus `Busy`
//! (explicit backpressure when a shard queue is full) and `Error`. A
//! retired kind byte decodes exactly like one never assigned: the
//! request draws a `BadRequest` reply, and the response is refused.

use ntp_core::{PredictorStats, Source, Target};
use ntp_hash::fnv64;
use ntp_trace::{HashedId, TraceId, TraceRecord, MAX_TRACE_LEN};
use std::io::{Read, Write};

/// Protocol version carried in every `Hello`; servers refuse versions
/// outside [`MIN_PROTOCOL_VERSION`]`..=PROTOCOL_VERSION` so a skewed
/// client fails loudly at session setup, not with silently misdecoded
/// frames later. Version 2 adds the `Migrate`/`MigrateOk` pair — a
/// purely additive extension, so version-1 clients keep working.
/// Retiring a kind (`Batch`, 0x04) does not bump it either: a client
/// that still sends one gets a typed `BadRequest` for that frame, never
/// a misdecoded one.
pub const PROTOCOL_VERSION: u32 = 2;

/// Oldest protocol version this build still accepts in `Hello`.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

/// Frames whose declared body length exceeds this are unrecoverable: the
/// reader cannot cheaply skip the body to resync, so the connection is
/// closed after the error reply. Every frame cap (`max_frame`) must be
/// at or below this.
pub const HARD_FRAME_CAP: u32 = 64 << 20;

/// Smallest sensible `max_frame`: every fixed-size frame fits.
pub const MIN_FRAME_CAP: u32 = 64;

/// A client-to-server request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Opens (creates) session `session` with a `paper(bits, depth)`
    /// predictor. Refused if the session already exists or the
    /// configuration is invalid.
    Hello {
        /// Session identifier; the owning shard is `session % workers`.
        session: u64,
        /// Correlating-table index bits of the predictor configuration.
        bits: u32,
        /// DOLC path-history depth of the predictor configuration.
        depth: u32,
    },
    /// Reads the session's current prediction without training.
    Predict {
        /// Session identifier.
        session: u64,
    },
    /// One replay step: predict, score against `record`, then train
    /// (the immediate-update methodology of `ntp_core::evaluate`).
    Update {
        /// Session identifier.
        session: u64,
        /// The trace that actually executed.
        record: TraceRecord,
    },
    /// Reads the session's accumulated [`PredictorStats`].
    Stats {
        /// Session identifier.
        session: u64,
    },
    /// Asks the server to drain and exit: no new connections are
    /// accepted, in-flight sessions run to completion.
    Shutdown,
    /// Reads the server's merged runtime-metrics snapshot (see
    /// OBSERVABILITY.md "Live serving metrics"). Not routed to a shard:
    /// the connection collects a [`Response::Metrics`] across all shards.
    Metrics,
    /// Live session migration (protocol version 2). With `snapshot:
    /// None` this *extracts*: the owning shard serializes the session as
    /// a checksummed single-session `.nts` snapshot (the
    /// `ntp_tracefile::encode_session_wire` framing), removes it, and
    /// returns the bytes in [`Response::MigrateOk`]. With `snapshot:
    /// Some(bytes)` this *installs*: the target shard decodes, validates
    /// and inserts the session (refused if it already exists). A router
    /// pairs the two calls to move a session between backends with its
    /// statistics intact.
    Migrate {
        /// Session identifier.
        session: u64,
        /// `None` to extract-and-remove; `Some` snapshot bytes to
        /// install.
        snapshot: Option<Vec<u8>>,
    },
}

impl Request {
    /// The session this request is routed by (`None` for
    /// [`Request::Shutdown`] and [`Request::Metrics`], which are handled
    /// by the connection itself, not a shard).
    pub fn session(&self) -> Option<u64> {
        match self {
            Request::Hello { session, .. }
            | Request::Predict { session }
            | Request::Update { session, .. }
            | Request::Stats { session }
            | Request::Migrate { session, .. } => Some(*session),
            Request::Shutdown | Request::Metrics => None,
        }
    }
}

/// Why a request was refused (carried in [`Response::Error`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame checksum mismatch: the body arrived corrupted.
    BadFrame,
    /// Frame body exceeded the server's frame cap
    /// ([`crate::config::DEFAULT_MAX_FRAME`]).
    Oversized,
    /// The body decoded to no known request, or payload values were out
    /// of range.
    BadRequest,
    /// The addressed session does not exist (no `Hello` seen).
    UnknownSession,
    /// `Hello` named a predictor configuration the core rejected, or a
    /// session that already exists, or a protocol-version mismatch.
    BadConfig,
    /// The server is at its connection limit.
    Refused,
    /// The server is draining for shutdown and takes no new work.
    Draining,
    /// Internal failure (a shard disappeared mid-request).
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::Oversized => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::UnknownSession => 4,
            ErrorCode::BadConfig => 5,
            ErrorCode::Refused => 6,
            ErrorCode::Draining => 7,
            ErrorCode::Internal => 8,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::Oversized,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::UnknownSession,
            5 => ErrorCode::BadConfig,
            6 => ErrorCode::Refused,
            7 => ErrorCode::Draining,
            8 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::BadConfig => "bad-config",
            ErrorCode::Refused => "refused",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// A server-to-client response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Session created.
    HelloOk {
        /// Echo of the session identifier.
        session: u64,
        /// The shard (worker index) that owns the session.
        shard: u32,
    },
    /// The session's current prediction.
    Predicted {
        /// The predicted next trace, if any table had an opinion.
        target: Option<Target>,
        /// Which table served the prediction.
        source: Source,
    },
    /// One update applied.
    Updated {
        /// Whether the pre-update prediction named the actual trace.
        correct: bool,
    },
    /// The session's accumulated statistics.
    StatsOk {
        /// Exact replay statistics, byte-comparable with the offline
        /// `ntp_core::evaluate` oracle.
        stats: PredictorStats,
    },
    /// Explicit backpressure: the owning shard's queue is full. The
    /// request was **not** applied; retry after a pause.
    Busy,
    /// Acknowledges [`Request::Shutdown`]; the server is draining.
    Bye,
    /// Acknowledges [`Request::Migrate`]. For an extract the snapshot
    /// bytes ride back (`Some`); for an install it is `None`.
    MigrateOk {
        /// Echo of the session identifier.
        session: u64,
        /// The extracted single-session snapshot, if this was an
        /// extract.
        snapshot: Option<Vec<u8>>,
    },
    /// The server's merged runtime-metrics snapshot, rendered by the
    /// telemetry JSON writer (sections per shard plus `server`/`total`).
    /// Carried as text so the reply needs no schema negotiation; the
    /// frame checksum still covers every byte.
    Metrics {
        /// The snapshot JSON document.
        json: String,
    },
    /// The request was refused.
    Error {
        /// Machine-readable refusal class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a frame could not be read. [`WireError::Io`] ends the connection;
/// the other variants leave the stream framed and the connection usable.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure or clean EOF.
    Io(std::io::Error),
    /// Declared body length exceeds the limit. The body was consumed
    /// (discarded) when `len <= HARD_FRAME_CAP`; `recoverable` says so.
    Oversized {
        /// Declared body length.
        len: u32,
        /// The limit it exceeded.
        max: u32,
        /// Whether the stream was resynced (body discarded) and the
        /// connection can continue.
        recoverable: bool,
    },
    /// Body checksum mismatch.
    BadChecksum,
    /// Zero-length body.
    Empty,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Oversized { len, max, .. } => {
                write!(f, "frame body {len} bytes exceeds limit {max}")
            }
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::Empty => write!(f, "zero-length frame"),
        }
    }
}

impl WireError {
    /// The typed [`Response::Error`] that answers a refused frame:
    /// `Oversized` stays `Oversized`, a bad checksum or an empty frame is
    /// `BadFrame`. A [`WireError::Io`] ends the connection, so no caller
    /// answers one.
    pub fn refusal(&self) -> Response {
        let code = match self {
            WireError::Oversized { .. } => ErrorCode::Oversized,
            WireError::Io(_) | WireError::BadChecksum | WireError::Empty => ErrorCode::BadFrame,
        };
        Response::Error {
            code,
            message: self.to_string(),
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Writes one frame: `len | body | fnv64(body)`.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(4 + body.len() + 8);
    append_frame(&mut out, body);
    w.write_all(&out)
}

/// Appends one frame carrying `body` verbatim to `out`: how a router
/// relays a request or a reply it has no reason to re-encode.
pub(crate) fn append_frame(out: &mut Vec<u8>, body: &[u8]) {
    append_frame_with(out, |buf| buf.extend_from_slice(body));
}

/// Appends one complete frame to `out`, encoding the body in place: a
/// four-byte length placeholder is reserved, `fill` appends the body,
/// then the length is backfilled and the checksum appended. No
/// intermediate body allocation, so callers can reuse one scratch
/// buffer across requests and issue a single `write` per frame.
fn append_frame_with(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    fill(out);
    let len = (out.len() - start - 4) as u32;
    debug_assert!(len > 0, "frames always carry at least a kind byte");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let sum = fnv64(&out[start + 4..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Encodes `req` as one complete frame (`len | body | checksum`) into
/// `out`, clearing it first. The result is ready for a single
/// `write_all` — the client hot path reuses one scratch buffer so a
/// request costs zero allocations and one syscall.
pub fn frame_request(out: &mut Vec<u8>, req: &Request) {
    out.clear();
    append_frame_with(out, |buf| encode_request_into(buf, req));
}

/// Appends one complete response frame to `out` **without** clearing
/// it, so several pipelined replies accumulate into one buffered write
/// on the server side.
pub fn append_response_frame(out: &mut Vec<u8>, resp: &Response) {
    append_frame_with(out, |buf| encode_response_into(buf, resp));
}

/// Reads one frame body, enforcing `max_frame` and verifying the
/// checksum. On every non-[`WireError::Io`] error the reader has consumed
/// exactly the declared frame (when recoverable), so the caller can reply
/// with an error and keep reading.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Vec<u8>, WireError> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4);
    if len == 0 {
        // Consume the trailing checksum so the stream stays framed.
        let mut sum = [0u8; 8];
        r.read_exact(&mut sum)?;
        return Err(WireError::Empty);
    }
    if len > max_frame {
        let recoverable = len <= HARD_FRAME_CAP;
        if recoverable {
            // Discard body + checksum to resync.
            discard(r, len as u64 + 8)?;
        }
        return Err(WireError::Oversized {
            len,
            max: max_frame,
            recoverable,
        });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    if fnv64(&body) != u64::from_le_bytes(sum) {
        return Err(WireError::BadChecksum);
    }
    Ok(body)
}

/// One parse step from a [`FrameAssembler`].
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete, checksum-verified frame body.
    Frame(Vec<u8>),
    /// A refused frame ([`WireError::Empty`], [`WireError::BadChecksum`]
    /// or [`WireError::Oversized`]); mirrors [`read_frame`]'s recoverable
    /// errors. Unless the error is an unrecoverable `Oversized`, the
    /// stream stays framed and parsing can continue.
    Refused(WireError),
}

/// Incremental frame reassembly for nonblocking sockets: bytes arrive
/// in arbitrary chunks via [`FrameAssembler::push`], and
/// [`FrameAssembler::next`] yields exactly the same sequence of frames
/// and recoverable errors that [`read_frame`] would produce on the
/// equivalent blocking stream.
///
/// Oversized-but-recoverable bodies are *not* buffered: the error is
/// reported as soon as the header is seen and subsequent bytes are
/// swallowed until the declared body (plus checksum) has passed, so a
/// 64 MiB hostile frame costs no allocation. An oversized frame beyond
/// [`HARD_FRAME_CAP`] poisons the assembler — the caller must close the
/// connection, exactly as the blocking reader does.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    pos: usize,
    /// Bytes still to swallow from an oversized-but-recoverable frame.
    skip: u64,
    poisoned: bool,
}

/// Compact the parse buffer once the consumed prefix crosses this.
const ASSEMBLER_COMPACT: usize = 64 << 10;

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Feeds one received chunk into the assembler.
    pub fn push(&mut self, mut bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        if self.skip > 0 {
            let eaten = self.skip.min(bytes.len() as u64) as usize;
            self.skip -= eaten as u64;
            bytes = &bytes[eaten..];
        }
        if !bytes.is_empty() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Whether the assembler holds an incomplete frame (or is mid-way
    /// through swallowing an oversized body) — i.e. the last read ended
    /// on a partial frame.
    pub fn has_partial(&self) -> bool {
        self.skip > 0 || self.pos < self.buf.len()
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= ASSEMBLER_COMPACT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Parses the next complete frame, if the buffer holds one.
    pub fn next(&mut self, max_frame: u32) -> Option<FrameEvent> {
        if self.poisoned || self.skip > 0 {
            return None;
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return None;
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        if len == 0 {
            // A zero-length frame still carries its checksum; consume
            // both so the stream stays framed.
            if avail < 12 {
                return None;
            }
            self.pos += 12;
            self.compact();
            return Some(FrameEvent::Refused(WireError::Empty));
        }
        if len > max_frame {
            if len > HARD_FRAME_CAP {
                self.poisoned = true;
                return Some(FrameEvent::Refused(WireError::Oversized {
                    len,
                    max: max_frame,
                    recoverable: false,
                }));
            }
            // Swallow body + checksum as they arrive instead of
            // buffering them; report the refusal immediately.
            let total = len as u64 + 8;
            let have = (avail - 4) as u64;
            let eaten = total.min(have);
            self.pos += 4 + eaten as usize;
            self.skip = total - eaten;
            self.compact();
            return Some(FrameEvent::Refused(WireError::Oversized {
                len,
                max: max_frame,
                recoverable: true,
            }));
        }
        let need = 4 + len as usize + 8;
        if avail < need {
            self.compact();
            return None;
        }
        let body_start = self.pos + 4;
        let body_end = body_start + len as usize;
        let sum = u64::from_le_bytes(self.buf[body_end..body_end + 8].try_into().unwrap());
        let ok = fnv64(&self.buf[body_start..body_end]) == sum;
        let event = if ok {
            FrameEvent::Frame(self.buf[body_start..body_end].to_vec())
        } else {
            FrameEvent::Refused(WireError::BadChecksum)
        };
        self.pos += need;
        self.compact();
        Some(event)
    }
}

/// Reads and drops exactly `n` bytes.
fn discard(r: &mut impl Read, n: u64) -> std::io::Result<()> {
    let copied = std::io::copy(&mut r.take(n), &mut std::io::sink())?;
    if copied < n {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream ended while discarding an oversized frame",
        ));
    }
    Ok(())
}

// Body kind bytes. Requests are < 0x80, responses >= 0x80.
const K_HELLO: u8 = 0x01;
const K_PREDICT: u8 = 0x02;
const K_UPDATE: u8 = 0x03;
const K_STATS: u8 = 0x05;
const K_SHUTDOWN: u8 = 0x06;
const K_METRICS: u8 = 0x07;
const K_MIGRATE: u8 = 0x08;
const K_HELLO_OK: u8 = 0x81;
const K_PREDICTED: u8 = 0x82;
const K_UPDATED: u8 = 0x83;
const K_STATS_OK: u8 = 0x85;
const K_BUSY: u8 = 0x86;
const K_BYE: u8 = 0x87;
const K_METRICS_OK: u8 = 0x88;
const K_MIGRATE_OK: u8 = 0x89;
/// Body kind byte of a [`Response::Error`] reply: a frame forwarder can
/// peek at it to count errors without decoding what it only relays.
pub const K_ERROR: u8 = 0xFF;

/// A validating little-endian cursor over a frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() < n {
            return Err(format!(
                "truncated payload: wanted {n} more bytes, have {}",
                self.bytes.len()
            ));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), String> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing byte(s)", self.bytes.len()))
        }
    }
}

/// Packs one [`TraceRecord`] into its 8-byte wire form.
fn put_record(out: &mut Vec<u8>, r: &TraceRecord) {
    out.extend_from_slice(&r.start_pc.to_le_bytes());
    out.push(r.branch_bits);
    out.push(r.branch_count);
    out.push(r.len);
    out.push(
        r.call_count()
            | (u8::from(r.ends_in_return()) << 3)
            | (u8::from(r.ends_in_indirect()) << 4),
    );
}

/// Decodes and range-checks one 8-byte wire record.
fn get_record(c: &mut Cursor<'_>) -> Result<TraceRecord, String> {
    let start_pc = c.u32()?;
    let branch_bits = c.u8()?;
    let branch_count = c.u8()?;
    let len = c.u8()?;
    let flags = c.u8()?;
    if branch_count > 6 {
        return Err(format!("branch_count {branch_count} > 6"));
    }
    let mask = ((1u16 << branch_count) - 1) as u8;
    if branch_bits & !mask != 0 {
        return Err(format!(
            "branch_bits {branch_bits:#04x} has bits beyond branch_count {branch_count}"
        ));
    }
    if len == 0 || len as usize > MAX_TRACE_LEN {
        return Err(format!("trace length {len} outside 1..={MAX_TRACE_LEN}"));
    }
    if flags & !0b1_1111 != 0 {
        return Err(format!("record flags {flags:#04x} have reserved bits set"));
    }
    Ok(TraceRecord::new(
        TraceId::new(start_pc, branch_bits, branch_count),
        len,
        flags & 0b111,
        flags & 0b1000 != 0,
        flags & 0b1_0000 != 0,
    ))
}

/// Encodes a request into a frame body.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_request_into(&mut out, req);
    out
}

/// Appends the encoded body of `req` to `out` (no clearing), for
/// callers building frames in a reusable buffer.
fn encode_request_into(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Hello {
            session,
            bits,
            depth,
        } => {
            out.push(K_HELLO);
            out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&bits.to_le_bytes());
            out.extend_from_slice(&depth.to_le_bytes());
        }
        Request::Predict { session } => {
            out.push(K_PREDICT);
            out.extend_from_slice(&session.to_le_bytes());
        }
        Request::Update { session, record } => {
            out.push(K_UPDATE);
            out.extend_from_slice(&session.to_le_bytes());
            put_record(out, record);
        }
        Request::Stats { session } => {
            out.push(K_STATS);
            out.extend_from_slice(&session.to_le_bytes());
        }
        Request::Shutdown => out.push(K_SHUTDOWN),
        Request::Metrics => out.push(K_METRICS),
        Request::Migrate { session, snapshot } => {
            out.push(K_MIGRATE);
            out.extend_from_slice(&session.to_le_bytes());
            put_opt_bytes(out, snapshot.as_deref());
        }
    }
}

/// Packs an optional byte payload: presence flag, then length-prefixed
/// bytes.
fn put_opt_bytes(out: &mut Vec<u8>, bytes: Option<&[u8]>) {
    match bytes {
        None => out.push(0),
        Some(b) => {
            out.reserve(5 + b.len());
            out.push(1);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
    }
}

/// Decodes the optional byte payload written by [`put_opt_bytes`].
fn get_opt_bytes(c: &mut Cursor<'_>) -> Result<Option<Vec<u8>>, String> {
    match c.u8()? {
        0 => Ok(None),
        1 => {
            let len = c.u32()? as usize;
            Ok(Some(c.take(len)?.to_vec()))
        }
        other => Err(format!("bad optional-payload flag {other}")),
    }
}

/// Decodes a frame body into a request, validating every field.
pub fn decode_request(body: &[u8]) -> Result<Request, String> {
    let mut c = Cursor { bytes: body };
    let kind = c.u8()?;
    let req = match kind {
        K_HELLO => {
            let version = c.u32()?;
            if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
                return Err(format!(
                    "protocol version {version} (this server speaks \
                     {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
                ));
            }
            Request::Hello {
                session: c.u64()?,
                bits: c.u32()?,
                depth: c.u32()?,
            }
        }
        K_PREDICT => Request::Predict { session: c.u64()? },
        K_UPDATE => Request::Update {
            session: c.u64()?,
            record: get_record(&mut c)?,
        },
        K_STATS => Request::Stats { session: c.u64()? },
        K_SHUTDOWN => Request::Shutdown,
        K_METRICS => Request::Metrics,
        K_MIGRATE => Request::Migrate {
            session: c.u64()?,
            snapshot: get_opt_bytes(&mut c)?,
        },
        other => return Err(format!("unknown request kind {other:#04x}")),
    };
    c.done()?;
    Ok(req)
}

fn put_source(out: &mut Vec<u8>, s: Source) {
    out.push(match s {
        Source::Correlated => 0,
        Source::Secondary => 1,
        Source::Cold => 2,
    });
}

fn get_source(c: &mut Cursor<'_>) -> Result<Source, String> {
    Ok(match c.u8()? {
        0 => Source::Correlated,
        1 => Source::Secondary,
        2 => Source::Cold,
        other => return Err(format!("unknown prediction source {other}")),
    })
}

/// Encodes a response into a frame body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_response_into(&mut out, resp);
    out
}

/// Appends the encoded body of `resp` to `out` (no clearing), for
/// callers building frames in a reusable buffer.
fn encode_response_into(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::HelloOk { session, shard } => {
            out.push(K_HELLO_OK);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&shard.to_le_bytes());
        }
        Response::Predicted { target, source } => {
            out.push(K_PREDICTED);
            match target {
                None => {
                    out.push(0);
                    out.push(0);
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
                Some(Target::Full(id)) => {
                    out.push(1);
                    out.push(0);
                    out.extend_from_slice(&id.packed().to_le_bytes());
                }
                Some(Target::Hashed(h)) => {
                    out.push(1);
                    out.push(1);
                    out.extend_from_slice(&(h.0 as u64).to_le_bytes());
                }
            }
            put_source(out, *source);
        }
        Response::Updated { correct } => {
            out.push(K_UPDATED);
            out.push(u8::from(*correct));
        }
        Response::StatsOk { stats } => {
            out.push(K_STATS_OK);
            for v in stats.to_array() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Busy => out.push(K_BUSY),
        Response::Bye => out.push(K_BYE),
        Response::MigrateOk { session, snapshot } => {
            out.push(K_MIGRATE_OK);
            out.extend_from_slice(&session.to_le_bytes());
            put_opt_bytes(out, snapshot.as_deref());
        }
        Response::Metrics { json } => {
            let bytes = json.as_bytes();
            out.reserve(5 + bytes.len());
            out.push(K_METRICS_OK);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        Response::Error { code, message } => {
            out.push(K_ERROR);
            out.push(code.to_u8());
            let msg = message.as_bytes();
            out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            out.extend_from_slice(msg);
        }
    }
}

/// Decodes a frame body into a response, validating every field.
pub fn decode_response(body: &[u8]) -> Result<Response, String> {
    let mut c = Cursor { bytes: body };
    let kind = c.u8()?;
    let resp = match kind {
        K_HELLO_OK => Response::HelloOk {
            session: c.u64()?,
            shard: c.u32()?,
        },
        K_PREDICTED => {
            let has = c.u8()?;
            let tkind = c.u8()?;
            let key = c.u64()?;
            let target = match (has, tkind) {
                (0, 0) => None,
                (1, 0) => Some(Target::Full(TraceId::from_packed(key))),
                (1, 1) => {
                    if key > u16::MAX as u64 {
                        return Err(format!("hashed target {key:#x} exceeds 16 bits"));
                    }
                    Some(Target::Hashed(HashedId(key as u16)))
                }
                _ => return Err(format!("bad target encoding ({has}, {tkind})")),
            };
            Response::Predicted {
                target,
                source: get_source(&mut c)?,
            }
        }
        K_UPDATED => Response::Updated {
            correct: match c.u8()? {
                0 => false,
                1 => true,
                other => return Err(format!("bad bool {other}")),
            },
        },
        K_STATS_OK => {
            let mut a = [0u64; ntp_core::PREDICTOR_STATS_FIELDS];
            for v in a.iter_mut() {
                *v = c.u64()?;
            }
            Response::StatsOk {
                stats: PredictorStats::from_array(a),
            }
        }
        K_BUSY => Response::Busy,
        K_BYE => Response::Bye,
        K_MIGRATE_OK => Response::MigrateOk {
            session: c.u64()?,
            snapshot: get_opt_bytes(&mut c)?,
        },
        K_METRICS_OK => {
            let len = c.u32()? as usize;
            let raw = c.take(len)?;
            Response::Metrics {
                json: String::from_utf8(raw.to_vec())
                    .map_err(|_| "metrics payload is not UTF-8".to_string())?,
            }
        }
        K_ERROR => {
            let code =
                ErrorCode::from_u8(c.u8()?).ok_or_else(|| "unknown error code".to_string())?;
            let len = c.u32()? as usize;
            let msg = c.take(len)?;
            Response::Error {
                code,
                message: String::from_utf8_lossy(msg).into_owned(),
            }
        }
        other => return Err(format!("unknown response kind {other:#04x}")),
    };
    c.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: u32, bits: u8, n: u8) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, bits, n), 9, 2, true, true)
    }

    fn roundtrip_req(req: Request) {
        let body = encode_request(&req);
        assert_eq!(decode_request(&body).expect("decodes"), req, "{req:?}");
    }

    fn roundtrip_resp(resp: Response) {
        let body = encode_response(&resp);
        assert_eq!(decode_response(&body).expect("decodes"), resp, "{resp:?}");
    }

    #[test]
    fn every_request_roundtrips() {
        roundtrip_req(Request::Hello {
            session: 7,
            bits: 15,
            depth: 7,
        });
        roundtrip_req(Request::Predict { session: u64::MAX });
        roundtrip_req(Request::Update {
            session: 3,
            record: rec(0x0040_0000, 0b101, 3),
        });
        roundtrip_req(Request::Stats { session: 0 });
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Migrate {
            session: 42,
            snapshot: None,
        });
        roundtrip_req(Request::Migrate {
            session: 42,
            snapshot: Some(vec![0xAB; 1000]),
        });
        roundtrip_req(Request::Migrate {
            session: 1,
            snapshot: Some(Vec::new()),
        });
    }

    #[test]
    fn every_response_roundtrips() {
        roundtrip_resp(Response::HelloOk {
            session: 12,
            shard: 3,
        });
        roundtrip_resp(Response::Predicted {
            target: None,
            source: Source::Cold,
        });
        roundtrip_resp(Response::Predicted {
            target: Some(Target::Full(TraceId::new(0x0040_0040, 0b11, 2))),
            source: Source::Correlated,
        });
        roundtrip_resp(Response::Predicted {
            target: Some(Target::Hashed(HashedId(0xBEEF))),
            source: Source::Secondary,
        });
        roundtrip_resp(Response::Updated { correct: true });
        roundtrip_resp(Response::StatsOk {
            stats: PredictorStats {
                predictions: 10,
                correct: 7,
                alternate_correct: 1,
                from_correlated: 6,
                from_secondary: 3,
                cold: 1,
                correlated_correct: 5,
                secondary_correct: 2,
            },
        });
        roundtrip_resp(Response::Busy);
        roundtrip_resp(Response::Bye);
        roundtrip_resp(Response::MigrateOk {
            session: 42,
            snapshot: None,
        });
        roundtrip_resp(Response::MigrateOk {
            session: u64::MAX,
            snapshot: Some((0..=255u8).collect()),
        });
        roundtrip_resp(Response::Metrics {
            json: r#"{"shard0":{"counters":{"frames.predict":12}}}"#.into(),
        });
        roundtrip_resp(Response::Metrics {
            json: String::new(),
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::UnknownSession,
            message: "session 9 has not said hello".into(),
        });
    }

    #[test]
    fn metrics_reply_checksum_flip_is_rejected() {
        let body = encode_response(&Response::Metrics {
            json: r#"{"total":{"counters":{"predictions":123456}}}"#.into(),
        });
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        let back = read_frame(&mut framed.as_slice(), 1 << 20).expect("clean frame reads");
        assert_eq!(
            decode_response(&back).unwrap(),
            decode_response(&body).unwrap()
        );
        // Flip every bit of the frame — body bytes fail the checksum,
        // checksum bytes fail against the intact body.
        for byte in 4..framed.len() {
            for bit in 0..8 {
                let mut corrupt = framed.clone();
                corrupt[byte] ^= 1 << bit;
                match read_frame(&mut corrupt.as_slice(), 1 << 20) {
                    Err(WireError::BadChecksum) => {}
                    other => panic!("flip at byte {byte} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn metrics_reply_payload_is_validated() {
        // Truncated: declared length exceeds the remaining payload.
        let mut body = encode_response(&Response::Metrics { json: "{}".into() });
        body[1] = 200; // length field low byte
        assert!(decode_response(&body).unwrap_err().contains("truncated"));
        // Non-UTF-8 payload.
        let mut bad = vec![K_METRICS_OK];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(decode_response(&bad).unwrap_err().contains("UTF-8"));
        // Trailing bytes after the declared payload.
        let mut trailing = encode_response(&Response::Metrics { json: "{}".into() });
        trailing.push(0);
        assert!(decode_response(&trailing).unwrap_err().contains("trailing"));
    }

    #[test]
    fn frame_roundtrips_and_any_body_flip_is_caught() {
        let body = encode_request(&Request::Update {
            session: 5,
            record: rec(0x0040_0100, 0, 0),
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let back = read_frame(&mut buf.as_slice(), 1024).expect("clean frame reads");
        assert_eq!(back, body);

        // Flip every body bit in turn: the checksum must catch each one.
        for byte in 4..4 + body.len() {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                match read_frame(&mut corrupt.as_slice(), 1024) {
                    Err(WireError::BadChecksum) => {}
                    other => panic!("flip at byte {byte} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_frames_are_refused_but_consumed() {
        let body = vec![K_PREDICT; 300];
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        // Append a good frame after the oversized one.
        let good = encode_request(&Request::Stats { session: 1 });
        write_frame(&mut buf, &good).unwrap();

        let mut r = buf.as_slice();
        match read_frame(&mut r, 100) {
            Err(WireError::Oversized {
                len: 300,
                max: 100,
                recoverable: true,
            }) => {}
            other => panic!("{other:?}"),
        }
        // The stream resynced: the next frame reads cleanly.
        assert_eq!(read_frame(&mut r, 100).expect("resynced"), good);
    }

    #[test]
    fn zero_and_truncated_frames_are_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 64),
            Err(WireError::Empty)
        ));

        let body = encode_request(&Request::Shutdown);
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        for cut in 1..framed.len() {
            let mut r = &framed[..cut];
            assert!(
                matches!(read_frame(&mut r, 64), Err(WireError::Io(_))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        // Unknown kind, and the retired `Batch` (0x04) and `BatchDone`
        // (0x84) kinds with well-formed old payloads.
        assert!(decode_request(&[0x7F]).is_err());
        assert!(decode_response(&[0x00]).is_err());
        let mut batch = [&[0x04][..], &9u64.to_le_bytes(), &1u32.to_le_bytes()].concat();
        put_record(&mut batch, &rec(0x0040_0000, 0, 0));
        let batch_err = decode_request(&batch).unwrap_err();
        assert_eq!(batch_err, "unknown request kind 0x04");
        let done = [&[0x84][..], &1000u64.to_le_bytes(), &997u64.to_le_bytes()].concat();
        let done_err = decode_response(&done).unwrap_err();
        assert_eq!(done_err, "unknown response kind 0x84");
        // Trailing bytes.
        let mut body = encode_request(&Request::Predict { session: 1 });
        body.push(0);
        assert!(decode_request(&body).is_err());
        // Bad record: zero length.
        let mut upd = encode_request(&Request::Update {
            session: 1,
            record: rec(0x0040_0000, 0, 0),
        });
        upd[1 + 8 + 6] = 0; // len byte
        assert!(decode_request(&upd).unwrap_err().contains("length"));
        // Bad record: branch bits beyond count.
        let mut upd2 = encode_request(&Request::Update {
            session: 1,
            record: rec(0x0040_0000, 0, 0),
        });
        upd2[1 + 8 + 4] = 0b1111; // branch_bits with branch_count 0
        assert!(decode_request(&upd2).is_err());
        // Hello with a future protocol version.
        let mut hello = encode_request(&Request::Hello {
            session: 1,
            bits: 15,
            depth: 7,
        });
        hello[1] = 99;
        assert!(decode_request(&hello).unwrap_err().contains("version"));
        // Migrate: bad optional-payload flag.
        let mut mig = encode_request(&Request::Migrate {
            session: 1,
            snapshot: None,
        });
        mig[9] = 7; // presence flag after kind + session
        assert!(decode_request(&mig).unwrap_err().contains("flag"));
        // Migrate: declared payload length exceeds the body.
        let mut mig2 = encode_request(&Request::Migrate {
            session: 1,
            snapshot: Some(vec![1, 2, 3]),
        });
        mig2[10] = 200; // length field low byte
        assert!(decode_request(&mig2).unwrap_err().contains("truncated"));
    }

    #[test]
    fn version_1_hellos_still_decode() {
        // The v2 extension is additive: a v1 client's Hello decodes on
        // this server.
        let mut body = encode_request(&Request::Hello {
            session: 3,
            bits: 15,
            depth: 7,
        });
        body[1..5].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_request(&body),
            Ok(Request::Hello { session: 3, .. })
        ));
        // Version 0 is refused.
        body[1..5].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_request(&body).unwrap_err().contains("version"));
    }

    #[test]
    fn frame_helpers_match_write_frame_bytes() {
        let req = Request::Update {
            session: 5,
            record: rec(0x0040_0100, 0b1, 1),
        };
        let mut blocking = Vec::new();
        write_frame(&mut blocking, &encode_request(&req)).unwrap();
        let mut scratch = vec![0xAA; 17]; // stale garbage must be cleared
        frame_request(&mut scratch, &req);
        assert_eq!(scratch, blocking);

        let resp = Response::Updated { correct: true };
        let mut expect = Vec::new();
        write_frame(&mut expect, &encode_response(&resp)).unwrap();
        let mut out = Vec::new();
        append_response_frame(&mut out, &resp);
        append_response_frame(&mut out, &resp);
        assert_eq!(out.len(), expect.len() * 2, "appends, never clears");
        assert_eq!(&out[..expect.len()], expect.as_slice());
        assert_eq!(&out[expect.len()..], expect.as_slice());
    }

    /// Every segmentation of a mixed stream (good frames, an empty
    /// frame, a checksum flip, an oversized body) must yield exactly
    /// the blocking reader's event sequence.
    #[test]
    fn assembler_matches_blocking_reader_under_any_segmentation() {
        let max_frame = 256;
        let mut stream = Vec::new();
        let good1 = encode_request(&Request::Stats { session: 1 });
        write_frame(&mut stream, &good1).unwrap();
        // Zero-length frame.
        stream.extend_from_slice(&0u32.to_le_bytes());
        stream.extend_from_slice(&0u64.to_le_bytes());
        // Checksum flip.
        let mut bad = Vec::new();
        write_frame(&mut bad, &good1).unwrap();
        *bad.last_mut().unwrap() ^= 1;
        stream.extend_from_slice(&bad);
        // Oversized (recoverable) frame, then a good one right after.
        write_frame(&mut stream, &vec![K_PREDICT; 300]).unwrap();
        let good2 = encode_request(&Request::Predict { session: 9 });
        write_frame(&mut stream, &good2).unwrap();

        for chunk in [1, 2, 3, 5, 7, 11, stream.len()] {
            let mut asm = FrameAssembler::new();
            let mut events = Vec::new();
            for piece in stream.chunks(chunk) {
                asm.push(piece);
                while let Some(ev) = asm.next(max_frame) {
                    events.push(ev);
                }
            }
            assert!(!asm.has_partial(), "chunk {chunk}: stream fully consumed");
            assert_eq!(events.len(), 5, "chunk {chunk}: {events:?}");
            assert!(matches!(&events[0], FrameEvent::Frame(b) if *b == good1));
            assert!(matches!(events[1], FrameEvent::Refused(WireError::Empty)));
            assert!(matches!(
                events[2],
                FrameEvent::Refused(WireError::BadChecksum)
            ));
            assert!(matches!(
                events[3],
                FrameEvent::Refused(WireError::Oversized {
                    len: 300,
                    recoverable: true,
                    ..
                })
            ));
            assert!(matches!(&events[4], FrameEvent::Frame(b) if *b == good2));
        }
    }

    #[test]
    fn assembler_reports_partial_frames_and_skips_large_bodies_unbuffered() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &encode_request(&Request::Stats { session: 3 })).unwrap();

        let mut asm = FrameAssembler::new();
        for &b in &framed[..framed.len() - 1] {
            asm.push(&[b]);
            assert!(asm.next(64).is_none(), "incomplete frame yields nothing");
            assert!(asm.has_partial());
        }
        asm.push(&framed[framed.len() - 1..]);
        assert!(matches!(asm.next(64), Some(FrameEvent::Frame(_))));
        assert!(!asm.has_partial());

        // Oversized body: refused at the header, then swallowed without
        // growing the parse buffer.
        let mut big = Vec::new();
        write_frame(&mut big, &vec![K_PREDICT; 4096]).unwrap();
        asm.push(&big[..6]);
        assert!(matches!(
            asm.next(64),
            Some(FrameEvent::Refused(WireError::Oversized {
                recoverable: true,
                ..
            }))
        ));
        assert!(asm.has_partial(), "mid-skip counts as partial");
        asm.push(&big[6..]);
        assert!(asm.next(64).is_none());
        assert!(!asm.has_partial(), "skip complete");
        assert!(asm.buf.is_empty(), "oversized body was never buffered");

        // A hard-cap violation poisons the assembler.
        let mut huge = FrameAssembler::new();
        huge.push(&(HARD_FRAME_CAP + 1).to_le_bytes());
        assert!(matches!(
            huge.next(64),
            Some(FrameEvent::Refused(WireError::Oversized {
                recoverable: false,
                ..
            }))
        ));
        huge.push(&framed);
        assert!(huge.next(64).is_none(), "poisoned assembler stays silent");
    }
}
