//! The `.nts` binary format: predictor state snapshots.
//!
//! A snapshot persists the complete learned state of one or more
//! predictor sessions — tables, bitmaps, path history, return history
//! stack, aliasing counters and the accumulated [`PredictorStats`] — so a
//! serving process can warm-start instead of relearning from scratch.
//!
//! ```text
//! header   magic "NTPS" | snapshot version u32 | fingerprint hash u64
//!          | fingerprint length u32 | fingerprint string (UTF-8)
//!          | session count u32
//! sessions one `SESS` section per session, each:
//!          tag [u8;4] | payload length u64 | payload
//!          | FNV-1a 64 checksum over (tag ‖ length ‖ payload)
//! trailer  end of file, exactly (trailing bytes are an error)
//! ```
//!
//! The fingerprint string canonicalizes the snapshot version, the session
//! count, and every session's full predictor configuration (see
//! [`config_canon`]); its FNV hash is stored alongside so header
//! corruption is caught even before the string is parsed. The same codec
//! discipline as the `.ntc` trace cache applies: all integers are
//! little-endian, every section is length-framed and checksummed, the
//! reader validates everything, and any mismatch is a hard
//! [`SnapshotError`] — a corrupt, truncated, version-skewed or
//! config-mismatched snapshot must make the caller fall back to a cold
//! start, never mis-load. Writes go through a same-directory temporary
//! file plus rename, so readers never observe a torn snapshot.

use crate::format::{
    decode_str, malformed, put_str, put_u32, put_u64, section, Cursor, SectionWriter,
};
use crate::TraceFileError;
use ntp_core::{
    ConfigError, CounterSpec, Dolc, NextTracePredictor, PredictorConfig, PredictorState,
    PredictorStats, RhsConfig, StateError, StoredTarget, PREDICTOR_STATS_FIELDS,
};
use ntp_hash::fnv64;
use std::io::Write;
use std::path::Path;

/// File magic: the first four bytes of every `.nts` file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"NTPS";

/// On-disk snapshot format version. Bump on any layout change; readers
/// reject every other version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// File extension used for predictor state snapshots.
pub const SNAPSHOT_EXT: &str = "nts";

/// Why a `.nts` snapshot was refused or could not be applied. Every
/// variant is a *hard* error: the caller must fall back to a cold start,
/// never partially load.
#[derive(Debug)]
pub enum SnapshotError {
    /// A codec-level failure: bad magic/version, truncation, checksum or
    /// fingerprint mismatch, malformed payload (shared with the `.ntc`
    /// reader).
    File(TraceFileError),
    /// The embedded predictor configuration is invalid for this build.
    Config(ConfigError),
    /// The decoded state does not fit the embedded configuration.
    State(StateError),
    /// The snapshot was taken under a different predictor configuration
    /// than the one it is being restored into.
    ConfigMismatch {
        /// Canonical configuration the restoring predictor uses.
        expected: String,
        /// Canonical configuration stored in the snapshot.
        found: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::File(e) => write!(f, "snapshot file error: {e}"),
            SnapshotError::Config(e) => write!(f, "snapshot carries invalid config: {e}"),
            SnapshotError::State(e) => write!(f, "snapshot state rejected: {e}"),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config mismatch: predictor uses `{expected}`, snapshot has `{found}`"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<TraceFileError> for SnapshotError {
    fn from(e: TraceFileError) -> SnapshotError {
        SnapshotError::File(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::File(TraceFileError::Io(e))
    }
}

/// One persisted predictor session: identity, configuration, accumulated
/// statistics and the complete learned state.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSnapshot {
    /// Session identifier (0 for single-predictor offline snapshots; the
    /// wire session id for served sessions).
    pub session_id: u64,
    /// The configuration the state was trained under.
    pub config: PredictorConfig,
    /// Statistics accumulated up to the snapshot point.
    pub stats: PredictorStats,
    /// The complete learned predictor state.
    pub state: PredictorState,
}

impl SessionSnapshot {
    /// Captures a session from a live predictor and its statistics.
    pub fn capture(
        session_id: u64,
        predictor: &NextTracePredictor,
        stats: &PredictorStats,
    ) -> SessionSnapshot {
        SessionSnapshot {
            session_id,
            config: *predictor.config(),
            stats: stats.clone(),
            state: predictor.save_state(),
        }
    }

    /// Builds a fresh predictor from the embedded configuration and
    /// restores the saved state into it.
    pub fn instantiate(&self) -> Result<NextTracePredictor, SnapshotError> {
        let mut p = NextTracePredictor::try_new(self.config).map_err(SnapshotError::Config)?;
        p.restore_state(&self.state).map_err(SnapshotError::State)?;
        Ok(p)
    }

    /// Restores the saved state into an existing predictor, refusing if
    /// the predictor's configuration differs from the snapshot's. On
    /// refusal the predictor is left untouched.
    pub fn restore_into(&self, predictor: &mut NextTracePredictor) -> Result<(), SnapshotError> {
        if *predictor.config() != self.config {
            return Err(SnapshotError::ConfigMismatch {
                expected: config_canon(predictor.config()),
                found: config_canon(&self.config),
            });
        }
        predictor
            .restore_state(&self.state)
            .map_err(SnapshotError::State)
    }
}

/// A decoded `.nts` file: one or more sessions (offline snapshots hold
/// one; per-shard serving snapshots hold every session the shard owned).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotArtifact {
    /// The persisted sessions, in file order (sorted by session id when
    /// written by [`encode_snapshot`]).
    pub sessions: Vec<SessionSnapshot>,
}

/// Canonical one-line rendering of a predictor configuration — the unit
/// the snapshot fingerprint is built from. Every field participates, so
/// two configurations canonicalize identically iff they are equal.
pub fn config_canon(cfg: &PredictorConfig) -> String {
    let ctr = |c: &CounterSpec| format!("{}+{}-{}", c.bits, c.inc, c.dec);
    format!(
        "idx{};dolc{}-{}-{}-{};tag{};pc{};sidx{};sc{};rhs{};alt{};tgt{}",
        cfg.index_bits,
        cfg.dolc.depth,
        cfg.dolc.older,
        cfg.dolc.last,
        cfg.dolc.current,
        cfg.tag_bits,
        ctr(&cfg.primary_counter),
        cfg.secondary_index_bits,
        ctr(&cfg.secondary_counter),
        cfg.rhs
            .map_or_else(|| "off".to_string(), |r| r.max_depth.to_string()),
        u8::from(cfg.alternate),
        match cfg.stored_target {
            StoredTarget::Full => "full",
            StoredTarget::Hashed => "hash",
        },
    )
}

/// The whole-file fingerprint string: snapshot version, session count,
/// and each session's id plus canonical configuration.
fn snapshot_canon(sessions: &[SessionSnapshot]) -> String {
    let mut canon = format!("nts-v{};sessions={}", SNAPSHOT_VERSION, sessions.len());
    for s in sessions {
        canon.push_str(&format!(";{}={}", s.session_id, config_canon(&s.config)));
    }
    canon
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16s(buf: &mut Vec<u8>, values: &[u16]) {
    for &v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u64s(buf: &mut Vec<u8>, values: &[u64]) {
    for &v in values {
        put_u64(buf, v);
    }
}

fn encode_config(buf: &mut Vec<u8>, cfg: &PredictorConfig) {
    put_u32(buf, cfg.index_bits);
    put_u32(buf, cfg.dolc.depth as u32);
    put_u32(buf, cfg.dolc.older);
    put_u32(buf, cfg.dolc.last);
    put_u32(buf, cfg.dolc.current);
    put_u32(buf, cfg.tag_bits);
    for c in [&cfg.primary_counter, &cfg.secondary_counter] {
        buf.push(c.bits);
        buf.push(c.inc);
        buf.push(c.dec);
    }
    put_u32(buf, cfg.secondary_index_bits);
    put_u32(buf, cfg.rhs.map_or(0, |r| r.max_depth as u32));
    buf.push(u8::from(cfg.alternate));
    buf.push(match cfg.stored_target {
        StoredTarget::Full => 0,
        StoredTarget::Hashed => 1,
    });
}

fn encode_session(s: &SessionSnapshot) -> Vec<u8> {
    let st = &s.state;
    let mut p = Vec::with_capacity(
        96 + st.corr_tags.len() * 19 + st.sec_targets.len() * 9 + st.history.len() * 2,
    );
    put_u64(&mut p, s.session_id);
    encode_config(&mut p, &s.config);
    put_u64s(&mut p, &s.stats.to_array());
    put_u64(&mut p, st.corr_tags.len() as u64);
    put_u16s(&mut p, &st.corr_tags);
    p.extend_from_slice(&st.corr_ctrs);
    put_u64s(&mut p, &st.corr_targets);
    put_u64s(&mut p, &st.corr_alts);
    put_u64s(&mut p, &st.corr_valid);
    put_u64s(&mut p, &st.corr_has_alt);
    put_u64(&mut p, st.sec_targets.len() as u64);
    put_u64s(&mut p, &st.sec_targets);
    p.extend_from_slice(&st.sec_ctrs);
    put_u64s(&mut p, &st.sec_valid);
    put_u32(&mut p, st.history.len() as u32);
    put_u16s(&mut p, &st.history);
    put_u32(&mut p, st.rhs.len() as u32);
    for saved in &st.rhs {
        p.push(saved.len() as u8);
        put_u16s(&mut p, saved);
    }
    put_u64s(&mut p, &st.aliasing);
    p
}

/// Streams one snapshot artifact into `sink`, returning the bytes
/// written. Sessions are written in ascending session-id order so the
/// encoding is deterministic regardless of capture order.
///
/// # Errors
///
/// Propagates sink I/O errors.
pub fn write_snapshot_to<W: Write>(sink: W, artifact: &SnapshotArtifact) -> std::io::Result<u64> {
    let mut sessions: Vec<&SessionSnapshot> = artifact.sessions.iter().collect();
    sessions.sort_by_key(|s| s.session_id);
    let ordered: Vec<SessionSnapshot> = sessions.into_iter().cloned().collect();
    let canon = snapshot_canon(&ordered);

    let mut w = SectionWriter::new(sink);
    let mut header = Vec::with_capacity(24 + canon.len());
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut header, SNAPSHOT_VERSION);
    put_u64(&mut header, fnv64(canon.as_bytes()));
    put_str(&mut header, &canon);
    put_u32(&mut header, ordered.len() as u32);
    w.raw(&header)?;
    for s in &ordered {
        w.section(b"SESS", &encode_session(s))?;
    }
    Ok(w.bytes_written)
}

/// Encodes one snapshot artifact to an in-memory buffer.
pub fn encode_snapshot(artifact: &SnapshotArtifact) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot_to(&mut buf, artifact).expect("Vec sink cannot fail");
    buf
}

/// Atomically writes one snapshot to `path` (same-directory temporary
/// file + rename, like the `.ntc` writer). Returns the bytes written.
///
/// # Errors
///
/// Propagates filesystem errors (the temporary file is cleaned up).
pub fn write_snapshot_file(path: &Path, artifact: &SnapshotArtifact) -> std::io::Result<u64> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut writer = std::io::BufWriter::new(file);
        let n = write_snapshot_to(&mut writer, artifact)?;
        writer.flush()?;
        std::fs::rename(&tmp, path)?;
        Ok(n)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------------
// Single-session wire framing
// ---------------------------------------------------------------------------

/// Magic prefix of a single-session wire snapshot (the `Migrate` frame
/// payload): "NTSW" = NTp Session on the Wire.
pub const SESSION_WIRE_MAGIC: [u8; 4] = *b"NTSW";

/// Encodes one session as a self-validating wire payload, the unit a
/// serving cluster ships when migrating a session between nodes:
///
/// ```text
/// magic "NTSW" | snapshot version u32 | payload length u32
/// | payload (the `.nts` session encoding) | FNV-1a 64 checksum of payload
/// ```
///
/// The framing reuses [`SNAPSHOT_VERSION`], so a session can never move
/// between builds that would disagree about the `.nts` layout, and the
/// checksum makes the payload self-validating even though the carrying
/// wire frame is already checksummed (defense in depth: the payload may
/// be relayed, buffered or replayed by nodes that never decode it).
pub fn encode_session_wire(s: &SessionSnapshot) -> Vec<u8> {
    let payload = encode_session(s);
    let mut out = Vec::with_capacity(20 + payload.len());
    out.extend_from_slice(&SESSION_WIRE_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u32(&mut out, payload.len() as u32);
    let sum = fnv64(&payload);
    out.extend_from_slice(&payload);
    put_u64(&mut out, sum);
    out
}

/// Decodes and fully validates a [`encode_session_wire`] payload: magic,
/// version, declared length, checksum, then the complete per-session
/// validation of the `.nts` codec (configuration validity, table
/// geometry, history/RHS bounds).
///
/// # Errors
///
/// Any mismatch is a hard [`SnapshotError`]; a corrupted or
/// version-skewed payload can never half-install.
pub fn decode_session_wire(bytes: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
    let mut c = Cursor::new(bytes);
    if c.take(4, "session wire magic")? != SESSION_WIRE_MAGIC {
        return Err(TraceFileError::BadMagic.into());
    }
    let version = c.u32("session wire version")?;
    if version != SNAPSHOT_VERSION {
        return Err(TraceFileError::BadVersion { found: version }.into());
    }
    let len = c.u32("session wire length")? as usize;
    let payload = c.take(len, "session wire payload")?;
    let sum = c.u64("session wire checksum")?;
    if c.remaining() != 0 {
        return Err(TraceFileError::TrailingBytes {
            extra: c.remaining(),
        }
        .into());
    }
    if fnv64(payload) != sum {
        return Err(malformed("session wire", "payload checksum mismatch".to_string()).into());
    }
    decode_session(payload)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn decode_config(c: &mut Cursor<'_>) -> Result<PredictorConfig, SnapshotError> {
    let index_bits = c.u32("config.index_bits")?;
    let depth = c.u32("config.dolc.depth")? as usize;
    let older = c.u32("config.dolc.older")?;
    let last = c.u32("config.dolc.last")?;
    let current = c.u32("config.dolc.current")?;
    let tag_bits = c.u32("config.tag_bits")?;
    let mut ctrs = [CounterSpec {
        bits: 0,
        inc: 0,
        dec: 0,
    }; 2];
    for spec in &mut ctrs {
        spec.bits = c.u8("config.counter.bits")?;
        spec.inc = c.u8("config.counter.inc")?;
        spec.dec = c.u8("config.counter.dec")?;
    }
    let secondary_index_bits = c.u32("config.secondary_index_bits")?;
    let rhs_depth = c.u32("config.rhs")?;
    let alternate = match c.u8("config.alternate")? {
        0 => false,
        1 => true,
        v => return Err(malformed("session", format!("alternate flag {v}")).into()),
    };
    let stored_target = match c.u8("config.stored_target")? {
        0 => StoredTarget::Full,
        1 => StoredTarget::Hashed,
        v => return Err(malformed("session", format!("stored_target {v}")).into()),
    };
    let cfg = PredictorConfig {
        index_bits,
        dolc: Dolc {
            depth,
            older,
            last,
            current,
        },
        tag_bits,
        primary_counter: ctrs[0],
        secondary_index_bits,
        secondary_counter: ctrs[1],
        rhs: (rhs_depth != 0).then_some(RhsConfig {
            max_depth: rhs_depth as usize,
        }),
        alternate,
        stored_target,
    };
    cfg.try_validate().map_err(SnapshotError::Config)?;
    Ok(cfg)
}

fn take_u16s(c: &mut Cursor<'_>, n: usize, what: &'static str) -> Result<Vec<u16>, TraceFileError> {
    let bytes = c.take(n * 2, what)?;
    Ok(bytes
        .chunks_exact(2)
        .map(|b| u16::from_le_bytes([b[0], b[1]]))
        .collect())
}

fn take_u64s(c: &mut Cursor<'_>, n: usize, what: &'static str) -> Result<Vec<u64>, TraceFileError> {
    let bytes = c.take(n * 8, what)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect())
}

fn decode_session(payload: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
    let mut c = Cursor::new(payload);
    let session_id = c.u64("session id")?;
    let config = decode_config(&mut c)?;

    let mut stats = [0u64; PREDICTOR_STATS_FIELDS];
    for v in &mut stats {
        *v = c.u64("session stats")?;
    }

    let corr_n = c.u64("corr entry count")?;
    let corr_n = usize::try_from(corr_n)
        .ok()
        .filter(|&n| n == config.corr_entries())
        .ok_or_else(|| {
            malformed(
                "session",
                format!(
                    "corr table has {corr_n} entries, config requires {}",
                    config.corr_entries()
                ),
            )
        })?;
    let corr_words = corr_n.div_ceil(64);
    let corr_tags = take_u16s(&mut c, corr_n, "corr tags")?;
    let corr_ctrs = c.take(corr_n, "corr counters")?.to_vec();
    let corr_targets = take_u64s(&mut c, corr_n, "corr targets")?;
    let corr_alts = take_u64s(&mut c, corr_n, "corr alternates")?;
    let corr_valid = take_u64s(&mut c, corr_words, "corr valid bitmap")?;
    let corr_has_alt = take_u64s(&mut c, corr_words, "corr has-alt bitmap")?;

    let sec_n = c.u64("sec entry count")?;
    let sec_n = usize::try_from(sec_n)
        .ok()
        .filter(|&n| n == config.secondary_entries())
        .ok_or_else(|| {
            malformed(
                "session",
                format!(
                    "secondary table has {sec_n} entries, config requires {}",
                    config.secondary_entries()
                ),
            )
        })?;
    let sec_targets = take_u64s(&mut c, sec_n, "sec targets")?;
    let sec_ctrs = c.take(sec_n, "sec counters")?.to_vec();
    let sec_valid = take_u64s(&mut c, sec_n.div_ceil(64), "sec valid bitmap")?;

    let history_len = c.u32("history length")? as usize;
    if history_len > config.history_capacity() {
        return Err(malformed(
            "session",
            format!(
                "history of {history_len} ids exceeds capacity {}",
                config.history_capacity()
            ),
        )
        .into());
    }
    let history = take_u16s(&mut c, history_len, "history")?;

    let rhs_depth = c.u32("rhs depth")? as usize;
    let rhs_cap = config.rhs.map_or(0, |r| r.max_depth);
    if rhs_depth > rhs_cap {
        return Err(malformed(
            "session",
            format!("rhs depth {rhs_depth} exceeds configured {rhs_cap}"),
        )
        .into());
    }
    let mut rhs = Vec::with_capacity(rhs_depth);
    for _ in 0..rhs_depth {
        let len = c.u8("rhs entry length")? as usize;
        if len > ntp_core::RHS_SNAPSHOT_CAP {
            return Err(malformed("session", format!("rhs entry of {len} ids")).into());
        }
        rhs.push(take_u16s(&mut c, len, "rhs entry")?);
    }

    let mut aliasing = [0u64; 3];
    for v in &mut aliasing {
        *v = c.u64("aliasing counters")?;
    }
    if c.remaining() != 0 {
        return Err(malformed("session", format!("{} excess bytes", c.remaining())).into());
    }
    Ok(SessionSnapshot {
        session_id,
        config,
        stats: PredictorStats::from_array(stats),
        state: PredictorState {
            corr_tags,
            corr_ctrs,
            corr_targets,
            corr_alts,
            corr_valid,
            corr_has_alt,
            sec_targets,
            sec_ctrs,
            sec_valid,
            history,
            rhs,
            aliasing,
        },
    })
}

/// Decodes a complete in-memory `.nts` image, validating magic, version,
/// fingerprint, every section checksum, and each session's configuration
/// and geometry.
///
/// # Errors
///
/// Any validation failure (see [`SnapshotError`]). On error nothing is
/// returned — partial loads are impossible by construction. Note that the
/// decoded *state values* are additionally validated against the
/// configuration when applied ([`SessionSnapshot::instantiate`] /
/// [`SessionSnapshot::restore_into`]).
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotArtifact, SnapshotError> {
    let mut c = Cursor::new(bytes);
    if c.take(4, "magic")? != SNAPSHOT_MAGIC {
        return Err(TraceFileError::BadMagic.into());
    }
    let version = c.u32("snapshot version")?;
    if version != SNAPSHOT_VERSION {
        return Err(TraceFileError::BadVersion { found: version }.into());
    }
    let stored_hash = c.u64("fingerprint hash")?;
    let canon = decode_str(&mut c, "header", "fingerprint string")?;
    if fnv64(canon.as_bytes()) != stored_hash {
        return Err(TraceFileError::CorruptHeader.into());
    }
    let count = c.u32("session count")? as usize;
    let mut sessions = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        sessions.push(decode_session(section(&mut c, b"SESS", "session")?)?);
    }
    if c.remaining() != 0 {
        return Err(TraceFileError::TrailingBytes {
            extra: c.remaining(),
        }
        .into());
    }
    // The header fingerprint must agree with what the sessions actually
    // contain (it was hashed-checked above, so this catches a header that
    // was transplanted onto a different body).
    let recomputed = snapshot_canon(&sessions);
    if recomputed != canon {
        return Err(TraceFileError::FingerprintMismatch {
            expected: recomputed,
            found: canon,
        }
        .into());
    }
    Ok(SnapshotArtifact { sessions })
}

/// Reads and validates one `.nts` file, returning the artifact and the
/// file size in bytes.
///
/// # Errors
///
/// I/O failures plus every validation error of [`decode_snapshot`].
pub fn read_snapshot_file(path: &Path) -> Result<(SnapshotArtifact, u64), SnapshotError> {
    let bytes = std::fs::read(path).map_err(TraceFileError::Io)?;
    let artifact = decode_snapshot(&bytes)?;
    Ok((artifact, bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_core::{evaluate, TracePredictor};
    use ntp_trace::{TraceId, TraceRecord};

    fn stream(seed: u64, len: usize) -> Vec<TraceRecord> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (s >> 33) as u32;
                let calls = (r & 3) as u8 % 3;
                let ret = r & 4 != 0;
                TraceRecord::new(
                    TraceId::new(0x0040_0000 + (r % 151) * 0x40, (r >> 8) as u8 & 0b11, 2),
                    8,
                    calls,
                    ret,
                    ret,
                )
            })
            .collect()
    }

    fn trained(cfg: PredictorConfig, seed: u64) -> (NextTracePredictor, PredictorStats) {
        let mut p = NextTracePredictor::new(cfg);
        let stats = evaluate(&mut p, &stream(seed, 600));
        (p, stats)
    }

    fn sample() -> SnapshotArtifact {
        let (p0, s0) = trained(PredictorConfig::paper(12, 3), 0xA5);
        let (p1, s1) = trained(
            PredictorConfig {
                alternate: true,
                stored_target: StoredTarget::Hashed,
                ..PredictorConfig::paper(12, 1)
            },
            0xB7,
        );
        SnapshotArtifact {
            sessions: vec![
                SessionSnapshot::capture(7, &p0, &s0),
                SessionSnapshot::capture(3, &p1, &s1),
            ],
        }
    }

    #[test]
    fn round_trips_exactly_and_sorts_sessions() {
        let a = sample();
        let bytes = encode_snapshot(&a);
        let back = decode_snapshot(&bytes).expect("valid image decodes");
        assert_eq!(back.sessions.len(), 2);
        assert_eq!(back.sessions[0].session_id, 3, "sorted by session id");
        assert_eq!(back.sessions[1], a.sessions[0]);
        assert_eq!(back.sessions[0], a.sessions[1]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = sample();
        assert_eq!(encode_snapshot(&a), encode_snapshot(&a));
    }

    #[test]
    fn instantiated_session_continues_identically() {
        let cfg = PredictorConfig::paper(12, 3);
        let (mut p, stats) = trained(cfg, 0xC3);
        let snap = SessionSnapshot::capture(0, &p, &stats);
        let bytes = encode_snapshot(&SnapshotArtifact {
            sessions: vec![snap],
        });
        let back = decode_snapshot(&bytes).unwrap();
        let mut q = back.sessions[0].instantiate().expect("state applies");
        assert_eq!(back.sessions[0].stats, stats);
        for r in stream(0xD9, 300) {
            assert_eq!(q.predict(), p.predict());
            p.update(&r);
            q.update(&r);
        }
        assert_eq!(q.aliasing(), p.aliasing());
    }

    #[test]
    fn restore_into_refuses_config_mismatch() {
        let (p, stats) = trained(PredictorConfig::paper(12, 3), 0xE1);
        let snap = SessionSnapshot::capture(0, &p, &stats);
        let mut other = NextTracePredictor::new(PredictorConfig::paper(12, 2));
        let before = other.save_state();
        let err = snap.restore_into(&mut other).unwrap_err();
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{err}");
        assert_eq!(other.save_state(), before, "refusal leaves it untouched");
    }

    #[test]
    fn rejects_version_skew_and_bad_magic() {
        let bytes = encode_snapshot(&sample());
        let mut skewed = bytes.clone();
        skewed[4] ^= 1;
        assert!(matches!(
            decode_snapshot(&skewed),
            Err(SnapshotError::File(TraceFileError::BadVersion { .. }))
        ));
        let mut magicless = bytes;
        magicless[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&magicless),
            Err(SnapshotError::File(TraceFileError::BadMagic))
        ));
    }

    #[test]
    fn rejects_trailing_bytes_and_truncation() {
        let mut bytes = encode_snapshot(&sample());
        let truncated = &bytes[..bytes.len() - 3];
        assert!(decode_snapshot(truncated).is_err());
        bytes.push(0);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::File(TraceFileError::TrailingBytes {
                extra: 1
            }))
        ));
    }

    #[test]
    fn config_canon_covers_every_field() {
        let base = PredictorConfig::paper(12, 3);
        let canon = config_canon(&base);
        let variants = [
            PredictorConfig {
                index_bits: 15,
                dolc: Dolc::standard(3, 15),
                ..base
            },
            PredictorConfig {
                tag_bits: 8,
                ..base
            },
            PredictorConfig {
                primary_counter: CounterSpec::TWO_BIT,
                ..base
            },
            PredictorConfig {
                secondary_index_bits: 8,
                ..base
            },
            PredictorConfig {
                secondary_counter: CounterSpec::TWO_BIT,
                ..base
            },
            PredictorConfig { rhs: None, ..base },
            PredictorConfig {
                rhs: Some(RhsConfig { max_depth: 4 }),
                ..base
            },
            PredictorConfig {
                alternate: true,
                ..base
            },
            PredictorConfig {
                stored_target: StoredTarget::Hashed,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(
                config_canon(&v),
                canon,
                "canon must change when {v:?} differs"
            );
        }
    }

    #[test]
    fn session_wire_round_trips_and_rejects_corruption() {
        let (p, stats) = trained(PredictorConfig::paper(12, 3), 0xF2);
        let snap = SessionSnapshot::capture(9, &p, &stats);
        let bytes = encode_session_wire(&snap);
        let back = decode_session_wire(&bytes).expect("clean payload decodes");
        assert_eq!(back, snap);
        assert_eq!(bytes, encode_session_wire(&snap), "deterministic");

        // The exhaustive sweeps run over a 64-entry session: each flip
        // re-checksums the whole image, so a paper-sized one makes the
        // sweep quadratic, and the codec paths are the same.
        let tiny = PredictorConfig {
            index_bits: 6,
            dolc: ntp_core::Dolc {
                depth: 2,
                older: 3,
                last: 4,
                current: 5,
            },
            secondary_index_bits: 6,
            ..PredictorConfig::paper(12, 2)
        };
        let (p, stats) = trained(tiny, 0xF2);
        let bytes = encode_session_wire(&SessionSnapshot::capture(9, &p, &stats));

        // Every single-bit flip anywhere in the image is refused: magic,
        // version and length flips fail their own checks, payload flips
        // fail the checksum (or a downstream validation), checksum flips
        // fail against the intact payload.
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1;
            assert!(
                decode_session_wire(&corrupt).is_err(),
                "flip at byte {byte} must be refused"
            );
        }
        // Truncation at any point is refused.
        for cut in 0..bytes.len() {
            assert!(decode_session_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes are refused.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            decode_session_wire(&long),
            Err(SnapshotError::File(TraceFileError::TrailingBytes { .. }))
        ));
        // Version skew is refused before the payload is touched.
        let mut skewed = bytes;
        skewed[4] ^= 0x40;
        assert!(matches!(
            decode_session_wire(&skewed),
            Err(SnapshotError::File(TraceFileError::BadVersion { .. }))
        ));
    }

    #[test]
    fn session_wire_instantiates_in_lockstep() {
        let cfg = PredictorConfig::paper(12, 2);
        let (mut p, stats) = trained(cfg, 0x1234);
        let snap = SessionSnapshot::capture(5, &p, &stats);
        let back = decode_session_wire(&encode_session_wire(&snap)).unwrap();
        assert_eq!(back.stats, stats);
        let mut q = back.instantiate().expect("state applies");
        for r in stream(0x5678, 200) {
            assert_eq!(q.predict(), p.predict());
            p.update(&r);
            q.update(&r);
        }
    }

    #[test]
    fn file_round_trip_is_atomic_and_validating() {
        let dir = std::env::temp_dir().join(format!("nts-fmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard0.nts");
        let a = sample();
        let written = write_snapshot_file(&path, &a).expect("write succeeds");
        let (back, read) = read_snapshot_file(&path).expect("read succeeds");
        assert_eq!(written, read);
        assert_eq!(back.sessions.len(), a.sessions.len());
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path() != path)
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
