//! Write-ahead log for the durable ingest path (`.wal`).
//!
//! Every accepted ingest batch is appended to the WAL — as the
//! *repaired* tuples, post-imputation — and fsynced **before** the
//! client sees a success response. Replay therefore never re-runs
//! imputation: recovery feeds each record's tuples through the same
//! deterministic `Engine::commit_tuples` the live server used, so a
//! recovered engine is bit-identical to one that never crashed (the
//! property `tests/wal_recovery.rs` asserts across the fault matrix).
//!
//! # Format (version 1)
//!
//! ```text
//! header
//!   magic        b"RNWL"             4 bytes
//!   version      u32 LE              = 1
//!   schema fp    u64 LE              must match the model artifact
//!   base seq     u64 LE              committed_seq of the snapshot this
//!                                    log was opened (or reset) against
//! frames, each:
//!   payload len  u32 LE
//!   seq          u64 LE              strictly increasing from base+1
//!   payload      u32 rows; rows × arity values in the artifact codec
//!   crc          u32 LE              CRC-32 over len ‖ seq ‖ payload
//! ```
//!
//! # Torn tails
//!
//! A crash can leave a partial frame at the end of the log (the frame
//! was being written when the machine died — by the fsync-before-ack
//! rule, no client was ever told it succeeded). [`Wal::open`] scans
//! frames in order and, at the first frame that is incomplete, fails
//! its CRC, or breaks the sequence, truncates the file back to the last
//! good frame boundary and carries on. Truncation is bounded to the
//! tail: [`WalError::Corrupt`] leaves the file untouched for a frame
//! that fails its CRC although its length leads to a complete, CRC-valid
//! frame with the next seq (mid-log damage with acknowledged batches
//! behind it — a torn append is always the last frame, and a zero-filled
//! tail stays a torn tail), and for a CRC-*valid* frame whose payload does
//! not decode (a foreign or buggy writer, not a torn write).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use renuver_data::Tuple;

use crate::artifact::{crc32, ArtifactError};
use crate::codec::{Cursor, Writer};
use crate::fault;

/// The WAL file magic, `b"RNWL"`.
pub const WAL_MAGIC: [u8; 4] = *b"RNWL";
/// The WAL format version this build writes and the only one it reads.
pub const WAL_VERSION: u32 = 1;
/// Header size in bytes: magic + version + schema fp + base seq.
pub const WAL_HEADER_BYTES: u64 = 4 + 4 + 8 + 8;

/// Why a WAL failed to open or append.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file exists but does not start with [`WAL_MAGIC`].
    BadMagic,
    /// The header's format version is not [`WAL_VERSION`].
    UnsupportedVersion(u32),
    /// The header's schema fingerprint does not match the model's.
    SchemaMismatch { expected: u64, found: u64 },
    /// The WAL was reset against a snapshot *newer* than the one now
    /// being recovered — the snapshot and log are from different
    /// lineages and replaying would lose acknowledged batches.
    SnapshotBehind { wal_base: u64, snapshot_seq: u64 },
    /// Damage before the last frame, or a CRC-valid frame whose payload
    /// does not decode (see module docs — neither is a torn tail, and
    /// neither is ever auto-truncated).
    Corrupt(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadMagic => write!(f, "not a renuver wal (bad magic)"),
            WalError::UnsupportedVersion(v) => {
                write!(f, "unsupported wal version {v} (this build reads {WAL_VERSION})")
            }
            WalError::SchemaMismatch { expected, found } => write!(
                f,
                "wal schema fingerprint mismatch (model {expected:#018x}, wal {found:#018x})"
            ),
            WalError::SnapshotBehind { wal_base, snapshot_seq } => write!(
                f,
                "wal base sequence {wal_base} is ahead of snapshot sequence {snapshot_seq}: \
                 the snapshot is stale for this log"
            ),
            WalError::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One replayable record: the repaired tuples of an acknowledged batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The batch's sequence number (strictly increasing per log).
    pub seq: u64,
    /// The repaired tuples exactly as committed by the live engine.
    pub tuples: Vec<Tuple>,
}

/// An open write-ahead log with an append handle.
pub struct Wal {
    file: File,
    path: PathBuf,
    schema_fp: u64,
    last_seq: u64,
    base_seq: u64,
    bytes: u64,
    records: u64,
}

/// Best-effort fsync of `path`'s parent directory, so a just-created or
/// just-renamed file survives a crash of the directory entry itself.
/// Errors are ignored: not every filesystem supports directory fsync.
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

fn encode_header(schema_fp: u64, base_seq: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(&WAL_MAGIC);
    w.u32(WAL_VERSION);
    w.u64(schema_fp);
    w.u64(base_seq);
    w.buf
}

fn encode_payload(tuples: &[Tuple]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(tuples.len() as u32);
    for t in tuples {
        for v in t {
            w.value(v);
        }
    }
    w.buf
}

fn decode_payload(payload: &[u8], arity: usize) -> Result<Vec<Tuple>, ArtifactError> {
    let mut c = Cursor { buf: payload, pos: 0 };
    let rows = c.len(arity)?;
    let mut tuples = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut t = Tuple::with_capacity(arity);
        for _ in 0..arity {
            t.push(c.value()?);
        }
        tuples.push(t);
    }
    if c.remaining() != 0 {
        return Err(ArtifactError::Corrupt(format!(
            "{} trailing bytes after the last tuple",
            c.remaining()
        )));
    }
    Ok(tuples)
}

fn frame_bytes(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(payload.len() as u32);
    w.u64(seq);
    w.buf.extend_from_slice(payload);
    let crc = crc32(&w.buf);
    w.u32(crc);
    w.buf
}

/// The log's bytes; a missing log reads as none.
fn read_bytes(path: &Path) -> Result<Vec<u8>, WalError> {
    match std::fs::read(path) {
        Ok(b) => Ok(b),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// Whether `bytes` stop short of a full header — a log whose creation
/// crashed, which holds no frame. Bytes that cannot be the start of a
/// header are an error.
fn short_header(bytes: &[u8]) -> Result<bool, WalError> {
    if (bytes.len() as u64) >= WAL_HEADER_BYTES {
        return Ok(false);
    }
    if !bytes.is_empty() && !WAL_MAGIC.starts_with(&bytes[..bytes.len().min(4)]) {
        return Err(WalError::BadMagic);
    }
    Ok(true)
}

/// What a scan of a log's frames found.
struct Scan {
    base_seq: u64,
    last_seq: u64,
    /// Frames past the snapshot seq, in order.
    records: Vec<WalRecord>,
    /// Good frames in the log.
    frames: u64,
    /// Byte offset of the last good frame boundary.
    good_end: usize,
}

/// The frame at the start of `rest`: its body (length, seq, payload),
/// its length with the CRC, and whether the CRC holds. `None` when
/// `rest` does not hold a whole frame.
fn frame_at(rest: &[u8]) -> Option<(&[u8], usize, bool)> {
    let payload_len = u32::from_le_bytes(rest.get(..4)?.try_into().unwrap()) as usize;
    let frame_len = payload_len.checked_add(4 + 8 + 4)?;
    let (body, crc_bytes) = rest.get(..frame_len)?.split_at(frame_len - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    Some((body, frame_len, crc32(body) == stored_crc))
}

/// The seq field of a frame body.
fn frame_seq(body: &[u8]) -> u64 {
    u64::from_le_bytes(body[4..12].try_into().unwrap())
}

/// Validates the header of `bytes` (at least a header long) and scans
/// its frames up to the first torn one.
fn scan(bytes: &[u8], schema_fp: u64, snapshot_seq: u64, arity: usize) -> Result<Scan, WalError> {
    if bytes[..4] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion(version));
    }
    let found_fp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if found_fp != schema_fp {
        return Err(WalError::SchemaMismatch { expected: schema_fp, found: found_fp });
    }
    let base_seq = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if base_seq > snapshot_seq {
        return Err(WalError::SnapshotBehind { wal_base: base_seq, snapshot_seq });
    }

    // `good_end` tracks the last complete, CRC-valid, sequence-consistent
    // frame boundary.
    let mut scan = Scan {
        base_seq,
        last_seq: base_seq,
        records: Vec::new(),
        frames: 0,
        good_end: WAL_HEADER_BYTES as usize,
    };
    loop {
        let rest = &bytes[scan.good_end..];
        let Some((body, frame_len, crc_ok)) = frame_at(rest) else {
            break; // partial frame, or one that runs past the file — torn
        };
        if !crc_ok {
            // A torn append is the last frame. A good frame with the seq
            // after this one means the damage is mid-log (see module docs).
            if frame_at(&rest[frame_len..]).is_some_and(|(next, _, next_ok)| {
                next_ok && frame_seq(next) == scan.last_seq + 2
            }) {
                return Err(WalError::Corrupt(format!(
                    "frame seq {} fails its crc but a good frame follows it",
                    scan.last_seq + 1
                )));
            }
            break; // bit rot or torn write inside the last frame
        }
        let seq = frame_seq(body);
        if seq != scan.last_seq + 1 {
            break; // out-of-sequence frame cannot be an append of ours
        }
        // CRC held: the frame was fully written. A payload that does not
        // decode now is not a torn tail (see module docs).
        let tuples = decode_payload(&body[12..], arity).map_err(|e| {
            WalError::Corrupt(format!("frame seq {seq} has a valid crc but {e}"))
        })?;
        if seq > snapshot_seq {
            scan.records.push(WalRecord { seq, tuples });
        }
        scan.last_seq = seq;
        scan.frames += 1;
        scan.good_end += frame_len;
    }
    Ok(scan)
}

impl Wal {
    /// Opens (or creates) the WAL at `path` for a model whose snapshot
    /// carries `snapshot_seq`, and returns the records recovery must
    /// replay on top of that snapshot — frames with `seq >
    /// snapshot_seq`, in order. Torn tails are truncated (see module
    /// docs); a file that is not a WAL for this schema is an error.
    pub fn open(
        path: impl Into<PathBuf>,
        schema_fp: u64,
        snapshot_seq: u64,
        arity: usize,
    ) -> Result<(Wal, Vec<WalRecord>), WalError> {
        let path = path.into();
        let bytes = read_bytes(&path)?;
        // A file shorter than the header means creation itself crashed:
        // no frame — hence no acknowledged batch — can exist in it.
        if short_header(&bytes)? {
            return Self::create(path, schema_fp, snapshot_seq);
        }
        let scan = scan(&bytes, schema_fp, snapshot_seq, arity)?;
        if scan.good_end < bytes.len() {
            // Torn tail: drop it so the next append starts on a clean
            // frame boundary instead of interleaving with garbage.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(scan.good_end as u64)?;
            f.sync_all()?;
        }

        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((
            Wal {
                file,
                path,
                schema_fp,
                last_seq: scan.last_seq,
                base_seq: scan.base_seq,
                bytes: scan.good_end as u64,
                records: scan.frames,
            },
            scan.records,
        ))
    }

    /// Reads the log at `path` the way [`Wal::open`] does but writes
    /// nothing: a torn tail is skipped, not truncated, and a missing log
    /// reads as empty. Returns the last good frame's seq
    /// (`snapshot_seq` for an empty log) and the records past
    /// `snapshot_seq`. Safe beside a live writer: a frame still being
    /// appended reads as a torn tail.
    pub fn read(
        path: impl AsRef<Path>,
        schema_fp: u64,
        snapshot_seq: u64,
        arity: usize,
    ) -> Result<(u64, Vec<WalRecord>), WalError> {
        let bytes = read_bytes(path.as_ref())?;
        if short_header(&bytes)? {
            return Ok((snapshot_seq, Vec::new()));
        }
        let scan = scan(&bytes, schema_fp, snapshot_seq, arity)?;
        Ok((scan.last_seq, scan.records))
    }

    fn create(path: PathBuf, schema_fp: u64, base_seq: u64) -> Result<(Wal, Vec<WalRecord>), WalError> {
        let header = encode_header(schema_fp, base_seq);
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&header)?;
        file.sync_all()?;
        sync_parent_dir(&path);
        drop(file);
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((
            Wal {
                file,
                path,
                schema_fp,
                last_seq: base_seq,
                base_seq,
                bytes: WAL_HEADER_BYTES,
                records: 0,
            },
            Vec::new(),
        ))
    }

    /// Appends one acknowledged batch and fsyncs before returning its
    /// sequence number. Until this returns `Ok`, the batch is not
    /// durable and the caller must not acknowledge it.
    pub fn append(&mut self, tuples: &[Tuple]) -> io::Result<u64> {
        let seq = self.last_seq + 1;
        let frame = frame_bytes(seq, &encode_payload(tuples));
        fault::hit("wal.append.pre_write")?;
        if let Some(fault::Action::Short(n)) = fault::armed("wal.append.mid_write") {
            // Torn write: persist a prefix of the frame, then die the
            // way a power cut would — synced, so the bytes survive.
            let n = n.min(frame.len());
            let _ = self.file.write_all(&frame[..n]);
            let _ = self.file.sync_data();
            eprintln!("renuver: injected short write ({n} bytes) at wal.append.mid_write");
            std::process::abort();
        }
        self.file.write_all(&frame)?;
        fault::hit("wal.append.pre_fsync")?;
        self.file.sync_data()?;
        fault::hit("wal.append.post_fsync")?;
        self.last_seq = seq;
        self.bytes += frame.len() as u64;
        self.records += 1;
        Ok(seq)
    }

    /// Resets the log after a compaction snapshot carrying `base_seq`
    /// became durable: writes a fresh header-only WAL beside the live
    /// one and atomically renames it into place. On any failure the old
    /// log — still fully replayable against the new snapshot, which is
    /// simply ahead of it — is left untouched.
    pub fn reset(&mut self, base_seq: u64) -> io::Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        let header = encode_header(self.schema_fp, base_seq);
        let mut f = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp)?;
        f.write_all(&header)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path);
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.last_seq = base_seq;
        self.base_seq = base_seq;
        self.bytes = WAL_HEADER_BYTES;
        self.records = 0;
        Ok(())
    }

    /// Highest sequence number in the log (the base if no frames).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
    /// The snapshot sequence this log was opened or reset against.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }
    /// Current log size in bytes (header + good frames).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
    /// Frames currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_data::Value;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("renuver-wal-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn batch(tag: i64) -> Vec<Tuple> {
        vec![
            vec![Value::Text(format!("t{tag}")), Value::Int(tag)],
            vec![Value::Null, Value::Int(tag + 1)],
        ]
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = tmp("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, recs) = Wal::open(&path, 0xfeed, 0, 2).unwrap();
        assert!(recs.is_empty());
        assert_eq!(wal.append(&batch(1)).unwrap(), 1);
        assert_eq!(wal.append(&batch(10)).unwrap(), 2);
        assert_eq!(wal.last_seq(), 2);
        assert_eq!(wal.records(), 2);
        drop(wal);

        let (wal, recs) = Wal::open(&path, 0xfeed, 0, 2).unwrap();
        assert_eq!(wal.last_seq(), 2);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], WalRecord { seq: 1, tuples: batch(1) });
        assert_eq!(recs[1], WalRecord { seq: 2, tuples: batch(10) });

        // A newer snapshot skips already-folded frames.
        let (_, recs) = Wal::open(&path, 0xfeed, 1, 2).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, 2);
        let (_, recs) = Wal::open(&path, 0xfeed, 2, 2).unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn every_torn_tail_recovers_the_good_prefix() {
        let path = tmp("torn.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1, 0, 2).unwrap();
        wal.append(&batch(1)).unwrap();
        let after_first = wal.bytes() as usize;
        wal.append(&batch(2)).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();

        // Cut the file at every byte inside the second frame: the first
        // frame must always survive, the second must always be dropped.
        for cut in after_first..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (wal, recs) =
                Wal::open(&path, 1, 0, 2).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(recs.len(), 1, "cut at {cut}");
            assert_eq!(recs[0].seq, 1);
            assert_eq!(wal.last_seq(), 1);
            assert_eq!(wal.bytes() as usize, after_first);
            // The torn bytes are gone from disk too.
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, after_first);
        }
    }

    #[test]
    fn read_skips_a_torn_tail_without_touching_the_file() {
        let path = tmp("read.wal");
        let _ = std::fs::remove_file(&path);
        assert_eq!(Wal::read(&path, 1, 4, 2).unwrap(), (4, Vec::new()));
        assert!(!path.exists(), "read created the log");
        let (mut wal, _) = Wal::open(&path, 1, 0, 2).unwrap();
        wal.append(&batch(1)).unwrap();
        wal.append(&batch(2)).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (last, recs) = Wal::read(&path, 1, 0, 2).unwrap();
        assert_eq!((last, recs.len()), (1, 1));
        assert_eq!(recs[0].tuples, batch(1));
        assert_eq!(std::fs::read(&path).unwrap(), full[..full.len() - 3]);
        assert!(matches!(Wal::read(&path, 2, 0, 2), Err(WalError::SchemaMismatch { .. })));
    }

    #[test]
    fn appends_continue_cleanly_after_a_torn_tail() {
        let path = tmp("torn-append.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1, 0, 2).unwrap();
        wal.append(&batch(1)).unwrap();
        wal.append(&batch(2)).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (mut wal, recs) = Wal::open(&path, 1, 0, 2).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(wal.append(&batch(3)).unwrap(), 2);
        drop(wal);
        let (_, recs) = Wal::open(&path, 1, 0, 2).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], WalRecord { seq: 2, tuples: batch(3) });
    }

    #[test]
    fn flipped_frame_bytes_truncate_from_the_flip() {
        let path = tmp("flip.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1, 0, 2).unwrap();
        wal.append(&batch(1)).unwrap();
        let after_first = wal.bytes() as usize;
        wal.append(&batch(2)).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        for pos in (after_first..full.len()).step_by(3) {
            let mut bad = full.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let (_, recs) = Wal::open(&path, 1, 0, 2).unwrap();
            assert_eq!(recs.len(), 1, "flip at {pos} kept the damaged frame");
        }
    }

    #[test]
    fn a_flip_before_the_last_frame_is_corruption_not_a_torn_tail() {
        let path = tmp("mid-flip.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1, 0, 2).unwrap();
        for tag in 1..=3 {
            wal.append(&batch(tag)).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // A payload byte of the first frame: past the header, its length
        // prefix and its seq.
        bytes[WAL_HEADER_BYTES as usize + 4 + 8 + 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::open(&path, 1, 0, 2), Err(WalError::Corrupt(_))));
        assert!(matches!(Wal::read(&path, 1, 0, 2), Err(WalError::Corrupt(_))));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the damaged log was rewritten");
    }

    #[test]
    fn header_problems_are_typed_errors() {
        let path = tmp("header.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 0xabc, 5, 2).unwrap();
        wal.append(&batch(1)).unwrap();
        drop(wal);

        assert!(matches!(
            Wal::open(&path, 0xdef, 5, 2),
            Err(WalError::SchemaMismatch { expected: 0xdef, found: 0xabc })
        ));
        // Snapshot older than the wal's base: different lineage.
        assert!(matches!(
            Wal::open(&path, 0xabc, 3, 2),
            Err(WalError::SnapshotBehind { wal_base: 5, snapshot_seq: 3 })
        ));

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::open(&path, 0xabc, 5, 2), Err(WalError::BadMagic)));
        bytes[0] = b'R';
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::open(&path, 0xabc, 5, 2), Err(WalError::UnsupportedVersion(9))));
    }

    #[test]
    fn a_torn_header_recreates_the_log() {
        // Creation crashed before the header finished: no frame can
        // exist, so reopening silently starts a fresh log.
        let path = tmp("torn-header.wal");
        std::fs::write(&path, &b"RNWL\x01\x00"[..]).unwrap();
        let (wal, recs) = Wal::open(&path, 7, 4, 2).unwrap();
        assert!(recs.is_empty());
        assert_eq!(wal.last_seq(), 4);
        assert_eq!(wal.bytes(), WAL_HEADER_BYTES);
    }

    #[test]
    fn reset_starts_an_empty_log_at_the_new_base() {
        let path = tmp("reset.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1, 0, 2).unwrap();
        wal.append(&batch(1)).unwrap();
        wal.append(&batch(2)).unwrap();
        wal.reset(2).unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.bytes(), WAL_HEADER_BYTES);
        assert_eq!(wal.append(&batch(3)).unwrap(), 3);
        drop(wal);
        let (wal, recs) = Wal::open(&path, 1, 2, 2).unwrap();
        assert_eq!(wal.base_seq(), 2);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, 3);
    }

    #[test]
    fn injected_append_error_leaves_the_log_replayable() {
        let path = tmp("fault-err.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1, 0, 2).unwrap();
        wal.append(&batch(1)).unwrap();
        fault::arm("wal.append.pre_write", fault::Action::Err);
        let err = wal.append(&batch(2)).unwrap_err();
        fault::disarm("wal.append.pre_write");
        assert!(err.to_string().contains("injected fault"));
        drop(wal);
        let (_, recs) = Wal::open(&path, 1, 0, 2).unwrap();
        assert_eq!(recs.len(), 1);
    }
}
