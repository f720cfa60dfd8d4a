//! Versioned, checksummed model artifacts (`.rnv`).
//!
//! An artifact stores a model: the reference relation and the discovered
//! RFD set. It stores none of the distance structures, which are a
//! function of the relation alone: [`decode`] builds the
//! [`DistanceOracle`] and the [`SimilarityIndex`] from the parsed relation
//! with [`build_distance`], the function [`Engine::prepare`] builds with,
//! under [`RenuverConfig::default`]. A loaded engine therefore answers
//! bit-for-bit like a prepared one (asserted by
//! `tests/serve_differential.rs`), and `load + serve` is cheaper than
//! `rebuild + serve` by the RFD discovery it skips (`bench_serve`).
//!
//! # Format (version 2)
//!
//! ```text
//! magic            b"RNUV"                     4 bytes
//! format version   u32 LE                      = 2
//! schema fp        u64 LE   FNV-1a over attribute names and type tags
//! payload          sections below, all integers LE, strings u32-length-prefixed UTF-8
//!   schema         u32 arity; per attr: name, u8 type tag
//!   source         free-form provenance string (dataset path, may be empty)
//!   committed seq  u64 LE   highest WAL sequence number folded into this
//!                  snapshot (0 for a freshly prepared model); recovery
//!                  replays only WAL records with seq greater than this
//!   relation       u32 rows; per cell: u8 tag (0 null, 1 int i64, 2 float
//!                  f64 bits, 3 text, 4 bool u8)
//!   rfds           u32 count; per RFD: u32 lhs len; per constraint
//!                  (lhs then rhs): u32 attr, u64 threshold bits
//!   oracle         per attr: u8 tag — 0 numeric, 1 direct text, 2 matrix
//!                  (dict strings, f32-bit matrix, per-row codes)
//!   index          u8 presence; when 1, per attr: u8 tag — 0 unindexed,
//!                  1 numeric (sorted (f64 bits, u64 row) entries),
//!                  2 text (dict strings, per-row codes)
//! checksum         u32 LE   CRC-32 (IEEE) over everything above
//! ```
//!
//! [`encode`] tags every text column 1 and writes presence 0. Earlier
//! builds wrote their distance matrices (tag 2) and index into the file;
//! such a file still loads: the reader walks those sections with the same
//! bounds checks and drops what it read.
//!
//! Every load re-verifies magic, version, checksum, and the schema
//! fingerprint, then structurally validates each section. Corrupt input
//! of any kind — truncation, bit flips, hostile lengths — yields a typed
//! [`ArtifactError`], never a panic and never an oversized allocation:
//! all length prefixes are bounds-checked against the bytes actually
//! remaining before anything is allocated.

use std::fmt;
use std::path::Path;

use renuver_core::algorithm::build_distance;
use renuver_core::{Engine, RenuverConfig};
use renuver_data::{AttrType, Relation, Schema, Tuple};
use renuver_distance::{DistanceOracle, SimilarityIndex};
use renuver_rfd::{Rfd, RfdSet};

use crate::codec::{Cursor, Writer};

/// The artifact file magic, `b"RNUV"`.
pub const MAGIC: [u8; 4] = *b"RNUV";
/// The format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 2;

/// Why an artifact failed to save or load.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem error reading or writing the artifact.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not an artifact at all.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The trailing CRC-32 does not match the file contents.
    ChecksumMismatch { expected: u32, found: u32 },
    /// The header's schema fingerprint does not match the schema the
    /// payload decodes to (or the schema the caller required).
    SchemaMismatch { expected: u64, found: u64 },
    /// The file ends before a section it promises.
    Truncated,
    /// A section decodes but violates a structural invariant.
    Corrupt(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o error: {e}"),
            ArtifactError::BadMagic => write!(f, "not a renuver artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact version {v} (this build reads {FORMAT_VERSION})")
            }
            ArtifactError::ChecksumMismatch { expected, found } => write!(
                f,
                "artifact checksum mismatch (stored {expected:#010x}, computed {found:#010x})"
            ),
            ArtifactError::SchemaMismatch { expected, found } => write!(
                f,
                "artifact schema fingerprint mismatch (header {expected:#018x}, payload {found:#018x})"
            ),
            ArtifactError::Truncated => write!(f, "artifact truncated"),
            ArtifactError::Corrupt(msg) => write!(f, "artifact corrupt: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// A decoded artifact: the stored model plus the distance structures
/// [`decode`] built from it — everything needed to assemble an [`Engine`].
pub struct Artifact {
    /// FNV-1a fingerprint of the schema (also in the file header).
    pub schema_fingerprint: u64,
    /// Free-form provenance recorded at save time (dataset path).
    pub source: String,
    /// Highest WAL sequence number folded into this snapshot (0 for a
    /// freshly prepared model). Recovery replays only WAL records with a
    /// sequence number greater than this.
    pub committed_seq: u64,
    /// The reference relation.
    pub relation: Relation,
    /// The discovered RFD set.
    pub rfds: RfdSet,
    /// The dictionary-encoded distance oracle, built from `relation`.
    pub oracle: DistanceOracle,
    /// The similarity index, built when `IndexMode::Auto` calls for one
    /// (a relation of at least `AUTO_MIN_ROWS` rows).
    pub index: Option<SimilarityIndex>,
}

impl Artifact {
    /// Assembles a serving engine from the decoded parts under `config`.
    pub fn into_engine(self, config: RenuverConfig) -> Engine {
        Engine::from_parts(self.relation, self.rfds, self.oracle, self.index, config)
    }
}

/// What an artifact stores: an [`Artifact`] without the distance
/// structures. The registry's snapshot reads and [`inspect`] parse
/// artifacts this way, building nothing.
pub(crate) struct Model {
    pub(crate) schema_fingerprint: u64,
    pub(crate) source: String,
    pub(crate) committed_seq: u64,
    pub(crate) relation: Relation,
    pub(crate) rfds: RfdSet,
}

/// Header-level summary of an artifact, for `renuver inspect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Format version from the header.
    pub version: u32,
    /// Schema fingerprint from the header.
    pub schema_fingerprint: u64,
    /// Provenance string recorded at save time.
    pub source: String,
    /// Highest WAL sequence number folded into the snapshot.
    pub committed_seq: u64,
    /// Reference tuples in the snapshot.
    pub rows: usize,
    /// Attributes in the schema.
    pub arity: usize,
    /// Attribute names and type labels, schema order.
    pub attrs: Vec<(String, &'static str)>,
    /// RFDs in the snapshot.
    pub rfds: usize,
    /// Total file size in bytes.
    pub bytes: usize,
}

/// FNV-1a fingerprint of a schema: attribute names and type tags in
/// schema order. Stable across runs and platforms.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for attr in schema.attrs() {
        for &b in attr.name.as_bytes() {
            eat(b);
        }
        eat(0xff);
        eat(type_tag(attr.ty));
        eat(0xfe);
    }
    h
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Bitwise — no table; the
/// artifact sizes this repo handles make table setup not worth the code.
/// Public so the corruption fuzzers can re-stamp a valid checksum over a
/// damaged payload, forcing the section parsers (not the CRC) to reject.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

fn type_tag(ty: AttrType) -> u8 {
    match ty {
        AttrType::Text => 0,
        AttrType::Int => 1,
        AttrType::Float => 2,
        AttrType::Bool => 3,
    }
}

fn type_from_tag(tag: u8) -> Option<AttrType> {
    match tag {
        0 => Some(AttrType::Text),
        1 => Some(AttrType::Int),
        2 => Some(AttrType::Float),
        3 => Some(AttrType::Bool),
        _ => None,
    }
}

fn type_label(ty: AttrType) -> &'static str {
    match ty {
        AttrType::Text => "text",
        AttrType::Int => "int",
        AttrType::Float => "float",
        AttrType::Bool => "bool",
    }
}

// ---------------------------------------------------------------- encode

/// Serializes a model to artifact bytes (header + payload + checksum).
/// Every text column is tagged direct and no index is written: [`decode`]
/// builds the distance structures from the relation.
pub fn encode(rel: &Relation, rfds: &RfdSet, source: &str, committed_seq: u64) -> Vec<u8> {
    let schema = rel.schema();
    let mut w = Writer::new();
    w.buf.extend_from_slice(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(schema_fingerprint(schema));

    // Schema.
    w.u32(schema.arity() as u32);
    for attr in schema.attrs() {
        w.str(&attr.name);
        w.u8(type_tag(attr.ty));
    }
    w.str(source);
    w.u64(committed_seq);

    // Relation.
    w.u32(rel.len() as u32);
    for tuple in rel.tuples() {
        for v in tuple {
            w.value(v);
        }
    }

    // RFDs.
    w.u32(rfds.len() as u32);
    for rfd in rfds.iter() {
        w.u32(rfd.lhs().len() as u32);
        for &c in rfd.lhs() {
            w.constraint(c);
        }
        w.constraint(rfd.rhs());
    }

    // No distance cache: text columns direct, no index.
    for a in 0..schema.arity() {
        w.u8(u8::from(schema.ty(a) == AttrType::Text));
    }
    w.u8(0);

    let crc = crc32(&w.buf);
    w.u32(crc);
    w.buf
}

/// [`encode`] straight from a prepared engine: its relation and RFD set.
pub fn encode_engine(engine: &Engine, source: &str, committed_seq: u64) -> Vec<u8> {
    encode(engine.relation(), engine.sigma(), source, committed_seq)
}

// ---------------------------------------------------------------- decode

/// Parses artifact bytes, then builds the distance oracle and similarity
/// index from the parsed relation with [`build_distance`] under
/// [`RenuverConfig::default`] — what [`Engine::prepare`] builds.
pub fn decode(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
    let Model { schema_fingerprint, source, committed_seq, relation, rfds } = parse(bytes)?;
    let (oracle, index) = build_distance(&relation, &RenuverConfig::default());
    Ok(Artifact { schema_fingerprint, source, committed_seq, relation, rfds, oracle, index })
}

/// Parses artifact bytes into the stored model, building nothing.
pub(crate) fn parse(bytes: &[u8]) -> Result<Model, ArtifactError> {
    // Header + trailing checksum frame the payload.
    if bytes.len() < MAGIC.len() {
        // A non-empty strict prefix of the magic is a cut-off artifact;
        // anything else (including empty input) is not an artifact.
        return Err(if !bytes.is_empty() && MAGIC.starts_with(bytes) {
            ArtifactError::Truncated
        } else {
            ArtifactError::BadMagic
        });
    }
    if bytes[..4] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 4 {
        return Err(ArtifactError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    if bytes.len() < 8 + 8 + 4 {
        return Err(ArtifactError::Truncated);
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(tail.try_into().unwrap());
    let computed_crc = crc32(payload);
    if stored_crc != computed_crc {
        return Err(ArtifactError::ChecksumMismatch {
            expected: stored_crc,
            found: computed_crc,
        });
    }

    let mut c = Cursor { buf: payload, pos: 8 };
    let header_fp = c.u64()?;

    // Schema.
    let arity = c.len(2)?;
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = c.str()?;
        let tag = c.u8()?;
        let ty = type_from_tag(tag)
            .ok_or_else(|| ArtifactError::Corrupt(format!("unknown attribute type tag {tag}")))?;
        attrs.push((name, ty));
    }
    let schema = Schema::new(attrs).map_err(|e| ArtifactError::Corrupt(e.to_string()))?;
    let payload_fp = schema_fingerprint(&schema);
    if payload_fp != header_fp {
        return Err(ArtifactError::SchemaMismatch {
            expected: header_fp,
            found: payload_fp,
        });
    }
    let source = c.str()?;
    let committed_seq = c.u64()?;

    // Relation.
    let rows = c.len(arity)?;
    let mut tuples: Vec<Tuple> = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut t = Tuple::with_capacity(arity);
        for _ in 0..arity {
            t.push(c.value()?);
        }
        tuples.push(t);
    }
    let relation =
        Relation::new(schema, tuples).map_err(|e| ArtifactError::Corrupt(e.to_string()))?;

    // RFDs.
    let rfd_count = c.len(2 * 12)?;
    let mut rfds = Vec::with_capacity(rfd_count);
    for _ in 0..rfd_count {
        let lhs_len = c.len(12)?;
        let mut lhs = Vec::with_capacity(lhs_len);
        for _ in 0..lhs_len {
            lhs.push(c.constraint(arity)?);
        }
        let rhs = c.constraint(arity)?;
        rfds.push(Rfd::try_new(lhs, rhs).map_err(ArtifactError::Corrupt)?);
    }
    let rfds = RfdSet::from_vec(rfds);

    // Oracle column tags; an earlier build's matrices are dropped.
    for attr in 0..arity {
        match c.u8()? {
            0 | 1 => {}
            2 => {
                skip_strs(&mut c)?; // dictionary
                skip_items(&mut c, 4)?; // f32 matrix
                skip_items(&mut c, 4)?; // per-row codes
            }
            tag => {
                return Err(ArtifactError::Corrupt(format!(
                    "unknown oracle column tag {tag} for attribute {attr}"
                )))
            }
        }
    }

    // Similarity index; an earlier build's postings are dropped.
    match c.u8()? {
        0 => {}
        1 => {
            for attr in 0..arity {
                match c.u8()? {
                    0 => {}
                    1 => skip_items(&mut c, 16)?, // (f64 bits, u64 row) entries
                    2 => {
                        skip_strs(&mut c)?; // dictionary
                        skip_items(&mut c, 4)?; // per-row codes
                    }
                    tag => {
                        return Err(ArtifactError::Corrupt(format!(
                            "unknown index tag {tag} for attribute {attr}"
                        )))
                    }
                }
            }
        }
        tag => {
            return Err(ArtifactError::Corrupt(format!("unknown index presence byte {tag}")))
        }
    }

    if c.remaining() != 0 {
        return Err(ArtifactError::Corrupt(format!(
            "{} trailing bytes after the index section",
            c.remaining()
        )));
    }

    Ok(Model { schema_fingerprint: header_fp, source, committed_seq, relation, rfds })
}

/// Skips a u32-counted list of `item_bytes`-byte items.
fn skip_items(c: &mut Cursor<'_>, item_bytes: usize) -> Result<(), ArtifactError> {
    let n = c.len(item_bytes)?;
    c.take(n * item_bytes).map(drop)
}

/// Skips a u32-counted list of strings.
fn skip_strs(c: &mut Cursor<'_>) -> Result<(), ArtifactError> {
    for _ in 0..c.len(4)? {
        skip_items(c, 1)?;
    }
    Ok(())
}

/// Reads and decodes an artifact file.
pub fn load(path: impl AsRef<Path>) -> Result<Artifact, ArtifactError> {
    decode(&std::fs::read(path)?)
}

/// Parses just enough of an artifact to describe it, building no
/// distance structure.
///
/// Runs the full integrity pipeline (magic, version, checksum, schema,
/// structural validation) — an artifact that inspects cleanly also loads.
pub fn inspect(bytes: &[u8]) -> Result<ArtifactInfo, ArtifactError> {
    let model = parse(bytes)?;
    Ok(ArtifactInfo {
        version: FORMAT_VERSION,
        schema_fingerprint: model.schema_fingerprint,
        source: model.source,
        committed_seq: model.committed_seq,
        rows: model.relation.len(),
        arity: model.relation.arity(),
        attrs: model
            .relation
            .schema()
            .attrs()
            .map(|a| (a.name.clone(), type_label(a.ty)))
            .collect(),
        rfds: model.rfds.len(),
        bytes: bytes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_core::config::AUTO_MIN_ROWS;
    use renuver_data::{csv, Value};
    use renuver_rfd::Constraint;

    /// The fuzz suite's seed model as an earlier build wrote it, distance
    /// matrices and index included.
    const LEGACY: &[u8] = include_bytes!("../../../tests/fixtures/legacy_cached_v2.rnv");

    fn model() -> (Relation, RfdSet) {
        let rel = csv::read_str(
            "Name:text,City:text,Zip:text,Score:float\n\
             Granita,Malibu,90265,4.5\n\
             Granitas,Malibu,90265,4.0\n\
             Citrus,Hollywood,90028,3.5\n\
             Spago,Hollywood,90028,5.0\n",
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![
            Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 0.0)),
            Rfd::new(vec![Constraint::new(0, 2.0)], Constraint::new(1, 0.0)),
        ]);
        (rel, rfds)
    }

    fn encoded() -> Vec<u8> {
        let (rel, rfds) = model();
        encode(&rel, &rfds, "tests/model.csv", 7)
    }

    #[test]
    fn round_trip_preserves_the_model() {
        let (mut rel, rfds) = model();
        // Row 4 leaves Name without any value.
        rel.push(vec![Value::Null, Value::from("Malibu"), Value::Null, Value::Null]).unwrap();
        let mut empty = rel.clone();
        empty.truncate(0);
        for rel in [rel, empty] {
            let bytes = encode(&rel, &rfds, "tests/model.csv", 42);
            let art = decode(&bytes).unwrap_or_else(|e| panic!("{} rows: {e}", rel.len()));
            assert_eq!(art.source, "tests/model.csv");
            assert_eq!(art.committed_seq, 42);
            assert_eq!(art.relation, rel);
            assert_eq!(art.rfds, rfds);
            // Deterministic: same model encodes to the same bytes.
            assert_eq!(bytes, encode(&rel, &rfds, "tests/model.csv", 42));
        }
    }

    #[test]
    fn decode_builds_what_prepare_builds() {
        // At the `Auto` threshold, so the build includes an index.
        let text = (0..AUTO_MIN_ROWS).fold("Name:text,City:text,Score:int\n".to_string(), |s, i| {
            s + &format!("Shop{},City{},{}\n", i % 97, i % 13, i % 5)
        });
        let rel = csv::read_str(&text).unwrap();
        let rfds = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 1.0)],
            Constraint::new(1, 0.0),
        )]);
        let prepared = Engine::prepare(rel.clone(), rfds.clone(), RenuverConfig::default());
        let art = decode(&encode(&rel, &rfds, "", 0)).unwrap();
        assert_eq!(art.oracle.to_snapshot(), prepared.oracle().to_snapshot());
        assert!(art.index.is_some());
        assert_eq!(
            art.index.map(|ix| ix.to_snapshot()),
            prepared.index().map(SimilarityIndex::to_snapshot)
        );
    }

    #[test]
    fn a_cached_artifact_still_loads() {
        let art = decode(LEGACY).unwrap();
        assert_eq!((art.relation.len(), art.rfds.len()), (4, 1));
        assert_eq!(art.source, "fuzz-seed");
        // The model re-encodes without its cache.
        let bytes = encode(&art.relation, &art.rfds, &art.source, art.committed_seq);
        assert!(bytes.len() < LEGACY.len());
        assert_eq!(parse(&bytes).unwrap().relation, art.relation);
    }

    #[test]
    fn inspect_summarizes_the_header() {
        let info = inspect(&encoded()).unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(info.committed_seq, 7);
        assert_eq!(info.rows, 4);
        assert_eq!(info.arity, 4);
        assert_eq!(info.rfds, 2);
        assert_eq!(info.source, "tests/model.csv");
        assert_eq!(info.attrs[0], ("Name".to_string(), "text"));
        assert_eq!(info.attrs[3], ("Score".to_string(), "float"));
        let (rel, _) = model();
        assert_eq!(info.schema_fingerprint, schema_fingerprint(rel.schema()));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encoded();
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(ArtifactError::BadMagic)));
        assert!(matches!(decode(b"hello"), Err(ArtifactError::BadMagic)));
        assert!(matches!(decode(b""), Err(ArtifactError::BadMagic)));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encoded();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(ArtifactError::UnsupportedVersion(99))));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for bytes in [encoded(), LEGACY.to_vec()] {
            for n in 0..bytes.len() {
                let err = decode(&bytes[..n]).err().unwrap();
                assert!(
                    matches!(
                        err,
                        ArtifactError::Truncated
                            | ArtifactError::BadMagic
                            | ArtifactError::ChecksumMismatch { .. }
                    ),
                    "truncation at {n} gave {err}"
                );
            }
        }
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        // The CRC catches any single-bit corruption of the payload; flips
        // in the magic/version/checksum fields hit their own checks first.
        for bytes in [encoded(), LEGACY.to_vec()] {
            for pos in (0..bytes.len()).step_by(7) {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x20;
                assert!(decode(&bad).is_err(), "flip at byte {pos} was not caught");
            }
        }
    }

    #[test]
    fn fingerprint_mismatch_is_schema_mismatch() {
        // Flip a header fingerprint bit *and* re-seal the checksum: the
        // file is internally consistent but lies about its schema.
        let mut bytes = encoded();
        bytes[8] ^= 1;
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(ArtifactError::SchemaMismatch { .. })));
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A row count of u32::MAX with a re-sealed checksum must be
        // rejected by the bounds check, not attempted as an allocation.
        let (rel, rfds) = model();
        let mut bytes = encode(&rel, &rfds, "", 0);
        // The row-count u32 sits right after schema + empty source; find
        // it by scanning for the known value 4 following the source.
        let needle = 4u32.to_le_bytes();
        let pos = (16..bytes.len() - 4)
            .find(|&i| bytes[i..i + 4] == needle)
            .unwrap();
        bytes[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn loaded_engine_answers_like_a_prepared_one() {
        let (rel, rfds) = model();
        let bytes = {
            let engine = Engine::prepare(rel.clone(), rfds, RenuverConfig::default());
            encode_engine(&engine, "m", 0)
        };
        let mut engine = decode(&bytes).unwrap().into_engine(RenuverConfig::default());
        let batch = vec![vec![
            Value::Text("Granitaz".into()),
            Value::Null,
            Value::Null,
            Value::Float(4.2),
        ]];
        let out = engine.impute_batch(batch).unwrap();
        assert_eq!(out.tuples[0][1], Value::Text("Malibu".into()));
        assert_eq!(out.tuples[0][2], Value::Text("90265".into()));
    }
}
