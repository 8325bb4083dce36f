//! Warm-restart snapshot format.
//!
//! A snapshot is one JSON document holding every partition's serializable
//! core ([`qdelay_predict::state`]), written on `snapshot` requests and at
//! graceful shutdown, and restored at boot. Properties:
//!
//! * **Versioned** — `version` is checked on load; an unknown version is a
//!   load error, never a silent misread.
//! * **Flat** — partitions are stored as a sorted list keyed by
//!   `(site, queue, procs-range)`; the shard count is *not* part of the
//!   format, so a restart may re-shard freely.
//! * **Deterministic** — partitions sort by key and `qdelay-json` prints
//!   floats shortest-round-trip, so equal registry states produce
//!   byte-identical files.
//! * **Warm** — restoring and replaying the remainder of a workload yields
//!   bit-identical predictions to a server that never restarted (the
//!   per-predictor guarantee is tested in `qdelay-predict`; the end-to-end
//!   one in the serve bench).
//!
//! Consistency: a shard serializes its partitions under its lock, so every
//! partition is internally consistent at some point during the snapshot
//! request; the file is not a single global cut across shards.
//!
//! ## The file
//!
//! Only this module knows the file form of the document: [`read`] and
//! [`parse`] are the one reader (boot, journal compaction, and a replica's
//! resync, which parses the bytes the primary read off its file), and
//! [`render`] + [`write`] the one writer (a `snapshot` request, graceful
//! shutdown, journal compaction and boot consolidation). A missing file and
//! empty bytes both read as empty state — what a primary ships for a
//! journal directory with no snapshot yet. A document that names one
//! partition twice, across `partitions` and `dead`, is refused: no writer
//! produces one, and there is no right answer to which entry is the state.
//!
//! ## The binary partition record
//!
//! Beside the document codec ([`encode_partition`]/[`decode_partition`])
//! this module owns the one versioned **binary** encoding of a
//! [`PartitionSnapshot`] ([`encode_record`]/[`decode_record`]): the same
//! fields in the same order, every `f64` as raw `to_bits` so no float is
//! ever printed or parsed. It is a frame *payload* — callers carry it in
//! the shared [`qdelay_journal::frame`], as journal, wire and repl
//! payloads are — and today it is what a hibernation spill slot holds
//! ([`crate::hibernate`]). All integers little-endian:
//!
//! ```text
//! u8  version (1)        | u8 proc-range tag (index into ProcRange::ALL)
//! u32 len | site bytes   | u32 len | queue bytes            (UTF-8)
//! u64 seq
//! bmbp:      f64 quantile | f64 confidence | u8 method (0 auto, 1 exact,
//!            2 approx) | u8 trimming | opt threshold_override
//!            | opt max_history | detector | u64 trims | u8 calibrated | waits
//! lognormal: f64 quantile | f64 confidence | u8 trimming
//!            | opt threshold_override | detector | u64 trims
//!            | f64 sum | f64 sum_comp | f64 sum_sq | f64 sum_sq_comp
//!            | u64 removals | waits
//!
//! opt      = u8 0, or u8 1 then u64
//! detector = u64 threshold | u64 consecutive_misses | u64 times_fired
//! waits    = u32 count | count × f64 bits
//! ```
//!
//! [`decode_record`] keeps every check the document decoder makes — known
//! version and tags, a valid detector, finite non-negative waits — and
//! adds the binary ones: every length bounded by the bytes present, and
//! no byte left over. Damage is a typed error, never a panic.

use crate::durability::journal_to_io;
use crate::proto::{Cur, DecodeError};
use crate::registry::PartitionKey;
use qdelay_json::Json;
use qdelay_predict::bound::BoundMethod;
use qdelay_predict::state::{BmbpState, DetectorState, LogNormalState, MomentsState};
use qdelay_trace::ProcRange;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// Snapshot document version this build writes. Version 1 (no `dead`
/// list) is still read: it decodes with an empty dead list.
pub const SNAPSHOT_VERSION: u64 = 2;

/// One partition's serialized core.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSnapshot {
    pub site: String,
    pub queue: String,
    pub range: ProcRange,
    /// Observation cursor (see [`crate::registry::Partition`]).
    pub seq: u64,
    pub bmbp: BmbpState,
    pub lognormal: LogNormalState,
}

impl PartitionSnapshot {
    /// The partition this entry is the state of.
    pub fn key(&self) -> PartitionKey {
        PartitionKey { site: self.site.clone(), queue: self.queue.clone(), range: self.range }
    }
}

/// A whole document: the live partitions, and the cursors of partitions
/// deleted by a tombstone. A dead cursor is the tombstone's sequence number
/// and a resurrecting record continues at `seq + 1`; without it a
/// compaction could fold a tombstoned partition out of existence and a later
/// replay would see its seq counter restart — breaking the monotone dedup
/// replication relies on.
pub type Document = (Vec<PartitionSnapshot>, Vec<(PartitionKey, u64)>);

/// Parses a proc-range from its table label (`"1-4"`, `"5-16"`, `"17-64"`,
/// `"65+"`).
pub fn proc_range_from_label(label: &str) -> Option<ProcRange> {
    ProcRange::ALL.into_iter().find(|r| r.label() == label)
}

/// Encodes one partition as its snapshot-document object.
pub fn encode_partition(p: &PartitionSnapshot) -> Json {
    Json::Obj(vec![
        ("site".into(), Json::Str(p.site.clone())),
        ("queue".into(), Json::Str(p.queue.clone())),
        ("procs".into(), Json::Str(p.range.label().into())),
        ("seq".into(), Json::Num(p.seq as f64)),
        ("bmbp".into(), p.bmbp.to_json()),
        ("lognormal".into(), p.lognormal.to_json()),
    ])
}

/// Decodes one partition object (the inverse of [`encode_partition`]),
/// validating every field.
pub fn decode_partition(p: &Json) -> Result<PartitionSnapshot, String> {
    let label = req_str(p, "procs")?;
    let range = proc_range_from_label(label)
        .ok_or_else(|| format!("unknown proc range '{label}'"))?;
    Ok(PartitionSnapshot {
        site: req_str(p, "site")?.to_string(),
        queue: req_str(p, "queue")?.to_string(),
        range,
        seq: p
            .get("seq")
            .and_then(Json::as_usize)
            .ok_or("partition missing 'seq'")? as u64,
        bmbp: BmbpState::from_json(p.get("bmbp").ok_or("partition missing 'bmbp'")?)
            .map_err(|e| format!("bmbp state: {e}"))?,
        lognormal: LogNormalState::from_json(
            p.get("lognormal").ok_or("partition missing 'lognormal'")?,
        )
        .map_err(|e| format!("lognormal state: {e}"))?,
    })
}

/// Version byte that opens every binary partition record.
pub const RECORD_VERSION: u8 = 1;

const METHOD_TAGS: [BoundMethod; 3] = [BoundMethod::Auto, BoundMethod::Exact, BoundMethod::Approx];

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt(out: &mut Vec<u8>, v: Option<usize>) {
    out.push(u8::from(v.is_some()));
    if let Some(x) = v {
        put_u64(out, x as u64);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("partition names are far below 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_detector(out: &mut Vec<u8>, d: &DetectorState) {
    put_u64(out, d.threshold as u64);
    put_u64(out, d.consecutive_misses as u64);
    put_u64(out, d.times_fired as u64);
}

fn put_waits(out: &mut Vec<u8>, waits: &[f64]) {
    let count = u32::try_from(waits.len()).expect("a history holds far fewer than 2^32 waits");
    out.extend_from_slice(&count.to_le_bytes());
    out.reserve(waits.len() * 8);
    for w in waits {
        put_u64(out, w.to_bits());
    }
}

/// Appends the binary record of one partition to `out` (layout in the
/// module docs). The bytes are a frame payload: wrap them with
/// [`qdelay_journal::frame::begin`]/[`qdelay_journal::frame::finish`].
pub fn encode_record(p: &PartitionSnapshot, out: &mut Vec<u8>) {
    out.push(RECORD_VERSION);
    let range = ProcRange::ALL.iter().position(|r| *r == p.range);
    out.push(range.expect("ALL lists every range") as u8);
    put_str(out, &p.site);
    put_str(out, &p.queue);
    put_u64(out, p.seq);

    let b = &p.bmbp;
    put_u64(out, b.quantile.to_bits());
    put_u64(out, b.confidence.to_bits());
    let method = METHOD_TAGS.iter().position(|m| *m == b.method);
    out.push(method.expect("METHOD_TAGS lists every method") as u8);
    out.push(u8::from(b.trimming));
    put_opt(out, b.threshold_override);
    put_opt(out, b.max_history);
    put_detector(out, &b.detector);
    put_u64(out, b.trims as u64);
    out.push(u8::from(b.calibrated));
    put_waits(out, &b.waits);

    let l = &p.lognormal;
    put_u64(out, l.quantile.to_bits());
    put_u64(out, l.confidence.to_bits());
    out.push(u8::from(l.trimming));
    put_opt(out, l.threshold_override);
    put_detector(out, &l.detector);
    put_u64(out, l.trims as u64);
    let m = &l.moments;
    for x in [m.sum, m.sum_comp, m.sum_sq, m.sum_sq_comp] {
        put_u64(out, x.to_bits());
    }
    put_u64(out, m.removals as u64);
    put_waits(out, &l.waits);
}

fn invalid(message: String) -> DecodeError {
    DecodeError::Invalid(message)
}

fn usize_field(r: &mut Cur<'_>, what: &str) -> Result<usize, DecodeError> {
    usize::try_from(r.u64(what)?).map_err(|_| invalid(format!("{what} out of range")))
}

fn f64_field(r: &mut Cur<'_>, what: &str) -> Result<f64, DecodeError> {
    Ok(f64::from_bits(r.u64(what)?))
}

fn flag(r: &mut Cur<'_>, what: &str) -> Result<bool, DecodeError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(invalid(format!("{what} must be 0 or 1, got {other}"))),
    }
}

fn opt(r: &mut Cur<'_>, what: &str) -> Result<Option<usize>, DecodeError> {
    Ok(if flag(r, what)? { Some(usize_field(r, what)?) } else { None })
}

/// One of a closed set of values, by its index in `all`.
fn tagged<T: Copy>(r: &mut Cur<'_>, all: &[T], what: &str) -> Result<T, DecodeError> {
    let tag = r.u8(what)?;
    all.get(usize::from(tag))
        .copied()
        .ok_or_else(|| invalid(format!("unknown {what} tag {tag}")))
}

fn detector(r: &mut Cur<'_>, what: &str) -> Result<DetectorState, DecodeError> {
    let d = DetectorState {
        threshold: usize_field(r, what)?,
        consecutive_misses: usize_field(r, what)?,
        times_fired: usize_field(r, what)?,
    };
    d.validate().map_err(|e| invalid(format!("{what}: {e}")))?;
    Ok(d)
}

/// The count is checked against the bytes present (by `take`) before
/// anything is allocated for it.
fn waits(r: &mut Cur<'_>, what: &str) -> Result<Vec<f64>, DecodeError> {
    let count = r.u32(what)? as usize;
    let bytes = r.take(count.saturating_mul(8), what)?;
    let mut waits = Vec::with_capacity(count);
    for c in bytes.chunks_exact(8) {
        let w = f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        if !(w.is_finite() && w >= 0.0) {
            return Err(invalid(format!("{what} must be finite and non-negative, got {w}")));
        }
        waits.push(w);
    }
    Ok(waits)
}

fn read_record(r: &mut Cur<'_>) -> Result<PartitionSnapshot, DecodeError> {
    let version = r.u8("version")?;
    if version != RECORD_VERSION {
        return Err(invalid(format!(
            "record version {version} unsupported (this build reads {RECORD_VERSION})"
        )));
    }
    let range = tagged(r, &ProcRange::ALL, "proc range")?;
    let site = r.text("site")?;
    let queue = r.text("queue")?;
    let seq = r.u64("seq")?;
    let bmbp = BmbpState {
        quantile: f64_field(r, "bmbp quantile")?,
        confidence: f64_field(r, "bmbp confidence")?,
        method: tagged(r, &METHOD_TAGS, "bound method")?,
        trimming: flag(r, "bmbp trimming")?,
        threshold_override: opt(r, "bmbp threshold_override")?,
        max_history: opt(r, "bmbp max_history")?,
        detector: detector(r, "bmbp detector")?,
        trims: usize_field(r, "bmbp trims")?,
        calibrated: flag(r, "bmbp calibrated")?,
        waits: waits(r, "bmbp waits")?,
    };
    let lognormal = LogNormalState {
        quantile: f64_field(r, "lognormal quantile")?,
        confidence: f64_field(r, "lognormal confidence")?,
        trimming: flag(r, "lognormal trimming")?,
        threshold_override: opt(r, "lognormal threshold_override")?,
        detector: detector(r, "lognormal detector")?,
        trims: usize_field(r, "lognormal trims")?,
        moments: MomentsState {
            sum: f64_field(r, "lognormal sum")?,
            sum_comp: f64_field(r, "lognormal sum_comp")?,
            sum_sq: f64_field(r, "lognormal sum_sq")?,
            sum_sq_comp: f64_field(r, "lognormal sum_sq_comp")?,
            removals: usize_field(r, "lognormal removals")?,
        },
        waits: waits(r, "lognormal waits")?,
    };
    r.done("record")?;
    Ok(PartitionSnapshot { site, queue, range, seq, bmbp, lognormal })
}

/// Decodes one binary partition record (the inverse of [`encode_record`])
/// from a whole frame payload, validating every field. The payload must be
/// exactly one record: trailing bytes are an error. Reads go through the
/// wire codec's bounds-checked cursor ([`crate::proto`]).
pub fn decode_record(payload: &[u8]) -> Result<PartitionSnapshot, String> {
    read_record(&mut Cur::new(payload)).map_err(|e| e.message().to_string())
}

/// Encodes partitions (and tombstoned cursors) into the snapshot
/// document, sorting both lists by key for deterministic output.
pub fn encode(
    mut partitions: Vec<PartitionSnapshot>,
    mut dead: Vec<(PartitionKey, u64)>,
) -> Json {
    partitions.sort_by(|a, b| {
        (&a.site, &a.queue, a.range).cmp(&(&b.site, &b.queue, b.range))
    });
    dead.sort_unstable();
    let dead = dead.into_iter().map(|(key, seq)| {
        Json::Obj(vec![
            ("site".into(), Json::Str(key.site)),
            ("queue".into(), Json::Str(key.queue)),
            ("procs".into(), Json::Str(key.range.label().into())),
            ("seq".into(), Json::Num(seq as f64)),
        ])
    });
    Json::Obj(vec![
        ("version".into(), Json::Num(SNAPSHOT_VERSION as f64)),
        ("kind".into(), Json::Str("qdelay-serve-snapshot".into())),
        ("partitions".into(), Json::Arr(partitions.iter().map(encode_partition).collect())),
        ("dead".into(), Json::Arr(dead.collect())),
    ])
}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("snapshot partition missing string '{key}'"))
}

/// Decodes a snapshot document, validating the version and every field.
/// Returns the live partitions and the tombstoned cursors (always empty
/// for version-1 documents, which predate tombstones). A key named twice is
/// an error that names it.
pub fn decode(v: &Json) -> Result<Document, String> {
    let version = v
        .get("version")
        .and_then(Json::as_usize)
        .ok_or("snapshot missing 'version'")?;
    if !(1..=SNAPSHOT_VERSION).contains(&(version as u64)) {
        return Err(format!(
            "snapshot version {version} unsupported (this build reads 1..={SNAPSHOT_VERSION})"
        ));
    }
    let kind = req_str(v, "kind")?;
    if kind != "qdelay-serve-snapshot" {
        return Err(format!("unexpected snapshot kind '{kind}'"));
    }
    let parts = v
        .get("partitions")
        .and_then(Json::as_array)
        .ok_or("snapshot missing 'partitions' array")?;
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        out.push(decode_partition(p)?);
    }
    let mut dead = Vec::new();
    if let Some(list) = v.get("dead") {
        let list = list.as_array().ok_or("snapshot 'dead' is not an array")?;
        for d in list {
            let label = req_str(d, "procs")?;
            let range = proc_range_from_label(label)
                .ok_or_else(|| format!("unknown proc range '{label}'"))?;
            let key = PartitionKey {
                site: req_str(d, "site")?.to_string(),
                queue: req_str(d, "queue")?.to_string(),
                range,
            };
            let seq = d.get("seq").and_then(Json::as_usize).ok_or("dead partition missing 'seq'")?;
            dead.push((key, seq as u64));
        }
    } else if version as u64 >= 2 {
        return Err("snapshot v2 missing 'dead' array".into());
    }
    let mut seen = HashSet::with_capacity(out.len() + dead.len());
    let keys = out.iter().map(|p| (&p.site, &p.queue, p.range));
    for (site, queue, range) in keys.chain(dead.iter().map(|(k, _)| (&k.site, &k.queue, k.range))) {
        if !seen.insert((site, queue, range)) {
            return Err(format!("snapshot names partition {site}/{queue}/{} twice", range.label()));
        }
    }
    Ok((out, dead))
}

/// Parses a snapshot file's bytes — or a replica's SNAPSHOT message, which
/// carries them. Empty bytes are empty state. Anything that is not a valid
/// document is `InvalidData`.
pub fn parse(bytes: &[u8]) -> io::Result<Document> {
    if bytes.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let text = std::str::from_utf8(bytes).map_err(|e| invalid(e.to_string()))?;
    decode(&Json::parse(text).map_err(|e| invalid(e.to_string()))?).map_err(invalid)
}

/// Reads the snapshot file at `path`; a missing file is empty state.
pub fn read(path: &Path) -> io::Result<Document> {
    match std::fs::read(path) {
        Ok(bytes) => parse(&bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok((Vec::new(), Vec::new())),
        Err(e) => Err(e),
    }
}

/// Renders a document in its file form: [`encode`], pretty-printed, plus a
/// newline. Equal states render to equal bytes.
pub fn render(partitions: Vec<PartitionSnapshot>, dead: Vec<(PartitionKey, u64)>) -> Vec<u8> {
    let mut text = encode(partitions, dead).to_string_pretty();
    text.push('\n');
    text.into_bytes()
}

/// Writes rendered bytes to `path` atomically (tmp + fsync + rename): a
/// crash mid-write leaves the previous file intact, never a truncated one.
pub fn write(path: &Path, rendered: &[u8]) -> io::Result<()> {
    qdelay_journal::write_atomic(path, rendered).map_err(journal_to_io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Partition, PartitionKey};
    use qdelay_rng::{Rng, StdRng};

    fn sample_partitions() -> Vec<PartitionSnapshot> {
        let mut out = Vec::new();
        for (site, queue, procs) in
            [("ds", "normal", 2u32), ("ds", "normal", 70), ("lonestar", "dev", 8)]
        {
            let key = PartitionKey::for_request(site, queue, procs);
            let mut p = Partition::new();
            for i in 0..80 {
                p.observe((i % 23) as f64 * (1.0 + procs as f64), None, None);
            }
            out.push(p.to_snapshot(&key));
        }
        out
    }

    fn sample_dead() -> Vec<(PartitionKey, u64)> {
        vec![
            (PartitionKey::for_request("ds", "express", 2), 41),
            (PartitionKey::for_request("blue", "batch", 100), 7),
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let parts = sample_partitions();
        let dead = sample_dead();
        let doc = encode(parts.clone(), dead.clone());
        let text = doc.to_string_pretty();
        let (back, back_dead) = decode(&Json::parse(&text).unwrap()).unwrap();
        // decode returns in the file's (sorted) order.
        let mut sorted = parts;
        sorted.sort_by_key(PartitionSnapshot::key);
        assert_eq!(back, sorted);
        let mut sorted_dead = dead;
        sorted_dead.sort();
        assert_eq!(back_dead, sorted_dead);
    }

    #[test]
    fn the_file_reader_reads_what_the_writer_wrote_and_nothing_is_empty_state() {
        let dir = std::env::temp_dir().join("qdelay-serve-snapshot-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(read(&path).unwrap(), (Vec::new(), Vec::new()), "a missing file");
        assert_eq!(parse(b"").unwrap(), (Vec::new(), Vec::new()), "empty bytes");
        let rendered = render(sample_partitions(), sample_dead());
        assert!(rendered.ends_with(b"}\n"));
        write(&path, &rendered).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), rendered);
        let (parts, dead) = read(&path).unwrap();
        assert_eq!(render(parts, dead), rendered, "read then rendered: the same bytes");
        for junk in [&b"{"[..], b"\xff", b"[]", b"{\"version\":2}"] {
            assert_eq!(parse(junk).unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
    }

    /// A key named twice has no one state to install: the reader refuses
    /// the document, naming the key, whether the two entries are both
    /// partitions, both dead cursors, or one of each.
    #[test]
    fn a_document_that_names_a_key_twice_is_refused_by_name() {
        let parts = sample_partitions();
        let dead = sample_dead();
        let twice_live = {
            let mut later = parts[1].clone();
            later.site = parts[0].site.clone();
            later.range = parts[0].range;
            later.seq += 10;
            (vec![parts[0].clone(), later], Vec::new())
        };
        let live_and_dead = (parts.clone(), vec![(parts[2].key(), 90)]);
        let twice_dead = (Vec::new(), vec![dead[0].clone(), (dead[0].0.clone(), 50)]);
        for (what, (p, d), key) in [
            ("twice live", twice_live, parts[0].key()),
            ("live and dead", live_and_dead, parts[2].key()),
            ("twice dead", twice_dead, dead[0].0.clone()),
        ] {
            let err = parse(&render(p, d)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains(&format!("{} twice", key.label())), "{what}: {err}");
        }
        assert!(parse(&render(parts, dead)).is_ok(), "distinct keys read");
    }

    #[test]
    fn encoding_is_deterministic_regardless_of_input_order() {
        let parts = sample_partitions();
        let mut reversed = parts.clone();
        reversed.reverse();
        let dead = sample_dead();
        let mut dead_reversed = dead.clone();
        dead_reversed.reverse();
        assert_eq!(
            encode(parts, dead).to_string_pretty(),
            encode(reversed, dead_reversed).to_string_pretty()
        );
    }

    #[test]
    fn version_1_documents_still_decode() {
        // A v1 file (no `dead` key) decodes with an empty dead list.
        let doc = encode(sample_partitions(), Vec::new());
        let mut members = match doc {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        members[0].1 = Json::Num(1.0);
        members.retain(|(k, _)| k != "dead");
        let (parts, dead) = decode(&Json::Obj(members)).unwrap();
        assert_eq!(parts.len(), 3);
        assert!(dead.is_empty());
    }

    #[test]
    fn version_and_shape_are_enforced() {
        let doc = encode(sample_partitions(), sample_dead());
        let mut members = match doc {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        members[0].1 = Json::Num(99.0);
        assert!(decode(&Json::Obj(members.clone())).is_err());
        assert!(decode(&Json::Null).is_err());
        assert!(decode(&Json::parse(r#"{"version":1,"kind":"other","partitions":[]}"#).unwrap())
            .is_err());
        // A v2 document must carry the dead array.
        members[0].1 = Json::Num(2.0);
        members.retain(|(k, _)| k != "dead");
        assert!(decode(&Json::Obj(members)).is_err());
    }

    /// A state no predictor would produce but every codec must carry:
    /// each field drawn independently, the wait lists salted with the
    /// extremes of the admitted range.
    fn random_snapshot(rng: &mut StdRng, waits: usize) -> PartitionSnapshot {
        const EDGES: [f64; 4] = [0.0, 5e-324, f64::MIN_POSITIVE, f64::MAX];
        let unit = |rng: &mut StdRng| rng.gen_f64_open();
        let count = |rng: &mut StdRng| rng.gen_range(0..1 << 40);
        let opt = |rng: &mut StdRng| rng.gen_bool(0.5).then(|| rng.gen_range(1..1 << 40));
        let wait_list = |rng: &mut StdRng| -> Vec<f64> {
            (0..waits)
                .map(|_| match rng.gen_range(0..16) {
                    i @ 0..=3 => EDGES[i],
                    // Sign bit clear: any non-negative bit pattern.
                    _ => Some(f64::from_bits(rng.next_u64() >> 1))
                        .filter(|w| w.is_finite())
                        .unwrap_or(f64::MAX),
                })
                .collect()
        };
        let detector = |rng: &mut StdRng| {
            let threshold = rng.gen_range(1..100);
            DetectorState {
                threshold,
                consecutive_misses: rng.gen_range(0..threshold),
                times_fired: count(rng),
            }
        };
        let signed = |rng: &mut StdRng| (rng.gen_f64() - 0.5) * 1e9;
        let name = |rng: &mut StdRng| -> String {
            let alphabet: Vec<char> = "az09-_./ \u{e9}\u{4e16}\"\\".chars().collect();
            (0..rng.gen_range(0..24))
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect()
        };
        PartitionSnapshot {
            site: name(rng),
            queue: name(rng),
            range: ProcRange::ALL[rng.gen_range(0..4)],
            seq: count(rng) as u64,
            bmbp: BmbpState {
                quantile: unit(rng),
                confidence: unit(rng),
                method: METHOD_TAGS[rng.gen_range(0..3)],
                trimming: rng.gen_bool(0.5),
                threshold_override: opt(rng),
                max_history: opt(rng),
                detector: detector(rng),
                trims: count(rng),
                calibrated: rng.gen_bool(0.5),
                waits: wait_list(rng),
            },
            lognormal: LogNormalState {
                quantile: unit(rng),
                confidence: unit(rng),
                trimming: rng.gen_bool(0.5),
                threshold_override: opt(rng),
                detector: detector(rng),
                trims: count(rng),
                moments: MomentsState {
                    sum: signed(rng),
                    sum_comp: signed(rng) * 1e-20,
                    sum_sq: signed(rng),
                    sum_sq_comp: signed(rng) * 1e-20,
                    removals: count(rng),
                },
                waits: wait_list(rng),
            },
        }
    }

    fn record_of(snap: &PartitionSnapshot) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_record(snap, &mut payload);
        payload
    }

    #[test]
    fn binary_record_round_trips_and_agrees_with_the_document_codec() {
        // Both codecs must carry every field: a field added to one and not
        // the other shows up as a difference here.
        let mut rng = StdRng::seed_from_u64(0x5EC0);
        let mut methods = [false; 3];
        for case in 0..60 {
            let waits = match case % 6 {
                0 => 0,
                1 => 10_000,
                _ => rng.gen_range(1..200),
            };
            let snap = random_snapshot(&mut rng, waits);
            methods[METHOD_TAGS.iter().position(|m| *m == snap.bmbp.method).unwrap()] = true;
            let binary = decode_record(&record_of(&snap)).expect("record decodes");
            assert_eq!(binary, snap, "case {case}: binary round trip");
            let text = encode_partition(&snap).to_string_compact();
            let document = decode_partition(&Json::parse(&text).unwrap()).expect("entry decodes");
            assert_eq!(binary, document, "case {case}: the two codecs disagree");
            // Equality of f64s is not identity of bits; the record's is.
            for (got, want) in [
                (&binary.bmbp.waits, &snap.bmbp.waits),
                (&binary.lognormal.waits, &snap.lognormal.waits),
            ] {
                assert!(got.iter().map(|w| w.to_bits()).eq(want.iter().map(|w| w.to_bits())));
            }
        }
        assert_eq!(methods, [true; 3], "every bound method must have been drawn");
    }

    #[test]
    fn damaged_framed_records_are_typed_never_a_panic_or_another_partition() {
        use qdelay_journal::frame::{self, Check};
        let snap = random_snapshot(&mut StdRng::seed_from_u64(7), 60);
        let mut framed = Vec::new();
        let start = frame::begin(&mut framed);
        encode_record(&snap, &mut framed);
        frame::finish(&mut framed, start);
        // What a spill-slot reader does with the bytes it is handed.
        let read = |bytes: &[u8]| -> Result<PartitionSnapshot, String> {
            match frame::check(bytes, 1 << 26) {
                Check::Complete { start, end, next } if next == bytes.len() => {
                    decode_record(&bytes[start..end])
                }
                Check::Complete { .. } => Err("frame shorter than its slot".into()),
                Check::Incomplete => Err("torn frame".into()),
                Check::Damaged(why) => Err(why.into()),
            }
        };
        assert_eq!(read(&framed), Ok(snap.clone()));
        for cut in 0..framed.len() {
            assert!(read(&framed[..cut]).is_err(), "truncation at {cut} must not decode");
        }
        for i in 0..framed.len() {
            for bit in 0..8 {
                let mut flipped = framed.clone();
                flipped[i] ^= 1 << bit;
                assert!(read(&flipped).is_err(), "flip at byte {i} bit {bit} decoded");
            }
        }
        // Behind an intact CRC the decoder stands alone: a damaged payload
        // may decode to *some* valid state, but it must never panic, and a
        // short one is always an error (the length is exact).
        let payload = &framed[frame::PREFIX_LEN..];
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_err(), "payload cut at {cut}");
        }
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.to_vec();
                flipped[i] ^= 1 << bit;
                let _ = decode_record(&flipped);
            }
        }
    }

    #[test]
    fn hostile_record_fields_are_rejected() {
        const SENTINEL: f64 = 12_345.678;
        let mut snap = random_snapshot(&mut StdRng::seed_from_u64(11), 8);
        snap.site = "site".into();
        snap.bmbp.waits[3] = SENTINEL;
        snap.lognormal.waits[5] = SENTINEL;
        let good = record_of(&snap);
        assert!(decode_record(&good).is_ok());
        let patched = |at: usize, bytes: &[u8]| {
            let mut p = good.clone();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            decode_record(&p)
        };

        // Waits: both lists, every inadmissible class.
        let sentinel = SENTINEL.to_bits().to_le_bytes();
        let wait_offsets: Vec<usize> = (0..good.len() - 7)
            .filter(|&i| good[i..i + 8] == sentinel)
            .collect();
        assert_eq!(wait_offsets.len(), 2, "one sentinel per wait list");
        for at in wait_offsets {
            for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
                let err = patched(at, &bad.to_bits().to_le_bytes()).unwrap_err();
                assert!(err.contains("finite and non-negative"), "{bad}: {err}");
            }
        }

        // Version and the two enum tags.
        assert!(patched(0, &[0]).unwrap_err().contains("version"));
        assert!(patched(0, &[RECORD_VERSION + 1]).unwrap_err().contains("version"));
        assert!(patched(1, &[4]).unwrap_err().contains("proc range tag"));
        let method_at = 2 + 4 + snap.site.len() + 4 + snap.queue.len() + 8 + 16;
        let method = METHOD_TAGS.iter().position(|m| *m == snap.bmbp.method).unwrap();
        assert_eq!(usize::from(good[method_at]), method, "the layout in the module docs");
        assert!(patched(method_at, &[3]).unwrap_err().contains("bound method tag"));
        // The flag after it (trimming) admits only 0 and 1.
        assert!(patched(method_at + 1, &[2]).unwrap_err().contains("0 or 1"));

        // A name that is not UTF-8, a count larger than the bytes present,
        // and bytes after the record.
        assert!(patched(6, &[0xFF]).unwrap_err().contains("UTF-8"));
        let mut long_count = good.clone();
        let count_at = good.len() - 8 * snap.lognormal.waits.len() - 4;
        long_count[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_record(&long_count).unwrap_err().contains("truncated"));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_record(&trailing).unwrap_err().contains("trailing"));
        // A detector whose run has reached its threshold is not a state a
        // live detector can be in; the document decoder rejects it too.
        let mut stuck = snap.clone();
        stuck.bmbp.detector.consecutive_misses = stuck.bmbp.detector.threshold;
        assert!(decode_record(&record_of(&stuck)).unwrap_err().contains("detector"));
        let stuck_doc = encode_partition(&stuck).to_string_compact();
        assert!(decode_partition(&Json::parse(&stuck_doc).unwrap()).is_err());
    }

    #[test]
    fn proc_range_labels_round_trip() {
        for r in ProcRange::ALL {
            assert_eq!(proc_range_from_label(r.label()), Some(r));
        }
        assert_eq!(proc_range_from_label("2-3"), None);
    }
}
