//! The partition formats, all owned here: the snapshot file, the binary
//! partition record it is made of, and the JSON snapshot document that
//! `qdelay snapshot export` prints.
//!
//! A snapshot holds every partition's serializable core — the predictors'
//! plain state ([`qdelay_predict::state`]) and their one shared history —
//! and the cursors of tombstoned partitions. Properties:
//!
//! * **Flat** — partitions are stored as a sorted list keyed by
//!   `(site, queue, procs-range)`; the shard count is *not* part of the
//!   format, so a restart may re-shard freely.
//! * **Deterministic** — entries sort by key and every float is carried
//!   losslessly (raw bits in the record, shortest round-trip in the JSON
//!   document), so equal registry states produce byte-identical output.
//! * **Warm** — restoring and replaying the remainder of a workload yields
//!   bit-identical predictions to a server that never restarted.
//!
//! Consistency: a shard serializes its partitions under its lock, so every
//! partition is internally consistent at some point during the collect;
//! the file is not a single global cut across shards.
//!
//! **One history per partition.** Both predictors see every wait and drop
//! only the oldest, so their histories are suffixes of one arrival
//! sequence: `waits` is the longer, oldest first, and each predictor keeps
//! the newest `retained` of it. The two lengths differ in ~45 % of samples
//! of long-lived partitions on the paper's loop, so both are kept. Every
//! decoder requires `waits` to be exactly as long as the longer history —
//! no stored wait is one no predictor owns, so equal states encode equally.
//!
//! ## The snapshot file (version 4)
//!
//! A sequence of CRC frames — the shared [`qdelay_journal::frame`] codec,
//! with the spill file's payload cap (`MAX_FRAME_PAYLOAD`, 64 MiB):
//!
//! ```text
//! header       "QDLYSNAP" | u32 version (4) | u64 partitions | u64 dead
//! partitions × one binary partition record (below), sorted by key
//! dead       × u8 proc-range tag | u32 len | site | u32 len | queue | u64 seq,
//!              sorted by key
//! ```
//!
//! The reader ([`parse`]): empty bytes are empty state — what a primary
//! ships for a journal directory with no snapshot yet. Anything else must
//! be exactly the frames its header counts: a damaged or torn frame (a JSON
//! document among them), a count that does not match the frames present,
//! trailing bytes, and a key named twice are each `InvalidData`. There is no right answer to which of two
//! entries for one key is the state, and no writer produces one. A record
//! past the cap is refused by the writer, while the partition is still in
//! memory: a file the reader would reject is lost state.
//!
//! Only this module knows the file form: [`read`] and [`parse`] are the one
//! reader (boot, and a replica's resync, which parses the bytes the primary
//! read off its file), and [`render`] + [`write`] the one writer (a
//! `snapshot` request, graceful shutdown, boot consolidation and journal
//! compaction). A missing file reads as empty state.
//!
//! ## The binary partition record
//!
//! [`encode_record`]/[`decode_record`] carry every field with every `f64`
//! as raw `to_bits`, so no float is printed or parsed. It is a frame
//! *payload*: a snapshot file's partition frames and a hibernation spill
//! slot ([`crate::hibernate`]) hold it, and `frame_record` frames it for
//! both. Spill files are truncated at boot and snapshot files carry the
//! file version, so only this record version is read. Little-endian:
//!
//! ```text
//! u8  version (2)        | u8 proc-range tag (index into ProcRange::ALL)
//! u32 len | site bytes   | u32 len | queue bytes            (UTF-8)
//! u64 seq
//! bmbp:      f64 quantile | f64 confidence | u8 method (0 auto, 1 exact,
//!            2 approx; written 0, all served exactly) | u8 trimming
//!            | opt threshold_override
//!            | opt max_history | detector | u64 trims | u8 calibrated
//! lognormal: f64 quantile | f64 confidence | u8 trimming
//!            | opt threshold_override | detector | u64 trims
//!            | f64 sum | f64 sum_comp | f64 sum_sq | f64 sum_sq_comp
//! history:   u32 count | count × f64 bits | u32 bmbp_retained | u32 lognormal_retained
//!
//! opt      = u8 0, or u8 1 then u64
//! detector = u64 threshold | u64 consecutive_misses | u64 times_fired
//! ```
//!
//! [`decode_record`] reads through the shared frame [`Reader`]: every
//! length is bounded by the bytes present, every field validated, and no
//! byte left over. Damage is a typed error, never a panic.
//!
//! ## The JSON document (version 3)
//!
//! The same fields as text, written for people and tools: `qdelay snapshot
//! export` ([`export`]) prints it, and nothing reads it back as state.
//! `qdelay-json` prints floats shortest-round-trip, so it is lossless: the
//! tests hold [`decode_partition`] to the inverse of [`encode_partition`].
//!
//! ```text
//! { "version": 3, "kind": "qdelay-serve-snapshot",
//!   "partitions": [ { "site", "queue", "procs", "seq",
//!       "bmbp":      { quantile, confidence, method, trimming, threshold_override,
//!                      max_history, detector, trims, calibrated, retained },
//!       "lognormal": { quantile, confidence, trimming, threshold_override, detector,
//!                      trims, moments: { sum, sum_comp, sum_sq, sum_sq_comp }, retained },
//!       "waits": [ ... ] } ],
//!   "dead": [ { "site", "queue", "procs", "seq" } ] }
//! ```

use crate::durability::journal_to_io;
use crate::proto::text;
use crate::registry::PartitionKey;
use qdelay_journal::frame::{self, Check, Reader};
use qdelay_json::Json;
use qdelay_predict::state::{BmbpState, DetectorState, LogNormalState, MomentsState};
use qdelay_trace::ProcRange;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// Version of the JSON snapshot document [`export`] writes.
pub const DOCUMENT_VERSION: u64 = 3;

/// Version of the framed snapshot file this build writes and reads.
pub const FILE_VERSION: u32 = 4;

/// The first bytes of a snapshot file's header frame payload.
const FILE_MAGIC: [u8; 8] = *b"QDLYSNAP";

/// Largest frame payload written or accepted on read, in a snapshot file
/// and a spill file alike: 4 M observations' worth. Anything near this on
/// read is damage, not data.
pub(crate) const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

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
    /// The longer of the two predictors' histories, in arrival order
    /// (oldest first). The other history is a suffix of it.
    pub waits: Vec<f64>,
    /// How many of the newest `waits` the BMBP predictor retains.
    pub bmbp_retained: usize,
    /// How many of the newest `waits` the log-normal predictor retains.
    pub lognormal_retained: usize,
}

impl PartitionSnapshot {
    /// The partition this entry is the state of.
    pub fn key(&self) -> PartitionKey {
        PartitionKey { site: self.site.clone(), queue: self.queue.clone(), range: self.range }
    }

    /// The BMBP and log-normal histories: the newest `bmbp_retained` and
    /// `lognormal_retained` of `waits` (all of them, should a hand-built
    /// entry claim more — no decoder admits one that does).
    pub fn histories(&self) -> (&[f64], &[f64]) {
        let suffix = |retained: usize| &self.waits[self.waits.len().saturating_sub(retained)..];
        (suffix(self.bmbp_retained), suffix(self.lognormal_retained))
    }
}

/// The shape rule of the shared history, which every decoder enforces: the
/// list is exactly as long as the longer history, so no stored wait is one
/// no predictor owns (and equal states encode to equal bytes).
fn check_retained(count: usize, bmbp: usize, lognormal: usize) -> Result<(), String> {
    if bmbp.max(lognormal) == count {
        Ok(())
    } else {
        Err(format!("{count} waits stored, but the predictors retain {bmbp} and {lognormal}"))
    }
}

/// A whole snapshot: the live partitions, and the cursors of partitions
/// deleted by a tombstone. A dead cursor is the tombstone's sequence number
/// and a resurrecting record continues at `seq + 1`; without it a
/// compaction could fold a tombstoned partition out of existence and a later
/// replay would see its seq counter restart — breaking the monotone dedup
/// replication relies on.
pub type Document = (Vec<PartitionSnapshot>, Vec<(PartitionKey, u64)>);

/// Sorts partitions by key: the order every writer emits.
fn sort_by_key(partitions: &mut [PartitionSnapshot]) {
    partitions.sort_by(|a, b| (&a.site, &a.queue, a.range).cmp(&(&b.site, &b.queue, b.range)));
}

/// Refuses a snapshot that names one key twice, across the partitions and
/// the dead cursors, naming the key.
fn check_distinct((parts, dead): &Document) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(parts.len() + dead.len());
    let keys = parts.iter().map(|p| (&p.site, &p.queue, p.range));
    for (site, queue, range) in keys.chain(dead.iter().map(|(k, _)| (&k.site, &k.queue, k.range))) {
        if !seen.insert((site, queue, range)) {
            return Err(format!("snapshot names partition {site}/{queue}/{} twice", range.label()));
        }
    }
    Ok(())
}

/// Parses a proc-range from its table label (`"1-4"`, `"5-16"`, `"17-64"`,
/// `"65+"`).
pub fn proc_range_from_label(label: &str) -> Option<ProcRange> {
    ProcRange::ALL.into_iter().find(|r| r.label() == label)
}

/// The bound-method names a partition may carry, by record tag (the
/// index). Every method serves the exact index, so a reader checks the tag
/// and drops it, and a writer always writes the first, `auto`, which keeps
/// the bytes of an export, a spill, a journal and a replica stream stable.
const METHOD_NAMES: [&str; 3] = ["auto", "exact", "approx"];

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(x: usize) -> Json {
    Json::Num(x as f64)
}

fn opt_num(x: Option<usize>) -> Json {
    x.map_or(Json::Null, num)
}

fn detector_json(d: &DetectorState) -> Json {
    obj(vec![
        ("threshold", num(d.threshold)),
        ("consecutive_misses", num(d.consecutive_misses)),
        ("times_fired", num(d.times_fired)),
    ])
}

/// Encodes one partition as its snapshot-document object.
pub fn encode_partition(p: &PartitionSnapshot) -> Json {
    let (b, l, m) = (&p.bmbp, &p.lognormal, &p.lognormal.moments);
    obj(vec![
        ("site", Json::Str(p.site.clone())),
        ("queue", Json::Str(p.queue.clone())),
        ("procs", Json::Str(p.range.label().into())),
        ("seq", Json::Num(p.seq as f64)),
        (
            "bmbp",
            obj(vec![
                ("quantile", Json::Num(b.quantile)),
                ("confidence", Json::Num(b.confidence)),
                ("method", Json::Str(METHOD_NAMES[0].into())),
                ("trimming", Json::Bool(b.trimming)),
                ("threshold_override", opt_num(b.threshold_override)),
                ("max_history", opt_num(b.max_history)),
                ("detector", detector_json(&b.detector)),
                ("trims", num(b.trims)),
                ("calibrated", Json::Bool(b.calibrated)),
                ("retained", num(p.bmbp_retained)),
            ]),
        ),
        (
            "lognormal",
            obj(vec![
                ("quantile", Json::Num(l.quantile)),
                ("confidence", Json::Num(l.confidence)),
                ("trimming", Json::Bool(l.trimming)),
                ("threshold_override", opt_num(l.threshold_override)),
                ("detector", detector_json(&l.detector)),
                ("trims", num(l.trims)),
                (
                    "moments",
                    obj(vec![
                        ("sum", Json::Num(m.sum)),
                        ("sum_comp", Json::Num(m.sum_comp)),
                        ("sum_sq", Json::Num(m.sum_sq)),
                        ("sum_sq_comp", Json::Num(m.sum_sq_comp)),
                    ]),
                ),
                ("retained", num(p.lognormal_retained)),
            ]),
        ),
        ("waits", Json::Arr(p.waits.iter().map(|&w| Json::Num(w)).collect())),
    ])
}

/// The document's one field reader: `key`'s value, through `read`, which
/// accepts only `what`.
fn field<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    read: fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    let x = v.get(key).ok_or_else(|| format!("missing '{key}'"))?;
    read(x).ok_or_else(|| format!("'{key}' must be {what}"))
}

fn get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    field(v, key, "present", Some)
}

fn get_f64(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key, "a number", Json::as_f64)
}

fn get_usize(v: &Json, key: &str) -> Result<usize, String> {
    field(v, key, "a non-negative integer", Json::as_usize)
}

fn get_opt_usize(v: &Json, key: &str) -> Result<Option<usize>, String> {
    let read = |x: &Json| if let Json::Null = x { Some(None) } else { x.as_usize().map(Some) };
    field(v, key, "null or a non-negative integer", read)
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key, "a boolean", |x| if let Json::Bool(b) = x { Some(*b) } else { None })
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    field(v, key, "a string", Json::as_str)
}

fn get_array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key, "an array", Json::as_array)
}

/// The document's one wait-list reader.
fn get_waits(v: &Json) -> Result<Vec<f64>, String> {
    get_array(v, "waits")?
        .iter()
        .map(|x| match x.as_f64() {
            Some(w) if w.is_finite() && w >= 0.0 => Ok(w),
            _ => Err(format!("waits must be finite and non-negative numbers, got {x:?}")),
        })
        .collect()
}

fn get_detector(v: &Json) -> Result<DetectorState, String> {
    let d = get(v, "detector")?;
    let d = DetectorState {
        threshold: get_usize(d, "threshold")?,
        consecutive_misses: get_usize(d, "consecutive_misses")?,
        times_fired: get_usize(d, "times_fired")?,
    };
    d.validate().map_err(|e| e.to_string())?;
    Ok(d)
}

fn get_bmbp(v: &Json) -> Result<BmbpState, String> {
    let name = get_str(v, "method")?;
    if !METHOD_NAMES.contains(&name) {
        return Err(format!("unknown bound method '{name}'"));
    }
    Ok(BmbpState {
        quantile: get_f64(v, "quantile")?,
        confidence: get_f64(v, "confidence")?,
        trimming: get_bool(v, "trimming")?,
        threshold_override: get_opt_usize(v, "threshold_override")?,
        max_history: get_opt_usize(v, "max_history")?,
        detector: get_detector(v)?,
        trims: get_usize(v, "trims")?,
        calibrated: get_bool(v, "calibrated")?,
    })
}

fn get_lognormal(v: &Json) -> Result<LogNormalState, String> {
    let m = get(v, "moments")?;
    Ok(LogNormalState {
        quantile: get_f64(v, "quantile")?,
        confidence: get_f64(v, "confidence")?,
        trimming: get_bool(v, "trimming")?,
        threshold_override: get_opt_usize(v, "threshold_override")?,
        detector: get_detector(v)?,
        trims: get_usize(v, "trims")?,
        moments: MomentsState {
            sum: get_f64(m, "sum")?,
            sum_comp: get_f64(m, "sum_comp")?,
            sum_sq: get_f64(m, "sum_sq")?,
            sum_sq_comp: get_f64(m, "sum_sq_comp")?,
        },
    })
}

fn get_key(v: &Json) -> Result<PartitionKey, String> {
    let label = get_str(v, "procs")?;
    Ok(PartitionKey {
        site: get_str(v, "site")?.to_string(),
        queue: get_str(v, "queue")?.to_string(),
        range: proc_range_from_label(label)
            .ok_or_else(|| format!("unknown proc range '{label}'"))?,
    })
}

/// Decodes one partition object (the inverse of [`encode_partition`]),
/// validating every field.
pub fn decode_partition(p: &Json) -> Result<PartitionSnapshot, String> {
    let PartitionKey { site, queue, range } = get_key(p)?;
    let (b, l) = (get(p, "bmbp")?, get(p, "lognormal")?);
    let (waits, bmbp_retained, lognormal_retained) =
        (get_waits(p)?, get_usize(b, "retained")?, get_usize(l, "retained")?);
    check_retained(waits.len(), bmbp_retained, lognormal_retained)?;
    let seq = get_usize(p, "seq")? as u64;
    let bmbp = get_bmbp(b).map_err(|e| format!("bmbp state: {e}"))?;
    let lognormal = get_lognormal(l).map_err(|e| format!("lognormal state: {e}"))?;
    Ok(PartitionSnapshot {
        site, queue, range, seq, bmbp, lognormal, waits, bmbp_retained, lognormal_retained,
    })
}

/// Version byte that opens every binary partition record.
pub const RECORD_VERSION: u8 = 2;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    let v = u32::try_from(v).expect("names and histories are far below 2^32");
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt(out: &mut Vec<u8>, v: Option<usize>) {
    out.push(u8::from(v.is_some()));
    if let Some(x) = v {
        put_u64(out, x as u64);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_range(out: &mut Vec<u8>, range: ProcRange) {
    let tag = ProcRange::ALL.iter().position(|r| *r == range);
    out.push(tag.expect("ALL lists every range") as u8);
}

fn put_detector(out: &mut Vec<u8>, d: &DetectorState) {
    put_u64(out, d.threshold as u64);
    put_u64(out, d.consecutive_misses as u64);
    put_u64(out, d.times_fired as u64);
}

/// Appends the binary record of one partition to `out` (layout in the
/// module docs). The bytes are a frame payload: `frame_record` wraps
/// them.
pub fn encode_record(p: &PartitionSnapshot, out: &mut Vec<u8>) {
    out.push(RECORD_VERSION);
    put_range(out, p.range);
    put_str(out, &p.site);
    put_str(out, &p.queue);
    put_u64(out, p.seq);

    let b = &p.bmbp;
    put_u64(out, b.quantile.to_bits());
    put_u64(out, b.confidence.to_bits());
    out.push(0); // the method tag: `METHOD_NAMES`
    out.push(u8::from(b.trimming));
    put_opt(out, b.threshold_override);
    put_opt(out, b.max_history);
    put_detector(out, &b.detector);
    put_u64(out, b.trims as u64);
    out.push(u8::from(b.calibrated));

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

    put_u32(out, p.waits.len());
    out.reserve(p.waits.len() * 8);
    for w in &p.waits {
        put_u64(out, w.to_bits());
    }
    put_u32(out, p.bmbp_retained);
    put_u32(out, p.lognormal_retained);
}

/// Appends one partition's record to `out` as a whole CRC frame — the
/// form a snapshot file and a spill slot both hold. A record past
/// [`MAX_FRAME_PAYLOAD`] is refused: no reader would take it back.
pub(crate) fn frame_record(p: &PartitionSnapshot, out: &mut Vec<u8>) -> io::Result<()> {
    let start = frame::begin(out);
    encode_record(p, out);
    let len = out.len() - start - frame::PREFIX_LEN;
    if len > MAX_FRAME_PAYLOAD as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "partition {}/{}/{}: its record of {len} bytes is past the \
                 {MAX_FRAME_PAYLOAD}-byte frame cap",
                p.site,
                p.queue,
                p.range.label()
            ),
        ));
    }
    frame::finish(out, start);
    Ok(())
}

fn usize_field(r: &mut Reader<'_>, what: &'static str) -> Result<usize, String> {
    usize::try_from(r.u64(what)?).map_err(|_| format!("{what} out of range"))
}

fn f64_field(r: &mut Reader<'_>, what: &'static str) -> Result<f64, String> {
    Ok(f64::from_bits(r.u64(what)?))
}

fn flag(r: &mut Reader<'_>, what: &'static str) -> Result<bool, String> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("{what} must be 0 or 1, got {other}")),
    }
}

fn opt(r: &mut Reader<'_>, what: &'static str) -> Result<Option<usize>, String> {
    Ok(if flag(r, what)? { Some(usize_field(r, what)?) } else { None })
}

/// One of a closed set of values, by its index in `all`.
fn tagged<T: Copy>(r: &mut Reader<'_>, all: &[T], what: &'static str) -> Result<T, String> {
    let tag = r.u8(what)?;
    all.get(usize::from(tag)).copied().ok_or_else(|| format!("unknown {what} tag {tag}"))
}

fn detector(r: &mut Reader<'_>, what: &'static str) -> Result<DetectorState, String> {
    let d = DetectorState {
        threshold: usize_field(r, what)?,
        consecutive_misses: usize_field(r, what)?,
        times_fired: usize_field(r, what)?,
    };
    d.validate().map_err(|e| format!("{what}: {e}"))?;
    Ok(d)
}

/// The record's one wait-list reader. The count is checked against the
/// bytes present (by `take`) before anything is allocated for it.
fn waits(r: &mut Reader<'_>) -> Result<Vec<f64>, String> {
    let count = r.u32("waits")? as usize;
    let bytes = r.take(count.saturating_mul(8), "waits")?;
    let mut waits = Vec::with_capacity(count);
    for c in bytes.chunks_exact(8) {
        let w = f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        if !(w.is_finite() && w >= 0.0) {
            return Err(format!("waits must be finite and non-negative, got {w}"));
        }
        waits.push(w);
    }
    Ok(waits)
}

/// Decodes one binary partition record (the inverse of [`encode_record`])
/// from a whole frame payload, validating every field. The payload must be
/// exactly one record: trailing bytes are an error.
pub fn decode_record(payload: &[u8]) -> Result<PartitionSnapshot, String> {
    let r = &mut Reader::new(payload);
    let version = r.u8("version")?;
    if version != RECORD_VERSION {
        return Err(format!(
            "record version {version} unsupported (this build reads {RECORD_VERSION})"
        ));
    }
    let range = tagged(r, &ProcRange::ALL, "proc range")?;
    let site = text(r, "site")?;
    let queue = text(r, "queue")?;
    let seq = r.u64("seq")?;
    let (quantile, confidence) = (f64_field(r, "bmbp quantile")?, f64_field(r, "bmbp confidence")?);
    tagged(r, &METHOD_NAMES, "bound method")?;
    let bmbp = BmbpState {
        quantile,
        confidence,
        trimming: flag(r, "bmbp trimming")?,
        threshold_override: opt(r, "bmbp threshold_override")?,
        max_history: opt(r, "bmbp max_history")?,
        detector: detector(r, "bmbp detector")?,
        trims: usize_field(r, "bmbp trims")?,
        calibrated: flag(r, "bmbp calibrated")?,
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
        },
    };
    let waits = waits(r)?;
    let bmbp_retained = r.u32("bmbp retained")? as usize;
    let lognormal_retained = r.u32("lognormal retained")? as usize;
    check_retained(waits.len(), bmbp_retained, lognormal_retained)?;
    r.done("record")?;
    Ok(PartitionSnapshot {
        site, queue, range, seq, bmbp, lognormal, waits, bmbp_retained, lognormal_retained,
    })
}

/// Encodes partitions (and tombstoned cursors) into the snapshot
/// document, sorting both lists by key for deterministic output.
pub fn encode(
    mut partitions: Vec<PartitionSnapshot>,
    mut dead: Vec<(PartitionKey, u64)>,
) -> Json {
    sort_by_key(&mut partitions);
    dead.sort_unstable();
    let dead = dead.into_iter().map(|(key, seq)| {
        obj(vec![
            ("site", Json::Str(key.site)),
            ("queue", Json::Str(key.queue)),
            ("procs", Json::Str(key.range.label().into())),
            ("seq", Json::Num(seq as f64)),
        ])
    });
    obj(vec![
        ("version", Json::Num(DOCUMENT_VERSION as f64)),
        ("kind", Json::Str("qdelay-serve-snapshot".into())),
        ("partitions", Json::Arr(partitions.iter().map(encode_partition).collect())),
        ("dead", Json::Arr(dead.collect())),
    ])
}

/// The JSON document of a snapshot, pretty-printed with a trailing newline:
/// what `qdelay snapshot export` prints for any file [`parse`] accepts. It
/// is output only: no reader takes it back.
pub fn export((partitions, dead): Document) -> String {
    let mut text = encode(partitions, dead).to_string_pretty();
    text.push('\n');
    text
}

/// Renders a snapshot in its file form (layout in the module docs): both
/// lists sorted by key, each entry one frame, so equal states render to
/// equal bytes. A partition whose record is past the frame cap is
/// `InvalidData`.
pub fn render(
    mut partitions: Vec<PartitionSnapshot>,
    mut dead: Vec<(PartitionKey, u64)>,
) -> io::Result<Vec<u8>> {
    sort_by_key(&mut partitions);
    dead.sort_unstable();
    // Past its names and waits, a record takes at most 189 bytes and a
    // dead cursor 17.
    let names = |site: &str, queue: &str| frame::PREFIX_LEN + site.len() + queue.len();
    let size = partitions.iter().map(|p| names(&p.site, &p.queue) + 189 + 8 * p.waits.len());
    let size = size.chain(dead.iter().map(|(k, _)| names(&k.site, &k.queue) + 17)).sum::<usize>();
    let mut out = Vec::with_capacity(frame::PREFIX_LEN + 28 + size);
    let start = frame::begin(&mut out);
    out.extend_from_slice(&FILE_MAGIC);
    out.extend_from_slice(&FILE_VERSION.to_le_bytes());
    put_u64(&mut out, partitions.len() as u64);
    put_u64(&mut out, dead.len() as u64);
    frame::finish(&mut out, start);
    for p in &partitions {
        frame_record(p, &mut out)?;
    }
    for (key, seq) in &dead {
        let start = frame::begin(&mut out);
        put_range(&mut out, key.range);
        put_str(&mut out, &key.site);
        put_str(&mut out, &key.queue);
        put_u64(&mut out, *seq);
        frame::finish(&mut out, start);
    }
    Ok(out)
}

/// The payload of the frame at `bytes[*at..]`, moving `*at` past it.
fn next_frame<'a>(bytes: &'a [u8], at: &mut usize, what: &str) -> Result<&'a [u8], String> {
    match frame::check(&bytes[*at..], MAX_FRAME_PAYLOAD) {
        Check::Complete { start, end, next } => {
            let payload = &bytes[*at + start..*at + end];
            *at += next;
            Ok(payload)
        }
        Check::Incomplete => Err(format!("snapshot truncated in its {what} frame at byte {at}")),
        Check::Damaged(why) => Err(format!("snapshot {what} frame at byte {at}: {why}")),
    }
}

/// The header frame's payload: the partition and dead-cursor counts.
fn read_header(payload: &[u8]) -> Result<(usize, usize), String> {
    let r = &mut Reader::new(payload);
    if r.take(FILE_MAGIC.len(), "magic")? != FILE_MAGIC {
        return Err("not a snapshot file (no magic)".into());
    }
    let version = r.u32("version")?;
    if version != FILE_VERSION {
        return Err(format!(
            "snapshot version {version} unsupported (this build reads {FILE_VERSION})"
        ));
    }
    let counts = (usize_field(r, "partition count")?, usize_field(r, "dead count")?);
    r.done("header")?;
    Ok(counts)
}

/// A dead-cursor frame's payload.
fn read_dead(payload: &[u8]) -> Result<(PartitionKey, u64), String> {
    let r = &mut Reader::new(payload);
    let range = tagged(r, &ProcRange::ALL, "proc range")?;
    let (site, queue) = (text(r, "site")?, text(r, "queue")?);
    let seq = r.u64("seq")?;
    r.done("dead cursor")?;
    Ok((PartitionKey { site, queue, range }, seq))
}

/// Reads a framed snapshot file: the header, exactly the frames it counts,
/// and nothing after them.
fn read_frames(bytes: &[u8]) -> Result<Document, String> {
    let mut at = 0;
    let header = next_frame(bytes, &mut at, "header").map_err(|e| {
        format!("{e} (this build reads version-{FILE_VERSION} framed snapshot files only)")
    })?;
    let (parts, dead) = read_header(header).map_err(|e| format!("snapshot header: {e}"))?;
    // Every entry is at least a frame prefix, so no count can reserve more
    // than the bytes present could hold.
    let most = bytes.len() / frame::PREFIX_LEN;
    let mut doc: Document =
        (Vec::with_capacity(parts.min(most)), Vec::with_capacity(dead.min(most)));
    for i in 0..parts {
        let payload = next_frame(bytes, &mut at, "partition")?;
        doc.0.push(decode_record(payload).map_err(|e| format!("partition frame {i}: {e}"))?);
    }
    for i in 0..dead {
        let payload = next_frame(bytes, &mut at, "dead cursor")?;
        doc.1.push(read_dead(payload).map_err(|e| format!("dead cursor frame {i}: {e}"))?);
    }
    if at != bytes.len() {
        return Err(format!(
            "snapshot has {} trailing bytes after the {} frames its header counts",
            bytes.len() - at,
            1 + parts + dead
        ));
    }
    check_distinct(&doc)?;
    Ok(doc)
}

/// Parses a snapshot file's bytes — or a replica's SNAPSHOT message, which
/// carries them: empty bytes are empty state, and anything else must be the
/// framed file. Anything that is not a valid snapshot, the JSON document
/// included, is `InvalidData`.
pub fn parse(bytes: &[u8]) -> io::Result<Document> {
    if bytes.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    read_frames(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Reads the snapshot file at `path`; a missing file is empty state.
pub fn read(path: &Path) -> io::Result<Document> {
    match std::fs::read(path) {
        Ok(bytes) => parse(&bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok((Vec::new(), Vec::new())),
        Err(e) => Err(e),
    }
}

/// Writes rendered bytes to `path` atomically (tmp + fsync + rename): a
/// crash mid-write leaves the previous file intact, never a truncated one.
pub fn write(path: &Path, rendered: &[u8]) -> io::Result<()> {
    qdelay_journal::write_atomic(path, rendered).map_err(journal_to_io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Partition, PartitionKey, Prediction};
    use qdelay_rng::{Rng, StdRng};
    use qdelay_trace::{catalog, synth, synth::SynthSettings};

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

    fn sorted((mut parts, mut dead): Document) -> Document {
        sort_by_key(&mut parts);
        dead.sort();
        (parts, dead)
    }

    #[test]
    fn the_file_reader_reads_what_the_writer_wrote_and_nothing_is_empty_state() {
        let dir = std::env::temp_dir().join("qdelay-serve-snapshot-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.snap");
        let _ = std::fs::remove_file(&path);
        assert_eq!(read(&path).unwrap(), (Vec::new(), Vec::new()), "a missing file");
        assert_eq!(parse(b"").unwrap(), (Vec::new(), Vec::new()), "empty bytes");
        let rendered = render(sample_partitions(), sample_dead()).unwrap();
        assert_eq!(rendered[frame::PREFIX_LEN..][..FILE_MAGIC.len()], FILE_MAGIC, "framed");
        write(&path, &rendered).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), rendered);
        let (parts, dead) = read(&path).unwrap();
        assert_eq!((parts.clone(), dead.clone()), sorted((sample_partitions(), sample_dead())));
        assert_eq!(render(parts, dead).unwrap(), rendered, "read then rendered: the same bytes");
        for junk in [&b"{"[..], b"\xff", b"[]", b"{\"version\":2}"] {
            assert_eq!(parse(junk).unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
    }

    /// `qdelay snapshot export` of a file this build wrote is the document
    /// of the same state, pretty-printed, byte for byte. Its partitions
    /// decode back to the state; the document itself is output, and the
    /// file reader refuses it, typed.
    #[test]
    fn export_of_a_written_file_is_the_pretty_document_of_its_state() {
        let (parts, dead) = (sample_partitions(), sample_dead());
        let mut want = encode(parts.clone(), dead.clone()).to_string_pretty();
        want.push('\n');
        let file = render(parts.clone(), dead).unwrap();
        assert_eq!(export(parse(&file).unwrap()), want);
        let doc = Json::parse(&want).unwrap();
        let entries = doc.get("partitions").and_then(Json::as_array).unwrap();
        let back: Vec<_> = entries.iter().map(|p| decode_partition(p).unwrap()).collect();
        assert_eq!(back, sorted((parts, Vec::new())).0);
        let err = parse(want.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version-4 framed snapshot files only"), "{err}");
    }

    /// A key named twice has no one state to install: the reader refuses
    /// the file naming the key, whether the two entries are both
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
        for (what, doc, key) in [
            ("twice live", twice_live, parts[0].key()),
            ("live and dead", live_and_dead, parts[2].key()),
            ("twice dead", twice_dead, dead[0].0.clone()),
        ] {
            let err = parse(&render(doc.0, doc.1).unwrap()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains(&format!("{} twice", key.label())), "{what}: {err}");
        }
        assert!(parse(&render(parts, dead).unwrap()).is_ok(), "distinct keys read");
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
            render(parts.clone(), dead.clone()).unwrap(),
            render(reversed.clone(), dead_reversed.clone()).unwrap()
        );
        assert_eq!(
            encode(parts, dead).to_string_pretty(),
            encode(reversed, dead_reversed).to_string_pretty()
        );
    }

    /// The paper's loop, one job: the partition is asked, then the job's
    /// wait is observed with the bounds it was served as feedback.
    fn paper_step(p: &mut Partition, wait: f64) -> Prediction {
        let served = p.predict();
        p.observe(wait, served.bmbp, served.lognormal);
        served
    }

    fn bits(p: Prediction) -> (usize, u64, Option<u64>, Option<u64>) {
        (p.n, p.seq, p.bmbp.map(f64::to_bits), p.lognormal.map(f64::to_bits))
    }

    /// Byte length of a rendered file's header frame.
    const HEADER_FRAME: usize = frame::PREFIX_LEN + 28;

    /// `file` with its header frame replaced by one counting `parts` and
    /// `dead` (a valid frame: only the counts lie).
    fn recounted(file: &[u8], parts: u64, dead: u64) -> Vec<u8> {
        let mut header = FILE_MAGIC.to_vec();
        header.extend_from_slice(&FILE_VERSION.to_le_bytes());
        put_u64(&mut header, parts);
        put_u64(&mut header, dead);
        let mut out = Vec::new();
        frame::encode(&header, &mut out);
        out.extend_from_slice(&file[HEADER_FRAME..]);
        out
    }

    /// The file reads version 4 only: a header naming any other version is
    /// refused, typed, naming what this build reads.
    #[test]
    fn versions_other_than_4_are_refused() {
        let file = render(sample_partitions(), sample_dead()).unwrap();
        for version in [2u32, 3, 5] {
            let mut header = file[frame::PREFIX_LEN..HEADER_FRAME].to_vec();
            header[FILE_MAGIC.len()..][..4].copy_from_slice(&version.to_le_bytes());
            let mut bytes = Vec::new();
            frame::encode(&header, &mut bytes);
            bytes.extend_from_slice(&file[HEADER_FRAME..]);
            let err = parse(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
            assert!(err.to_string().contains("unsupported (this build reads 4)"), "{err}");
        }
    }

    /// Hostile snapshot files: every truncation, every flipped bit, header
    /// counts off by one either way, trailing bytes, a frame length past
    /// the cap and a key named in both a record and a dead frame are each
    /// a typed `InvalidData` — never a panic, never a partial state.
    #[test]
    fn hostile_files_are_typed_invalid_data_never_a_panic() {
        let (parts, dead) = (sample_partitions(), sample_dead());
        let file = render(parts.clone(), dead.clone()).unwrap();
        let refused = |bytes: &[u8], what: &str| match parse(bytes) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
            Ok(_) => panic!("{what}: a damaged file read"),
        };
        assert_eq!(recounted(&file, 3, 2), file, "the header layout");
        assert!(parse(&file).is_ok());
        // Truncated at every byte: at every frame boundary and inside every
        // frame. (At zero bytes it is empty state, by design.)
        let mut starts = vec![0];
        while let Some(&at) = starts.last().filter(|&&at| at < file.len()) {
            let Check::Complete { next, .. } = frame::check(&file[at..], MAX_FRAME_PAYLOAD) else {
                unreachable!("a rendered file is whole frames")
            };
            starts.push(at + next);
        }
        assert_eq!(starts.len(), 2 + parts.len() + dead.len(), "one frame per entry");
        for cut in 1..file.len() {
            refused(&file[..cut], &format!("cut at {cut}"));
        }
        // One flipped bit anywhere, in every frame.
        for i in 0..file.len() {
            for bit in 0..8 {
                let mut flipped = file.clone();
                flipped[i] ^= 1 << bit;
                refused(&flipped, &format!("bit {bit} of byte {i}"));
            }
        }
        // Counts one above or one below the frames present.
        for (p, d) in [(4, 2), (2, 2), (3, 3), (3, 1), (0, 0), (u64::MAX, 2)] {
            refused(&recounted(&file, p, d), &format!("counts {p}/{d}"));
        }
        // Bytes after the counted frames: one byte, or one more whole frame.
        let mut trailing = file.clone();
        trailing.push(0);
        refused(&trailing, "a trailing byte");
        let mut extra = file.clone();
        extra.extend_from_slice(&file[starts[starts.len() - 2]..]);
        refused(&extra, "the last dead frame twice");
        let mut empty = file.clone();
        frame::encode(b"", &mut empty);
        refused(&empty, "a trailing empty frame");
        // A frame length past the cap, on the header and on a record.
        for at in [0, HEADER_FRAME] {
            let mut long = file.clone();
            long[at..at + 4].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
            refused(&long, &format!("frame length past the cap at {at}"));
        }
        // A key in both a record frame and a dead frame.
        let both = render(parts.clone(), vec![(parts[1].key(), 99)]).unwrap();
        let err = parse(&both).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&format!("{} twice", parts[1].key().label())), "{err}");
    }

    /// The writer refuses a record no reader would take back, before any
    /// byte is written.
    #[test]
    fn a_record_past_the_frame_cap_is_refused_by_the_writer() {
        let mut snap = sample_partitions().remove(0);
        let over = MAX_FRAME_PAYLOAD as usize / 8 + 1;
        snap.waits = vec![1.0; over];
        (snap.bmbp_retained, snap.lognormal_retained) = (over, over);
        let err = render(vec![snap], Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame cap"), "{err}");
    }

    #[test]
    fn every_method_name_reads_and_auto_is_written() {
        let snap = sample_partitions().remove(0);
        let text = encode_partition(&snap).to_string_compact();
        assert!(text.contains("\"method\":\"auto\""), "{text}");
        for name in METHOD_NAMES {
            let named = text.replace("\"auto\"", &format!("\"{name}\""));
            assert_eq!(decode_partition(&Json::parse(&named).unwrap()).unwrap(), snap, "{name}");
        }
        let text = text.replace("\"auto\"", "\"clt\"");
        let err = decode_partition(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("unknown bound method 'clt'"), "{err}");
    }

    /// The differential behind the one-history format, on the paper's loop
    /// over `synth` waits, where both detectors trim: at every
    /// `EVERY`-th job each partition round-trips through the binary record,
    /// the exported document's entry and the framed file, and each copy
    /// must serve the original's bits now and over the next `AHEAD` jobs.
    #[test]
    fn one_history_round_trips_through_every_codec_on_the_paper_loop() {
        const PARTITIONS: usize = 256;
        const JOBS: usize = 2_000;
        const EVERY: usize = 250;
        const AHEAD: usize = 200;
        let profiles = catalog::queue_table_catalog();
        let (mut samples, mut bmbp_longer, mut lognormal_longer) = (0, 0, 0);
        for i in 0..PARTITIONS {
            let mut profile = profiles[i % profiles.len()].clone();
            profile.job_count = (JOBS + AHEAD) as u64;
            let waits = synth::generate(&profile, &SynthSettings::with_seed(i as u64)).waits();
            let key = PartitionKey::for_request(&format!("p{i}"), profile.queue, 4);
            let mut live = Partition::new();
            let mut copies: Vec<(Partition, usize)> = Vec::new();
            for (job, &w) in waits.iter().enumerate() {
                let want = bits(paper_step(&mut live, w));
                for (copy, left) in &mut copies {
                    assert_eq!(bits(paper_step(copy, w)), want, "partition {i}, job {job}");
                    *left -= 1;
                }
                copies.retain(|(_, left)| *left > 0);
                if (job + 1) % EVERY != 0 || job >= JOBS {
                    continue;
                }
                let snap = live.to_snapshot(&key);
                samples += 1;
                bmbp_longer += usize::from(snap.bmbp_retained > snap.lognormal_retained);
                lognormal_longer += usize::from(snap.lognormal_retained > snap.bmbp_retained);
                let entry = encode_partition(&snap).to_string_compact();
                let (mut file, _) = parse(&render(vec![snap.clone()], Vec::new()).unwrap()).unwrap();
                let now = bits(live.predict());
                for back in [
                    decode_record(&record_of(&snap)).unwrap(),
                    decode_partition(&Json::parse(&entry).unwrap()).unwrap(),
                    file.remove(0),
                ] {
                    assert_eq!(back, snap, "partition {i}, job {job}");
                    let mut copy = Partition::from_snapshot(&back).unwrap();
                    assert_eq!(bits(copy.predict()), now, "partition {i}, job {job}");
                    copies.push((copy, AHEAD));
                }
            }
        }
        let differ = bmbp_longer + lognormal_longer;
        eprintln!(
            "retained lengths differ in {differ}/{samples} samples ({:.1} %): \
             bmbp longer {bmbp_longer}, lognormal longer {lognormal_longer}",
            100.0 * differ as f64 / samples as f64
        );
        assert!(bmbp_longer > 0 && lognormal_longer > 0, "both shapes of the pair occur");
        assert!(differ * 5 > samples, "the lengths differ often: {differ}/{samples}");
    }

    /// A state no predictor would produce but every codec must carry:
    /// each field drawn independently, the one wait list salted with the
    /// extremes of the admitted range, and the shorter retained length
    /// drawn from `0..=waits` with both edges favoured.
    fn random_snapshot(rng: &mut StdRng, waits: usize) -> PartitionSnapshot {
        const EDGES: [f64; 4] = [0.0, 5e-324, f64::MIN_POSITIVE, f64::MAX];
        let unit = |rng: &mut StdRng| rng.gen_f64_open();
        let count = |rng: &mut StdRng| rng.gen_range(0..1 << 40);
        let opt = |rng: &mut StdRng| rng.gen_bool(0.5).then(|| rng.gen_range(1..1 << 40));
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
        let shorter = match rng.gen_range(0..4) {
            0 => 0,
            1 => waits,
            _ => rng.gen_range(0..waits + 1),
        };
        let (bmbp_retained, lognormal_retained) =
            if rng.gen_bool(0.5) { (waits, shorter) } else { (shorter, waits) };
        PartitionSnapshot {
            site: name(rng),
            queue: name(rng),
            range: ProcRange::ALL[rng.gen_range(0..4)],
            seq: count(rng) as u64,
            bmbp: BmbpState {
                quantile: unit(rng),
                confidence: unit(rng),
                trimming: rng.gen_bool(0.5),
                threshold_override: opt(rng),
                max_history: opt(rng),
                detector: detector(rng),
                trims: count(rng),
                calibrated: rng.gen_bool(0.5),
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
                },
            },
            waits: (0..waits)
                .map(|_| match rng.gen_range(0..16) {
                    i @ 0..=3 => EDGES[i],
                    // Sign bit clear: any non-negative bit pattern.
                    _ => Some(f64::from_bits(rng.next_u64() >> 1))
                        .filter(|w| w.is_finite())
                        .unwrap_or(f64::MAX),
                })
                .collect(),
            bmbp_retained,
            lognormal_retained,
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
        // Shorter history: empty, as long as the longer, strictly between;
        // and which predictor holds the longer one.
        let mut shapes = [false; 3];
        let mut longer = [false; 2];
        for case in 0..60 {
            let waits = match case % 6 {
                0 => 0,
                1 => 10_000,
                _ => rng.gen_range(1..200),
            };
            let snap = random_snapshot(&mut rng, waits);
            let shorter = snap.bmbp_retained.min(snap.lognormal_retained);
            if waits > 0 {
                shapes[if shorter == 0 { 0 } else if shorter == waits { 1 } else { 2 }] = true;
                longer[usize::from(snap.lognormal_retained == waits)] = true;
            }
            let binary = decode_record(&record_of(&snap)).expect("record decodes");
            assert_eq!(binary, snap, "case {case}: binary round trip");
            let text = encode_partition(&snap).to_string_compact();
            let document = decode_partition(&Json::parse(&text).unwrap()).expect("entry decodes");
            assert_eq!(binary, document, "case {case}: the two codecs disagree");
            // Equality of f64s is not identity of bits; the record's is.
            let wait_bits = |p: &PartitionSnapshot| -> Vec<u64> {
                p.waits.iter().map(|w| w.to_bits()).collect()
            };
            assert_eq!(wait_bits(&binary), wait_bits(&snap), "case {case}: wait bits");
        }
        assert_eq!((shapes, longer), ([true; 3], [true; 2]), "every history shape drawn");
    }

    #[test]
    fn damaged_framed_records_are_typed_never_a_panic_or_another_partition() {
        let snap = random_snapshot(&mut StdRng::seed_from_u64(7), 60);
        let mut framed = Vec::new();
        let start = frame::begin(&mut framed);
        encode_record(&snap, &mut framed);
        frame::finish(&mut framed, start);
        // What a spill-slot reader does with the bytes it is handed.
        let read = |bytes: &[u8]| -> Result<PartitionSnapshot, String> {
            match frame::check(bytes, MAX_FRAME_PAYLOAD) {
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

    /// A record tagged with any method loads, and its partition serves the
    /// exact order statistic.
    #[test]
    fn every_method_tag_loads_and_serves_the_exact_bound() {
        use qdelay_predict::bound::{upper_index, BoundMethod, BoundSpec};
        let mut p = Partition::new();
        for i in 0..300u64 {
            p.observe((i * 7_919 % 1_000) as f64, None, None);
        }
        let snap = p.to_snapshot(&PartitionKey::for_request("ds", "normal", 2));
        let mut sorted = snap.waits.clone();
        sorted.sort_by(f64::total_cmp);
        let k = upper_index(300, BoundSpec::paper_default(), BoundMethod::Exact).unwrap();
        let method_at = 2 + 4 + snap.site.len() + 4 + snap.queue.len() + 8 + 16;
        for tag in 0..3 {
            let mut record = record_of(&snap);
            record[method_at] = tag;
            let decoded = decode_record(&record).expect("every method tag loads");
            assert_eq!(decoded, snap, "tag {tag}");
            let served = Partition::from_snapshot(&decoded).unwrap().predict().bmbp;
            assert_eq!(served, Some(sorted[k - 1]), "tag {tag}");
        }
    }

    #[test]
    fn hostile_record_fields_are_rejected() {
        const SENTINEL: f64 = 12_345.678;
        let mut snap = random_snapshot(&mut StdRng::seed_from_u64(11), 8);
        snap.site = "site".into();
        snap.waits[3] = SENTINEL;
        (snap.bmbp_retained, snap.lognormal_retained) = (8, 5);
        let good = record_of(&snap);
        assert!(decode_record(&good).is_ok());
        let patched = |at: usize, bytes: &[u8]| {
            let mut p = good.clone();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            decode_record(&p)
        };

        // Waits: every inadmissible class.
        let sentinel = SENTINEL.to_bits().to_le_bytes();
        let wait_offsets: Vec<usize> = (0..good.len() - 7)
            .filter(|&i| good[i..i + 8] == sentinel)
            .collect();
        assert_eq!(wait_offsets.len(), 1, "one wait list");
        for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let err = patched(wait_offsets[0], &bad.to_bits().to_le_bytes()).unwrap_err();
            assert!(err.contains("finite and non-negative"), "{bad}: {err}");
        }

        // Version and the two enum tags.
        assert!(patched(0, &[1]).unwrap_err().contains("version"));
        assert!(patched(0, &[RECORD_VERSION + 1]).unwrap_err().contains("version"));
        assert!(patched(1, &[4]).unwrap_err().contains("proc range tag"));
        let method_at = 2 + 4 + snap.site.len() + 4 + snap.queue.len() + 8 + 16;
        assert_eq!(good[method_at], 0, "the layout");
        assert!(patched(method_at, &[3]).unwrap_err().contains("bound method tag"));
        // The flag after it (trimming) admits only 0 and 1.
        assert!(patched(method_at + 1, &[2]).unwrap_err().contains("0 or 1"));

        // The history's tail: `u32 count | count × f64 | u32 | u32`. A
        // retained length past the list, and a list longer than both
        // retained lengths, hold waits no predictor owns.
        let retained_at = good.len() - 8;
        let count_at = retained_at - 8 * snap.waits.len() - 4;
        assert_eq!(good[count_at..count_at + 4], 8u32.to_le_bytes(), "the layout");
        assert_eq!(good[retained_at..], [8, 0, 0, 0, 5, 0, 0, 0], "the layout");
        for (what, retained) in [
            ("bmbp past the list", [9, 0, 0, 0, 5, 0, 0, 0]),
            ("lognormal past the list", [8, 0, 0, 0, 9, 0, 0, 0]),
            ("the list longer than both", [7, 0, 0, 0, 5, 0, 0, 0]),
            ("both empty", [0; 8]),
        ] {
            let err = patched(retained_at, &retained).unwrap_err();
            assert!(err.contains("waits stored, but the predictors retain"), "{what}: {err}");
        }
        let mut entry = snap.clone();
        entry.lognormal_retained = 9;
        let text = encode_partition(&entry).to_string_compact();
        assert!(decode_partition(&Json::parse(&text).unwrap()).unwrap_err().contains("retain"));

        // A name that is not UTF-8, a count larger than the bytes present,
        // and bytes after the record.
        assert!(patched(6, &[0xFF]).unwrap_err().contains("UTF-8"));
        assert!(patched(count_at, &u32::MAX.to_le_bytes()).unwrap_err().contains("truncated"));
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
