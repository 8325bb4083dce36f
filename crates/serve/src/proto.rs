//! The binary codec: CRC-framed fixed-layout messages over the request
//! model of [`crate::protocol`] ([`Request`] in, [`Reply`] and the typed
//! data-plane replies out).
//!
//! Carried over the same frame codec the journal writes to disk
//! ([`qdelay_journal::frame`]): `u32 payload_len | u32 frame_crc |
//! payload`, CRC-32 over prefix and payload. Floats travel as raw
//! IEEE-754 bit patterns, so a bound served over this protocol is
//! bit-identical to one served as JSON (`qdelay-json` prints shortest
//! round-trip forms) — the differential test battery holds both paths to
//! `f64::to_bits` equality.
//!
//! ## Request payload
//!
//! ```text
//! u8 opcode | u64 id | body
//! ```
//!
//! | opcode | body |
//! |---|---|
//! | 1 observe  | `u16 site_len \| site \| u16 queue_len \| queue \| u32 procs \| u64 wait_bits \| u8 flags \| [u64 bmbp_bits] \| [u64 ln_bits]` |
//! | 2 predict  | `u16 site_len \| site \| u16 queue_len \| queue \| u32 procs` |
//! | 3 snapshot | `u8 has_path \| [u16 path_len \| path]` |
//! | 4 stats    | — |
//! | 5 shutdown | — |
//! | 6 metrics  | — |
//! | 7 trace    | — |
//! | 8 admit    | `u16 site_len \| site \| u16 queue_len \| queue \| u32 procs \| u64 budget_bits \| u8 flags \| [u64 confidence_bits]` |
//! | 9 promote  | — (the reply body is `u64 applied`) |
//!
//! `flags` bit 0 marks `predicted_bmbp` present, bit 1
//! `predicted_lognormal` — the journal record's optional-feedback idiom.
//! The admit flags byte reuses bit 0 for an optional `confidence`.
//!
//! The admit reply body is `u16 partition_len | partition | u64 n |
//! u64 seq | u8 decision`, then `u64 bound_bits | u64 margin_bits` for
//! decisions 0 (admit) and 1 (reject), or `u64 retry_hint` for decision
//! 2 (defer).
//!
//! ## Response payload
//!
//! ```text
//! u8 status (0 ok | 1 err) | u64 id | body
//! ```
//!
//! Ok bodies open with a `u8 kind` mirroring the request opcode; error
//! bodies are `u16 code_len | code | u16 msg_len | msg` with `code` drawn
//! from the same typed [`protocol`](crate::protocol) codes as JSON. A
//! `snapshot` reply names the file the server wrote: `u8 mode (1) |
//! u16 path_len | path | u64 partitions`. `stats`, `metrics` and `trace`
//! carry their document as `u32 len | JSON text`; no reply carries
//! partition state.
//!
//! The `id` is a client-chosen `u64` echoed in every response, including
//! validation errors. Id `0` is reserved for errors the server cannot
//! attribute (a payload too short to carry an id); clients should start
//! at 1.
//!
//! ## Error discipline
//!
//! Frame-level damage (checksum mismatch, length out of range) means the
//! *stream* is unrecoverable — the server answers one typed error frame
//! and closes. An intact frame whose payload fails to decode
//! ([`DecodeError::Malformed`] → `parse`) or fails validation
//! ([`DecodeError::Invalid`] → `bad_request`) costs one error response
//! and the connection survives: framing kept the stream in sync.

use crate::protocol::{Reply, Request, MAX_NAME_LEN};
use qdelay_journal::frame::{self, ReadError, Reader};
use qdelay_json::Json;
use qdelay_predict::admission::Decision;

/// Largest admitted request payload (matches the journal's frame cap).
pub const MAX_REQ_PAYLOAD: u32 = 1 << 20;

/// Largest admitted response payload. Larger than the request cap because
/// a `stats` or `trace` reply carries a whole JSON document: the telemetry
/// of every instrument, or the flight recorder's recent and slow requests.
pub const MAX_RESP_PAYLOAD: u32 = 1 << 26;

/// Reserved id for errors the server cannot attribute to a request.
pub const UNATTRIBUTED_ID: u64 = 0;

pub const OP_OBSERVE: u8 = 1;
pub const OP_PREDICT: u8 = 2;
pub const OP_SNAPSHOT: u8 = 3;
pub const OP_STATS: u8 = 4;
pub const OP_SHUTDOWN: u8 = 5;
pub const OP_METRICS: u8 = 6;
pub const OP_TRACE: u8 = 7;
pub const OP_ADMIT: u8 = 8;
pub const OP_PROMOTE: u8 = 9;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

const FLAG_BMBP: u8 = 1;
const FLAG_LOGNORMAL: u8 = 2;
/// Admit-request flags bit: an optional `confidence` f64 follows.
const FLAG_CONFIDENCE: u8 = 1;

/// The `snapshot` reply's mode byte: a file written server-side, the one
/// mode there is.
const SNAPSHOT_FILE: u8 = 1;

/// Admit-reply decision bytes.
const DECISION_ADMIT: u8 = 0;
const DECISION_REJECT: u8 = 1;
const DECISION_DEFER: u8 = 2;

/// Why a frame's payload was rejected. The split decides the error code:
/// `Malformed` → `parse` (the bytes are not a request), `Invalid` →
/// `bad_request` (a request with out-of-range values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    Malformed(String),
    Invalid(String),
}

impl DecodeError {
    /// The typed protocol error code this decode failure maps to.
    pub fn code(&self) -> &'static str {
        match self {
            DecodeError::Malformed(_) => crate::protocol::ERR_PARSE,
            DecodeError::Invalid(_) => crate::protocol::ERR_BAD_REQUEST,
        }
    }

    /// The human-readable message for the error reply.
    pub fn message(&self) -> &str {
        match self {
            DecodeError::Malformed(m) | DecodeError::Invalid(m) => m,
        }
    }
}

/// A decoded binary response (client side).
#[derive(Debug, Clone, PartialEq)]
pub enum BinResponse {
    Observe { partition: String, seq: u64 },
    Predict {
        partition: String,
        n: u64,
        seq: u64,
        bmbp: Option<f64>,
        lognormal: Option<f64>,
    },
    Admit {
        partition: String,
        n: u64,
        seq: u64,
        decision: Decision,
    },
    /// A snapshot file written server-side: its path and partition count.
    Snapshot { path: String, partitions: u64 },
    Stats { json: String },
    Metrics { json: String },
    Trace { json: String },
    Promote { applied: u64 },
    Shutdown,
    Error { code: String, message: String },
}

/// A payload the frame reader refused is not a message at all.
impl From<ReadError> for DecodeError {
    fn from(e: ReadError) -> Self {
        DecodeError::Malformed(e.to_string())
    }
}

/// A `u16 len | bytes` string field, checked for UTF-8.
fn str_field<'a>(r: &mut Reader<'a>, what: &'static str) -> Result<&'a str, ReadError> {
    let len = r.u16(what)?;
    r.str(usize::from(len), what)
}

/// A `u32 len | bytes` field, checked for UTF-8: a reply's document, and a
/// name in the snapshot file's records.
pub(crate) fn text(r: &mut Reader<'_>, what: &'static str) -> Result<String, ReadError> {
    let len = r.u32(what)?;
    r.str(len as usize, what).map(str::to_string)
}

fn name_field(r: &mut Reader<'_>, what: &'static str) -> Result<String, DecodeError> {
    let s = str_field(r, what)?;
    if s.is_empty() || s.len() > MAX_NAME_LEN {
        return Err(DecodeError::Invalid(format!("'{what}' must be 1..={MAX_NAME_LEN} bytes")));
    }
    Ok(s.to_string())
}

fn finite(bits: u64, what: &str) -> Result<f64, DecodeError> {
    let x = f64::from_bits(bits);
    if !x.is_finite() {
        return Err(DecodeError::Invalid(format!("'{what}' must be finite")));
    }
    Ok(x)
}

// ---------------------------------------------------------------------------
// Request decode (server side).

/// Decodes one request payload (the bytes inside a checksum-valid frame).
///
/// The id comes back even when the body fails — error replies must still
/// be matchable — and is [`UNATTRIBUTED_ID`] only when the payload is too
/// short to carry one.
pub fn decode_request(payload: &[u8]) -> (u64, Result<Request, DecodeError>) {
    let mut cur = Reader::new(payload);
    let (opcode, id) = match (cur.u8("opcode"), cur.u64("request id")) {
        (Ok(opcode), Ok(id)) => (opcode, id),
        (Err(e), _) | (_, Err(e)) => return (UNATTRIBUTED_ID, Err(e.into())),
    };
    (id, decode_request_body(opcode, &mut cur))
}

fn decode_request_body(opcode: u8, cur: &mut Reader<'_>) -> Result<Request, DecodeError> {
    let req = match opcode {
        OP_OBSERVE => {
            let site = name_field(cur, "site")?;
            let queue = name_field(cur, "queue")?;
            let procs = cur.u32("procs")?;
            let wait_bits = cur.u64("wait")?;
            let flags = cur.u8("flags")?;
            if flags & !(FLAG_BMBP | FLAG_LOGNORMAL) != 0 {
                return Err(DecodeError::Malformed(format!("unknown observe flags {flags:#x}")));
            }
            let predicted_bmbp = if flags & FLAG_BMBP != 0 {
                Some(finite(cur.u64("predicted_bmbp")?, "predicted_bmbp")?)
            } else {
                None
            };
            let predicted_lognormal = if flags & FLAG_LOGNORMAL != 0 {
                Some(finite(cur.u64("predicted_lognormal")?, "predicted_lognormal")?)
            } else {
                None
            };
            let wait = finite(wait_bits, "wait")?;
            if wait < 0.0 {
                return Err(DecodeError::Invalid("'wait' must be non-negative".into()));
            }
            Request::Observe { site, queue, procs, wait, predicted_bmbp, predicted_lognormal }
        }
        OP_PREDICT => Request::Predict {
            site: name_field(cur, "site")?,
            queue: name_field(cur, "queue")?,
            procs: cur.u32("procs")?,
        },
        OP_ADMIT => {
            let site = name_field(cur, "site")?;
            let queue = name_field(cur, "queue")?;
            let procs = cur.u32("procs")?;
            let budget_bits = cur.u64("budget")?;
            let flags = cur.u8("admit flags")?;
            if flags & !FLAG_CONFIDENCE != 0 {
                return Err(DecodeError::Malformed(format!("unknown admit flags {flags:#x}")));
            }
            let confidence = if flags & FLAG_CONFIDENCE != 0 {
                let c = finite(cur.u64("confidence")?, "confidence")?;
                if c <= 0.0 || c >= 1.0 {
                    return Err(DecodeError::Invalid("'confidence' must be in (0, 1)".into()));
                }
                Some(c)
            } else {
                None
            };
            let budget = finite(budget_bits, "budget")?;
            if budget < 0.0 {
                return Err(DecodeError::Invalid("'budget' must be non-negative".into()));
            }
            Request::Admit { site, queue, procs, budget, confidence }
        }
        OP_SNAPSHOT => {
            let has_path = cur.u8("has_path")?;
            let path = match has_path {
                0 => None,
                1 => Some(str_field(cur, "path")?.to_string()),
                other => {
                    return Err(DecodeError::Malformed(format!("bad has_path byte {other}")))
                }
            };
            Request::Snapshot { path }
        }
        OP_STATS => Request::Stats,
        OP_METRICS => Request::Metrics,
        OP_TRACE => Request::Trace,
        OP_PROMOTE => Request::Promote,
        OP_SHUTDOWN => Request::Shutdown,
        other => return Err(DecodeError::Invalid(format!("unknown opcode {other}"))),
    };
    cur.done("request")?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Request encode (client side). Each call appends one complete frame.

fn push_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn req_head(out: &mut Vec<u8>, opcode: u8, id: u64) -> usize {
    let start = frame::begin(out);
    out.push(opcode);
    out.extend_from_slice(&id.to_le_bytes());
    start
}

/// Appends one framed `observe` request.
#[allow(clippy::too_many_arguments)]
pub fn encode_observe_req(
    out: &mut Vec<u8>,
    id: u64,
    site: &str,
    queue: &str,
    procs: u32,
    wait: f64,
    predicted_bmbp: Option<f64>,
    predicted_lognormal: Option<f64>,
) {
    let start = req_head(out, OP_OBSERVE, id);
    push_str(out, site);
    push_str(out, queue);
    out.extend_from_slice(&procs.to_le_bytes());
    out.extend_from_slice(&wait.to_bits().to_le_bytes());
    let mut flags = 0u8;
    if predicted_bmbp.is_some() {
        flags |= FLAG_BMBP;
    }
    if predicted_lognormal.is_some() {
        flags |= FLAG_LOGNORMAL;
    }
    out.push(flags);
    if let Some(p) = predicted_bmbp {
        out.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    if let Some(p) = predicted_lognormal {
        out.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    frame::finish(out, start);
}

/// Appends one framed `predict` request.
pub fn encode_predict_req(out: &mut Vec<u8>, id: u64, site: &str, queue: &str, procs: u32) {
    let start = req_head(out, OP_PREDICT, id);
    push_str(out, site);
    push_str(out, queue);
    out.extend_from_slice(&procs.to_le_bytes());
    frame::finish(out, start);
}

/// Appends one framed `admit` request.
pub fn encode_admit_req(
    out: &mut Vec<u8>,
    id: u64,
    site: &str,
    queue: &str,
    procs: u32,
    budget: f64,
    confidence: Option<f64>,
) {
    let start = req_head(out, OP_ADMIT, id);
    push_str(out, site);
    push_str(out, queue);
    out.extend_from_slice(&procs.to_le_bytes());
    out.extend_from_slice(&budget.to_bits().to_le_bytes());
    match confidence {
        None => out.push(0),
        Some(c) => {
            out.push(FLAG_CONFIDENCE);
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    frame::finish(out, start);
}

/// Appends one framed `snapshot` request.
pub fn encode_snapshot_req(out: &mut Vec<u8>, id: u64, path: Option<&str>) {
    let start = req_head(out, OP_SNAPSHOT, id);
    match path {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            push_str(out, p);
        }
    }
    frame::finish(out, start);
}

/// Appends one framed request of any kind: the inverse of
/// [`decode_request`]. A control method's frame is its head alone.
pub fn encode_request(out: &mut Vec<u8>, id: u64, request: &Request) {
    let bare = |out: &mut Vec<u8>, opcode: u8| {
        let start = req_head(out, opcode, id);
        frame::finish(out, start);
    };
    match request {
        Request::Observe { site, queue, procs, wait, predicted_bmbp, predicted_lognormal } => {
            let (bmbp, lognormal) = (*predicted_bmbp, *predicted_lognormal);
            encode_observe_req(out, id, site, queue, *procs, *wait, bmbp, lognormal)
        }
        Request::Predict { site, queue, procs } => encode_predict_req(out, id, site, queue, *procs),
        Request::Admit { site, queue, procs, budget, confidence } => {
            encode_admit_req(out, id, site, queue, *procs, *budget, *confidence)
        }
        Request::Snapshot { path } => encode_snapshot_req(out, id, path.as_deref()),
        Request::Stats => bare(out, OP_STATS),
        Request::Metrics => bare(out, OP_METRICS),
        Request::Trace => bare(out, OP_TRACE),
        Request::Promote => bare(out, OP_PROMOTE),
        Request::Shutdown => bare(out, OP_SHUTDOWN),
    }
}

// ---------------------------------------------------------------------------
// Response encode (server side). Each call appends one complete frame.

fn resp_head(out: &mut Vec<u8>, status: u8, id: u64, kind: Option<u8>) -> usize {
    let start = frame::begin(out);
    out.push(status);
    out.extend_from_slice(&id.to_le_bytes());
    if let Some(k) = kind {
        out.push(k);
    }
    start
}

/// Appends one framed `observe` acknowledgement.
pub fn encode_observe_resp(out: &mut Vec<u8>, id: u64, partition: &str, seq: u64) {
    let start = resp_head(out, STATUS_OK, id, Some(OP_OBSERVE));
    push_str(out, partition);
    out.extend_from_slice(&seq.to_le_bytes());
    frame::finish(out, start);
}

/// Appends one framed `predict` reply; absent bounds use the same flag
/// idiom as observe feedback.
pub fn encode_predict_resp(
    out: &mut Vec<u8>,
    id: u64,
    partition: &str,
    n: u64,
    seq: u64,
    bmbp: Option<f64>,
    lognormal: Option<f64>,
) {
    let start = resp_head(out, STATUS_OK, id, Some(OP_PREDICT));
    push_str(out, partition);
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let mut flags = 0u8;
    if bmbp.is_some() {
        flags |= FLAG_BMBP;
    }
    if lognormal.is_some() {
        flags |= FLAG_LOGNORMAL;
    }
    out.push(flags);
    if let Some(b) = bmbp {
        out.extend_from_slice(&b.to_bits().to_le_bytes());
    }
    if let Some(l) = lognormal {
        out.extend_from_slice(&l.to_bits().to_le_bytes());
    }
    frame::finish(out, start);
}

/// Appends one framed `admit` reply carrying the typed decision.
pub fn encode_admit_resp(
    out: &mut Vec<u8>,
    id: u64,
    partition: &str,
    n: u64,
    seq: u64,
    decision: &Decision,
) {
    let start = resp_head(out, STATUS_OK, id, Some(OP_ADMIT));
    push_str(out, partition);
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    match decision {
        Decision::Admit { bound, margin } => {
            out.push(DECISION_ADMIT);
            out.extend_from_slice(&bound.to_bits().to_le_bytes());
            out.extend_from_slice(&margin.to_bits().to_le_bytes());
        }
        Decision::Reject { bound, margin } => {
            out.push(DECISION_REJECT);
            out.extend_from_slice(&bound.to_bits().to_le_bytes());
            out.extend_from_slice(&margin.to_bits().to_le_bytes());
        }
        Decision::Defer { retry_hint } => {
            out.push(DECISION_DEFER);
            out.extend_from_slice(&retry_hint.to_le_bytes());
        }
    }
    frame::finish(out, start);
}

/// Appends one framed `snapshot` reply: the file written server-side.
pub fn encode_snapshot_resp(out: &mut Vec<u8>, id: u64, path: &str, partitions: u64) {
    let start = resp_head(out, STATUS_OK, id, Some(OP_SNAPSHOT));
    out.push(SNAPSHOT_FILE);
    push_str(out, path);
    out.extend_from_slice(&partitions.to_le_bytes());
    frame::finish(out, start);
}

/// Appends one framed reply whose body is a `u32`-length JSON document —
/// the shape `stats`, `metrics` and `trace` share.
fn encode_doc_resp(out: &mut Vec<u8>, kind: u8, id: u64, json: &str) {
    let start = resp_head(out, STATUS_OK, id, Some(kind));
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(json.as_bytes());
    frame::finish(out, start);
}

/// Appends one framed `stats` reply carrying the stats document text.
pub fn encode_stats_resp(out: &mut Vec<u8>, id: u64, json: &str) {
    encode_doc_resp(out, OP_STATS, id, json);
}

/// Appends one framed `metrics` reply carrying the metrics document text.
pub fn encode_metrics_resp(out: &mut Vec<u8>, id: u64, json: &str) {
    encode_doc_resp(out, OP_METRICS, id, json);
}

/// Appends one framed `trace` reply carrying the flight-recorder dump text.
pub fn encode_trace_resp(out: &mut Vec<u8>, id: u64, json: &str) {
    encode_doc_resp(out, OP_TRACE, id, json);
}

/// Appends one framed `promote` reply: the replicated records applied.
pub fn encode_promote_resp(out: &mut Vec<u8>, id: u64, applied: u64) {
    let start = resp_head(out, STATUS_OK, id, Some(OP_PROMOTE));
    out.extend_from_slice(&applied.to_le_bytes());
    frame::finish(out, start);
}

/// Appends one framed `shutdown` acknowledgement.
pub fn encode_shutdown_resp(out: &mut Vec<u8>, id: u64) {
    let start = resp_head(out, STATUS_OK, id, Some(OP_SHUTDOWN));
    frame::finish(out, start);
}

/// Appends one framed control-method reply.
pub fn encode_reply(out: &mut Vec<u8>, id: u64, reply: Reply) {
    let text = |members| Json::Obj(members).to_string_compact();
    match reply {
        Reply::Snapshot { path, partitions } => {
            encode_snapshot_resp(out, id, &path, partitions as u64)
        }
        Reply::Stats(members) => encode_stats_resp(out, id, &text(members)),
        Reply::Metrics(members) => encode_metrics_resp(out, id, &text(members)),
        Reply::Trace(members) => encode_trace_resp(out, id, &text(members)),
        Reply::Promoted { applied } => encode_promote_resp(out, id, applied),
        Reply::Shutdown => encode_shutdown_resp(out, id),
    }
}

/// Appends one framed error reply with a typed code.
pub fn encode_error_resp(out: &mut Vec<u8>, id: u64, code: &str, message: &str) {
    let start = resp_head(out, STATUS_ERR, id, None);
    push_str(out, code);
    push_str(out, message);
    frame::finish(out, start);
}

// ---------------------------------------------------------------------------
// Response decode (client side).

/// Decodes one response payload into `(id, response)`.
pub fn decode_response(payload: &[u8]) -> Result<(u64, BinResponse), String> {
    decode_response_inner(payload).map_err(|e| e.message().to_string())
}

fn decode_response_inner(payload: &[u8]) -> Result<(u64, BinResponse), DecodeError> {
    let mut cur = Reader::new(payload);
    let status = cur.u8("status")?;
    let id = cur.u64("response id")?;
    let resp = match status {
        STATUS_ERR => BinResponse::Error {
            code: str_field(&mut cur, "error code")?.to_string(),
            message: str_field(&mut cur, "error message")?.to_string(),
        },
        STATUS_OK => {
            let kind = cur.u8("response kind")?;
            match kind {
                OP_OBSERVE => BinResponse::Observe {
                    partition: str_field(&mut cur, "partition")?.to_string(),
                    seq: cur.u64("seq")?,
                },
                OP_PREDICT => {
                    let partition = str_field(&mut cur, "partition")?.to_string();
                    let n = cur.u64("n")?;
                    let seq = cur.u64("seq")?;
                    let flags = cur.u8("flags")?;
                    if flags & !(FLAG_BMBP | FLAG_LOGNORMAL) != 0 {
                        return Err(DecodeError::Malformed(format!(
                            "unknown predict flags {flags:#x}"
                        )));
                    }
                    let bmbp = if flags & FLAG_BMBP != 0 {
                        Some(f64::from_bits(cur.u64("bmbp")?))
                    } else {
                        None
                    };
                    let lognormal = if flags & FLAG_LOGNORMAL != 0 {
                        Some(f64::from_bits(cur.u64("lognormal")?))
                    } else {
                        None
                    };
                    BinResponse::Predict { partition, n, seq, bmbp, lognormal }
                }
                OP_ADMIT => {
                    let partition = str_field(&mut cur, "partition")?.to_string();
                    let n = cur.u64("n")?;
                    let seq = cur.u64("seq")?;
                    let decision = match cur.u8("decision")? {
                        DECISION_ADMIT => Decision::Admit {
                            bound: f64::from_bits(cur.u64("bound")?),
                            margin: f64::from_bits(cur.u64("margin")?),
                        },
                        DECISION_REJECT => Decision::Reject {
                            bound: f64::from_bits(cur.u64("bound")?),
                            margin: f64::from_bits(cur.u64("margin")?),
                        },
                        DECISION_DEFER => {
                            Decision::Defer { retry_hint: cur.u64("retry_hint")? }
                        }
                        other => {
                            return Err(DecodeError::Malformed(format!(
                                "bad decision byte {other}"
                            )))
                        }
                    };
                    BinResponse::Admit { partition, n, seq, decision }
                }
                OP_SNAPSHOT => match cur.u8("snapshot mode")? {
                    SNAPSHOT_FILE => BinResponse::Snapshot {
                        path: str_field(&mut cur, "snapshot path")?.to_string(),
                        partitions: cur.u64("partitions")?,
                    },
                    other => {
                        return Err(DecodeError::Malformed(format!(
                            "bad snapshot mode byte {other}"
                        )))
                    }
                },
                OP_STATS => BinResponse::Stats { json: text(&mut cur, "stats json")? },
                OP_METRICS => BinResponse::Metrics { json: text(&mut cur, "metrics json")? },
                OP_TRACE => BinResponse::Trace { json: text(&mut cur, "trace json")? },
                OP_PROMOTE => BinResponse::Promote { applied: cur.u64("applied")? },
                OP_SHUTDOWN => BinResponse::Shutdown,
                other => {
                    return Err(DecodeError::Malformed(format!("unknown response kind {other}")))
                }
            }
        }
        other => return Err(DecodeError::Malformed(format!("bad status byte {other}"))),
    };
    cur.done("response")?;
    Ok((id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdelay_journal::frame::Check;

    /// Unwraps exactly one frame and returns its payload.
    fn unframe(buf: &[u8]) -> Vec<u8> {
        match frame::check(buf, MAX_RESP_PAYLOAD) {
            Check::Complete { start, end, next } => {
                assert_eq!(next, buf.len(), "exactly one frame");
                buf[start..end].to_vec()
            }
            other => panic!("not one frame: {other:?}"),
        }
    }

    #[test]
    fn observe_request_round_trips_bit_exact() {
        // Values chosen to break any text round-trip that isn't shortest
        // form: subnormal, negative zero feedback, huge magnitudes.
        let waits = [0.0, 1.5e-308, 123.456789012345678, 9.007199254740993e15];
        for (i, &w) in waits.iter().enumerate() {
            let mut buf = Vec::new();
            encode_observe_req(&mut buf, 40 + i as u64, "datastar", "normal", 4, w,
                Some(-0.0), Some(w * 0.5));
            let payload = unframe(&buf);
            let (id, req) = decode_request(&payload);
            assert_eq!(id, 40 + i as u64);
            match req.unwrap() {
                Request::Observe { site, queue, procs, wait, predicted_bmbp, predicted_lognormal } => {
                    assert_eq!(site, "datastar");
                    assert_eq!(queue, "normal");
                    assert_eq!(procs, 4);
                    assert_eq!(wait.to_bits(), w.to_bits());
                    assert_eq!(predicted_bmbp.unwrap().to_bits(), (-0.0f64).to_bits());
                    assert_eq!(predicted_lognormal.unwrap().to_bits(), (w * 0.5).to_bits());
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// The binary half of "both codecs describe one model", over the
    /// seeded request set the JSON half uses.
    #[test]
    fn all_request_kinds_round_trip() {
        use crate::protocol::tests::{float_bits, requests};
        for (i, request) in requests().iter().enumerate() {
            let id = i as u64 + 1;
            let mut buf = Vec::new();
            encode_request(&mut buf, id, request);
            let (echo, decoded) = decode_request(&unframe(&buf));
            assert_eq!((echo, decoded.as_ref()), (id, Ok(request)));
            let want = float_bits(&format!("{request:?}"));
            assert_eq!(float_bits(&format!("{decoded:?}")), want);
        }
    }

    #[test]
    fn all_response_kinds_round_trip() {
        let mut buf = Vec::new();
        encode_observe_resp(&mut buf, 9, "s/q/1-4", 17);
        assert_eq!(
            decode_response(&unframe(&buf)).unwrap(),
            (9, BinResponse::Observe { partition: "s/q/1-4".into(), seq: 17 })
        );
        buf.clear();
        encode_predict_resp(&mut buf, 10, "s/q/65+", 120, 40, Some(88.5), None);
        assert_eq!(
            decode_response(&unframe(&buf)).unwrap(),
            (10, BinResponse::Predict {
                partition: "s/q/65+".into(),
                n: 120,
                seq: 40,
                bmbp: Some(88.5),
                lognormal: None,
            })
        );
        buf.clear();
        encode_snapshot_resp(&mut buf, 12, "/tmp/out.json", 7);
        assert_eq!(
            decode_response(&unframe(&buf)).unwrap(),
            (12, BinResponse::Snapshot { path: "/tmp/out.json".into(), partitions: 7 })
        );
        buf.clear();
        encode_stats_resp(&mut buf, 13, "{}");
        assert_eq!(
            decode_response(&unframe(&buf)).unwrap(),
            (13, BinResponse::Stats { json: "{}".into() })
        );
        buf.clear();
        encode_metrics_resp(&mut buf, 16, "{\"uptime_ms\":5}");
        assert_eq!(
            decode_response(&unframe(&buf)).unwrap(),
            (16, BinResponse::Metrics { json: "{\"uptime_ms\":5}".into() })
        );
        buf.clear();
        encode_trace_resp(&mut buf, 17, "{\"recent\":[]}");
        assert_eq!(
            decode_response(&unframe(&buf)).unwrap(),
            (17, BinResponse::Trace { json: "{\"recent\":[]}".into() })
        );
        buf.clear();
        // Decision payloads chosen to break non-bit-exact round trips.
        for (id, decision) in [
            (20, Decision::Admit { bound: 1.5e-308, margin: 123.456789012345678 }),
            (21, Decision::Reject { bound: 9.007199254740993e15, margin: 0.1 }),
            (22, Decision::Defer { retry_hint: 1 }),
        ] {
            buf.clear();
            encode_admit_resp(&mut buf, id, "s/q/65+", 120, 40, &decision);
            assert_eq!(
                decode_response(&unframe(&buf)).unwrap(),
                (id, BinResponse::Admit { partition: "s/q/65+".into(), n: 120, seq: 40, decision })
            );
        }
        buf.clear();
        encode_shutdown_resp(&mut buf, 14);
        assert_eq!(decode_response(&unframe(&buf)).unwrap(), (14, BinResponse::Shutdown));
        buf.clear();
        encode_promote_resp(&mut buf, 18, 50);
        assert_eq!(
            decode_response(&unframe(&buf)).unwrap(),
            (18, BinResponse::Promote { applied: 50 })
        );
        buf.clear();
        encode_error_resp(&mut buf, 15, "backpressure", "queue full");
        assert_eq!(
            decode_response(&unframe(&buf)).unwrap(),
            (15, BinResponse::Error { code: "backpressure".into(), message: "queue full".into() })
        );
    }

    #[test]
    fn control_replies_encode_through_the_shared_model() {
        let members = vec![("n".to_string(), Json::Num(1.0))];
        for (reply, want) in [
            (
                Reply::Snapshot { path: "/tmp/out.json".into(), partitions: 7 },
                BinResponse::Snapshot { path: "/tmp/out.json".into(), partitions: 7 },
            ),
            (Reply::Stats(members.clone()), BinResponse::Stats { json: "{\"n\":1}".into() }),
            (Reply::Metrics(members.clone()), BinResponse::Metrics { json: "{\"n\":1}".into() }),
            (Reply::Trace(members.clone()), BinResponse::Trace { json: "{\"n\":1}".into() }),
            (Reply::Promoted { applied: 9 }, BinResponse::Promote { applied: 9 }),
            (Reply::Shutdown, BinResponse::Shutdown),
        ] {
            let mut buf = Vec::new();
            encode_reply(&mut buf, 31, reply.clone());
            assert_eq!(decode_response(&unframe(&buf)).unwrap(), (31, want), "{reply:?}");
        }
    }

    #[test]
    fn every_payload_truncation_fails_cleanly() {
        let mut frames = Vec::new();
        let mut buf = Vec::new();
        encode_observe_req(&mut buf, 1, "site", "queue", 8, 1.5, Some(2.0), None);
        frames.push(unframe(&buf));
        buf.clear();
        encode_predict_req(&mut buf, 2, "site", "queue", 8);
        frames.push(unframe(&buf));
        buf.clear();
        encode_snapshot_req(&mut buf, 3, Some("/p"));
        frames.push(unframe(&buf));
        buf.clear();
        encode_admit_req(&mut buf, 4, "site", "queue", 8, 900.0, Some(0.95));
        frames.push(unframe(&buf));
        for payload in frames {
            for cut in 0..payload.len() {
                // Decoding any strict prefix must yield Malformed — never a
                // panic, never a silently-valid request.
                let (_, req) = decode_request(&payload[..cut]);
                assert!(
                    matches!(req, Err(DecodeError::Malformed(_))),
                    "cut {cut} of {} gave {req:?}",
                    payload.len()
                );
            }
        }
    }

    #[test]
    fn validation_errors_keep_their_id_and_code() {
        // Empty site name: structural decode fine, validation fails.
        let mut buf = Vec::new();
        encode_predict_req(&mut buf, 77, "", "q", 1);
        let (id, req) = decode_request(&unframe(&buf));
        assert_eq!(id, 77);
        let err = req.unwrap_err();
        assert_eq!(err.code(), crate::protocol::ERR_BAD_REQUEST);

        // Non-finite wait.
        buf.clear();
        encode_observe_req(&mut buf, 78, "s", "q", 1, f64::NAN, None, None);
        let (id, req) = decode_request(&unframe(&buf));
        assert_eq!(id, 78);
        assert_eq!(req.unwrap_err().code(), crate::protocol::ERR_BAD_REQUEST);

        // Negative wait.
        buf.clear();
        encode_observe_req(&mut buf, 79, "s", "q", 1, -1.0, None, None);
        assert_eq!(decode_request(&unframe(&buf)).1.unwrap_err().code(),
            crate::protocol::ERR_BAD_REQUEST);

        // Unknown opcode: intact frame, invalid request.
        let mut payload = vec![99u8];
        payload.extend_from_slice(&80u64.to_le_bytes());
        let (id, req) = decode_request(&payload);
        assert_eq!(id, 80);
        assert_eq!(req.unwrap_err().code(), crate::protocol::ERR_BAD_REQUEST);

        // Admit validation: non-finite and negative budgets, confidence out
        // of range — all bad_request with the id preserved.
        for (id, budget, confidence) in [
            (81, f64::NAN, None),
            (82, f64::INFINITY, None),
            (83, f64::NEG_INFINITY, None),
            (84, -1.0, None),
            (85, 60.0, Some(0.0)),
            (86, 60.0, Some(1.0)),
            (87, 60.0, Some(-0.5)),
            (88, 60.0, Some(f64::NAN)),
        ] {
            buf.clear();
            encode_admit_req(&mut buf, id, "s", "q", 1, budget, confidence);
            let (got_id, req) = decode_request(&unframe(&buf));
            assert_eq!(got_id, id);
            assert_eq!(
                req.unwrap_err().code(),
                crate::protocol::ERR_BAD_REQUEST,
                "budget {budget} confidence {confidence:?}"
            );
        }

        // Empty site on admit too.
        buf.clear();
        encode_admit_req(&mut buf, 89, "", "q", 1, 60.0, None);
        assert_eq!(
            decode_request(&unframe(&buf)).1.unwrap_err().code(),
            crate::protocol::ERR_BAD_REQUEST
        );
    }

    #[test]
    fn trailing_bytes_and_bad_flags_are_malformed() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 5, &Request::Stats);
        let mut payload = unframe(&buf);
        payload.push(0xAB);
        let (id, req) = decode_request(&payload);
        assert_eq!(id, 5);
        assert_eq!(req.unwrap_err().code(), crate::protocol::ERR_PARSE);

        buf.clear();
        encode_observe_req(&mut buf, 6, "s", "q", 1, 1.0, None, None);
        let mut payload = unframe(&buf);
        // Flags byte is last for a feedback-free observe; set unknown bits.
        let last = payload.len() - 1;
        payload[last] |= 0x80;
        assert_eq!(decode_request(&payload).1.unwrap_err().code(), crate::protocol::ERR_PARSE);

        // Same discipline for the admit flags byte (last without
        // confidence).
        buf.clear();
        encode_admit_req(&mut buf, 7, "s", "q", 1, 1.0, None);
        let mut payload = unframe(&buf);
        let last = payload.len() - 1;
        payload[last] |= 0x80;
        assert_eq!(decode_request(&payload).1.unwrap_err().code(), crate::protocol::ERR_PARSE);
    }

    #[test]
    fn long_names_rejected_symmetrically_with_json() {
        let long = "s".repeat(MAX_NAME_LEN + 1);
        let mut buf = Vec::new();
        encode_predict_req(&mut buf, 1, &long, "q", 1);
        assert_eq!(
            decode_request(&unframe(&buf)).1.unwrap_err().code(),
            crate::protocol::ERR_BAD_REQUEST
        );
        let ok = "s".repeat(MAX_NAME_LEN);
        buf.clear();
        encode_predict_req(&mut buf, 2, &ok, "q", 1);
        assert!(decode_request(&unframe(&buf)).1.is_ok());
    }
}
