//! The request model, and its JSON codec: newline-delimited requests and
//! responses.
//!
//! [`Request`] and [`Reply`] are the one typed model of what a client can
//! ask and what a control method answers; this module reads and writes
//! them as JSON lines and [`crate::proto`] as binary frames, in both
//! directions: [`scan_request`] / [`parse_request`] and the `write_*`
//! writers for the server, [`request_line`] and [`decode_reply`] for the
//! client. A new method is one `Request` arm, one arm of the one
//! validation here (`parse_body`) and one opcode there.
//!
//! Each line is one strict RFC-8259 value (`qdelay-json` rejects trailing
//! garbage, so `{"method":"stats"} {"method":"stats"}` on one line is a
//! parse error). Requests carry a `method` plus method-specific fields and
//! an optional `id`. A duplicated member means its first occurrence.
//!
//! The `id` may be any JSON value and is echoed as the same *value*,
//! re-rendered by this crate's writer — not the same bytes: `1.0` comes
//! back `1`, `"\u0041"` comes back `"A"`, whitespace inside an array id is
//! dropped. A connection's replies come back in request order, so the
//! bundled client numbers its requests from 1 and checks each echo: a reply
//! that is not the next one owed means the stream is out of step.
//!
//! ## How a line is read
//!
//! The server has one line path with two steps. [`scan_request`] walks the
//! text once ([`qdelay_json::scan_flat`]), borrowing keys and values from
//! it, and fills the ten slots validation reads; it builds no tree. What it
//! declines goes through [`Json::parse`] and [`parse_request`], which fill
//! the same slots from the tree. Both end in the same `parse_body`, so a
//! line gets the same answer — same request, same error wording — whichever
//! step read it, and only the tree parser words a `parse` error.
//!
//! | line                                                             | read by |
//! |------------------------------------------------------------------|---------|
//! | one object, every member a scalar (string, number, `true`/`false`/`null`) — every `observe`/`predict`/`admit` and every control line the bundled client, the CLI, the benchmark or a `printf` writes; escapes, duplicates, unknown members, any whitespace, CRLF included | the scan |
//! | an object with an array or object anywhere in it: a nested `id`, a nested unknown member | the tree |
//! | anything malformed, not an object, or followed by trailing bytes | the tree, which words the `parse` error |
//!
//! `serve.json.tree_lines` counts the lines of the last two rows; blank
//! lines are skipped before either step and counted by neither.
//!
//! ## How a reply is written
//!
//! [`write_observe`], [`write_predict`], [`write_admit`], [`write_error`]
//! and [`write_reply`] append a reply's bytes straight onto the buffer they
//! are given (the connection's out buffer, or the group-commit arena): keys
//! as literals, numbers and strings by `qdelay-json`'s own leaf writers, so
//! there is one number rule and one escape rule and the bytes are exactly
//! what rendering the equivalent [`Json`] tree gives. The `*_line` functions
//! are the same writers returning a `String`.
//!
//! | method     | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `observe`  | `site`, `queue`, `procs`, `wait`, optional `predicted_bmbp` / `predicted_lognormal` |
//! | `predict`  | `site`, `queue`, `procs`                                      |
//! | `admit`    | `site`, `queue`, `procs`, `budget` (wait-units), optional `confidence` |
//! | `snapshot` | optional `path` (server-side file; omitted = the configured `--snapshot-path`, and with neither a `bad_request` — `qdelay snapshot export` prints a file as JSON) |
//! | `stats`    | —                                                             |
//! | `metrics`  | — (live telemetry snapshot + per-second rates)                |
//! | `trace`    | — (flight-recorder dump: recent + slow requests)              |
//! | `promote`  | — (replica only: stop replicating, start accepting observes)  |
//! | `shutdown` | —                                                             |
//!
//! Success replies are `{"ok":true,...}`; failures are
//! `{"ok":false,"error":<code>,"message":...}` with `error` drawn from the
//! typed codes below. Errors never close the connection except
//! [`ERR_LINE_TOO_LONG`] (the stream position is unrecoverable past an
//! oversized line) and the [`ERR_PARSE`] for a line that is not UTF-8
//! (the peer is not speaking this protocol).

use std::borrow::Cow;

use crate::proto::{BinResponse, UNATTRIBUTED_ID};
use qdelay_json::{write_num, write_str, write_uint, Json, Scalar};
use qdelay_predict::admission::Decision;

/// A line was not a well-formed JSON value (including trailing garbage).
pub const ERR_PARSE: &str = "parse";
/// A line exceeded the configured length limit; the connection closes.
pub const ERR_LINE_TOO_LONG: &str = "line_too_long";
/// Well-formed JSON that is not a valid request (unknown method, missing
/// or mistyped field, non-finite number).
pub const ERR_BAD_REQUEST: &str = "bad_request";
/// A server-side filesystem operation failed: a snapshot write, a spill
/// read, or the journal commit an observe's ack was waiting for.
pub const ERR_IO: &str = "io";
/// This server is a replica: it serves reads (`predict`/`admit`/`stats`/
/// `metrics`) but rejects state-changing requests until promoted.
pub const ERR_READ_ONLY: &str = "read_only";

/// Longest admitted `site`/`queue` name, bounding per-partition key memory.
pub const MAX_NAME_LEN: usize = 128;

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Reveal a completed wait to a partition's history.
    Observe {
        site: String,
        queue: String,
        procs: u32,
        wait: f64,
        /// The BMBP bound previously served for this job, fed back for
        /// change-point detection.
        predicted_bmbp: Option<f64>,
        /// Likewise for the log-normal predictor.
        predicted_lognormal: Option<f64>,
    },
    /// Query the current bounds for a partition.
    Predict { site: String, queue: String, procs: u32 },
    /// Admission check: compare the partition's current bound against a
    /// wait budget and answer admit/reject/defer.
    Admit {
        site: String,
        queue: String,
        procs: u32,
        /// The caller's deadline, in the same wait-units as observations.
        budget: f64,
        /// Optional confidence the caller expects the bound to carry, in
        /// (0, 1) exclusive. Validated for range but does not alter the
        /// served bound: the predictors are fixed at the paper's 95/95
        /// configuration.
        confidence: Option<f64>,
    },
    /// Write every partition to a server-side snapshot file: `path`, or
    /// the server's configured snapshot path when it is omitted.
    Snapshot { path: Option<String> },
    /// Registry overview plus a telemetry snapshot.
    Stats,
    /// Live metrics: current telemetry snapshot plus per-second rates over
    /// the sampler's last interval.
    Metrics,
    /// Flight-recorder dump: recent and slow traced requests.
    Trace,
    /// Promote a replica to primary: drain the applied replication prefix,
    /// then start accepting observes. An error on a non-replica.
    Promote,
    /// Begin graceful shutdown (final snapshot, then exit).
    Shutdown,
}

impl Request {
    /// The method's name on the JSON wire.
    pub fn method(&self) -> &'static str {
        match self {
            Request::Observe { .. } => "observe",
            Request::Predict { .. } => "predict",
            Request::Admit { .. } => "admit",
            Request::Snapshot { .. } => "snapshot",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Trace => "trace",
            Request::Promote => "promote",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A control method's typed answer, before a codec renders it
/// ([`reply_line`] here, [`crate::proto::encode_reply`] for frames). The
/// data-plane replies (`observe`/`predict`/`admit`) are rendered straight
/// from the typed result the shard returned and have no variant here.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `snapshot` wrote `partitions` partitions to the file at `path`.
    Snapshot { path: String, partitions: usize },
    /// The `stats` document's members.
    Stats(Vec<(String, Json)>),
    /// The `metrics` document's members.
    Metrics(Vec<(String, Json)>),
    /// The `trace` document's members.
    Trace(Vec<(String, Json)>),
    /// `promote` succeeded; `applied` replicated records are in.
    Promoted { applied: u64 },
    /// `shutdown` acknowledged.
    Shutdown,
}

/// One member of a request object as validation sees it. Booleans, arrays
/// and objects are one kind: no field accepts any of them.
#[derive(Default)]
enum Field<'a> {
    #[default]
    Absent,
    Null,
    Num(f64),
    Str(Cow<'a, str>),
    Other,
}

impl<'a> From<&'a Json> for Field<'a> {
    fn from(value: &'a Json) -> Self {
        match value {
            Json::Null => Field::Null,
            Json::Num(x) => Field::Num(*x),
            Json::Str(s) => Field::Str(Cow::Borrowed(s)),
            Json::Bool(_) | Json::Arr(_) | Json::Obj(_) => Field::Other,
        }
    }
}

impl<'a> From<Scalar<'a>> for Field<'a> {
    fn from(value: Scalar<'a>) -> Self {
        match value {
            Scalar::Null => Field::Null,
            Scalar::Num(x) => Field::Num(x),
            Scalar::Str(s) => Field::Str(s),
            Scalar::Bool(_) => Field::Other,
        }
    }
}

/// The first occurrence of each key a method reads — what [`Json::get`]
/// finds — however the line was read: by the flat scan
/// ([`scan_request`]) or off a tree ([`parse_request`]). Validation
/// ([`parse_body`]) exists once, over this.
#[derive(Default)]
struct Slots<'a> {
    method: Field<'a>,
    site: Field<'a>,
    queue: Field<'a>,
    procs: Field<'a>,
    wait: Field<'a>,
    predicted_bmbp: Field<'a>,
    predicted_lognormal: Field<'a>,
    budget: Field<'a>,
    confidence: Field<'a>,
    path: Field<'a>,
}

impl<'a> Slots<'a> {
    /// Files one member. Later duplicates and unknown keys are dropped.
    fn put(&mut self, key: &str, value: impl Into<Field<'a>>) {
        let slot = match key {
            "method" => &mut self.method,
            "site" => &mut self.site,
            "queue" => &mut self.queue,
            "procs" => &mut self.procs,
            "wait" => &mut self.wait,
            "predicted_bmbp" => &mut self.predicted_bmbp,
            "predicted_lognormal" => &mut self.predicted_lognormal,
            "budget" => &mut self.budget,
            "confidence" => &mut self.confidence,
            "path" => &mut self.path,
            _ => return,
        };
        if matches!(slot, Field::Absent) {
            *slot = value.into();
        }
    }
}

fn str_arg(field: Field<'_>, key: &str) -> Result<String, String> {
    let Field::Str(s) = field else { return Err(format!("'{key}' must be a string")) };
    if s.is_empty() || s.len() > MAX_NAME_LEN {
        return Err(format!("'{key}' must be 1..={MAX_NAME_LEN} bytes"));
    }
    Ok(s.into_owned())
}

fn procs_arg(field: Field<'_>) -> Result<u32, String> {
    let p = match field {
        Field::Num(x) => Json::Num(x).as_usize(),
        _ => None,
    };
    let p = p.ok_or("'procs' must be a non-negative integer")?;
    u32::try_from(p).map_err(|_| "'procs' out of range".to_string())
}

fn finite_arg(field: Field<'_>, key: &str) -> Result<Option<f64>, String> {
    match field {
        Field::Absent | Field::Null => Ok(None),
        Field::Num(x) if x.is_finite() => Ok(Some(x)),
        Field::Num(_) => Err(format!("'{key}' must be finite")),
        _ => Err(format!("'{key}' must be a number")),
    }
}

/// Extracts the request id (echoed in all replies) and the validated
/// request. The id comes back even when validation fails so the error
/// reply can still be matched.
pub fn parse_request(v: &Json) -> (Option<Json>, Result<Request, String>) {
    let mut slots = Slots::default();
    for (key, value) in v.as_object().unwrap_or_default() {
        slots.put(key, value);
    }
    (v.get("id").cloned(), parse_body(slots))
}

/// [`parse_request`] straight off a line's text, with no tree in between:
/// `Some` of exactly what `parse_request(&Json::parse(text)?)` returns, or
/// `None` when the line is not one object of scalar members (so a nested
/// `id`, and anything malformed) — the caller then takes the tree path,
/// which alone words `parse` errors.
pub fn scan_request(text: &str) -> Option<(Option<Json>, Result<Request, String>)> {
    let mut slots = Slots::default();
    let mut id = None;
    qdelay_json::scan_flat(text, |key, value| {
        if key != "id" {
            slots.put(&key, value);
        } else if id.is_none() {
            id = Some(Json::from(value));
        }
    })?;
    Some((id, parse_body(slots)))
}

fn parse_body(slots: Slots<'_>) -> Result<Request, String> {
    let Field::Str(method) = slots.method else { return Err("'method' must be a string".into()) };
    match &*method {
        "observe" => {
            let wait = finite_arg(slots.wait, "wait")?.ok_or("'wait' is required")?;
            if wait < 0.0 {
                return Err("'wait' must be non-negative".to_string());
            }
            Ok(Request::Observe {
                site: str_arg(slots.site, "site")?,
                queue: str_arg(slots.queue, "queue")?,
                procs: procs_arg(slots.procs)?,
                wait,
                predicted_bmbp: finite_arg(slots.predicted_bmbp, "predicted_bmbp")?,
                predicted_lognormal: finite_arg(slots.predicted_lognormal, "predicted_lognormal")?,
            })
        }
        "predict" => Ok(Request::Predict {
            site: str_arg(slots.site, "site")?,
            queue: str_arg(slots.queue, "queue")?,
            procs: procs_arg(slots.procs)?,
        }),
        "admit" => {
            let budget = finite_arg(slots.budget, "budget")?.ok_or("'budget' is required")?;
            if budget < 0.0 {
                return Err("'budget' must be non-negative".to_string());
            }
            let confidence = finite_arg(slots.confidence, "confidence")?;
            if let Some(c) = confidence {
                if c <= 0.0 || c >= 1.0 {
                    return Err("'confidence' must be in (0, 1)".to_string());
                }
            }
            Ok(Request::Admit {
                site: str_arg(slots.site, "site")?,
                queue: str_arg(slots.queue, "queue")?,
                procs: procs_arg(slots.procs)?,
                budget,
                confidence,
            })
        }
        "snapshot" => Ok(Request::Snapshot {
            path: match slots.path {
                Field::Absent | Field::Null => None,
                Field::Str(path) => Some(path.into_owned()),
                _ => return Err("'path' must be a string".into()),
            },
        }),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "trace" => Ok(Request::Trace),
        "promote" => Ok(Request::Promote),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown method '{other}'; expected one of observe, predict, admit, \
             snapshot, stats, metrics, trace, promote, shutdown"
        )),
    }
}

/// Builds a request line (no trailing newline): the client-side inverse of
/// [`parse_request`].
pub fn request_line(id: u64, request: &Request) -> String {
    let mut members = vec![
        ("id".to_string(), Json::Num(id as f64)),
        ("method".to_string(), Json::Str(request.method().into())),
    ];
    let mut put = |key: &str, value: Option<Json>| {
        members.extend(value.map(|v| (key.to_string(), v)));
    };
    match request {
        Request::Observe { site, queue, procs, .. }
        | Request::Predict { site, queue, procs }
        | Request::Admit { site, queue, procs, .. } => {
            put("site", Some(Json::Str(site.clone())));
            put("queue", Some(Json::Str(queue.clone())));
            put("procs", Some(Json::Num(f64::from(*procs))));
        }
        Request::Snapshot { path } => put("path", path.clone().map(Json::Str)),
        _ => {}
    }
    match request {
        Request::Observe { wait, predicted_bmbp, predicted_lognormal, .. } => {
            put("wait", Some(Json::Num(*wait)));
            put("predicted_bmbp", predicted_bmbp.map(Json::Num));
            put("predicted_lognormal", predicted_lognormal.map(Json::Num));
        }
        Request::Admit { budget, confidence, .. } => {
            put("budget", Some(Json::Num(*budget)));
            put("confidence", confidence.map(Json::Num));
        }
        _ => {}
    }
    Json::Obj(members).to_string_compact()
}

/// Opens a reply object on the end of `out`: `{"id":<id>,"ok":<ok>`, the
/// id member only when the request carried one. Every reply starts here.
fn open_reply(out: &mut Vec<u8>, id: Option<&Json>, ok: bool) {
    out.push(b'{');
    if let Some(id) = id {
        out.extend_from_slice(b"\"id\":");
        id.write_compact(out);
        out.push(b',');
    }
    out.extend_from_slice(if ok { b"\"ok\":true" } else { b"\"ok\":false" });
}

/// Opens a success reply as far as the members `observe`, `predict` and
/// `admit` share.
fn open_partition(out: &mut Vec<u8>, id: Option<&Json>, partition: &str) {
    open_reply(out, id, true);
    out.extend_from_slice(b",\"partition\":");
    write_str(out, partition);
}

fn write_bound(out: &mut Vec<u8>, bound: Option<f64>) {
    match bound {
        Some(x) => write_num(out, x),
        None => out.extend_from_slice(b"null"),
    }
}

/// Appends an `{"ok":false,...}` reply (no trailing newline) to `out`.
pub fn write_error(out: &mut Vec<u8>, id: Option<&Json>, code: &str, message: &str) {
    open_reply(out, id, false);
    out.extend_from_slice(b",\"error\":");
    write_str(out, code);
    out.extend_from_slice(b",\"message\":");
    write_str(out, message);
    out.push(b'}');
}

/// Appends the `observe` acknowledgement: the partition's label and the
/// per-partition sequence number this observation became.
pub fn write_observe(out: &mut Vec<u8>, id: Option<&Json>, partition: &str, seq: u64) {
    open_partition(out, id, partition);
    out.extend_from_slice(b",\"seq\":");
    write_uint(out, seq);
    out.push(b'}');
}

/// Appends the `predict` reply: history length, sequence number, and both
/// bounds (`null` while history is insufficient).
pub fn write_predict(
    out: &mut Vec<u8>,
    id: Option<&Json>,
    partition: &str,
    n: usize,
    seq: u64,
    bmbp: Option<f64>,
    lognormal: Option<f64>,
) {
    open_partition(out, id, partition);
    out.extend_from_slice(b",\"n\":");
    write_uint(out, n as u64);
    out.extend_from_slice(b",\"seq\":");
    write_uint(out, seq);
    out.extend_from_slice(b",\"bmbp\":");
    write_bound(out, bmbp);
    out.extend_from_slice(b",\"lognormal\":");
    write_bound(out, lognormal);
    out.push(b'}');
}

/// Appends the `admit` reply: partition identity like `predict`, then the
/// decision kind with its payload — `bound`/`margin` for admit and reject,
/// `retry_hint` for defer.
pub fn write_admit(
    out: &mut Vec<u8>,
    id: Option<&Json>,
    partition: &str,
    n: usize,
    seq: u64,
    decision: &Decision,
) {
    open_partition(out, id, partition);
    out.extend_from_slice(b",\"n\":");
    write_uint(out, n as u64);
    out.extend_from_slice(b",\"seq\":");
    write_uint(out, seq);
    out.extend_from_slice(b",\"decision\":");
    write_str(out, decision.kind());
    match decision {
        Decision::Admit { bound, margin } | Decision::Reject { bound, margin } => {
            out.extend_from_slice(b",\"bound\":");
            write_num(out, *bound);
            out.extend_from_slice(b",\"margin\":");
            write_num(out, *margin);
        }
        Decision::Defer { retry_hint } => {
            out.extend_from_slice(b",\"retry_hint\":");
            write_uint(out, *retry_hint);
        }
    }
    out.push(b'}');
}

/// Appends a control method's reply: the members of `reply` behind the
/// opening every reply shares.
pub fn write_reply(out: &mut Vec<u8>, id: Option<&Json>, reply: &Reply) {
    open_reply(out, id, true);
    match reply {
        Reply::Snapshot { path, partitions } => {
            out.extend_from_slice(b",\"partitions\":");
            write_uint(out, *partitions as u64);
            out.extend_from_slice(b",\"path\":");
            write_str(out, path);
        }
        Reply::Stats(members) | Reply::Metrics(members) | Reply::Trace(members) => {
            for (key, value) in members {
                out.push(b',');
                write_str(out, key);
                out.push(b':');
                value.write_compact(out);
            }
        }
        Reply::Promoted { applied } => {
            out.extend_from_slice(b",\"promoted\":true,\"applied\":");
            write_uint(out, *applied);
        }
        Reply::Shutdown => {}
    }
    out.push(b'}');
}

/// One reply as its own `String`: what the `*_line` forms of the writers
/// above return, for callers that hold no buffer (tests, the benchmark).
fn line(write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::new();
    write(&mut out);
    String::from_utf8(out).expect("the writers copy `str`s and emit ASCII around them")
}

/// [`write_error`] as a line of its own (no trailing newline).
pub fn error_line(id: Option<&Json>, code: &str, message: &str) -> String {
    line(|out| write_error(out, id, code, message))
}

/// [`write_observe`] as a line of its own.
pub fn observe_line(id: Option<&Json>, partition: &str, seq: u64) -> String {
    line(|out| write_observe(out, id, partition, seq))
}

/// [`write_predict`] as a line of its own.
pub fn predict_line(
    id: Option<&Json>,
    partition: &str,
    n: usize,
    seq: u64,
    bmbp: Option<f64>,
    lognormal: Option<f64>,
) -> String {
    line(|out| write_predict(out, id, partition, n, seq, bmbp, lognormal))
}

/// [`write_admit`] as a line of its own.
pub fn admit_line(
    id: Option<&Json>,
    partition: &str,
    n: usize,
    seq: u64,
    decision: &Decision,
) -> String {
    line(|out| write_admit(out, id, partition, n, seq, decision))
}

/// [`write_reply`] as a line of its own.
pub fn reply_line(id: Option<&Json>, reply: &Reply) -> String {
    line(|out| write_reply(out, id, reply))
}

/// The id a reply line echoes; [`UNATTRIBUTED_ID`] when it carries none
/// (the request had no id, or the server could not read one).
pub fn reply_id(v: &Json) -> Result<u64, String> {
    match v.get("id") {
        None => Ok(UNATTRIBUTED_ID),
        Some(id) => match id.as_usize() {
            Some(id) => Ok(id as u64),
            None => Err("reply 'id' is not an integer".into()),
        },
    }
}

/// Decodes a reply line's value into the typed response both codecs share:
/// the client-side inverse of the `*_line` renderers. A success line
/// carries no kind tag, so `method` names the request it answers
/// ([`Request::method`]); an error line needs none.
pub fn decode_reply(v: &Json, method: Option<&str>) -> Result<BinResponse, String> {
    let missing = |key: &str| format!("reply missing '{key}': {}", v.to_string_compact());
    let text = |key: &str| {
        v.get(key).and_then(Json::as_str).map(str::to_string).ok_or_else(|| missing(key))
    };
    let int = |key: &str| {
        v.get(key).and_then(Json::as_usize).map(|n| n as u64).ok_or_else(|| missing(key))
    };
    let num = |key: &str| v.get(key).and_then(Json::as_f64).ok_or_else(|| missing(key));
    let bound = |key: &str| v.get(key).and_then(Json::as_f64);
    let method = match v.get("ok") {
        Some(Json::Bool(false)) => {
            return Ok(BinResponse::Error { code: text("error")?, message: text("message")? })
        }
        Some(Json::Bool(true)) => {
            method.ok_or("a success reply to a request this client did not type")?
        }
        _ => return Err(missing("ok")),
    };
    Ok(match method {
        "observe" => BinResponse::Observe { partition: text("partition")?, seq: int("seq")? },
        "predict" => BinResponse::Predict {
            partition: text("partition")?,
            n: int("n")?,
            seq: int("seq")?,
            bmbp: bound("bmbp"),
            lognormal: bound("lognormal"),
        },
        "admit" => BinResponse::Admit {
            partition: text("partition")?,
            n: int("n")?,
            seq: int("seq")?,
            decision: match text("decision")?.as_str() {
                "admit" => Decision::Admit { bound: num("bound")?, margin: num("margin")? },
                "reject" => Decision::Reject { bound: num("bound")?, margin: num("margin")? },
                "defer" => Decision::Defer { retry_hint: int("retry_hint")? },
                other => return Err(format!("bad admit decision '{other}'")),
            },
        },
        "snapshot" => BinResponse::Snapshot { path: text("path")?, partitions: int("partitions")? },
        "stats" | "metrics" | "trace" => {
            // The document is the line minus its leading `id`/`ok` envelope.
            let members = v.as_object().unwrap_or_default().iter();
            let body = members.skip_while(|(key, _)| key == "id" || key == "ok").cloned();
            let json = Json::Obj(body.collect()).to_string_compact();
            match method {
                "stats" => BinResponse::Stats { json },
                "metrics" => BinResponse::Metrics { json },
                _ => BinResponse::Trace { json },
            }
        }
        "promote" => BinResponse::Promote { applied: int("applied")? },
        "shutdown" => BinResponse::Shutdown,
        other => return Err(format!("no reply decoder for method '{other}'")),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn parse(line: &str) -> (Option<Json>, Result<Request, String>) {
        parse_request(&Json::parse(line).unwrap())
    }

    #[test]
    fn observe_request_round_trips() {
        let (id, req) = parse(
            r#"{"id":7,"method":"observe","site":"datastar","queue":"normal","procs":4,"wait":120.5,"predicted_bmbp":380.0}"#,
        );
        assert_eq!(id, Some(Json::Num(7.0)));
        assert_eq!(
            req.unwrap(),
            Request::Observe {
                site: "datastar".into(),
                queue: "normal".into(),
                procs: 4,
                wait: 120.5,
                predicted_bmbp: Some(380.0),
                predicted_lognormal: None,
            }
        );
    }

    #[test]
    fn predict_and_control_requests() {
        let (_, req) = parse(r#"{"method":"predict","site":"s","queue":"q","procs":65}"#);
        assert_eq!(
            req.unwrap(),
            Request::Predict { site: "s".into(), queue: "q".into(), procs: 65 }
        );
        assert_eq!(parse(r#"{"method":"stats"}"#).1.unwrap(), Request::Stats);
        assert_eq!(parse(r#"{"method":"metrics"}"#).1.unwrap(), Request::Metrics);
        assert_eq!(parse(r#"{"method":"trace"}"#).1.unwrap(), Request::Trace);
        assert_eq!(parse(r#"{"method":"promote"}"#).1.unwrap(), Request::Promote);
        assert_eq!(parse(r#"{"method":"shutdown"}"#).1.unwrap(), Request::Shutdown);
        assert_eq!(
            parse(r#"{"method":"snapshot","path":"/tmp/s.json"}"#).1.unwrap(),
            Request::Snapshot { path: Some("/tmp/s.json".into()) }
        );
        assert_eq!(
            parse(r#"{"method":"snapshot"}"#).1.unwrap(),
            Request::Snapshot { path: None }
        );
    }

    /// A duplicated member means its first occurrence (what `Json::get`
    /// finds), on either way in — `null` and a wrong kind included.
    #[test]
    fn the_first_duplicate_wins() {
        let line = r#"{"id":1,"id":2,"method":"predict","method":"stats","site":"a","site":"b","queue":"q","procs":1,"procs":2}"#;
        let want = Request::Predict { site: "a".into(), queue: "q".into(), procs: 1 };
        assert_eq!(parse(line), (Some(Json::Num(1.0)), Ok(want.clone())));
        assert_eq!(scan_request(line), Some((Some(Json::Num(1.0)), Ok(want))));
        for line in [
            r#"{"method":"observe","site":"s","queue":"q","procs":1,"wait":null,"wait":5}"#,
            r#"{"method":"observe","site":"s","queue":"q","procs":1,"wait":true,"wait":5}"#,
        ] {
            assert!(parse(line).1.is_err(), "{line}");
            assert!(scan_request(line).unwrap().1.is_err(), "{line}");
        }
    }

    #[test]
    fn invalid_requests_keep_their_id() {
        let (id, req) = parse(r#"{"id":"x","method":"teleport"}"#);
        assert_eq!(id, Some(Json::Str("x".into())));
        assert!(req.unwrap_err().contains("teleport"));
    }

    #[test]
    fn unknown_method_error_lists_every_method() {
        // The dispatch error must enumerate the full surface — including
        // the PR-7 observability methods and `admit` — so a client typo
        // gets an actionable reply, not just an echo.
        let err = parse(r#"{"method":"teleport"}"#).1.unwrap_err();
        for method in [
            "observe", "predict", "admit", "snapshot", "stats", "metrics", "trace", "promote",
            "shutdown",
        ] {
            assert!(err.contains(method), "allowed-method list missing '{method}': {err}");
        }
    }

    #[test]
    fn admit_request_round_trips() {
        let (id, req) = parse(
            r#"{"id":3,"method":"admit","site":"ds","queue":"normal","procs":4,"budget":600}"#,
        );
        assert_eq!(id, Some(Json::Num(3.0)));
        assert_eq!(
            req.unwrap(),
            Request::Admit {
                site: "ds".into(),
                queue: "normal".into(),
                procs: 4,
                budget: 600.0,
                confidence: None,
            }
        );
        let (_, req) = parse(
            r#"{"method":"admit","site":"s","queue":"q","procs":1,"budget":0,"confidence":0.95}"#,
        );
        assert_eq!(
            req.unwrap(),
            Request::Admit {
                site: "s".into(),
                queue: "q".into(),
                procs: 1,
                budget: 0.0,
                confidence: Some(0.95),
            }
        );
    }

    #[test]
    fn admit_field_validation() {
        for bad in [
            r#"{"method":"admit","site":"s","queue":"q","procs":1}"#, // no budget
            r#"{"method":"admit","site":"s","queue":"q","procs":1,"budget":-1}"#,
            r#"{"method":"admit","site":"s","queue":"q","procs":1,"budget":"soon"}"#,
            r#"{"method":"admit","site":"s","queue":"q","budget":60}"#, // no procs
            r#"{"method":"admit","site":"","queue":"q","procs":1,"budget":60}"#,
            r#"{"method":"admit","site":"s","queue":"q","procs":1,"budget":60,"confidence":0}"#,
            r#"{"method":"admit","site":"s","queue":"q","procs":1,"budget":60,"confidence":1}"#,
            r#"{"method":"admit","site":"s","queue":"q","procs":1,"budget":60,"confidence":1.5}"#,
            r#"{"method":"admit","site":"s","queue":"q","procs":1,"budget":60,"confidence":-0.5}"#,
        ] {
            assert!(parse(bad).1.is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn field_validation() {
        for bad in [
            r#"{"method":"observe","site":"s","queue":"q","procs":1}"#, // no wait
            r#"{"method":"observe","site":"s","queue":"q","procs":1,"wait":-1}"#,
            r#"{"method":"observe","site":"s","queue":"q","procs":1.5,"wait":1}"#,
            r#"{"method":"observe","site":"","queue":"q","procs":1,"wait":1}"#,
            r#"{"method":"predict","site":"s","queue":"q"}"#, // no procs
            r#"{"method":"predict","site":7,"queue":"q","procs":1}"#,
            r#"{"method":7}"#,
            r#"[1,2,3]"#,
        ] {
            assert!(parse(bad).1.is_err(), "accepted: {bad}");
        }
        let long = "s".repeat(MAX_NAME_LEN + 1);
        let (_, req) =
            parse(&format!(r#"{{"method":"predict","site":"{long}","queue":"q","procs":1}}"#));
        assert!(req.is_err());
    }

    #[test]
    fn reply_lines_are_single_line_json() {
        let id = Json::Num(3.0);
        for line in [
            error_line(Some(&id), ERR_IO, "disk full"),
            observe_line(None, "s/q/1-4", 17),
            predict_line(Some(&id), "s/q/65+", 120, 40, Some(88.5), None),
            reply_line(None, &Reply::Stats(vec![("partitions".into(), Json::Num(3.0))])),
        ] {
            assert!(!line.contains('\n'));
            let v = Json::parse(&line).unwrap();
            assert!(v.get("ok").is_some());
        }
        let v = Json::parse(&predict_line(None, "p", 2, 1, None, Some(1.0))).unwrap();
        assert_eq!(v.get("bmbp"), Some(&Json::Null));
        assert_eq!(v.get("lognormal").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn control_reply_lines_keep_their_field_names() {
        let id = Json::Num(4.0);
        let members = vec![("partitions".to_string(), Json::Num(2.0))];
        for (reply, keys) in [
            (Reply::Snapshot { path: "/p".into(), partitions: 2 }, &["partitions", "path"][..]),
            (Reply::Stats(members.clone()), &["partitions"][..]),
            (Reply::Promoted { applied: 50 }, &["promoted", "applied"][..]),
            (Reply::Shutdown, &[][..]),
        ] {
            let v = Json::parse(&reply_line(Some(&id), &reply)).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(v.get("id"), Some(&id));
            for key in keys {
                assert!(v.get(key).is_some(), "missing '{key}'");
            }
        }
    }

    #[test]
    fn admit_lines_carry_the_decision_payload() {
        let id = Json::Num(9.0);
        let v = Json::parse(&admit_line(
            Some(&id),
            "s/q/1-4",
            70,
            70,
            &Decision::Admit { bound: 400.0, margin: 200.0 },
        ))
        .unwrap();
        assert_eq!(v.get("decision").and_then(Json::as_str), Some("admit"));
        assert_eq!(v.get("bound").and_then(Json::as_f64), Some(400.0));
        assert_eq!(v.get("margin").and_then(Json::as_f64), Some(200.0));
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(70));
        assert!(v.get("retry_hint").is_none());

        let v = Json::parse(&admit_line(
            None,
            "p",
            70,
            70,
            &Decision::Reject { bound: 500.0, margin: 100.0 },
        ))
        .unwrap();
        assert_eq!(v.get("decision").and_then(Json::as_str), Some("reject"));
        assert_eq!(v.get("margin").and_then(Json::as_f64), Some(100.0));

        let v =
            Json::parse(&admit_line(None, "p", 1, 1, &Decision::Defer { retry_hint: 1 })).unwrap();
        assert_eq!(v.get("decision").and_then(Json::as_str), Some("defer"));
        assert_eq!(v.get("retry_hint").and_then(Json::as_usize), Some(1));
        assert!(v.get("bound").is_none());
    }

    /// A seeded spread over the request model: names at the length cap,
    /// with escapes and beyond ASCII; every `Option` both ways; subnormal
    /// and huge finite floats; each control method.
    pub(crate) fn requests() -> Vec<Request> {
        use qdelay_rng::{Rng, StdRng};
        let names = ["s".repeat(MAX_NAME_LEN), "q\"\\\n\t\u{1}/".into(), "δ-星-🚀".into()];
        let floats = [0.0, 5e-324, 2.2250738585072014e-308, 123.456_789_012_345_68, f64::MAX];
        let fractions = [5e-324, 0.95, 1.0 - f64::EPSILON];
        let mut out = vec![
            Request::Stats,
            Request::Metrics,
            Request::Trace,
            Request::Promote,
            Request::Shutdown,
            Request::Snapshot { path: None },
            Request::Snapshot { path: Some("/tmp/δ \"x\"\\.json".into()) },
        ];
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..300 {
            let r = rng.next_u64();
            let pick = |shift: u32, len: usize| (r >> shift) as usize % len;
            let float = |shift: u32| floats[pick(shift, floats.len())];
            let maybe = |bit: u32, x: f64| (r >> bit & 1 == 1).then_some(x);
            let site = names[pick(8, names.len())].clone();
            let queue = names[pick(12, names.len())].clone();
            let procs = [0, 1, 65, (r >> 32) as u32, u32::MAX][pick(16, 5)];
            out.push(match r % 3 {
                0 => Request::Observe {
                    site,
                    queue,
                    procs,
                    wait: float(20),
                    predicted_bmbp: maybe(2, float(24)),
                    predicted_lognormal: maybe(3, float(28)),
                },
                1 => Request::Predict { site, queue, procs },
                _ => Request::Admit {
                    site,
                    queue,
                    procs,
                    budget: float(20),
                    confidence: maybe(2, fractions[pick(24, fractions.len())]),
                },
            });
        }
        out
    }

    /// Every float in a request's or response's `Debug` text, as bits.
    /// (`-0.0` is in none of the sets below: the JSON writer prints it as
    /// `0`, and no predictor serves it — waits and margins are `>= +0.0`.)
    pub(crate) fn float_bits(debug: &str) -> Vec<u64> {
        debug
            .split(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
            .filter_map(|token| token.parse::<f64>().ok())
            .map(f64::to_bits)
            .collect()
    }

    /// The JSON half of "both codecs describe one model"; the binary half,
    /// over the same set, is `proto`'s `all_request_kinds_round_trip`.
    #[test]
    fn request_lines_round_trip_the_model() {
        for (i, request) in requests().iter().enumerate() {
            let id = i as u64 + 1;
            let line = request_line(id, request);
            assert!(!line.contains('\n'), "{line}");
            let (echo, parsed) = parse(&line);
            assert_eq!(echo, Some(Json::Num(id as f64)));
            assert_eq!(parsed.as_ref(), Ok(request), "{line}");
            let want = float_bits(&format!("{request:?}"));
            assert_eq!(float_bits(&format!("{parsed:?}")), want, "{line}");
        }
    }

    /// The client's decode of a reply line equals its decode of the frame
    /// the other renderer makes from the same typed reply.
    #[test]
    fn line_and_frame_replies_decode_alike() {
        use crate::proto;
        use qdelay_journal::frame;
        fn check(id: Option<u64>, line: String, framed: &[u8], method: Option<&str>) {
            let v = Json::parse(&line).unwrap();
            let from_line = (reply_id(&v).unwrap(), decode_reply(&v, method).unwrap());
            let from_frame = proto::decode_response(&framed[frame::PREFIX_LEN..]).unwrap();
            assert_eq!(from_line, from_frame, "{line}");
            assert_eq!(from_line.0, id.unwrap_or(UNATTRIBUTED_ID));
            assert_eq!(
                float_bits(&format!("{from_line:?}")),
                float_bits(&format!("{from_frame:?}")),
                "{line}"
            );
        }
        let labels = ["s/q/1-4", "δ \"星\"\\/q/65+"];
        let floats = [0.0, 5e-324, 123.456_789_012_345_68, 9.007_199_254_740_993e15, f64::MAX];
        let mut buf = Vec::new();
        let mut id = 0u64;
        let mut next = |buf: &mut Vec<u8>| {
            buf.clear();
            id += 1;
            (id, Json::Num(id as f64))
        };
        for label in labels {
            let (id, jid) = next(&mut buf);
            proto::encode_observe_resp(&mut buf, id, label, id << 40);
            check(Some(id), observe_line(Some(&jid), label, id << 40), &buf, Some("observe"));
            for (i, &x) in floats.iter().enumerate() {
                let y = floats[(i + 1) % floats.len()];
                let both_ways = [(Some(x), Some(y)), (None, Some(x)), (Some(x), None), (None, None)];
                for (bmbp, lognormal) in both_ways {
                    let (id, jid) = next(&mut buf);
                    proto::encode_predict_resp(&mut buf, id, label, 120, 40, bmbp, lognormal);
                    let line = predict_line(Some(&jid), label, 120, 40, bmbp, lognormal);
                    check(Some(id), line, &buf, Some("predict"));
                }
                for decision in [
                    Decision::Admit { bound: x, margin: y },
                    Decision::Reject { bound: y, margin: x },
                    Decision::Defer { retry_hint: 1 + i as u64 },
                ] {
                    let (id, jid) = next(&mut buf);
                    proto::encode_admit_resp(&mut buf, id, label, 70, 71, &decision);
                    let line = admit_line(Some(&jid), label, 70, 71, &decision);
                    check(Some(id), line, &buf, Some("admit"));
                }
            }
        }
        let members = vec![
            ("version".to_string(), Json::Str("δ".into())),
            ("per_shard".to_string(), Json::Arr(vec![Json::Obj(vec![("ok".into(), 0.5.into())])])),
            ("id".to_string(), Json::Null),
        ];
        for (reply, method) in [
            (Reply::Snapshot { path: "/tmp/δ.json".into(), partitions: 7 }, "snapshot"),
            (Reply::Stats(members.clone()), "stats"),
            (Reply::Metrics(members.clone()), "metrics"),
            (Reply::Trace(members), "trace"),
            (Reply::Promoted { applied: 50 }, "promote"),
            (Reply::Shutdown, "shutdown"),
        ] {
            let (id, jid) = next(&mut buf);
            proto::encode_reply(&mut buf, id, reply.clone());
            check(Some(id), reply_line(Some(&jid), &reply), &buf, Some(method));
        }
        for (code, message) in [(ERR_BAD_REQUEST, "'wait' is required"), (ERR_IO, "δ \"x\"\n")] {
            let (id, jid) = next(&mut buf);
            proto::encode_error_resp(&mut buf, id, code, message);
            check(Some(id), error_line(Some(&jid), code, message), &buf, None);
            buf.clear();
            proto::encode_error_resp(&mut buf, UNATTRIBUTED_ID, code, message);
            check(None, error_line(None, code, message), &buf, Some("predict"));
        }
    }

    /// The reference the scan is held to: the tree parser, then the tree
    /// entry of the one validation. `None` where the line does not parse.
    fn by_tree(text: &str) -> Option<(Option<Json>, Result<Request, String>)> {
        Json::parse(text).ok().map(|v| parse_request(&v))
    }

    /// The scan may only agree with the tree or decline — and must decline
    /// what does not parse. Returns whether it answered.
    fn scan_agrees(text: &str) -> bool {
        let (scanned, tree) = (scan_request(text), by_tree(text));
        let Some(scanned) = scanned else { return false };
        let tree = tree.unwrap_or_else(|| panic!("scanned a line that does not parse: {text}"));
        assert_eq!(scanned, tree, "{text}");
        // `{:?}` on an `f64` round-trips, so equal text is equal bits
        // (`0.0` and `-0.0` compare equal above and differ here).
        assert_eq!(format!("{scanned:?}"), format!("{tree:?}"), "{text}");
        true
    }

    /// A data-plane line the way `benchmark/` and most scripts spell it: by
    /// `format!`, floats by `{}`, nothing escaped.
    fn formatted_line(id: u64, request: &Request) -> String {
        let head = |site: &str, queue: &str, procs: u32| {
            let method = request.method();
            format!(
                r#"{{"id":{id},"method":"{method}","site":"{site}","queue":"{queue}","procs":{procs}"#
            )
        };
        match request {
            Request::Observe { site, queue, procs, wait, predicted_bmbp, predicted_lognormal } => {
                let mut line = head(site, queue, *procs) + &format!(r#","wait":{wait}"#);
                if let Some(b) = predicted_bmbp {
                    line += &format!(r#","predicted_bmbp":{b}"#);
                }
                if let Some(l) = predicted_lognormal {
                    line += &format!(r#","predicted_lognormal":{l}"#);
                }
                line + "}"
            }
            Request::Predict { site, queue, procs } => head(site, queue, *procs) + "}",
            Request::Admit { site, queue, procs, budget, .. } => {
                head(site, queue, *procs) + &format!(r#","budget":{budget}}}"#)
            }
            _ => format!(r#"{{"id":{id},"method":"{}"}}"#, request.method()),
        }
    }

    /// Lines written to sit on every branch of the scan and of validation.
    fn hand_written_lines() -> Vec<String> {
        let mut lines: Vec<String> = [
            "{}",
            " { } ",
            r#"{"method":"stats"}"#,
            "{\"method\":\"stats\"}\r",
            "\t{ \"id\" : 1 ,\r\n \"method\" : \"predict\" , \"site\":\"s\",\"queue\" :\"q\", \"procs\": 4 } ",
            // Duplicates: the first occurrence wins, `id` included.
            r#"{"id":1,"id":2,"method":"predict","site":"a","site":"b","queue":"q","procs":1,"procs":2}"#,
            r#"{"id":null,"id":[2],"method":"stats"}"#,
            r#"{"id":[2],"id":null,"method":"stats"}"#,
            r#"{"method":"stats","method":"shutdown"}"#,
            r#"{"method":null,"method":"stats"}"#,
            r#"{"method":"observe","site":"s","queue":"q","procs":1,"wait":null,"wait":5}"#,
            // Escaped spellings of keys and values.
            r#"{"m\u0065thod":"predict","s\u0069te":"\u0041","queue":"q","procs":1,"\u0069d":3}"#,
            r#"{"method":"predict","site":"s","queue":"q\n\"\\\/","procs":1}"#,
            r#"{"method":"predict","site":"🚀","queue":"🚀","procs":1}"#,
            r#"{"method":"predict","site":"\ud83d","queue":"q","procs":1}"#,
            r#"{"method":"predict","site":"\u+041","queue":"q","procs":1}"#,
            "{\"method\":\"predict\",\"site\":\"a\u{1}b\",\"queue\":\"q\",\"procs\":1}",
            "{\"method\":\"predict\",\"site\":\"a\tb\",\"queue\":\"q\",\"procs\":1}",
            // Every id kind.
            r#"{"id":7,"method":"stats"}"#,
            r#"{"id":7.5,"method":"stats"}"#,
            r#"{"id":-0.0,"method":"stats"}"#,
            r#"{"id":1e999,"method":"stats"}"#,
            r#"{"id":"a\"\\\né","method":"stats"}"#,
            r#"{"id":null,"method":"stats"}"#,
            r#"{"id":true,"method":"stats"}"#,
            r#"{"id":false,"method":"teleport"}"#,
            r#"{"id":[1,"x",{"k":null}],"method":"stats"}"#,
            r#"{"id":{"a":1},"method":"stats"}"#,
            r#"{"method":"stats","id":9}"#,
            // Not an object, nested members, trailing bytes, malformed.
            "[1,2,3]",
            "7",
            "null",
            r#""stats""#,
            r#"{"method":"stats","extra":[1]}"#,
            r#"{"method":"stats","extra":{"a":{}}}"#,
            r#"{"method":"stats"} {"method":"stats"}"#,
            r#"{"method":"stats"} extra"#,
            r#"{"method":"stats",}"#,
            r#"{"method":"stats""#,
            r#"{"method" "stats"}"#,
            r#"{method:"stats"}"#,
            r#"{"method":stats}"#,
            r#"{"method":"predict","site":"s","queue":"q","procs":01}"#,
            r#"{"method":"predict","site":"s","queue":"q","procs":+1}"#,
            r#"{"method":"predict","site":"s","queue":"q","procs":1.}"#,
            r#"{"method":"predict","site":"s","queue":"q","procs":tru}"#,
            // Wrong in two ways: the first check, in validation order, speaks.
            r#"{"method":"observe","site":7,"queue":"","procs":-1,"wait":-1}"#,
            r#"{"method":"admit","site":"","queue":7,"procs":1.5,"budget":1,"confidence":2}"#,
            r#"{"method":"predict","site":"s","queue":"","procs":"4"}"#,
            r#"{"method":7,"site":7}"#,
            r#"{"method":"snapshot","path":7}"#,
            r#"{"method":"snapshot","path":null}"#,
            r#"{"method":"snapshot","path":"/tmp/δ \"x\"\\.json"}"#,
            r#"{"method":"snapshot","path":""}"#,
        ]
        .map(String::from)
        .to_vec();
        // Each numeric spelling in each numeric field.
        let numbers = [
            "0", "-0", "1", "-1", "1e0", "1E+0", "1e999", "-1e999", "4294967295", "4294967296",
            "9007199254740992", "9007199254740994", "1.5", "0.95", "5e-324", "1e-999",
        ];
        // Each kind a field does not accept, and `null` for the optional.
        let kinds = ["null", "true", "false", "\"4\"", "\"\"", "[4]", "{}", "[]"];
        for value in numbers.iter().chain(&kinds) {
            lines.push(format!(
                r#"{{"method":"observe","site":"s","queue":"q","procs":{value},"wait":1}}"#
            ));
            for field in ["wait", "predicted_bmbp", "predicted_lognormal"] {
                lines.push(format!(
                    r#"{{"method":"observe","site":"s","queue":"q","procs":1,"wait":2,"{field}":{value}}}"#
                ));
            }
            for field in ["budget", "confidence"] {
                lines.push(format!(
                    r#"{{"method":"admit","site":"s","queue":"q","procs":1,"budget":2,"{field}":{value}}}"#
                ));
            }
        }
        for value in kinds {
            for field in ["method", "site", "queue"] {
                lines.push(format!(
                    r#"{{"method":"predict","site":"s","queue":"q","procs":1,"{field}":{value}}}"#
                ));
                lines.push(format!(
                    r#"{{"{field}":{value},"method":"predict","site":"s","queue":"q","procs":1}}"#
                ));
            }
        }
        let long = "n".repeat(MAX_NAME_LEN + 1);
        lines.push(format!(r#"{{"method":"predict","site":"{long}","queue":"q","procs":1}}"#));
        lines.push(format!(r#"{{"method":"predict","site":"s","queue":"{long}","procs":1}}"#));
        lines
    }

    /// The scan is an optimisation that can only agree or decline: over
    /// every line a client writes, lines written to be wrong, every prefix
    /// of those and seeded single-byte damage to them, its answer is the
    /// tree's — id, request (floats by bits) or error wording — or none,
    /// and it is none wherever the tree refuses the line.
    #[test]
    fn the_scan_agrees_with_the_tree_or_declines() {
        use qdelay_rng::{Rng, StdRng};
        let mut corpus = hand_written_lines();
        for (i, request) in requests().iter().enumerate() {
            corpus.push(request_line(i as u64 + 1, request));
        }
        let (mut answered, mut declined) = (0usize, 0usize);
        let mut check = |text: &str| match scan_agrees(text) {
            true => answered += 1,
            false => declined += 1,
        };
        for line in &corpus {
            check(line);
            for (cut, _) in line.char_indices() {
                check(&line[..cut]);
            }
        }
        // Bytes that steer a JSON reader, over bytes that do not.
        let alphabet = b"\"\\{}[],: \t\r\n0123456789-+.eEntfu\x00\x1f\x7fx";
        let mut rng = StdRng::seed_from_u64(23);
        let mut mutated = 0;
        while mutated < 2000 {
            let r = rng.next_u64();
            let mut bytes = corpus[r as usize % corpus.len()].clone().into_bytes();
            if bytes.is_empty() {
                continue;
            }
            let at = (r >> 20) as usize % bytes.len();
            bytes[at] = alphabet[(r >> 44) as usize % alphabet.len()];
            // Damage that breaks the UTF-8 never reaches either reader.
            if let Ok(text) = std::str::from_utf8(&bytes) {
                check(text);
                mutated += 1;
            }
        }
        // Both outcomes must be well exercised for the above to mean much
        // (a prefix is almost always a decline, a whole line rarely).
        assert!(answered > 1000 && declined > 10_000, "{answered} answered, {declined} declined");
    }

    /// A scan that silently declines is a performance regression no
    /// correctness test sees: every line the bundled client writes, and the
    /// `format!` spelling scripts and the benchmark use, must be answered by
    /// the scan itself.
    #[test]
    fn the_scan_answers_every_line_a_client_writes() {
        for (i, request) in requests().iter().enumerate() {
            let id = i as u64 + 1;
            let line = request_line(id, request);
            let scanned = scan_request(&line).unwrap_or_else(|| panic!("declined: {line}"));
            assert_eq!(scanned, (Some(Json::Num(id as f64)), Ok(request.clone())), "{line}");
            let (Request::Observe { site, queue, .. }
            | Request::Predict { site, queue, .. }
            | Request::Admit { site, queue, .. }) = request
            else {
                continue;
            };
            // `formatted_line` escapes nothing (plain names only) and sends
            // no `confidence`.
            let plain = |name: &str| !name.contains(['"', '\\', '\n', '\t', '\u{1}']);
            if plain(site) && plain(queue) {
                let line = formatted_line(id, request);
                let (echo, scanned) =
                    scan_request(&line).unwrap_or_else(|| panic!("declined: {line}"));
                assert_eq!(echo, Some(Json::Num(id as f64)));
                let want = match request.clone() {
                    Request::Admit { site, queue, procs, budget, .. } => {
                        Request::Admit { site, queue, procs, budget, confidence: None }
                    }
                    other => other,
                };
                assert_eq!(format!("{:?}", scanned.unwrap()), format!("{want:?}"), "{line}");
            }
        }
        for line in ["{\"method\":\"stats\"}\r", " {\"id\":\"x\",\"method\":\"metrics\"} ", "{}"] {
            assert!(scan_request(line).is_some(), "declined: {line}");
        }
        // A key is its unescaped text, as a tree's key is.
        let escaped = r#"{"m\u0065thod":"predict","s\u0069te":"\u0041","queue":"q","procs":1,"\u0069d":3}"#;
        let want = Request::Predict { site: "A".into(), queue: "q".into(), procs: 1 };
        assert_eq!(scan_request(escaped), Some((Some(Json::Num(3.0)), Ok(want))));
    }

    /// The reply the parent built for these members — a tree with the id
    /// put first, serialized — which every writer must match byte for byte.
    fn tree_line(id: Option<&Json>, members: Vec<(&str, Json)>) -> String {
        let id = id.map(|id| ("id", id.clone()));
        let members = id.into_iter().chain(members);
        Json::Obj(members.map(|(key, value)| (key.to_string(), value)).collect()).to_string_compact()
    }

    /// Checks one writer against the tree form, both as its `*_line` and
    /// appending behind bytes already in the buffer.
    fn same_bytes(line: String, write: impl FnOnce(&mut Vec<u8>), want: String) {
        assert_eq!(line, want);
        let mut out = b"earlier reply\n".to_vec();
        write(&mut out);
        assert_eq!(String::from_utf8(out).unwrap(), format!("earlier reply\n{want}"));
    }

    /// Replies written in place are the bytes the tree renderer made.
    #[test]
    fn written_replies_equal_the_rendered_tree_byte_for_byte() {
        // Ids as the server would hold them: read off a request line, by
        // the scan — or, for the nested one, by the tree it declines to.
        let ids = [
            "",
            r#""id":7,"#,
            r#""id":7.5,"#,
            r#""id":1.0,"#,
            r#""id":-0.0,"#,
            r#""id":1e999,"#,
            r#""id":"a\"\\\nAé🚀","#,
            r#""id":"","#,
            r#""id":null,"#,
            r#""id":true,"#,
            r#""id":[1,"x\n",{"k":null,"id":false}],"#,
        ]
        .map(|member| {
            let line = format!(r#"{{{member}"method":"stats"}}"#);
            let scanned = scan_request(&line);
            assert_eq!(scanned.is_none(), member.contains('['), "{line}");
            scanned.or_else(|| by_tree(&line)).unwrap().0
        });
        let labels =
            ["s/q/1-4", "δ \"星\"\\/q/65+", "\"\\\n\r\t\u{0}\u{1}\u{1f}\u{7f}/é🚀", ""];
        let floats = [
            0.0,
            -0.0,
            5e-324,
            1e-310,
            2.2250738585072014e-308,
            0.1,
            123.456_789_012_345_68,
            700.0,
            -2.5,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            f64::MAX,
            f64::INFINITY,
        ];
        let ints = [0u64, 1, 70, 1 << 40, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];
        let num = |n: u64| Json::Num(n as f64);
        let bound = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
        for (i, id) in ids.iter().enumerate() {
            let id = id.as_ref();
            let ok = |extra: Vec<(&str, Json)>| {
                tree_line(id, [("ok", Json::Bool(true))].into_iter().chain(extra).collect())
            };
            for label in labels {
                let labelled = |extra: Vec<(&'static str, Json)>| {
                    ok([("partition", label.into())].into_iter().chain(extra).collect())
                };
                for (k, &seq) in ints.iter().enumerate() {
                    let n = ints[(k + i) % ints.len()];
                    same_bytes(
                        observe_line(id, label, seq),
                        |out| write_observe(out, id, label, seq),
                        labelled(vec![("seq", num(seq))]),
                    );
                    let x = floats[(k + i) % floats.len()];
                    let y = floats[(k + i + 1) % floats.len()];
                    let both_ways = [(Some(x), Some(y)), (None, Some(x)), (Some(y), None), (None, None)];
                    for (bmbp, lognormal) in both_ways {
                        same_bytes(
                            predict_line(id, label, n as usize, seq, bmbp, lognormal),
                            |out| write_predict(out, id, label, n as usize, seq, bmbp, lognormal),
                            labelled(vec![
                                ("n", num(n)),
                                ("seq", num(seq)),
                                ("bmbp", bound(bmbp)),
                                ("lognormal", bound(lognormal)),
                            ]),
                        );
                    }
                }
                for (k, &x) in floats.iter().enumerate() {
                    let y = floats[(k + 1) % floats.len()];
                    for decision in [
                        Decision::Admit { bound: x, margin: y },
                        Decision::Reject { bound: y, margin: x },
                        Decision::Defer { retry_hint: ints[k % ints.len()] },
                    ] {
                        let mut members =
                            vec![("n", num(70)), ("seq", num(71)), ("decision", decision.kind().into())];
                        match decision {
                            Decision::Admit { bound, margin } | Decision::Reject { bound, margin } => {
                                members.push(("bound", Json::Num(bound)));
                                members.push(("margin", Json::Num(margin)));
                            }
                            Decision::Defer { retry_hint } => {
                                members.push(("retry_hint", num(retry_hint)));
                            }
                        }
                        same_bytes(
                            admit_line(id, label, 70, 71, &decision),
                            |out| write_admit(out, id, label, 70, 71, &decision),
                            labelled(members),
                        );
                    }
                }
                // A label's escapes are a message's escapes.
                same_bytes(
                    error_line(id, ERR_BAD_REQUEST, label),
                    |out| write_error(out, id, ERR_BAD_REQUEST, label),
                    tree_line(
                        id,
                        vec![
                            ("ok", Json::Bool(false)),
                            ("error", ERR_BAD_REQUEST.into()),
                            ("message", label.into()),
                        ],
                    ),
                );
            }
            let doc = Json::Obj(vec![
                ("version".to_string(), Json::Str("δ\n".into())),
                ("per_shard".to_string(), Json::Arr(vec![Json::Obj(vec![("ok".into(), 0.5.into())])])),
                ("id".to_string(), Json::Null),
                ("empty".to_string(), Json::Arr(vec![])),
            ]);
            let members = doc.as_object().unwrap().to_vec();
            let listed = members.iter().map(|(key, value)| (key.as_str(), value.clone())).collect();
            let path = "/tmp/δ \"x\"\\.json";
            for (reply, want) in [
                (
                    Reply::Snapshot { path: path.into(), partitions: 7 },
                    ok(vec![("partitions", num(7)), ("path", path.into())]),
                ),
                (Reply::Stats(members.clone()), ok(listed)),
                (Reply::Metrics(vec![]), ok(vec![])),
                (
                    Reply::Promoted { applied: u64::MAX },
                    ok(vec![("promoted", Json::Bool(true)), ("applied", num(u64::MAX))]),
                ),
                (Reply::Shutdown, ok(vec![])),
            ] {
                same_bytes(reply_line(id, &reply), |out| write_reply(out, id, &reply), want);
            }
        }
    }

    #[test]
    fn success_replies_need_their_method_and_their_fields() {
        let ok = Json::parse(&predict_line(None, "p", 2, 1, None, Some(1.0))).unwrap();
        assert!(decode_reply(&ok, None).unwrap_err().contains("did not type"));
        assert!(decode_reply(&ok, Some("admit")).unwrap_err().contains("decision"));
        let no_partition = Json::parse(r#"{"ok":true,"n":7,"seq":7}"#).unwrap();
        assert!(decode_reply(&no_partition, Some("predict")).unwrap_err().contains("partition"));
        assert!(decode_reply(&Json::parse("[1]").unwrap(), None).unwrap_err().contains("'ok'"));
        assert!(reply_id(&Json::parse(r#"{"id":"x","ok":true}"#).unwrap()).is_err());
    }
}
