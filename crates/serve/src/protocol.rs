//! The request model, and its JSON codec: newline-delimited requests and
//! responses.
//!
//! [`Request`] and [`Reply`] are the one typed model of what a client can
//! ask and what a control method answers; this module parses and renders
//! them as JSON lines and [`crate::proto`] as binary frames, in both
//! directions: [`parse_request`] and the `*_line` renderers for the server,
//! [`request_line`] and [`decode_reply`] for the client. A new method is
//! one `Request` arm, one parse arm here and one opcode there.
//!
//! Each line is one strict RFC-8259 value (`qdelay-json` rejects trailing
//! garbage, so `{"method":"stats"} {"method":"stats"}` on one line is a
//! parse error). Requests carry a `method` plus method-specific fields and
//! an optional `id`, which is echoed verbatim in the response. A
//! connection's replies come back in request order, so the bundled client
//! numbers its requests from 1 and checks each echo: a reply that is not the
//! next one owed means the stream is out of step.
//!
//! | method     | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `observe`  | `site`, `queue`, `procs`, `wait`, optional `predicted_bmbp` / `predicted_lognormal` |
//! | `predict`  | `site`, `queue`, `procs`                                      |
//! | `admit`    | `site`, `queue`, `procs`, `budget` (wait-units), optional `confidence` |
//! | `snapshot` | optional `path` (server-side file; omitted = inline reply, which answers [`ERR_SNAPSHOT_TOO_LARGE`] past the line cap — use a file snapshot at scale) |
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

use crate::proto::{BinResponse, UNATTRIBUTED_ID};
use qdelay_json::Json;
use qdelay_predict::admission::Decision;

/// A line was not a well-formed JSON value (including trailing garbage).
pub const ERR_PARSE: &str = "parse";
/// A line exceeded the configured length limit; the connection closes.
pub const ERR_LINE_TOO_LONG: &str = "line_too_long";
/// Well-formed JSON that is not a valid request (unknown method, missing
/// or mistyped field, non-finite number).
pub const ERR_BAD_REQUEST: &str = "bad_request";
/// A shard's request queue was full and the request was dropped. No
/// longer emitted — a request is executed by the thread that read it, so
/// there is no queue — but kept decodable for clients that match on it.
pub const ERR_BACKPRESSURE: &str = "backpressure";
/// A request raced the shard threads' teardown. No longer emitted, for
/// the same reason; kept decodable.
pub const ERR_SHUTTING_DOWN: &str = "shutting_down";
/// A server-side filesystem operation failed: a snapshot write, a spill
/// read, or the journal commit an observe's ack was waiting for.
pub const ERR_IO: &str = "io";
/// This server is a replica: it serves reads (`predict`/`admit`/`stats`/
/// `metrics`) but rejects state-changing requests until promoted.
pub const ERR_READ_ONLY: &str = "read_only";
/// An inline `snapshot` reply would exceed what the protocol (or a
/// default client's line cap) can carry; the message reports the byte
/// size. Escape hatch: request a file snapshot instead
/// (`{"method":"snapshot","path":...}` writes server-side and replies
/// with the path), which has no size limit.
pub const ERR_SNAPSHOT_TOO_LARGE: &str = "snapshot_too_large";

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
    /// Serialize every partition; to a server-side file when `path` is
    /// given, inline in the reply otherwise.
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
    /// `snapshot` to a server-side file.
    SnapshotFile { path: String, partitions: usize },
    /// `snapshot` carried in the reply itself.
    SnapshotInline { partitions: usize, doc: Json },
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

fn str_arg(v: &Json, key: &str) -> Result<String, String> {
    let s = v
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("'{key}' must be a string"))?;
    if s.is_empty() || s.len() > MAX_NAME_LEN {
        return Err(format!("'{key}' must be 1..={MAX_NAME_LEN} bytes"));
    }
    Ok(s.to_string())
}

fn procs_arg(v: &Json) -> Result<u32, String> {
    let p = v
        .get("procs")
        .and_then(Json::as_usize)
        .ok_or("'procs' must be a non-negative integer")?;
    u32::try_from(p).map_err(|_| "'procs' out of range".to_string())
}

fn finite_arg(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => {
            let x = x.as_f64().ok_or_else(|| format!("'{key}' must be a number"))?;
            if x.is_finite() {
                Ok(Some(x))
            } else {
                Err(format!("'{key}' must be finite"))
            }
        }
    }
}

/// Extracts the request id (echoed in all replies) and the validated
/// request. The id comes back even when validation fails so the error
/// reply can still be matched.
pub fn parse_request(v: &Json) -> (Option<Json>, Result<Request, String>) {
    let id = v.get("id").cloned();
    (id, parse_body(v))
}

fn parse_body(v: &Json) -> Result<Request, String> {
    let method = v
        .get("method")
        .and_then(Json::as_str)
        .ok_or("'method' must be a string")?;
    match method {
        "observe" => {
            let wait = finite_arg(v, "wait")?.ok_or("'wait' is required")?;
            if wait < 0.0 {
                return Err("'wait' must be non-negative".to_string());
            }
            Ok(Request::Observe {
                site: str_arg(v, "site")?,
                queue: str_arg(v, "queue")?,
                procs: procs_arg(v)?,
                wait,
                predicted_bmbp: finite_arg(v, "predicted_bmbp")?,
                predicted_lognormal: finite_arg(v, "predicted_lognormal")?,
            })
        }
        "predict" => Ok(Request::Predict {
            site: str_arg(v, "site")?,
            queue: str_arg(v, "queue")?,
            procs: procs_arg(v)?,
        }),
        "admit" => {
            let budget = finite_arg(v, "budget")?.ok_or("'budget' is required")?;
            if budget < 0.0 {
                return Err("'budget' must be non-negative".to_string());
            }
            let confidence = finite_arg(v, "confidence")?;
            if let Some(c) = confidence {
                if c <= 0.0 || c >= 1.0 {
                    return Err("'confidence' must be in (0, 1)".to_string());
                }
            }
            Ok(Request::Admit {
                site: str_arg(v, "site")?,
                queue: str_arg(v, "queue")?,
                procs: procs_arg(v)?,
                budget,
                confidence,
            })
        }
        "snapshot" => Ok(Request::Snapshot {
            path: match v.get("path") {
                None | Some(Json::Null) => None,
                Some(p) => Some(
                    p.as_str()
                        .ok_or("'path' must be a string")?
                        .to_string(),
                ),
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

fn with_id(id: Option<&Json>, mut members: Vec<(String, Json)>) -> Json {
    if let Some(id) = id {
        members.insert(0, ("id".into(), id.clone()));
    }
    Json::Obj(members)
}

/// Builds an `{"ok":false,...}` reply line (no trailing newline).
pub fn error_line(id: Option<&Json>, code: &str, message: &str) -> String {
    with_id(
        id,
        vec![
            ("ok".into(), Json::Bool(false)),
            ("error".into(), Json::Str(code.into())),
            ("message".into(), Json::Str(message.into())),
        ],
    )
    .to_string_compact()
}

/// Builds the `observe` acknowledgement: the partition's label and the
/// per-partition sequence number this observation became.
pub fn observe_line(id: Option<&Json>, partition: &str, seq: u64) -> String {
    with_id(
        id,
        vec![
            ("ok".into(), Json::Bool(true)),
            ("partition".into(), Json::Str(partition.into())),
            ("seq".into(), Json::Num(seq as f64)),
        ],
    )
    .to_string_compact()
}

fn opt_num(v: Option<f64>) -> Json {
    match v {
        Some(x) => Json::Num(x),
        None => Json::Null,
    }
}

/// Builds the `predict` reply: history length, sequence number, and both
/// bounds (`null` while history is insufficient).
pub fn predict_line(
    id: Option<&Json>,
    partition: &str,
    n: usize,
    seq: u64,
    bmbp: Option<f64>,
    lognormal: Option<f64>,
) -> String {
    with_id(
        id,
        vec![
            ("ok".into(), Json::Bool(true)),
            ("partition".into(), Json::Str(partition.into())),
            ("n".into(), Json::Num(n as f64)),
            ("seq".into(), Json::Num(seq as f64)),
            ("bmbp".into(), opt_num(bmbp)),
            ("lognormal".into(), opt_num(lognormal)),
        ],
    )
    .to_string_compact()
}

/// Builds the `admit` reply: partition identity like `predict`, then the
/// decision kind with its payload — `bound`/`margin` for admit and reject,
/// `retry_hint` for defer.
pub fn admit_line(
    id: Option<&Json>,
    partition: &str,
    n: usize,
    seq: u64,
    decision: &Decision,
) -> String {
    let mut members = vec![
        ("ok".into(), Json::Bool(true)),
        ("partition".into(), Json::Str(partition.into())),
        ("n".into(), Json::Num(n as f64)),
        ("seq".into(), Json::Num(seq as f64)),
        ("decision".into(), Json::Str(decision.kind().into())),
    ];
    match decision {
        Decision::Admit { bound, margin } | Decision::Reject { bound, margin } => {
            members.push(("bound".into(), Json::Num(*bound)));
            members.push(("margin".into(), Json::Num(*margin)));
        }
        Decision::Defer { retry_hint } => {
            members.push(("retry_hint".into(), Json::Num(*retry_hint as f64)));
        }
    }
    with_id(id, members).to_string_compact()
}

/// Builds a generic `{"ok":true,...}` reply from extra members.
pub fn ok_line(id: Option<&Json>, extra: Vec<(String, Json)>) -> String {
    let mut members = vec![("ok".into(), Json::Bool(true))];
    members.extend(extra);
    with_id(id, members).to_string_compact()
}

/// Builds a control method's reply line.
pub fn reply_line(id: Option<&Json>, reply: Reply) -> String {
    let members = match reply {
        Reply::SnapshotFile { path, partitions } => vec![
            ("partitions".into(), Json::Num(partitions as f64)),
            ("path".into(), Json::Str(path)),
        ],
        Reply::SnapshotInline { partitions, doc } => vec![
            ("partitions".into(), Json::Num(partitions as f64)),
            ("snapshot".into(), doc),
        ],
        Reply::Stats(members) | Reply::Metrics(members) | Reply::Trace(members) => members,
        Reply::Promoted { applied } => vec![
            ("promoted".into(), Json::Bool(true)),
            ("applied".into(), Json::Num(applied as f64)),
        ],
        Reply::Shutdown => vec![],
    };
    ok_line(id, members)
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
        "snapshot" => match v.get("snapshot") {
            Some(doc) => BinResponse::Snapshot {
                json: Some(doc.to_string_compact()),
                path: None,
                partitions: 0,
            },
            None => BinResponse::Snapshot {
                json: None,
                path: Some(text("path")?),
                partitions: int("partitions")?,
            },
        },
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
            error_line(Some(&id), ERR_BACKPRESSURE, "queue full"),
            observe_line(None, "s/q/1-4", 17),
            predict_line(Some(&id), "s/q/65+", 120, 40, Some(88.5), None),
            ok_line(None, vec![("partitions".into(), Json::Num(3.0))]),
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
            (Reply::SnapshotFile { path: "/p".into(), partitions: 2 }, &["partitions", "path"][..]),
            (
                Reply::SnapshotInline { partitions: 2, doc: Json::Obj(vec![]) },
                &["partitions", "snapshot"][..],
            ),
            (Reply::Stats(members.clone()), &["partitions"][..]),
            (Reply::Promoted { applied: 50 }, &["promoted", "applied"][..]),
            (Reply::Shutdown, &[][..]),
        ] {
            let v = Json::parse(&reply_line(Some(&id), reply)).unwrap();
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
            (Reply::SnapshotFile { path: "/tmp/δ.json".into(), partitions: 7 }, "snapshot"),
            (Reply::SnapshotInline { partitions: 1, doc: Json::Obj(members.clone()) }, "snapshot"),
            (Reply::Stats(members.clone()), "stats"),
            (Reply::Metrics(members.clone()), "metrics"),
            (Reply::Trace(members), "trace"),
            (Reply::Promoted { applied: 50 }, "promote"),
            (Reply::Shutdown, "shutdown"),
        ] {
            let (id, jid) = next(&mut buf);
            proto::encode_reply(&mut buf, id, reply.clone());
            check(Some(id), reply_line(Some(&jid), reply), &buf, Some(method));
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
