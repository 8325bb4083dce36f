//! The request model, and its JSON codec: newline-delimited requests and
//! responses.
//!
//! [`Request`] and [`Reply`] are the one typed model of what a client can
//! ask and what a control method answers; this module parses and renders
//! them as JSON lines and [`crate::proto`] as binary frames. A new method
//! is one `Request` arm, one parse arm here and one opcode there.
//!
//! Each line is one strict RFC-8259 value (`qdelay-json` rejects trailing
//! garbage, so `{"method":"stats"} {"method":"stats"}` on one line is a
//! parse error). Requests carry a `method` plus method-specific fields and
//! an optional `id`, which is echoed verbatim in the response so pipelining
//! clients can match replies — replies to requests touching *different*
//! partitions may return out of submission order.
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

#[cfg(test)]
mod tests {
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
}
