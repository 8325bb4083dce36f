//! The one place a [`Request`] is routed or answered.
//!
//! Both framers in [`crate::event_loop`] hand their decoded requests to
//! [`dispatch`]: the data-plane methods (`observe`/`predict`/`admit`) go to
//! the shard that owns their partition, and the control methods (`stats`,
//! `snapshot`, `metrics`, `trace`, `promote`, `shutdown`) are answered
//! here, **inline on the I/O thread** — a control method that has to wait
//! (a `snapshot` gathering every shard, a `promote` waiting for the apply
//! thread) holds every connection's reads and writes until it returns.
//! They are operator methods, rare and bounded, and keeping them inline
//! keeps the transport to one thread.
//!
//! The [`Responder`] is the only code that knows which codec a reply is
//! rendered in, so JSON/binary bit-identity is structural: the shards and
//! this module compute typed results, and the wire form is chosen by the
//! kind of id the request arrived with.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::event_loop::Conn;
use crate::proto;
use crate::protocol::{self, Reply, Request};
use crate::registry::{PartitionKey, Prediction};
use crate::server::{
    collect_partitions, gather_stats, route_op, stats_payload, write_snapshot, Op, ShardHandle,
    Shared,
};
use crate::snapshot;
use crate::tracing::{self, PendingTrace, ReqTrace};
use crate::{ERRORS, SNAPSHOTS};
use qdelay_journal::frame;
use qdelay_json::Json;
use qdelay_predict::admission::Decision;

/// A request's id as its connection's framer decoded it. The kind of id is
/// also the codec of every reply to it: a line's optional JSON `id` member
/// is echoed in a JSON line, a frame's `u64` in a frame.
pub(crate) enum Id {
    Line(Option<Json>),
    Frame(u64),
}

/// A typed error reply: one of the `ERR_*` codes plus its message.
pub(crate) type Failure = (&'static str, String);

/// Where one request's reply goes: rendered in the codec its [`Id`] names,
/// then queued on the connection it arrived on. Carried through the shard
/// channel with every data-plane op.
pub(crate) struct Responder {
    pub(crate) conn: Arc<Conn>,
    pub(crate) id: Id,
}

fn line(mut text: String) -> Vec<u8> {
    text.push('\n');
    text.into_bytes()
}

impl Responder {
    /// The one codec switch: a JSON line for a line's id, a frame for a
    /// frame's.
    fn render(
        &self,
        as_line: impl FnOnce(Option<&Json>) -> String,
        as_frame: impl FnOnce(&mut Vec<u8>, u64),
    ) -> Vec<u8> {
        match &self.id {
            Id::Line(id) => line(as_line(id.as_ref())),
            Id::Frame(id) => {
                let mut buf = Vec::with_capacity(96);
                as_frame(&mut buf, *id);
                buf
            }
        }
    }

    pub(crate) fn observe(&self, partition: &str, seq: u64) -> Vec<u8> {
        self.render(
            |id| protocol::observe_line(id, partition, seq),
            |out, id| proto::encode_observe_resp(out, id, partition, seq),
        )
    }

    pub(crate) fn predict(&self, partition: &str, p: &Prediction) -> Vec<u8> {
        self.render(
            |id| protocol::predict_line(id, partition, p.n, p.seq, p.bmbp, p.lognormal),
            |out, id| {
                let n = p.n as u64;
                proto::encode_predict_resp(out, id, partition, n, p.seq, p.bmbp, p.lognormal)
            },
        )
    }

    pub(crate) fn admit(&self, partition: &str, p: &Prediction, decision: &Decision) -> Vec<u8> {
        self.render(
            |id| protocol::admit_line(id, partition, p.n, p.seq, decision),
            |out, id| proto::encode_admit_resp(out, id, partition, p.n as u64, p.seq, decision),
        )
    }

    fn control(&self, reply: Reply) -> Vec<u8> {
        match &self.id {
            Id::Line(id) => line(protocol::reply_line(id.as_ref(), reply)),
            Id::Frame(id) => {
                let mut buf = Vec::new();
                proto::encode_reply(&mut buf, *id, reply);
                buf
            }
        }
    }

    /// Most bytes one reply may occupy on this connection's wire before the
    /// peer's own framer would refuse it: the line cap, or the largest
    /// response frame.
    fn reply_cap(&self, max_line: usize) -> usize {
        match &self.id {
            Id::Line(_) => max_line,
            Id::Frame(_) => frame::PREFIX_LEN + proto::MAX_RESP_PAYLOAD as usize,
        }
    }

    /// Queues rendered reply bytes (a shard's staged reply, or a control
    /// reply) on the connection.
    pub(crate) fn send(&self, rendered: &[u8], trace: Option<PendingTrace>) {
        self.conn.send(rendered, trace);
    }

    pub(crate) fn send_error(&self, code: &str, message: &str) {
        let rendered = self.render(
            |id| protocol::error_line(id, code, message),
            |out, id| proto::encode_error_resp(out, id, code, message),
        );
        self.conn.send(&rendered, None);
    }
}

/// Routes a data-plane request to its shard, or answers a control request
/// on the calling (I/O) thread. Exactly one reply is sent through `resp`.
pub(crate) fn dispatch(
    request: Request,
    resp: Responder,
    trace: ReqTrace,
    shared: &Shared,
    shards: &[ShardHandle],
) {
    let stop = request == Request::Shutdown;
    let rendered: Result<Vec<u8>, Failure> = match request {
        Request::Observe { .. } if shared.read_only.load(Ordering::SeqCst) => Err((
            protocol::ERR_READ_ONLY,
            "replica is read-only; observe on the primary (or promote)".into(),
        )),
        Request::Observe { site, queue, procs, wait, predicted_bmbp, predicted_lognormal } => {
            let key = PartitionKey::for_request(&site, &queue, procs);
            let op = Op::Observe { wait, predicted_bmbp, predicted_lognormal };
            return route_op(shards, key, op, resp, trace);
        }
        Request::Predict { site, queue, procs } => {
            let key = PartitionKey::for_request(&site, &queue, procs);
            return route_op(shards, key, Op::Predict, resp, trace);
        }
        Request::Admit { site, queue, procs, budget, confidence: _ } => {
            let key = PartitionKey::for_request(&site, &queue, procs);
            return route_op(shards, key, Op::Admit { budget }, resp, trace);
        }
        Request::Snapshot { path } => take_snapshot(path, &resp, shared, shards),
        Request::Stats => {
            let mut fields = stats_payload(&gather_stats(shards, false), shards);
            fields.push(("uptime_ms".into(), Json::Num(shared.metrics.uptime_ms() as f64)));
            fields.push(("telemetry".into(), qdelay_telemetry::snapshot().to_json()));
            Ok(resp.control(Reply::Stats(fields)))
        }
        Request::Metrics => Ok(resp.control(Reply::Metrics(shared.metrics.report()))),
        Request::Trace => Ok(resp.control(Reply::Trace(tracing::trace_fields(&shared.recorder)))),
        Request::Promote => match shared.promote() {
            Ok(applied) => Ok(resp.control(Reply::Promoted { applied })),
            Err(msg) if msg == "not a replica" => Err((protocol::ERR_BAD_REQUEST, msg)),
            Err(msg) => Err((protocol::ERR_IO, msg)),
        },
        // Queued before shutdown is requested, and the loop flushes every
        // connection once more on its way out, so the ack normally lands.
        Request::Shutdown => Ok(resp.control(Reply::Shutdown)),
    };
    match rendered {
        Ok(bytes) => resp.send(&bytes, None),
        Err((code, message)) => {
            ERRORS.incr();
            resp.send_error(code, &message);
        }
    }
    if stop {
        shared.request_shutdown();
    }
}

/// The `snapshot` method: to `path` (or the configured snapshot file) when
/// there is one, inline in the reply otherwise.
fn take_snapshot(
    path: Option<String>,
    resp: &Responder,
    shared: &Shared,
    shards: &[ShardHandle],
) -> Result<Vec<u8>, Failure> {
    let io_failure = |e: io::Error| (protocol::ERR_IO, e.to_string());
    if let Some(path) = path.map(PathBuf::from).or_else(|| shared.config.snapshot_path.clone()) {
        let partitions = write_snapshot(shards, &path).map_err(io_failure)?;
        let path = path.display().to_string();
        return Ok(resp.control(Reply::SnapshotFile { path, partitions }));
    }
    let (parts, dead) = collect_partitions(shards).map_err(io_failure)?;
    let partitions = parts.len();
    let doc = snapshot::encode(parts, dead);
    let rendered = resp.control(Reply::SnapshotInline { partitions, doc });
    // A reply past the codec's cap would only fail in the client's framer
    // as an opaque parse error; answer with the size instead and point at
    // the file escape hatch.
    let cap = resp.reply_cap(shared.config.max_line);
    if rendered.len() > cap {
        return Err((
            protocol::ERR_SNAPSHOT_TOO_LARGE,
            format!(
                "inline snapshot is {} bytes (reply cap {cap}); request a file snapshot \
                 with an explicit path",
                rendered.len()
            ),
        ));
    }
    SNAPSHOTS.incr();
    Ok(rendered)
}
