//! The one place a [`Request`] is executed and answered.
//!
//! Both framers in [`crate::event_loop`] hand their decoded requests to
//! [`dispatch`], on the I/O loop that read them, and that thread does all
//! of it: a data-plane method (`observe`/`predict`/`admit`) locks the shard
//! that owns its partition, executes, unlocks and renders; a control
//! method (`stats`, `snapshot`, `metrics`, `trace`, `promote`, `shutdown`)
//! is answered in place too — one that has to wait (a `snapshot` walking
//! every shard, a `promote` waiting for the apply thread) holds the reads
//! and writes of **that loop's** connections until it returns, and nobody
//! else's. They are operator methods, rare and bounded.
//!
//! The [`Responder`] is the only code that knows which codec a reply is
//! rendered in, so JSON/binary bit-identity is structural: the shards and
//! this module compute typed results, and the wire form is chosen by the
//! kind of id the request arrived with.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::event_loop::{ConnState, Exec};
use crate::proto;
use crate::protocol::{self, Reply, Request};
use crate::registry::PartitionKey;
use crate::replica::{self, PromoteError};
use crate::server::Shared;
use crate::shard::{self, Done, Op};
use crate::tracing::{self, ReqTrace};
use crate::{ERRORS, REQUEST_NS, SNAPSHOTS};
use qdelay_json::Json;
use qdelay_trace::ProcRange;

/// A request's id as its connection's framer decoded it. The kind of id is
/// also the codec of every reply to it: a line's optional JSON `id` member
/// is echoed in a JSON line, a frame's `u64` in a frame.
pub(crate) enum Id {
    Line(Option<Json>),
    Frame(u64),
}

impl Id {
    /// A renderer of replies to this id, appending to `out`.
    pub(crate) fn responder<'a>(&'a self, out: &'a mut Vec<u8>) -> Responder<'a> {
        Responder { out, id: self }
    }
}

/// A typed error reply: one of the `ERR_*` codes plus its message.
pub(crate) type Failure = (&'static str, String);

/// Renders replies to one request, in the codec its [`Id`] names, onto the
/// end of a byte buffer — the connection's out buffer, or the loop's
/// group-commit staging.
pub(crate) struct Responder<'a> {
    out: &'a mut Vec<u8>,
    id: &'a Id,
}

impl Responder<'_> {
    /// The one codec switch: a JSON line for a line's id, a frame for a
    /// frame's. Both kinds of encoder append in place.
    fn render(
        &mut self,
        as_line: impl FnOnce(&mut Vec<u8>, Option<&Json>),
        as_frame: impl FnOnce(&mut Vec<u8>, u64),
    ) {
        match self.id {
            Id::Line(id) => {
                as_line(self.out, id.as_ref());
                self.out.push(b'\n');
            }
            Id::Frame(id) => as_frame(self.out, *id),
        }
    }

    /// A data-plane result, for the partition labelled `partition`.
    fn done(&mut self, partition: &str, done: &Done) {
        match done {
            Done::Observed(seq) => self.render(
                |out, id| protocol::write_observe(out, id, partition, *seq),
                |out, id| proto::encode_observe_resp(out, id, partition, *seq),
            ),
            Done::Predicted(p) => self.render(
                |out, id| {
                    protocol::write_predict(out, id, partition, p.n, p.seq, p.bmbp, p.lognormal)
                },
                |out, id| {
                    let n = p.n as u64;
                    proto::encode_predict_resp(out, id, partition, n, p.seq, p.bmbp, p.lognormal)
                },
            ),
            Done::Admitted(p, decision) => self.render(
                |out, id| protocol::write_admit(out, id, partition, p.n, p.seq, decision),
                |out, id| proto::encode_admit_resp(out, id, partition, p.n as u64, p.seq, decision),
            ),
        }
    }

    fn control(&mut self, reply: Reply) {
        match self.id {
            Id::Line(id) => {
                protocol::write_reply(self.out, id.as_ref(), &reply);
                self.out.push(b'\n');
            }
            Id::Frame(id) => proto::encode_reply(self.out, *id, reply),
        }
    }

    pub(crate) fn error(&mut self, code: &str, message: &str) {
        self.render(
            |out, id| protocol::write_error(out, id, code, message),
            |out, id| proto::encode_error_resp(out, id, code, message),
        )
    }
}

/// Sends one reply that carries no trace and awaits no commit verdict.
fn send(conn: &mut ConnState, exec: &mut Exec, render: impl FnOnce(&mut Vec<u8>)) {
    if let Some(len) = exec.render(conn, render) {
        exec.sent(conn, len, None, None);
    }
}

/// Answers `id` with a typed error.
pub(crate) fn send_error(conn: &mut ConnState, exec: &mut Exec, id: Id, code: &str, message: &str) {
    send(conn, exec, |out| id.responder(out).error(code, message));
}

/// Executes a data-plane request under its shard's lock, or answers a
/// control request, on the calling (I/O) thread. Exactly one reply is
/// rendered for `id`.
pub(crate) fn dispatch(
    request: Request,
    id: Id,
    trace: ReqTrace,
    conn: &mut ConnState,
    exec: &mut Exec,
) {
    let shared = &*exec.shared;
    let stop = request == Request::Shutdown;
    let reply: Result<Reply, Failure> = match request {
        Request::Observe { .. } if shared.read_only.load(Ordering::SeqCst) => Err((
            protocol::ERR_READ_ONLY,
            "replica is read-only; observe on the primary (or promote)".into(),
        )),
        // The request's own strings become the key: nothing is copied.
        Request::Observe { site, queue, procs, wait, predicted_bmbp, predicted_lognormal } => {
            let key = PartitionKey { site, queue, range: ProcRange::for_procs(procs) };
            let op = Op::Observe { wait, predicted_bmbp, predicted_lognormal };
            return execute(key, op, id, trace, conn, exec);
        }
        Request::Predict { site, queue, procs } => {
            let key = PartitionKey { site, queue, range: ProcRange::for_procs(procs) };
            return execute(key, Op::Predict, id, trace, conn, exec);
        }
        Request::Admit { site, queue, procs, budget, confidence: _ } => {
            let key = PartitionKey { site, queue, range: ProcRange::for_procs(procs) };
            return execute(key, Op::Admit { budget }, id, trace, conn, exec);
        }
        Request::Snapshot { path } => take_snapshot(path, shared),
        Request::Stats => {
            let mut fields = shard::stats_payload(&shared.shards);
            fields.push(("uptime_ms".into(), Json::Num(shared.metrics.uptime_ms() as f64)));
            fields.push(("telemetry".into(), qdelay_telemetry::snapshot().to_json()));
            Ok(Reply::Stats(fields))
        }
        Request::Metrics => Ok(Reply::Metrics(shared.metrics.report())),
        Request::Trace => Ok(Reply::Trace(tracing::trace_fields(&shared.recorder))),
        Request::Promote => match replica::promote(shared) {
            Ok(applied) => Ok(Reply::Promoted { applied }),
            Err(e @ PromoteError::NotReplica) => Err((protocol::ERR_BAD_REQUEST, e.to_string())),
            Err(PromoteError::Failed(msg)) => Err((protocol::ERR_IO, msg)),
        },
        // Rendered before shutdown is requested, and the loop finishes its
        // wakeup (and flushes every connection once more on its way out),
        // so the ack normally lands.
        Request::Shutdown => Ok(Reply::Shutdown),
    };
    match reply {
        Ok(reply) => send(conn, exec, |out| id.responder(out).control(reply)),
        Err((code, message)) => {
            ERRORS.incr();
            send_error(conn, exec, id, code, &message);
        }
    }
    if stop {
        exec.shared.request_shutdown();
    }
}

/// One data-plane op, start to rendered reply: lock the owning shard,
/// execute, unlock, render. The lock is held for `Shard::execute` — the
/// trace's handle stage — and nothing else.
fn execute(
    key: PartitionKey,
    op: Op,
    id: Id,
    mut trace: ReqTrace,
    conn: &mut ConnState,
    exec: &mut Exec,
) {
    let index = key.shard_index(exec.shared.shards.len());
    let label = key.label();
    // One clock read serves both the request-latency baseline and the
    // trace's queue-stage start.
    let start = Instant::now();
    trace.routed(index, start);
    let (result, mark) = {
        let mut shard = exec.shared.shard(index);
        trace.locked();
        let result = shard.execute(key, op);
        (result, shard.appended())
    };
    exec.executed_on(index, mark);
    match result {
        Ok((done, handle_ns)) => {
            if let Some(len) = exec.render(conn, |out| id.responder(out).done(&label, &done)) {
                let pending = trace.finish(done.method(), label, handle_ns, len);
                // Only an observe's ack waits on the commit's verdict; a
                // read is held for ordering and released either way.
                let ack = matches!(done, Done::Observed(_)).then_some((index, mark, id));
                exec.sent(conn, len, ack, Some(pending));
            }
        }
        Err((code, message)) => {
            ERRORS.incr();
            send_error(conn, exec, id, code, &message);
        }
    }
    REQUEST_NS.record(start.elapsed().as_nanos() as u64);
}

/// The `snapshot` method: every partition to the file at `path`, or at the
/// configured snapshot path. With neither there is nowhere to write.
fn take_snapshot(path: Option<String>, shared: &Shared) -> Result<Reply, Failure> {
    let path = path.map(PathBuf::from).or_else(|| shared.config.snapshot_path.clone());
    let path = path.ok_or_else(|| {
        let why = "'path' is required: this server has no snapshot path to fall back on";
        (protocol::ERR_BAD_REQUEST, why.to_string())
    })?;
    let (partitions, _) = shard::persist(&shared.shards, None, Some(&path))
        .map_err(|e| (protocol::ERR_IO, e.to_string()))?;
    SNAPSHOTS.incr();
    Ok(Reply::Snapshot { path: path.display().to_string(), partitions })
}
