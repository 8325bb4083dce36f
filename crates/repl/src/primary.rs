//! Primary-side replication listener: accepts replica connections, serves
//! catch-up (snapshot ⊕ segment suffix, or a cursor resume), then tails
//! the live commit feed.
//!
//! Per-connection flow:
//!
//! 1. Read HELLO (5 s deadline) carrying the replica's cursors.
//! 2. Take the compaction pause lock, subscribe to the live feed, *then*
//!    scan the journal directory — in that order, so no committed record
//!    can fall between the disk scan and the feed.
//! 3. Decide resume vs full resync (see [`resume_plan`]), send WELCOME,
//!    then the snapshot (resync only) and the planned segment byte ranges
//!    as RECORD messages, then CAUGHT_UP. Drop the pause lock.
//! 4. Tail: forward feed batches as they land, refreshing the lag gauges
//!    each tick; exit on peer disconnect or hub shutdown.
//!
//! Records may reach the replica twice (disk scan overlapping the feed);
//! the replica's per-partition seq dedup makes that harmless. Records can
//! never reach it zero times.

use crate::hub::{ReplHub, Subscription};
use crate::wire::{self, Cursor, Msg, ReplError, REPL_MAX_PAYLOAD};
use crate::{CONNECTED, LAG_BYTES, LAG_RECORDS, RESYNCS, SHIPPED};
use qdelay_journal::frame::{self, Check};
use qdelay_journal::{read_segment_from, scan_dir, JournalError, SegmentId, HEADER_LEN};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the primary's durable state lives.
#[derive(Debug, Clone)]
pub struct PrimaryConfig {
    /// Journal directory (segment files).
    pub dir: PathBuf,
    /// Snapshot file streamed verbatim on a full resync. A missing file
    /// is streamed as empty bytes ("start from empty state").
    pub snapshot_path: PathBuf,
}

/// How long a replica gets to send its HELLO.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// Tail-loop tick: lag refresh + shutdown/peer-death poll cadence.
const TAIL_TICK: Duration = Duration::from_millis(200);
/// Flush threshold while streaming catch-up records.
const CATCHUP_CHUNK: usize = 256 * 1024;

static ATTACHED: AtomicU64 = AtomicU64::new(0);

struct AttachGuard;

impl AttachGuard {
    fn new() -> AttachGuard {
        CONNECTED.set(ATTACHED.fetch_add(1, Ordering::AcqRel) + 1);
        AttachGuard
    }
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        CONNECTED.set(ATTACHED.fetch_sub(1, Ordering::AcqRel) - 1);
    }
}

/// The accept loop handle. Connection threads are detached; they exit
/// within one tail tick of [`ReplHub::request_shutdown`].
pub struct ReplListener {
    addr: SocketAddr,
    hub: Arc<ReplHub>,
    accept: Option<JoinHandle<()>>,
}

impl ReplListener {
    /// Binds `bind_addr` and starts accepting replicas.
    pub fn spawn(
        cfg: PrimaryConfig,
        hub: Arc<ReplHub>,
        bind_addr: &str,
    ) -> std::io::Result<ReplListener> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let accept_hub = Arc::clone(&hub);
        let accept = std::thread::Builder::new()
            .name("repl-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_hub.is_shutdown() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let cfg = cfg.clone();
                    let hub = Arc::clone(&accept_hub);
                    let _ = std::thread::Builder::new().name("repl-conn".into()).spawn(
                        move || {
                            let _attached = AttachGuard::new();
                            // Peer disconnects and shutdown are normal;
                            // only log-worthy failures are corrupt HELLOs,
                            // and this crate has no logger — the replica
                            // side reports its own errors.
                            let _ = serve_replica(stream, &cfg, &hub);
                        },
                    );
                }
            })?;
        Ok(ReplListener { addr, hub, accept: Some(accept) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and unblocks the accept thread. Existing
    /// connection threads notice shutdown within one tail tick.
    pub fn stop(mut self) {
        self.hub.request_shutdown();
        // Unblock `incoming()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Reads exactly one framed message from the stream.
fn read_one_msg(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<Msg, ReplError> {
    loop {
        match frame::check(buf, REPL_MAX_PAYLOAD) {
            Check::Complete { start, end, .. } => return wire::decode_msg(&buf[start..end]),
            Check::Incomplete => {}
            Check::Damaged(reason) => {
                return Err(ReplError::corrupt(format!("bad frame: {reason}")))
            }
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ReplError::Eof);
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One segment byte range to stream during catch-up.
struct StreamPlan {
    id: SegmentId,
    path: PathBuf,
    start: u64,
    /// Newest segment of its stream: a torn tail here is a commit still
    /// in flight (it will arrive via the feed), not damage.
    tolerant: bool,
}

/// Decides whether the replica's cursors let the primary skip the
/// snapshot. Resume requires: at least one cursor, and for *every*
/// on-disk `(epoch, shard)` stream a cursor pointing inside that stream
/// (counter within the on-disk range, an offset the segment reader
/// accepts as a frame end) with every later counter still present.
/// Anything else — unknown streams, compacted-away positions, bogus
/// offsets past the file, off a frame boundary or inside a zero tail —
/// falls back to a full resync, which is always correct.
fn resume_plan(
    cursors: &[Cursor],
    segments: &[(SegmentId, PathBuf)],
) -> Result<Option<Vec<StreamPlan>>, ReplError> {
    if cursors.is_empty() {
        return Ok(None);
    }
    let by_stream: HashMap<(u64, u32), Cursor> =
        cursors.iter().map(|&c| ((c.epoch, c.shard), c)).collect();
    let mut streams: HashMap<(u64, u32), Vec<(SegmentId, PathBuf)>> = HashMap::new();
    for (id, path) in segments {
        streams.entry((id.epoch, id.shard)).or_default().push((*id, path.clone()));
    }
    let mut plan = Vec::new();
    for ((epoch, shard), mut segs) in streams {
        segs.sort_by_key(|(id, _)| id.counter);
        let Some(&cursor) = by_stream.get(&(epoch, shard)) else { return Ok(None) };
        let min = segs.first().expect("non-empty stream").0.counter;
        let max = segs.last().expect("non-empty stream").0.counter;
        if cursor.counter < min || cursor.counter > max {
            return Ok(None);
        }
        // The suffix cursor.counter..=max must be contiguous on disk.
        let suffix: Vec<&(SegmentId, PathBuf)> =
            segs.iter().filter(|(id, _)| id.counter >= cursor.counter).collect();
        if suffix.len() as u64 != max - cursor.counter + 1 {
            return Ok(None);
        }
        for (i, seg) in suffix.iter().enumerate() {
            let (id, path) = (seg.0, &seg.1);
            let tolerant = i == suffix.len() - 1;
            let start = if id.counter == cursor.counter { cursor.offset } else { HEADER_LEN as u64 };
            if start != HEADER_LEN as u64 {
                match read_segment_from(path, id, start, tolerant) {
                    Ok(_) => {}
                    Err(JournalError::Io { source, .. }) => return Err(ReplError::Io(source)),
                    Err(JournalError::Corrupt { .. }) => return Ok(None),
                }
            }
            plan.push(StreamPlan { id, path: path.clone(), start, tolerant });
        }
    }
    Ok(Some(plan))
}

/// Streams the planned byte ranges as RECORD messages.
fn stream_segments(
    stream: &mut TcpStream,
    plan: &[StreamPlan],
    out: &mut Vec<u8>,
) -> Result<u64, ReplError> {
    let mut shipped = 0u64;
    for p in plan {
        let frames = read_segment_from(&p.path, p.id, p.start, p.tolerant)
            .map_err(|e| ReplError::corrupt(format!("primary journal unreadable: {e}")))?;
        for f in &frames.records {
            let cursor = Cursor {
                epoch: p.id.epoch,
                shard: p.id.shard,
                counter: p.id.counter,
                offset: f.end_offset,
            };
            wire::encode_record(cursor, &f.record, out);
            shipped += 1;
            if out.len() >= CATCHUP_CHUNK {
                stream.write_all(out)?;
                out.clear();
            }
        }
    }
    Ok(shipped)
}

/// True when the peer has closed its end (tail mode: the replica never
/// writes after HELLO, so a readable EOF is the only death signal).
fn peer_gone(stream: &TcpStream) -> bool {
    let mut b = [0u8; 1];
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = matches!(stream.peek(&mut b), Ok(0));
    let _ = stream.set_nonblocking(false);
    gone
}

fn serve_replica(
    mut stream: TcpStream,
    cfg: &PrimaryConfig,
    hub: &ReplHub,
) -> Result<(), ReplError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
    let mut rbuf = Vec::new();
    let cursors = match read_one_msg(&mut stream, &mut rbuf)? {
        Msg::Hello { cursors, .. } => cursors,
        other => {
            return Err(ReplError::corrupt(format!("expected HELLO, got {other:?}")));
        }
    };

    let mut out = Vec::with_capacity(CATCHUP_CHUNK * 2);
    let sub: Subscription;
    {
        // Catch-up: no compaction may delete segments between the scan
        // and the stream, and the feed subscription must exist before the
        // scan so post-scan commits are not lost.
        let _pause = hub.pause_compaction();
        sub = hub.subscribe();
        let segments = scan_dir(&cfg.dir)
            .map_err(|e| ReplError::corrupt(format!("primary journal unreadable: {e}")))?;
        let plan = match resume_plan(&cursors, &segments)? {
            Some(plan) => {
                wire::encode_welcome(true, &mut out);
                plan
            }
            None => {
                RESYNCS.incr();
                wire::encode_welcome(false, &mut out);
                let snap = match std::fs::read(&cfg.snapshot_path) {
                    Ok(bytes) => bytes,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                    Err(e) => return Err(ReplError::Io(e)),
                };
                wire::encode_snapshot(&snap, &mut out);
                let mut all: Vec<(SegmentId, PathBuf)> = segments;
                all.sort_by_key(|(id, _)| *id);
                all.iter()
                    .map(|(id, path)| {
                        let last_of_stream = !all.iter().any(|(o, _)| {
                            (o.epoch, o.shard) == (id.epoch, id.shard) && o.counter > id.counter
                        });
                        StreamPlan {
                            id: *id,
                            path: path.clone(),
                            start: HEADER_LEN as u64,
                            tolerant: last_of_stream,
                        }
                    })
                    .collect()
            }
        };
        let shipped = stream_segments(&mut stream, &plan, &mut out)?;
        wire::encode_caught_up(&mut out);
        stream.write_all(&out)?;
        out.clear();
        SHIPPED.add(shipped);
        // Pause lock drops here: catch-up is on the wire, compaction may
        // resume.
    }

    // Tail mode.
    let mut forwarded_records = 0u64;
    let mut forwarded_bytes = 0u64;
    loop {
        if hub.is_shutdown() {
            hub.unsubscribe(sub.token);
            return Ok(());
        }
        match sub.rx.recv_timeout(TAIL_TICK) {
            Ok(batch) => {
                // Coalesce everything already queued into one write: under
                // sustained commit load this turns a syscall per group
                // commit into a syscall per drain cycle, which is most of
                // the shipping cost on a loaded box.
                let mut shipped = 0u64;
                let encode = |batch: &[crate::hub::TailEvent],
                              out: &mut Vec<u8>,
                              bytes: &mut u64| {
                    for ev in batch {
                        wire::encode_record(ev.cursor, &ev.record, out);
                        *bytes += wire::record_encoded_len(&ev.record);
                    }
                };
                encode(&batch, &mut out, &mut forwarded_bytes);
                shipped += batch.len() as u64;
                while out.len() < CATCHUP_CHUNK {
                    match sub.rx.try_recv() {
                        Ok(more) => {
                            encode(&more, &mut out, &mut forwarded_bytes);
                            shipped += more.len() as u64;
                        }
                        Err(_) => break,
                    }
                }
                forwarded_records += shipped;
                SHIPPED.add(shipped);
                if let Err(e) = stream.write_all(&out) {
                    hub.unsubscribe(sub.token);
                    return Err(ReplError::Io(e));
                }
                out.clear();
            }
            Err(RecvTimeoutError::Timeout) => {
                if peer_gone(&stream) {
                    hub.unsubscribe(sub.token);
                    return Err(ReplError::Eof);
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Evicted for slowness (hub dropped our sender); the
                // replica will notice the close and reconnect.
                hub.unsubscribe(sub.token);
                return Err(ReplError::corrupt("feed evicted (replica too slow)"));
            }
        }
        let published = hub.published_records();
        LAG_RECORDS.set(published.saturating_sub(sub.base_records + forwarded_records));
        LAG_BYTES.set(
            hub.published_bytes().saturating_sub(sub.base_bytes + forwarded_bytes),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdelay_journal::{encode_frame, encode_header, Record};

    fn write_segment(dir: &std::path::Path, id: SegmentId, seqs: &[u64]) -> (PathBuf, Vec<u64>) {
        let mut bytes = encode_header(id.epoch, id.shard).to_vec();
        let mut ends = Vec::new();
        for &seq in seqs {
            let rec = Record {
                site: "s".into(),
                queue: "q".into(),
                range: "5-16".into(),
                seq,
                wait: seq as f64,
                predicted_bmbp: None,
                predicted_lognormal: None,
                tombstone: false,
            };
            encode_frame(&rec, &mut bytes);
            ends.push(bytes.len() as u64);
        }
        let path = dir.join(id.file_name());
        std::fs::write(&path, bytes).unwrap();
        (path, ends)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qdelay-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn resume_plan_accepts_only_contiguously_covered_streams() {
        let dir = tmp_dir("plan");
        let id0 = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let id1 = SegmentId { epoch: 1, shard: 0, counter: 1 };
        let (_p0, ends0) = write_segment(&dir, id0, &[1, 2]);
        write_segment(&dir, id1, &[3]);
        let segments = scan_dir(&dir).unwrap();

        // No cursors → resync.
        assert!(resume_plan(&[], &segments).unwrap().is_none());
        // Cursor mid-segment 0 → stream rest of 0 plus all of 1.
        let c = Cursor { epoch: 1, shard: 0, counter: 0, offset: ends0[0] };
        let plan = resume_plan(&[c], &segments).unwrap().expect("resumable");
        assert_eq!(plan.len(), 2);
        let seg0 = plan.iter().find(|p| p.id == id0).unwrap();
        assert_eq!(seg0.start, ends0[0]);
        assert!(!seg0.tolerant);
        let seg1 = plan.iter().find(|p| p.id == id1).unwrap();
        assert_eq!(seg1.start, HEADER_LEN as u64);
        assert!(seg1.tolerant);
        // Cursor below the on-disk range (segment compacted away) → resync.
        let stale = Cursor { epoch: 1, shard: 0, counter: 5, offset: 24 };
        assert!(resume_plan(&[stale], &segments).unwrap().is_none());
        // Offset beyond the file → resync.
        let bogus = Cursor { epoch: 1, shard: 0, counter: 0, offset: 1 << 40 };
        assert!(resume_plan(&[bogus], &segments).unwrap().is_none());
        // The active segment sized ahead: a cursor at its last frame's end
        // resumes (shipping nothing); one inside the zero tail, even short
        // of EOF, resyncs.
        let (p1, ends1) = write_segment(&dir, id1, &[3]);
        let at_end = Cursor { epoch: 1, shard: 0, counter: 1, offset: ends1[0] };
        std::fs::OpenOptions::new().write(true).open(&p1).unwrap().set_len(4096).unwrap();
        let plan = resume_plan(&[at_end], &segments).unwrap().expect("resumable");
        let p = &plan[0];
        assert!(read_segment_from(&p.path, p.id, p.start, p.tolerant).unwrap().records.is_empty());
        for offset in [ends1[0] + 1, 4000, 4096] {
            let zeros = Cursor { offset, ..at_end };
            assert!(resume_plan(&[zeros], &segments).unwrap().is_none(), "offset {offset}");
        }
        // A second on-disk stream with no cursor → resync.
        let id_other = SegmentId { epoch: 1, shard: 1, counter: 0 };
        write_segment(&dir, id_other, &[1]);
        let segments = scan_dir(&dir).unwrap();
        assert!(resume_plan(&[c], &segments).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
