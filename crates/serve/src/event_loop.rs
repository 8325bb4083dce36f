//! The transport: one epoll-driven I/O thread serving every connection of
//! both listeners.
//!
//! ```text
//!  JSON listener ──┐ accept (until WouldBlock)
//!  binary listener ┴──────► I/O loop: one epoll set over both listeners,
//!                               its eventfd and every connection
//!                                 │  cut requests (lines | frames),
//!                                 │  decode, dispatch
//!                                 ▼
//!                          shard 0..N event loops
//!                                 │  render the reply into the
//!                                 ▼  connection's out buffer
//!                          I/O loop wakes (eventfd), vectored write
//! ```
//!
//! A connection's **framer** is fixed by the listener it arrived on —
//! newline-delimited JSON ([`crate::protocol`]) or CRC frames
//! ([`crate::proto`]); nothing is sniffed. Everything after the framer is
//! shared: one [`dispatch`], one reply budget, one half-close rule, one
//! partial-write resume, one reply-stage trace.
//!
//! ## Wakeup protocol
//!
//! A shard finishing a request must wake the loop without costing a
//! syscall per reply at 10⁶ req/s. The loop owns a [`Waker`]: an eventfd
//! plus `pending`/`sleeping` flags. Senders set `pending` and only write
//! the eventfd when the loop has declared itself `sleeping`; the loop
//! declares `sleeping`, then re-checks `pending` before committing to
//! `epoll_wait`. The SeqCst total order over those two flags means a
//! wakeup can never be lost, and a busy loop absorbs any number of reply
//! bursts with zero eventfd writes. A 500 ms `epoll_wait` timeout
//! backstops the protocol.
//!
//! ## Error discipline
//!
//! * The stream can no longer be trusted (frame checksum mismatch or
//!   length out of range; a line past `max_line`, or one that is not
//!   UTF-8): one typed error, flushed, then the connection closes.
//! * The stream is still in sync but the request is bad (intact frame or
//!   complete line that does not decode or validate): typed
//!   `parse`/`bad_request` error; the connection survives.
//! * Slow consumer: a connection whose unflushed reply bytes are already
//!   over its budget when the next reply arrives is poisoned and
//!   disconnected (`serve.slow_disconnects`), never allowed to wedge a
//!   shard or a co-resident connection.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::dispatch::{dispatch, Failure, Id, Responder};
use crate::proto;
use crate::protocol::{self, Request, ERR_BAD_REQUEST, ERR_LINE_TOO_LONG, ERR_PARSE};
use crate::server::{ShardHandle, Shared};
use crate::sys::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::tracing::{self, PendingTrace, ReqTrace};
use crate::{BIN_CONNECTIONS, CONNECTIONS, ERRORS, REQUESTS, SLOW_DISCONNECTS};
use qdelay_journal::frame::{self, Check};
use qdelay_json::ReadError;

/// Epoll tokens of the loop's own descriptors; connections count up from 0.
const WAKER_TOKEN: u64 = u64::MAX;
const JSON_LISTENER_TOKEN: u64 = u64::MAX - 1;
const BIN_LISTENER_TOKEN: u64 = u64::MAX - 2;

/// Read chunk size; also the per-wakeup read budget unit.
const READ_CHUNK: usize = 64 * 1024;

/// Reads attempted per connection per wakeup before yielding to others.
const READS_PER_WAKEUP: usize = 4;

/// IoSlices per vectored write.
const MAX_IOVECS: usize = 8;

/// Cross-thread wakeup for the loop: flags first, eventfd only when the
/// loop is committed to sleeping.
pub(crate) struct Waker {
    efd: EventFd,
    pending: AtomicBool,
    sleeping: AtomicBool,
}

impl Waker {
    /// Fails with `Unsupported` where there is no eventfd (non-Linux).
    pub(crate) fn new() -> io::Result<Arc<Waker>> {
        Ok(Arc::new(Waker {
            efd: EventFd::new()?,
            pending: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
        }))
    }

    /// Marks work pending and kicks the eventfd iff the loop may be
    /// blocked in `epoll_wait`.
    pub(crate) fn wake(&self) {
        self.pending.store(true, Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            self.efd.signal();
        }
    }
}

/// The half of a connection shared with shard threads: the reply byte
/// queue, its budget accounting, and the poison flag.
pub(crate) struct Conn {
    /// Rendered replies waiting for the loop to take them.
    out: Mutex<Vec<u8>>,
    /// Unflushed reply bytes: `out` plus whatever the loop holds
    /// mid-write. The slow-consumer budget is enforced against this.
    queued: AtomicUsize,
    /// Budget in bytes; a reply arriving on a backlog past it poisons the
    /// connection.
    cap: usize,
    /// Requests accepted but not yet answered. A half-closed connection
    /// (client EOF) stays open until this drains to zero, so pipelined
    /// requests sent before the close are still answered.
    inflight: AtomicUsize,
    poisoned: AtomicBool,
    waker: Arc<Waker>,
    /// Bytes ever admitted into `out` (monotonic; only grows under the
    /// `out` lock). Reply traces are tagged with this watermark so the
    /// loop can tell which replies a flush actually put on the wire.
    enqueued_total: AtomicU64,
    /// Traces for enqueued replies, ordered by watermark; drained once the
    /// connection's `written_total` passes them.
    pending_traces: Mutex<Vec<(u64, PendingTrace)>>,
}

impl Conn {
    /// Queues one rendered reply, balancing the [`Conn::begin_reply`] of
    /// the request it answers, and wakes the loop. On admission the trace
    /// is stamped sent and parked under the byte watermark the reply ends
    /// at; a reply refused by the budget drops it.
    pub(crate) fn send(&self, reply: &[u8], trace: Option<PendingTrace>) {
        if !self.poisoned.load(Ordering::Relaxed) {
            let mut out = self.out.lock().expect("conn out lock");
            // The budget judges the backlog this reply found, not the
            // reply: each protocol already caps one reply's size, so a
            // connection at or under budget always admits one more, and a
            // single large reply to a client that is reading is never
            // mistaken for a slow consumer.
            if self.queued.load(Ordering::Relaxed) > self.cap {
                self.poison();
            } else {
                out.extend_from_slice(reply);
                self.queued.fetch_add(reply.len(), Ordering::Relaxed);
                // Still under the out lock, so watermarks park in order.
                let added = reply.len() as u64;
                let mark = self.enqueued_total.fetch_add(added, Ordering::Relaxed) + added;
                if let Some(mut t) = trace {
                    t.mark_sent();
                    self.pending_traces.lock().expect("conn trace lock").push((mark, t));
                }
            }
        }
        // The decrement is released *after* the bytes land, so a loop
        // seeing `inflight == 0` (acquire) also sees the enqueued reply.
        self.inflight.fetch_sub(1, Ordering::Release);
        self.waker.wake();
    }

    /// Accounts one accepted request; its reply (one [`Conn::send`])
    /// balances the counter.
    fn begin_reply(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    fn take_out(&self) -> Vec<u8> {
        std::mem::take(&mut *self.out.lock().expect("conn out lock"))
    }

    /// Drains the traces whose reply bytes are fully written (`watermark
    /// <= upto`); the pending list is watermark-sorted by construction.
    fn take_completed(&self, upto: u64) -> Vec<PendingTrace> {
        let mut pending = self.pending_traces.lock().expect("conn trace lock");
        let split = pending.partition_point(|(mark, _)| *mark <= upto);
        pending.drain(..split).map(|(_, t)| t).collect()
    }

    fn poison(&self) {
        if !self.poisoned.swap(true, Ordering::Relaxed) {
            SLOW_DISCONNECTS.incr();
        }
    }

    /// Marks the connection dead for late shard replies without counting a
    /// slow-consumer disconnect (used when the loop closes it for other
    /// reasons: EOF, stream damage, shutdown).
    fn poison_quietly(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }
}

/// How a connection's inbound bytes are cut into requests. Fixed at accept
/// by the listener the connection arrived on.
#[derive(Clone, Copy)]
enum Framer {
    /// Newline-delimited JSON, one request per line.
    Lines,
    /// CRC frames ([`qdelay_journal::frame`]), one request per payload.
    Frames,
}

/// Loop-private per-connection state.
struct ConnState {
    stream: TcpStream,
    fd: RawFd,
    token: u64,
    framer: Framer,
    conn: Arc<Conn>,
    /// Inbound bytes not yet consumed as requests.
    rbuf: Vec<u8>,
    /// Outbound chunks taken from `conn.out`, written vectored; `front_pos`
    /// is how far into the front chunk a partial write got.
    wq: VecDeque<Vec<u8>>,
    front_pos: usize,
    /// Bytes ever written to the socket; compared against reply trace
    /// watermarks to complete the reply stage.
    written_total: u64,
    /// Current epoll interest bits.
    interest: u32,
    /// No more requests will be read (peer EOF, or a stream-level error
    /// was sent): answer what was accepted, flush, then close.
    closing: bool,
    /// Unrecoverable (I/O error, poisoned, or closing and drained): reap
    /// this pass.
    dead: bool,
}

impl ConnState {
    fn has_output(&self) -> bool {
        !self.wq.is_empty() || self.conn.queued.load(Ordering::Relaxed) > 0
    }

    /// Writes queued output with `write_vectored`, resuming mid-reply
    /// (and mid-chunk) after partial writes. Returns whether everything
    /// queued so far is on the wire.
    fn flush(&mut self) -> io::Result<bool> {
        loop {
            if self.wq.is_empty() {
                let fresh = self.conn.take_out();
                if fresh.is_empty() {
                    return Ok(true);
                }
                self.wq.push_back(fresh);
            }
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOVECS);
            for (i, chunk) in self.wq.iter().enumerate().take(MAX_IOVECS) {
                let s = if i == 0 { &chunk[self.front_pos..] } else { &chunk[..] };
                slices.push(IoSlice::new(s));
            }
            match (&self.stream).write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    self.written_total += n as u64;
                    self.conn.queued.fetch_sub(n, Ordering::Relaxed);
                    while n > 0 {
                        let front_left = self.wq[0].len() - self.front_pos;
                        if n >= front_left {
                            n -= front_left;
                            self.wq.pop_front();
                            self.front_pos = 0;
                        } else {
                            self.front_pos += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Registers both listeners and the shared waker in a fresh epoll set and
/// spawns the I/O thread over them. The thread runs until
/// [`Shared::request_shutdown`], then flushes and closes every connection.
pub(crate) fn spawn(
    json_listener: TcpListener,
    bin_listener: Option<TcpListener>,
    shared: Arc<Shared>,
    shards: Vec<ShardHandle>,
) -> io::Result<JoinHandle<()>> {
    let epoll = Epoll::new()?;
    epoll.add(shared.waker.efd.raw(), EPOLLIN, WAKER_TOKEN)?;
    json_listener.set_nonblocking(true)?;
    epoll.add(json_listener.as_raw_fd(), EPOLLIN, JSON_LISTENER_TOKEN)?;
    if let Some(listener) = &bin_listener {
        listener.set_nonblocking(true)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, BIN_LISTENER_TOKEN)?;
    }
    let mut io_loop = IoLoop {
        epoll,
        json_listener,
        bin_listener,
        shared,
        shards,
        conns: HashMap::new(),
        next_token: 0,
        scratch: vec![0u8; READ_CHUNK],
    };
    std::thread::Builder::new().name("qdelay-io".into()).spawn(move || io_loop.run())
}

struct IoLoop {
    epoll: Epoll,
    json_listener: TcpListener,
    bin_listener: Option<TcpListener>,
    shared: Arc<Shared>,
    shards: Vec<ShardHandle>,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    /// The one read buffer: reads are sequential on this thread, and every
    /// byte read is copied into its connection's `rbuf` before the next.
    scratch: Vec<u8>,
}

impl IoLoop {
    fn run(&mut self) {
        let waker = Arc::clone(&self.shared.waker);
        let mut events = vec![EpollEvent::zeroed(); 128];
        loop {
            // Commit to sleeping, then re-check for work raced in between:
            // the other half of the Waker protocol.
            waker.sleeping.store(true, Ordering::SeqCst);
            let n = if waker.pending.swap(false, Ordering::SeqCst) {
                waker.sleeping.store(false, Ordering::SeqCst);
                self.epoll.wait(&mut events, 0)
            } else {
                let n = self.epoll.wait(&mut events, 500);
                waker.sleeping.store(false, Ordering::SeqCst);
                waker.pending.store(false, Ordering::SeqCst);
                n
            };
            let n = match n {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("qdelay-serve: I/O loop epoll failed: {e}");
                    break;
                }
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events[..n] {
                // Copy out of the (possibly packed) event struct before
                // taking references to the fields.
                let ev = *ev;
                let (token, bits) = (ev.data, ev.events);
                match token {
                    WAKER_TOKEN => waker.efd.drain(),
                    JSON_LISTENER_TOKEN => self.accept_all(Framer::Lines),
                    BIN_LISTENER_TOKEN => self.accept_all(Framer::Frames),
                    _ if bits & (EPOLLIN | EPOLLRDHUP) != 0 => self.read_and_dispatch(token),
                    // Error or hangup with no input asked for: only a
                    // closing connection stops asking, and its peer is now
                    // gone in both directions, so nobody is left to answer.
                    _ if bits & (EPOLLERR | EPOLLHUP) != 0 => {
                        if let Some(state) = self.conns.get_mut(&token) {
                            state.dead = true;
                        }
                    }
                    _ => {}
                }
            }
            self.flush_all();
            self.reap();
        }
        self.teardown();
    }

    /// Accepts from one listener until it would block.
    fn accept_all(&mut self, framer: Framer) {
        loop {
            let listener = match framer {
                Framer::Lines => &self.json_listener,
                Framer::Frames => {
                    self.bin_listener.as_ref().expect("its token fired, so it is registered")
                }
            };
            match listener.accept() {
                Ok((stream, _)) => self.adopt(stream, framer),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock: drained. Anything else (the peer already
                // reset, descriptors exhausted) must not stop the loop;
                // the listener stays registered and reports again.
                Err(_) => break,
            }
        }
    }

    /// Registers one accepted connection. A setup failure drops it.
    fn adopt(&mut self, stream: TcpStream, framer: Framer) {
        CONNECTIONS.incr();
        if matches!(framer, Framer::Frames) {
            BIN_CONNECTIONS.incr();
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        let token = self.next_token;
        self.next_token += 1;
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(fd, interest, token).is_err() {
            return;
        }
        let conn = Arc::new(Conn {
            out: Mutex::new(Vec::new()),
            queued: AtomicUsize::new(0),
            cap: self.shared.config.writer_capacity.saturating_mul(256),
            inflight: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            waker: Arc::clone(&self.shared.waker),
            enqueued_total: AtomicU64::new(0),
            pending_traces: Mutex::new(Vec::new()),
        });
        self.conns.insert(token, ConnState {
            stream,
            fd,
            token,
            framer,
            conn,
            rbuf: Vec::new(),
            wq: VecDeque::new(),
            front_pos: 0,
            written_total: 0,
            interest,
            closing: false,
            dead: false,
        });
    }

    /// Reads up to the wakeup budget and dispatches every complete request.
    fn read_and_dispatch(&mut self, token: u64) {
        let Some(state) = self.conns.get_mut(&token) else { return };
        if state.closing || state.dead {
            return;
        }
        for _ in 0..READS_PER_WAKEUP {
            match (&state.stream).read(&mut self.scratch) {
                Ok(0) => {
                    // EOF. The peer may have half-closed after a pipelined
                    // burst: stop reading, but keep the connection until
                    // every accepted request has been answered and flushed.
                    decode(state, true, &self.shared, &self.shards);
                    state.closing = true;
                    break;
                }
                Ok(n) => {
                    state.rbuf.extend_from_slice(&self.scratch[..n]);
                    decode(state, false, &self.shared, &self.shards);
                    if state.closing || n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    state.dead = true;
                    break;
                }
            }
        }
    }

    /// Flushes every connection with queued output, closes the ones that
    /// are done, and keeps each epoll registration in step with its state:
    /// read until closing, write while output remains.
    fn flush_all(&mut self) {
        for state in self.conns.values_mut() {
            if state.dead {
                continue;
            }
            if state.conn.poisoned.load(Ordering::Relaxed) {
                state.dead = true;
                continue;
            }
            // Sampled before the output check: a stale `false` only delays
            // the close one wakeup, while the acquire load pairs with the
            // release decrement in `send` so `true` means every reply is
            // already visible in the out buffer.
            let replies_done = state.conn.inflight.load(Ordering::Acquire) == 0;
            let drained = if state.has_output() {
                let flushed = state.flush();
                // One clock read completes every reply the write just drained.
                let mut done = state.conn.take_completed(state.written_total);
                self.shared.recorder.complete_all(&mut done);
                match flushed {
                    Ok(drained) => drained,
                    Err(_) => {
                        state.dead = true;
                        continue;
                    }
                }
            } else {
                true
            };
            if state.closing && replies_done && drained {
                state.dead = true;
                continue;
            }
            let mut interest = 0;
            if !state.closing {
                interest |= EPOLLIN | EPOLLRDHUP;
            }
            if !drained {
                interest |= EPOLLOUT;
            }
            if interest != state.interest {
                // Losing the MOD leaves a spurious wakeup, not a bug.
                let _ = self.epoll.modify(state.fd, interest, state.token);
                state.interest = interest;
            }
        }
    }

    /// Deregisters and drops dead connections.
    fn reap(&mut self) {
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, s)| s.dead)
            .map(|(&t, _)| t)
            .collect();
        for token in dead {
            if let Some(state) = self.conns.remove(&token) {
                let _ = self.epoll.delete(state.fd);
                state.conn.poison_quietly();
                let _ = state.stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Shutdown path: best-effort flush of every connection, then close.
    fn teardown(&mut self) {
        for (_, mut state) in self.conns.drain() {
            if !state.conn.poisoned.load(Ordering::Relaxed) {
                let _ = state.flush();
            }
            let _ = self.epoll.delete(state.fd);
            state.conn.poison_quietly();
            let _ = state.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Consumes every complete request from the front of `rbuf`. `eof` says no
/// more bytes will ever follow what is buffered.
fn decode(state: &mut ConnState, eof: bool, shared: &Shared, shards: &[ShardHandle]) {
    let consumed = match state.framer {
        Framer::Lines => decode_lines(state, eof, shared, shards),
        // A partial frame left at EOF has nothing to answer.
        Framer::Frames => decode_frames(state, shared, shards),
    };
    state.rbuf.drain(..consumed);
}

/// Accounts and answers one decoded request — or the typed error its
/// decode ended in. Exactly one reply per call.
fn answer(
    conn: &Arc<Conn>,
    id: Id,
    request: Result<(Request, ReqTrace), Failure>,
    shared: &Shared,
    shards: &[ShardHandle],
) {
    conn.begin_reply();
    let resp = Responder { conn: Arc::clone(conn), id };
    match request {
        Ok((request, trace)) => {
            REQUESTS.incr();
            dispatch(request, resp, trace, shared, shards);
        }
        Err((code, message)) => {
            ERRORS.incr();
            resp.send_error(code, &message);
        }
    }
}

/// The frame framer. Returns the bytes consumed.
fn decode_frames(state: &mut ConnState, shared: &Shared, shards: &[ShardHandle]) -> usize {
    let mut pos = 0usize;
    loop {
        match frame::check(&state.rbuf[pos..], proto::MAX_REQ_PAYLOAD) {
            Check::Complete { start, end, next } => {
                let mut trace = ReqTrace::begin(tracing::PROTO_BIN);
                let (id, request) = proto::decode_request(&state.rbuf[pos + start..pos + end]);
                // Intact frame, bad payload: the stream is still in sync,
                // so the connection survives the error reply.
                let request = match request {
                    Ok(request) => {
                        trace.decoded(end - start);
                        Ok((request, trace))
                    }
                    Err(e) => Err((e.code(), e.message().to_string())),
                };
                answer(&state.conn, Id::Frame(id), request, shared, shards);
                pos += next;
            }
            Check::Incomplete => return pos,
            Check::Damaged(reason) => {
                // Frame-level damage: sync is unrecoverable. One typed
                // error, then close (after the flush drains it).
                let code = if reason == "frame length out of range" {
                    ERR_LINE_TOO_LONG
                } else {
                    ERR_PARSE
                };
                let failure = (code, format!("{reason}; closing connection"));
                let id = Id::Frame(proto::UNATTRIBUTED_ID);
                answer(&state.conn, id, Err(failure), shared, shards);
                state.closing = true;
                return state.rbuf.len();
            }
        }
    }
}

/// The newline framer: the loop-side twin of `qdelay_json::Reader`'s line
/// assembly, over the same per-line rule ([`qdelay_json::parse_line`]).
/// Returns the bytes consumed.
fn decode_lines(
    state: &mut ConnState,
    eof: bool,
    shared: &Shared,
    shards: &[ShardHandle],
) -> usize {
    let max_line = shared.config.max_line;
    let mut pos = 0usize;
    loop {
        let rest = &state.rbuf[pos..];
        let (end, next) = match rest.iter().position(|&b| b == b'\n') {
            Some(newline) => (newline, newline + 1),
            // Without its newline a tail is a line only when nothing can
            // follow it (a final unterminated line is still a request), or
            // when it is already longer than any line may be.
            None if (eof && !rest.is_empty()) || rest.len() > max_line => {
                (rest.len(), rest.len())
            }
            None => return pos,
        };
        let in_sync = if end > max_line {
            let message = format!("line exceeds {max_line} bytes; closing connection");
            let failure = (ERR_LINE_TOO_LONG, message);
            answer(&state.conn, Id::Line(None), Err(failure), shared, shards);
            false
        } else {
            dispatch_line(&rest[..end], &state.conn, shared, shards)
        };
        if !in_sync {
            // Nothing after this point in the stream can be trusted: one
            // typed error went out, the rest is dropped unread.
            state.closing = true;
            return state.rbuf.len();
        }
        pos += next;
    }
}

/// Parses and answers one line. Returns whether the stream is still in
/// sync; a line that is not UTF-8 says the peer is not speaking this
/// protocol, so the connection closes behind its error.
fn dispatch_line(line: &[u8], conn: &Arc<Conn>, shared: &Shared, shards: &[ShardHandle]) -> bool {
    let mut trace = ReqTrace::begin(tracing::PROTO_JSON);
    let value = match qdelay_json::parse_line(line) {
        Ok(Some(value)) => value,
        Ok(None) => return true, // blank line: nothing to answer
        Err(e) => {
            let (message, in_sync) = match e {
                ReadError::Parse(e) => (e.to_string(), true),
                _ => ("invalid UTF-8".to_string(), false),
            };
            answer(conn, Id::Line(None), Err((ERR_PARSE, message)), shared, shards);
            return in_sync;
        }
    };
    trace.decoded(line.len());
    let (id, request) = protocol::parse_request(&value);
    let request = match request {
        Ok(request) => Ok((request, trace)),
        Err(message) => Err((ERR_BAD_REQUEST, message)),
    };
    answer(conn, Id::Line(id), request, shared, shards);
    true
}
