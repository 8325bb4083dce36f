//! The transport: one epoll-driven I/O thread per shard, each serving its
//! own connections from read to write.
//!
//! ```text
//!  JSON listener ──┐ accept (until WouldBlock)
//!  binary listener ┴──► loop 0 ── deals sockets round-robin, in accept
//!                          │      order: inbox + eventfd of the owner
//!          ┌───────────────┼──────────────────┐
//!          ▼               ▼                  ▼
//!       loop 0          loop 1     …       loop N-1       (qdelay-io-<k>)
//!  each: one epoll set over its eventfd and its connections
//!        │  cut requests (lines | frames), decode,
//!        │  dispatch: lock the owning shard, execute, render
//!        │  — into the connection's out buffer, or the wakeup's
//!        ▼    group-commit staging on a journaling server
//!   end of wakeup: commit the shards touched, release staged replies in
//!   arrival order, write the connections that were readable or writable
//! ```
//!
//! A connection belongs to one loop for its whole life, so nothing about
//! it is shared: its buffers, its budget and its traces are plain fields.
//! Its **framer** is fixed by the listener it arrived on — newline-
//! delimited JSON ([`crate::protocol`]) or CRC frames ([`crate::proto`]);
//! nothing is sniffed. Everything after the framer is shared code: one
//! [`dispatch`], one reply budget, one half-close rule, one partial-write
//! resume, one reply-stage trace.
//!
//! **Dealing is a contract**: the k-th connection the server accepts (both
//! listeners counted together) is owned by loop `k mod N`. Tests and the
//! benchmark place connections on chosen loops by connecting in order.
//!
//! ## Hand-off and shutdown
//!
//! Each loop has a [`LoopPort`]: an inbox of dealt sockets plus an eventfd
//! in its epoll set. Loop 0 pushes a socket and signals; shutdown signals
//! every port. Nothing else crosses threads, so a loop blocks in
//! `epoll_wait` with no timeout.
//!
//! ## Group commit
//!
//! On a journaling server every reply of a wakeup — acks, reads, errors,
//! control replies — is rendered into the loop's staging arena instead of
//! its connection. When the wakeup's events are done the loop settles each
//! shard it executed on ([`crate::shard::Shard::settle`], starting at its
//! own index so two loops sync different journals first), then releases
//! the staged replies in arrival order: an ack whose mark the commit did
//! not reach goes out as the typed `io` error. Only then is anything
//! written, so acked ⊆ journaled, no reply reflects unjournaled state, and
//! a connection's replies leave in request order across shards. The price
//! is head-of-line: while a loop is in a shard's fsync its other
//! connections wait (`serve.loop.busy_ns` shows it).
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
//!   disconnected (`serve.slow_disconnects`), never allowed to grow its
//!   buffer without limit.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::dispatch::{dispatch, send_error, Failure, Id};
use crate::proto;
use crate::protocol::{self, Request, ERR_BAD_REQUEST, ERR_IO, ERR_LINE_TOO_LONG, ERR_PARSE};
use crate::server::Shared;
use crate::sys::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::tracing::{self, FlightRecorder, PendingTrace, ReqTrace};
use crate::{
    BATCH_SIZE, BIN_CONNECTIONS, CONNECTIONS, ERRORS, JSON_TREE_LINES, LOOP_BUSY_NS, REQUESTS,
    SLOW_DISCONNECTS,
};
use qdelay_journal::frame::{self, Check};
use qdelay_json::Json;

/// Epoll tokens of a loop's own descriptors; connections count up from 0.
const PORT_TOKEN: u64 = u64::MAX;
const JSON_LISTENER_TOKEN: u64 = u64::MAX - 1;
const BIN_LISTENER_TOKEN: u64 = u64::MAX - 2;

/// Read chunk size; also the per-wakeup read budget unit, and the most
/// capacity an idle connection's out buffer keeps.
const READ_CHUNK: usize = 64 * 1024;

/// Reads attempted per connection per wakeup before yielding to others.
const READS_PER_WAKEUP: usize = 4;

/// How a connection's inbound bytes are cut into requests. Fixed at accept
/// by the listener the connection arrived on.
#[derive(Clone, Copy)]
pub(crate) enum Framer {
    /// Newline-delimited JSON, one request per line.
    Lines,
    /// CRC frames ([`qdelay_journal::frame`]), one request per payload.
    Frames,
}

/// What other threads may do to a loop: hand it an accepted socket, and
/// wake it.
pub(crate) struct LoopPort {
    efd: EventFd,
    inbox: Mutex<Vec<(TcpStream, Framer)>>,
}

impl LoopPort {
    /// Fails with `Unsupported` where there is no eventfd (non-Linux).
    pub(crate) fn new() -> io::Result<LoopPort> {
        Ok(LoopPort { efd: EventFd::new()?, inbox: Mutex::new(Vec::new()) })
    }

    /// Makes the loop's `epoll_wait` return (shutdown, or a dealt socket).
    pub(crate) fn wake(&self) {
        self.efd.signal();
    }

    fn hand(&self, stream: TcpStream, framer: Framer) {
        self.inbox.lock().expect("loop inbox lock").push((stream, framer));
        self.wake();
    }
}

/// One connection, private to the loop that owns it.
pub(crate) struct ConnState {
    stream: TcpStream,
    fd: RawFd,
    token: u64,
    framer: Framer,
    /// Inbound bytes not yet consumed as requests.
    rbuf: Vec<u8>,
    /// Rendered replies; `out[..out_pos]` is already on the wire (a
    /// partial write resumes there).
    out: Vec<u8>,
    out_pos: usize,
    /// Slow-consumer budget in bytes; a reply arriving on an unflushed
    /// backlog past it poisons the connection.
    cap: usize,
    /// Bytes ever written to the socket; compared against reply trace
    /// watermarks to complete the reply stage.
    written_total: u64,
    /// Traces of replies in `out`, each under the byte watermark its reply
    /// ends at (ascending by construction); completed once
    /// `written_total` passes them.
    pending_traces: Vec<(u64, PendingTrace)>,
    /// Current epoll interest bits.
    interest: u32,
    /// No more requests will be read (peer EOF, or a stream-level error
    /// was sent): what was accepted is already answered, so flush, then
    /// close.
    closing: bool,
    /// Over its reply budget: dropped at the end of this wakeup, and no
    /// further reply is rendered for it.
    poisoned: bool,
    /// Unrecoverable (I/O error, or closing and drained): reap this pass.
    dead: bool,
}

impl ConnState {
    fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// The buffer the next reply is rendered into, or `None` when the
    /// connection takes no more replies. The budget judges the backlog the
    /// reply finds, not the reply: each protocol already caps one reply's
    /// size, so a connection at or under budget always admits one more,
    /// and a single large reply to a client that is reading is never
    /// mistaken for a slow consumer.
    fn admit(&mut self) -> Option<&mut Vec<u8>> {
        if self.poisoned {
            return None;
        }
        if self.unflushed() > self.cap {
            self.poisoned = true;
            SLOW_DISCONNECTS.incr();
            return None;
        }
        Some(&mut self.out)
    }

    /// Parks the trace of the reply just rendered into `out` under the
    /// byte watermark it ends at, and starts its reply stage.
    fn rendered(&mut self, trace: Option<PendingTrace>) {
        if let Some(mut trace) = trace {
            trace.mark_sent();
            let mark = self.written_total + self.unflushed() as u64;
            self.pending_traces.push((mark, trace));
        }
    }

    /// Writes the out buffer, resuming mid-reply after a partial write,
    /// and completes the reply stage of everything the writes covered.
    /// Returns whether the buffer is now empty.
    fn flush(&mut self, recorder: &FlightRecorder) -> io::Result<bool> {
        let result = loop {
            if self.out_pos == self.out.len() {
                // Drained. One huge reply must not pin its capacity to an
                // idle connection.
                if self.out.capacity() > READ_CHUNK {
                    self.out = Vec::new();
                } else {
                    self.out.clear();
                }
                self.out_pos = 0;
                break Ok(true);
            }
            match (&self.stream).write(&self.out[self.out_pos..]) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.written_total += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Keep the buffer from creeping while the peer is slow.
                    self.out.drain(..self.out_pos);
                    self.out_pos = 0;
                    break Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        // One clock read completes every reply the writes just covered.
        let written = self.written_total;
        let done = self.pending_traces.partition_point(|(mark, _)| *mark <= written);
        recorder.complete_all(self.pending_traces.drain(..done).map(|(_, trace)| trace));
        result
    }
}

/// A reply held for its wakeup's group commit.
struct Held {
    /// The connection it answers.
    token: u64,
    /// Its rendered bytes in [`Exec::arena`].
    bytes: Range<usize>,
    /// An observe ack: the shard that staged its record, that shard's
    /// `appended` count just after, and the id to render the `io` error
    /// with should the commit not reach the mark.
    ack: Option<(usize, u64, Id)>,
    trace: Option<PendingTrace>,
}

/// What [`dispatch`] needs of the loop it runs on, apart from the
/// connection: the shared server state and this wakeup's group-commit
/// bookkeeping.
pub(crate) struct Exec {
    pub(crate) shared: Arc<Shared>,
    /// This loop's index; its group commits start at the shard of the same
    /// index.
    index: usize,
    /// Whether replies are staged for a group commit: true iff the server
    /// journals. (A fenced shard's replies still pass through the staging
    /// so they cannot overtake an earlier held one.)
    hold: bool,
    /// Staged replies in arrival order, and the arena holding their bytes.
    held: Vec<Held>,
    arena: Vec<u8>,
    /// Per shard: the newest `appended` mark a request of this wakeup saw,
    /// i.e. what the end-of-wakeup settle must make durable. `None` for
    /// shards this wakeup did not execute on.
    touched: Vec<Option<u64>>,
    /// Per shard: the durable watermark the last settle returned.
    durable: Vec<u64>,
    /// Data-plane requests executed this wakeup.
    executed: u64,
}

impl Exec {
    /// Notes that a request executed on `shard` and saw its `appended`
    /// count at `mark`.
    pub(crate) fn executed_on(&mut self, shard: usize, mark: u64) {
        self.touched[shard] = Some(mark);
        self.executed += 1;
    }

    /// Renders one reply for `conn` with `render`: straight into the
    /// connection's out buffer, or into the staging arena when replies are
    /// held. Returns the rendered length, `None` when the connection takes
    /// no more replies; follow with [`Exec::sent`].
    pub(crate) fn render(
        &mut self,
        conn: &mut ConnState,
        render: impl FnOnce(&mut Vec<u8>),
    ) -> Option<usize> {
        let out = if self.hold { &mut self.arena } else { conn.admit()? };
        let start = out.len();
        render(out);
        Some(out.len() - start)
    }

    /// Accounts the `len` bytes [`Exec::render`] just produced: parks the
    /// trace on the connection, or stages the reply for the group commit.
    pub(crate) fn sent(
        &mut self,
        conn: &mut ConnState,
        len: usize,
        ack: Option<(usize, u64, Id)>,
        mut trace: Option<PendingTrace>,
    ) {
        if self.hold {
            if let Some(trace) = &mut trace {
                trace.mark_sent();
            }
            let end = self.arena.len();
            self.held.push(Held { token: conn.token, bytes: end - len..end, ack, trace });
        } else {
            conn.rendered(trace);
        }
    }
}

/// Builds one loop per shard — loop 0 over both listeners — and spawns
/// their threads (`qdelay-io-<k>`). The threads run until
/// [`Shared::request_shutdown`], then flush and close every connection.
pub(crate) fn spawn(
    json_listener: TcpListener,
    bin_listener: Option<TcpListener>,
    shared: &Arc<Shared>,
) -> io::Result<Vec<JoinHandle<()>>> {
    json_listener.set_nonblocking(true)?;
    if let Some(listener) = &bin_listener {
        listener.set_nonblocking(true)?;
    }
    let shards = shared.shards.len();
    let mut listeners = Some((json_listener, bin_listener));
    let mut loops = Vec::with_capacity(shards);
    for index in 0..shards {
        let epoll = Epoll::new()?;
        epoll.add(shared.loops[index].efd.raw(), EPOLLIN, PORT_TOKEN)?;
        let listeners = listeners.take();
        if let Some((json, bin)) = &listeners {
            epoll.add(json.as_raw_fd(), EPOLLIN, JSON_LISTENER_TOKEN)?;
            if let Some(bin) = bin {
                epoll.add(bin.as_raw_fd(), EPOLLIN, BIN_LISTENER_TOKEN)?;
            }
        }
        loops.push(IoLoop {
            epoll,
            listeners,
            dealt: 0,
            conns: HashMap::new(),
            next_token: 0,
            active: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
            exec: Exec {
                shared: Arc::clone(shared),
                index,
                hold: shared.config.journal.is_some(),
                held: Vec::new(),
                arena: Vec::new(),
                touched: vec![None; shards],
                durable: vec![0; shards],
                executed: 0,
            },
        });
    }
    let mut joins = Vec::with_capacity(shards);
    for (index, mut io_loop) in loops.into_iter().enumerate() {
        let spawned = std::thread::Builder::new()
            .name(format!("qdelay-io-{index}"))
            .spawn(move || io_loop.run());
        match spawned {
            Ok(join) => joins.push(join),
            Err(e) => {
                // Do not leave the loops already running behind.
                shared.request_shutdown();
                for join in joins {
                    let _ = join.join();
                }
                return Err(e);
            }
        }
    }
    Ok(joins)
}

struct IoLoop {
    epoll: Epoll,
    /// Loop 0 only: the JSON listener and, when configured, the binary one.
    listeners: Option<(TcpListener, Option<TcpListener>)>,
    /// Loop 0 only: connections accepted so far; the next one goes to loop
    /// `dealt % N`.
    dealt: usize,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    /// Connections that were readable or writable in this wakeup: the only
    /// ones that can have new output, a finished write or a reason to
    /// close, so the only ones the end of the wakeup visits.
    active: Vec<u64>,
    /// The one read buffer: reads are sequential on this thread, and every
    /// byte read is copied into its connection's `rbuf` before the next.
    scratch: Vec<u8>,
    exec: Exec,
}

impl IoLoop {
    fn run(&mut self) {
        let mut events = vec![EpollEvent::zeroed(); 128];
        while !self.exec.shared.shutdown.load(Ordering::SeqCst) {
            let n = match self.epoll.wait(&mut events, -1) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("qdelay-serve: I/O loop {} epoll failed: {e}", self.exec.index);
                    break;
                }
            };
            let woke = Instant::now();
            for ev in &events[..n] {
                // Copy out of the (possibly packed) event struct before
                // taking references to the fields.
                let ev = *ev;
                let (token, bits) = (ev.data, ev.events);
                match token {
                    PORT_TOKEN => self.adopt_dealt(),
                    JSON_LISTENER_TOKEN => self.accept_all(Framer::Lines),
                    BIN_LISTENER_TOKEN => self.accept_all(Framer::Frames),
                    _ => {
                        self.active.push(token);
                        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                            self.read_and_dispatch(token);
                        } else if bits & (EPOLLERR | EPOLLHUP) != 0 {
                            // Error or hangup with no input asked for:
                            // only a closing connection stops asking, and
                            // its peer is now gone in both directions, so
                            // nobody is left to answer.
                            if let Some(state) = self.conns.get_mut(&token) {
                                state.dead = true;
                            }
                        }
                    }
                }
            }
            self.settle();
            self.finish_active();
            if self.exec.executed > 0 {
                BATCH_SIZE.record(self.exec.executed);
                self.exec.executed = 0;
            }
            LOOP_BUSY_NS.record(woke.elapsed().as_nanos() as u64);
        }
        self.teardown();
    }

    /// Loop 0: accepts from one listener until it would block, dealing
    /// each connection to the next loop in turn.
    fn accept_all(&mut self, framer: Framer) {
        loop {
            let (json, bin) = self.listeners.as_ref().expect("its token fired, so it is here");
            let listener = match framer {
                Framer::Lines => json,
                Framer::Frames => bin.as_ref().expect("its token fired, so it is registered"),
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let ports = &self.exec.shared.loops;
                    let owner = self.dealt % ports.len();
                    self.dealt += 1;
                    if owner == self.exec.index {
                        self.adopt(stream, framer);
                    } else {
                        ports[owner].hand(stream, framer);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock: drained. Anything else (the peer already
                // reset, descriptors exhausted) must not stop the loop;
                // the listener stays registered and reports again.
                Err(_) => break,
            }
        }
    }

    /// The port fired: adopt whatever loop 0 dealt this loop. (A shutdown
    /// wake finds the inbox empty and falls through to the loop condition.)
    fn adopt_dealt(&mut self) {
        let port = &self.exec.shared.loops[self.exec.index];
        port.efd.drain();
        let dealt = std::mem::take(&mut *port.inbox.lock().expect("loop inbox lock"));
        for (stream, framer) in dealt {
            self.adopt(stream, framer);
        }
    }

    /// Registers one accepted connection. A setup failure drops it.
    fn adopt(&mut self, stream: TcpStream, framer: Framer) {
        CONNECTIONS.incr();
        match framer {
            Framer::Frames => BIN_CONNECTIONS.incr(),
            // Shown (at 0) from the first JSON connection on: a counter is
            // registered by its first add, and the healthy value of this
            // one is never having had one.
            Framer::Lines => JSON_TREE_LINES.add(0),
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
        self.conns.insert(token, ConnState {
            stream,
            fd,
            token,
            framer,
            rbuf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            cap: self.exec.shared.config.writer_capacity.saturating_mul(256),
            written_total: 0,
            pending_traces: Vec::new(),
            interest,
            closing: false,
            poisoned: false,
            dead: false,
        });
    }

    /// Reads up to the wakeup budget and executes every complete request.
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
                    // every request it sent has been answered and flushed.
                    decode(state, true, &mut self.exec);
                    state.closing = true;
                    break;
                }
                Ok(n) => {
                    state.rbuf.extend_from_slice(&self.scratch[..n]);
                    decode(state, false, &mut self.exec);
                    if state.closing || state.poisoned || n < self.scratch.len() {
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

    /// The end-of-wakeup group commit: settles every shard this wakeup
    /// executed on, then releases the staged replies in arrival order.
    fn settle(&mut self) {
        let exec = &mut self.exec;
        let shards = exec.touched.len();
        for step in 0..shards {
            let shard = (exec.index + step) % shards;
            if let Some(need) = exec.touched[shard].take() {
                exec.durable[shard] = exec.shared.shard(shard).settle(need);
            }
        }
        for held in exec.held.drain(..) {
            let Some(state) = self.conns.get_mut(&held.token) else { continue };
            let Some(out) = state.admit() else { continue };
            match held.ack {
                Some((shard, mark, id)) if mark > exec.durable[shard] => {
                    ERRORS.incr();
                    let message = "journal commit failed; observation not durable";
                    id.responder(out).error(ERR_IO, message);
                }
                // A read's mark is durable by now, or its shard is fenced
                // and has nothing further to wait for.
                _ => {
                    out.extend_from_slice(&exec.arena[held.bytes]);
                    state.rendered(held.trace);
                }
            }
        }
        exec.arena.clear();
    }

    /// Flushes the connections this wakeup touched, closes the ones that
    /// are done, and keeps each epoll registration in step with its state:
    /// read until closing, write while output remains.
    fn finish_active(&mut self) {
        let recorder = &self.exec.shared.recorder;
        for token in self.active.drain(..) {
            let Some(state) = self.conns.get_mut(&token) else { continue };
            if !state.dead && !state.poisoned {
                match state.flush(recorder) {
                    // Closing means every request was answered before this
                    // flush, so drained means done.
                    Ok(true) if state.closing => state.dead = true,
                    Ok(drained) => {
                        let mut interest = 0;
                        if !state.closing {
                            interest |= EPOLLIN | EPOLLRDHUP;
                        }
                        if !drained {
                            interest |= EPOLLOUT;
                        }
                        if interest != state.interest {
                            // Losing the MOD leaves a spurious wakeup, not
                            // a bug.
                            let _ = self.epoll.modify(state.fd, interest, state.token);
                            state.interest = interest;
                        }
                    }
                    Err(_) => state.dead = true,
                }
            }
            if state.dead || state.poisoned {
                let _ = self.epoll.delete(state.fd);
                let _ = state.stream.shutdown(Shutdown::Both);
                self.conns.remove(&token);
            }
        }
    }

    /// Shutdown path: best-effort flush of every connection, then close.
    fn teardown(&mut self) {
        let recorder = &self.exec.shared.recorder;
        for (_, mut state) in self.conns.drain() {
            if !state.poisoned {
                let _ = state.flush(recorder);
            }
            let _ = self.epoll.delete(state.fd);
            let _ = state.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Consumes every complete request from the front of `rbuf`. `eof` says no
/// more bytes will ever follow what is buffered.
fn decode(state: &mut ConnState, eof: bool, exec: &mut Exec) {
    // Answering needs the whole connection; the bytes being cut are lent
    // out for the duration.
    let mut rbuf = std::mem::take(&mut state.rbuf);
    let consumed = match state.framer {
        Framer::Lines => decode_lines(&rbuf, state, eof, exec),
        // A partial frame left at EOF has nothing to answer.
        Framer::Frames => decode_frames(&rbuf, state, exec),
    };
    rbuf.drain(..consumed);
    state.rbuf = rbuf;
}

/// Answers one decoded request — or the typed error its decode ended in.
/// Exactly one reply per call.
fn answer(
    state: &mut ConnState,
    id: Id,
    request: Result<(Request, ReqTrace), Failure>,
    exec: &mut Exec,
) {
    match request {
        Ok((request, trace)) => {
            REQUESTS.incr();
            dispatch(request, id, trace, state, exec);
        }
        Err((code, message)) => {
            ERRORS.incr();
            send_error(state, exec, id, code, &message);
        }
    }
}

/// The frame framer. Returns the bytes consumed.
fn decode_frames(rbuf: &[u8], state: &mut ConnState, exec: &mut Exec) -> usize {
    let mut pos = 0usize;
    loop {
        match frame::check(&rbuf[pos..], proto::MAX_REQ_PAYLOAD) {
            Check::Complete { start, end, next } => {
                let mut trace = ReqTrace::begin(tracing::PROTO_BIN);
                let (id, request) = proto::decode_request(&rbuf[pos + start..pos + end]);
                // Intact frame, bad payload: the stream is still in sync,
                // so the connection survives the error reply.
                let request = match request {
                    Ok(request) => {
                        trace.decoded(end - start);
                        Ok((request, trace))
                    }
                    Err(e) => Err((e.code(), e.message().to_string())),
                };
                answer(state, Id::Frame(id), request, exec);
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
                answer(state, Id::Frame(proto::UNATTRIBUTED_ID), Err(failure), exec);
                state.closing = true;
                return rbuf.len();
            }
        }
    }
}

/// The newline framer: the loop-side twin of the client's line cutter
/// ([`crate::client::Wire::cut`]), over the same per-line rule
/// ([`qdelay_json::line_text`]).
/// Returns the bytes consumed.
fn decode_lines(rbuf: &[u8], state: &mut ConnState, eof: bool, exec: &mut Exec) -> usize {
    let max_line = exec.shared.config.max_line;
    let mut pos = 0usize;
    loop {
        let rest = &rbuf[pos..];
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
            answer(state, Id::Line(None), Err((ERR_LINE_TOO_LONG, message)), exec);
            false
        } else {
            dispatch_line(&rest[..end], state, exec)
        };
        if !in_sync {
            // Nothing after this point in the stream can be trusted: one
            // typed error went out, the rest is dropped unread.
            state.closing = true;
            return rbuf.len();
        }
        pos += next;
    }
}

/// Reads and answers one line. Returns whether the stream is still in
/// sync; a line that is not UTF-8 says the peer is not speaking this
/// protocol, so the connection closes behind its error.
///
/// There is one line path: the flat scan, which reads every line a client
/// of the data plane sends without building a tree, else — for what it
/// declines, a nested `id` or member or anything malformed — the tree
/// parser, which alone words `parse` errors. Both end in the same
/// validation, and `serve.json.tree_lines` counts the second.
fn dispatch_line(line: &[u8], state: &mut ConnState, exec: &mut Exec) -> bool {
    let mut trace = ReqTrace::begin(tracing::PROTO_JSON);
    let text = match qdelay_json::line_text(line) {
        Ok(Some(text)) => text,
        Ok(None) => return true, // blank line: nothing to answer
        Err(_) => {
            answer(state, Id::Line(None), Err((ERR_PARSE, "invalid UTF-8".to_string())), exec);
            return false;
        }
    };
    let (id, request) = match protocol::scan_request(text) {
        Some(scanned) => scanned,
        None => {
            JSON_TREE_LINES.incr();
            match Json::parse(text) {
                Ok(value) => protocol::parse_request(&value),
                Err(e) => {
                    answer(state, Id::Line(None), Err((ERR_PARSE, e.to_string())), exec);
                    return true;
                }
            }
        }
    };
    let request = match request {
        Ok(request) => {
            trace.decoded(line.len());
            Ok((request, trace))
        }
        Err(message) => Err((ERR_BAD_REQUEST, message)),
    };
    answer(state, Id::Line(id), request, exec);
    true
}
