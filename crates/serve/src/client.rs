//! A small blocking client for the wire protocol, used by the tests, the
//! loadgen bench, and scriptable enough for ad-hoc poking.
//!
//! [`Client::call`] is strict request/response. For pipelined load, pair
//! [`Client::send_raw`] with [`Client::read_reply`] and keep a fixed window
//! of requests in flight.
//!
//! ## Timeouts and retries
//!
//! [`Client::set_read_timeout`] bounds how long a reply is awaited; an
//! expired wait surfaces as the typed [`ClientError::Timeout`]. After a
//! timeout the connection is desynchronized (the late reply may still
//! arrive) and must not be reused for request/response traffic — which is
//! why the retry path always reconnects.
//!
//! [`Client::set_retry`] enables bounded exponential-backoff retries for
//! the **idempotent** requests only: `predict`, `admit`, and `stats`
//! re-ask the same question, so replaying them is always safe. `observe`
//! is *never* retried — its ack assigns a sequence number, and a retry
//! after a lost ack could double-count the observation.
//!
//! ## Failover
//!
//! [`Client::connect_any`] (and [`BinClient::connect_any`]) takes a list
//! of addresses — typically a primary and its replicas. The first
//! reachable peer serves; every retry reconnect rotates to the next peer
//! in the list, so with a [`RetryPolicy`] set, the idempotent requests
//! transparently fail over to a surviving replica when the connected
//! server dies. `observe` still never retries, on any peer.
//!
//! ## Binary protocol
//!
//! [`BinClient`] speaks the CRC-framed binary protocol ([`crate::proto`])
//! to a server's `--listen-binary` port. The call surface mirrors
//! [`Client`]; for pipelined load, the `queue_*` methods batch frames
//! into one buffer, [`BinClient::flush`] sends them with a single write,
//! and [`BinClient::read_response`] drains replies in order.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use qdelay_json::{Json, ReadError, Reader};
use qdelay_predict::admission::Decision;

/// An `{"ok":false}` reply, surfaced as a typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// One of the `ERR_*` codes in [`crate::protocol`].
    pub code: String,
    pub message: String,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (or server went away mid-reply).
    Io(io::Error),
    /// No reply arrived within the configured read timeout. The
    /// connection is desynchronized afterwards and must be reconnected.
    Timeout,
    /// The server sent something that is not a valid reply.
    Protocol(String),
    /// The server answered with a typed error.
    Server(ServeError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Timeout => write!(f, "timeout: no reply within the read timeout"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(e) => write!(f, "server error {}: {}", e.code, e.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successful `predict` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    pub partition: String,
    pub n: usize,
    pub seq: u64,
    pub bmbp: Option<f64>,
    pub lognormal: Option<f64>,
}

/// A successful `admit` reply: the partition context the decision was
/// made in, plus the typed decision itself.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitDecision {
    pub partition: String,
    pub n: usize,
    pub seq: u64,
    pub decision: Decision,
}

/// Bounded exponential backoff for idempotent requests.
///
/// Attempt `i` (zero-based) that fails with a transport error or timeout
/// sleeps `initial_backoff * 2^i` (capped at `max_backoff`), reconnects,
/// and tries again, up to `attempts` total attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (values below 1 behave as 1).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (zero-based).
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.initial_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff)
    }
}

/// Resolves a list of addresses into one flat peer list, erroring on an
/// empty input (a client with nowhere to dial is a configuration bug).
fn resolve_peers<A: ToSocketAddrs>(addrs: &[A]) -> io::Result<Vec<SocketAddr>> {
    let mut peers = Vec::new();
    for addr in addrs {
        peers.extend(addr.to_socket_addrs()?);
    }
    if peers.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "no addresses to connect to"));
    }
    Ok(peers)
}

/// Dials `peers` starting at `from`, wrapping; returns the stream and the
/// index that answered.
fn connect_rotating(
    peers: &[SocketAddr],
    from: usize,
    timeout: Option<Duration>,
) -> io::Result<(TcpStream, usize)> {
    let mut last = None;
    for step in 0..peers.len() {
        let index = (from + step) % peers.len();
        match TcpStream::connect(peers[index]) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(timeout)?;
                return Ok((stream, index));
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("peers is non-empty"))
}

/// A blocking connection to a qdelay-serve server.
pub struct Client {
    writer: TcpStream,
    reader: Reader<TcpStream>,
    /// Failover peer set; `peers[active]` is the live connection's target.
    peers: Vec<SocketAddr>,
    active: usize,
    read_timeout: Option<Duration>,
    retry: Option<RetryPolicy>,
}

impl Client {
    /// Connects and disables Nagle (the protocol is request/response).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            writer: stream,
            reader: Reader::new(read_half),
            peers: vec![peer],
            active: 0,
            read_timeout: None,
            retry: None,
        })
    }

    /// Connects to the first reachable peer of a failover list (typically
    /// the primary plus its replicas). The whole list is kept:
    /// [`Client::reconnect`] rotates through it, so idempotent requests
    /// under a [`RetryPolicy`] fail over to surviving peers.
    pub fn connect_any<A: ToSocketAddrs>(addrs: &[A]) -> io::Result<Client> {
        let peers = resolve_peers(addrs)?;
        let (stream, active) = connect_rotating(&peers, 0, None)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            writer: stream,
            reader: Reader::new(read_half),
            peers,
            active,
            read_timeout: None,
            retry: None,
        })
    }

    /// The peer the live connection targets.
    pub fn active_peer(&self) -> SocketAddr {
        self.peers[self.active]
    }

    /// Bounds how long [`Client::read_reply`] waits; `None` (the default)
    /// waits forever. An expired wait surfaces as
    /// [`ClientError::Timeout`], after which the connection must be
    /// reconnected before the next request.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        // SO_RCVTIMEO is a socket-level option shared by the cloned read
        // half, so setting it on the writer stream covers both.
        self.writer.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Enables (or with `None`, disables) automatic retries for the
    /// idempotent requests, [`Client::predict`] and [`Client::stats`].
    /// [`Client::observe`] never retries.
    pub fn set_retry(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// Tears down the current connection and dials again, reapplying the
    /// read timeout. With one peer this redials it; with a failover list
    /// the rotation starts at the *next* peer (the current one just
    /// failed) and takes the first that answers.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let from = if self.peers.len() > 1 { self.active + 1 } else { self.active };
        let (stream, active) = connect_rotating(&self.peers, from, self.read_timeout)?;
        let read_half = stream.try_clone()?;
        self.writer = stream;
        self.reader = Reader::new(read_half);
        self.active = active;
        Ok(())
    }

    /// Writes one raw line (a `\n` is appended). The line is not validated.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Reads the next reply value, whatever its `ok` flag.
    pub fn read_reply(&mut self) -> Result<Json, ClientError> {
        match self.reader.read_value() {
            Ok(Some(v)) => Ok(v),
            Ok(None) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            // Both kinds are platform spellings of an expired SO_RCVTIMEO.
            Err(ReadError::Io(e))
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                Err(ClientError::Timeout)
            }
            Err(ReadError::Io(e)) => Err(ClientError::Io(e)),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }

    /// Sends a request value and returns the reply, converting
    /// `{"ok":false}` into [`ClientError::Server`].
    pub fn call(&mut self, request: &Json) -> Result<Json, ClientError> {
        self.send_raw(&request.to_string_compact())?;
        let reply = self.read_reply()?;
        match reply.get("ok") {
            Some(Json::Bool(true)) => Ok(reply),
            Some(Json::Bool(false)) => Err(ClientError::Server(ServeError {
                code: reply
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: reply
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            })),
            _ => Err(ClientError::Protocol(format!(
                "reply missing 'ok': {}",
                reply.to_string_compact()
            ))),
        }
    }

    /// [`Client::call`] with the retry policy applied. Only transport
    /// failures and timeouts retry (a typed server error would fail again
    /// identically); every retry reconnects first, because after a timeout
    /// or a mid-reply failure the old connection's stream position is
    /// unknown.
    fn call_idempotent(&mut self, request: &Json) -> Result<Json, ClientError> {
        let Some(policy) = self.retry else { return self.call(request) };
        let attempts = policy.attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let err = match self.call(request) {
                Err(e @ (ClientError::Io(_) | ClientError::Timeout)) => e,
                other => return other,
            };
            if attempt + 1 >= attempts {
                return Err(err);
            }
            std::thread::sleep(policy.backoff(attempt));
            attempt += 1;
            // A failed reconnect consumes an attempt and loops: the stale
            // streams below will fail fast, and the next iteration dials
            // again after the grown backoff.
            let _ = self.reconnect();
        }
    }

    fn partition_request(
        method: &str,
        site: &str,
        queue: &str,
        procs: u32,
    ) -> Vec<(String, Json)> {
        vec![
            ("method".into(), Json::Str(method.into())),
            ("site".into(), Json::Str(site.into())),
            ("queue".into(), Json::Str(queue.into())),
            ("procs".into(), Json::Num(f64::from(procs))),
        ]
    }

    /// Reveals a completed wait; returns the per-partition sequence number.
    pub fn observe(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
        wait: f64,
        predicted_bmbp: Option<f64>,
        predicted_lognormal: Option<f64>,
    ) -> Result<u64, ClientError> {
        let mut members = Self::partition_request("observe", site, queue, procs);
        members.push(("wait".into(), Json::Num(wait)));
        if let Some(p) = predicted_bmbp {
            members.push(("predicted_bmbp".into(), Json::Num(p)));
        }
        if let Some(p) = predicted_lognormal {
            members.push(("predicted_lognormal".into(), Json::Num(p)));
        }
        let reply = self.call(&Json::Obj(members))?;
        reply
            .get("seq")
            .and_then(Json::as_usize)
            .map(|s| s as u64)
            .ok_or_else(|| ClientError::Protocol("observe ack missing 'seq'".into()))
    }

    /// Queries the current bounds for a partition.
    pub fn predict(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
    ) -> Result<Prediction, ClientError> {
        let reply = self.call_idempotent(&Json::Obj(Self::partition_request(
            "predict", site, queue, procs,
        )))?;
        let field = |k: &str| reply.get(k).cloned().unwrap_or(Json::Null);
        Ok(Prediction {
            partition: field("partition").as_str().unwrap_or_default().to_string(),
            n: reply
                .get("n")
                .and_then(Json::as_usize)
                .ok_or_else(|| ClientError::Protocol("predict reply missing 'n'".into()))?,
            seq: reply
                .get("seq")
                .and_then(Json::as_usize)
                .ok_or_else(|| ClientError::Protocol("predict reply missing 'seq'".into()))?
                as u64,
            bmbp: field("bmbp").as_f64(),
            lognormal: field("lognormal").as_f64(),
        })
    }

    /// Admission check: compares the partition's current bound against
    /// `budget` (wait-units). Read-only on the server, so it retries like
    /// `predict` when a policy is set.
    pub fn admit(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
        budget: f64,
        confidence: Option<f64>,
    ) -> Result<AdmitDecision, ClientError> {
        let mut members = Self::partition_request("admit", site, queue, procs);
        members.push(("budget".into(), Json::Num(budget)));
        if let Some(c) = confidence {
            members.push(("confidence".into(), Json::Num(c)));
        }
        let reply = self.call_idempotent(&Json::Obj(members))?;
        parse_admit_reply(&reply)
    }

    /// Asks the server to serialize every partition into the reply.
    pub fn snapshot_inline(&mut self) -> Result<Json, ClientError> {
        let reply = self.call(&Json::Obj(vec![(
            "method".into(),
            Json::Str("snapshot".into()),
        )]))?;
        reply
            .get("snapshot")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("snapshot reply missing body".into()))
    }

    /// Asks the server to write a snapshot to a server-side path; returns
    /// the partition count.
    pub fn snapshot_to(&mut self, path: &str) -> Result<usize, ClientError> {
        let reply = self.call(&Json::Obj(vec![
            ("method".into(), Json::Str("snapshot".into())),
            ("path".into(), Json::Str(path.into())),
        ]))?;
        reply
            .get("partitions")
            .and_then(Json::as_usize)
            .ok_or_else(|| ClientError::Protocol("snapshot reply missing count".into()))
    }

    /// Fetches the registry overview + telemetry snapshot.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call_idempotent(&Json::Obj(vec![(
            "method".into(),
            Json::Str("stats".into()),
        )]))
    }

    /// Fetches the live metrics report: uptime, per-second rates over the
    /// sampler's last interval, and a fresh telemetry snapshot.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.call_idempotent(&Json::Obj(vec![(
            "method".into(),
            Json::Str("metrics".into()),
        )]))
    }

    /// Fetches the flight-recorder dump (recent + slow traced requests).
    pub fn trace(&mut self) -> Result<Json, ClientError> {
        self.call_idempotent(&Json::Obj(vec![(
            "method".into(),
            Json::Str("trace".into()),
        )]))
    }

    /// Promotes a replica to primary; returns how many replicated records
    /// it had applied. Errors with `bad_request` on a non-replica. Not
    /// retried: promotion is a one-shot control action, and re-sending it
    /// to a *rotated* peer could promote the wrong server.
    pub fn promote(&mut self) -> Result<u64, ClientError> {
        let reply =
            self.call(&Json::Obj(vec![("method".into(), Json::Str("promote".into()))]))?;
        reply
            .get("applied")
            .and_then(Json::as_usize)
            .map(|n| n as u64)
            .ok_or_else(|| ClientError::Protocol("promote reply missing 'applied'".into()))
    }

    /// Requests graceful shutdown. The acknowledgement is best-effort (the
    /// server may close the socket first), so EOF counts as success.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let req = Json::Obj(vec![("method".into(), Json::Str("shutdown".into()))]);
        self.send_raw(&req.to_string_compact())?;
        match self.read_reply() {
            Ok(_) => Ok(()),
            Err(ClientError::Io(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Parses an `{"ok":true}` admit reply into the typed decision.
fn parse_admit_reply(reply: &Json) -> Result<AdmitDecision, ClientError> {
    let missing = |k: &str| ClientError::Protocol(format!("admit reply missing '{k}'"));
    let num = |k: &str| reply.get(k).and_then(Json::as_f64).ok_or_else(|| missing(k));
    let decision = match reply.get("decision").and_then(Json::as_str) {
        Some("admit") => Decision::Admit { bound: num("bound")?, margin: num("margin")? },
        Some("reject") => Decision::Reject { bound: num("bound")?, margin: num("margin")? },
        Some("defer") => Decision::Defer {
            retry_hint: reply
                .get("retry_hint")
                .and_then(Json::as_usize)
                .ok_or_else(|| missing("retry_hint"))? as u64,
        },
        other => return Err(ClientError::Protocol(format!("bad admit decision {other:?}"))),
    };
    Ok(AdmitDecision {
        partition: reply
            .get("partition")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        n: reply.get("n").and_then(Json::as_usize).ok_or_else(|| missing("n"))?,
        seq: reply.get("seq").and_then(Json::as_usize).ok_or_else(|| missing("seq"))? as u64,
        decision,
    })
}

// ---------------------------------------------------------------------------
// Binary-protocol client.

use crate::proto::{self, BinResponse};
use qdelay_journal::frame::{self, Check};
use std::io::Read;

/// A blocking connection speaking the binary protocol of [`crate::proto`].
///
/// Request ids are assigned from a per-connection counter (starting at 1;
/// id 0 is the server's "unattributed" sentinel) and checked against each
/// reply, so a desynchronized stream is caught instead of mis-paired.
pub struct BinClient {
    stream: TcpStream,
    /// Bytes received but not yet framed out.
    rbuf: Vec<u8>,
    /// Queued request frames awaiting [`BinClient::flush`].
    wbuf: Vec<u8>,
    next_id: u64,
    /// Failover peer set; `peers[active]` is the live connection's target.
    peers: Vec<SocketAddr>,
    active: usize,
    read_timeout: Option<Duration>,
    retry: Option<RetryPolicy>,
}

impl BinClient {
    /// Connects and disables Nagle (the protocol is request/response).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<BinClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(BinClient {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            next_id: 1,
            peers: vec![peer],
            active: 0,
            read_timeout: None,
            retry: None,
        })
    }

    /// Connects to the first reachable peer of a failover list; see
    /// [`Client::connect_any`] for the rotation contract.
    pub fn connect_any<A: ToSocketAddrs>(addrs: &[A]) -> io::Result<BinClient> {
        let peers = resolve_peers(addrs)?;
        let (stream, active) = connect_rotating(&peers, 0, None)?;
        Ok(BinClient {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            next_id: 1,
            peers,
            active,
            read_timeout: None,
            retry: None,
        })
    }

    /// The peer the live connection targets.
    pub fn active_peer(&self) -> SocketAddr {
        self.peers[self.active]
    }

    /// Bounds how long [`BinClient::read_response`] waits for more bytes.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        self.stream.set_read_timeout(timeout)
    }

    /// Enables (or clears) the retry policy for the idempotent requests:
    /// `predict`, `admit`, `stats`, `metrics`, and `trace`. `observe` is
    /// never retried — its ack assigns a sequence number.
    pub fn set_retry(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// Tears down the current connection and dials again, rotating to the
    /// next peer when a failover list was given (the current peer just
    /// failed). Half-queued frames and half-read reply bytes are dropped —
    /// their stream is gone.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let from = if self.peers.len() > 1 { self.active + 1 } else { self.active };
        let (stream, active) = connect_rotating(&self.peers, from, self.read_timeout)?;
        self.stream = stream;
        self.active = active;
        self.rbuf.clear();
        self.wbuf.clear();
        Ok(())
    }

    /// Runs `op` under the retry policy: only transport failures and
    /// timeouts retry, and every retry reconnects (rotating peers) first
    /// because the old stream's position is unknown. Mirrors
    /// [`Client::call_idempotent`].
    fn idempotent<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let Some(policy) = self.retry else { return op(self) };
        let attempts = policy.attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let err = match op(self) {
                Err(e @ (ClientError::Io(_) | ClientError::Timeout)) => e,
                other => return other,
            };
            if attempt + 1 >= attempts {
                return Err(err);
            }
            std::thread::sleep(policy.backoff(attempt));
            attempt += 1;
            // A failed reconnect consumes an attempt and loops, like the
            // JSON client: the dead stream fails fast and the next
            // iteration dials again after the grown backoff.
            let _ = self.reconnect();
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Queues one `observe` frame; returns its request id.
    #[allow(clippy::too_many_arguments)]
    pub fn queue_observe(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
        wait: f64,
        predicted_bmbp: Option<f64>,
        predicted_lognormal: Option<f64>,
    ) -> u64 {
        let id = self.fresh_id();
        proto::encode_observe_req(
            &mut self.wbuf,
            id,
            site,
            queue,
            procs,
            wait,
            predicted_bmbp,
            predicted_lognormal,
        );
        id
    }

    /// Queues one `predict` frame; returns its request id.
    pub fn queue_predict(&mut self, site: &str, queue: &str, procs: u32) -> u64 {
        let id = self.fresh_id();
        proto::encode_predict_req(&mut self.wbuf, id, site, queue, procs);
        id
    }

    /// Queues one `admit` frame; returns its request id.
    pub fn queue_admit(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
        budget: f64,
        confidence: Option<f64>,
    ) -> u64 {
        let id = self.fresh_id();
        proto::encode_admit_req(&mut self.wbuf, id, site, queue, procs, budget, confidence);
        id
    }

    /// Sends every queued frame with one write.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Appends raw bytes to the outgoing buffer, bypassing the frame
    /// encoders. For protocol tests that need to send damaged frames.
    pub fn queue_raw(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Reads the next response frame, in server order.
    pub fn read_response(&mut self) -> Result<(u64, BinResponse), ClientError> {
        loop {
            match frame::check(&self.rbuf, proto::MAX_RESP_PAYLOAD) {
                Check::Complete { start, end, next } => {
                    let decoded = proto::decode_response(&self.rbuf[start..end])
                        .map_err(ClientError::Protocol);
                    self.rbuf.drain(..next);
                    return decoded;
                }
                Check::Damaged(reason) => {
                    return Err(ClientError::Protocol(format!("response frame: {reason}")));
                }
                Check::Incomplete => {
                    let mut chunk = [0u8; 16 * 1024];
                    let n = match self.stream.read(&mut chunk) {
                        Ok(n) => n,
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ) =>
                        {
                            return Err(ClientError::Timeout)
                        }
                        Err(e) => return Err(ClientError::Io(e)),
                    };
                    if n == 0 {
                        return Err(ClientError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        )));
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }

    /// Strict request/response: the queued frame is flushed and its reply
    /// awaited, with the id checked and `Error` responses surfaced as
    /// [`ClientError::Server`].
    fn finish_call(&mut self, id: u64) -> Result<BinResponse, ClientError> {
        self.flush()?;
        let (got, resp) = self.read_response()?;
        if got != id {
            return Err(ClientError::Protocol(format!(
                "reply id {got} does not match request id {id}"
            )));
        }
        match resp {
            BinResponse::Error { code, message } => {
                Err(ClientError::Server(ServeError { code, message }))
            }
            other => Ok(other),
        }
    }

    /// Reveals a completed wait; returns the per-partition sequence number.
    pub fn observe(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
        wait: f64,
        predicted_bmbp: Option<f64>,
        predicted_lognormal: Option<f64>,
    ) -> Result<u64, ClientError> {
        let id = self.queue_observe(site, queue, procs, wait, predicted_bmbp, predicted_lognormal);
        match self.finish_call(id)? {
            BinResponse::Observe { seq, .. } => Ok(seq),
            other => Err(ClientError::Protocol(format!("unexpected observe reply: {other:?}"))),
        }
    }

    /// Queries the current bounds for a partition.
    pub fn predict(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
    ) -> Result<Prediction, ClientError> {
        self.idempotent(|c| {
            let id = c.queue_predict(site, queue, procs);
            match c.finish_call(id)? {
                BinResponse::Predict { partition, n, seq, bmbp, lognormal } => Ok(Prediction {
                    partition,
                    n: n as usize,
                    seq,
                    bmbp,
                    lognormal,
                }),
                other => {
                    Err(ClientError::Protocol(format!("unexpected predict reply: {other:?}")))
                }
            }
        })
    }

    /// Admission check: compares the partition's current bound against
    /// `budget` (wait-units).
    pub fn admit(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
        budget: f64,
        confidence: Option<f64>,
    ) -> Result<AdmitDecision, ClientError> {
        self.idempotent(|c| {
            let id = c.queue_admit(site, queue, procs, budget, confidence);
            match c.finish_call(id)? {
                BinResponse::Admit { partition, n, seq, decision } => Ok(AdmitDecision {
                    partition,
                    n: n as usize,
                    seq,
                    decision,
                }),
                other => Err(ClientError::Protocol(format!("unexpected admit reply: {other:?}"))),
            }
        })
    }

    /// Asks the server to serialize every partition into the reply. The
    /// document is the same snapshot JSON the text protocol serves.
    pub fn snapshot_inline(&mut self) -> Result<Json, ClientError> {
        let id = self.fresh_id();
        proto::encode_snapshot_req(&mut self.wbuf, id, None);
        match self.finish_call(id)? {
            BinResponse::Snapshot { json: Some(doc), .. } => Json::parse(&doc)
                .map_err(|e| ClientError::Protocol(format!("snapshot body: {e}"))),
            other => Err(ClientError::Protocol(format!("unexpected snapshot reply: {other:?}"))),
        }
    }

    /// Asks the server to write a snapshot to a server-side path; returns
    /// the partition count.
    pub fn snapshot_to(&mut self, path: &str) -> Result<usize, ClientError> {
        let id = self.fresh_id();
        proto::encode_snapshot_req(&mut self.wbuf, id, Some(path));
        match self.finish_call(id)? {
            BinResponse::Snapshot { json: None, partitions, .. } => Ok(partitions as usize),
            other => Err(ClientError::Protocol(format!("unexpected snapshot reply: {other:?}"))),
        }
    }

    /// Fetches the registry overview + telemetry snapshot.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.idempotent(|c| {
            let id = c.fresh_id();
            proto::encode_stats_req(&mut c.wbuf, id);
            match c.finish_call(id)? {
                BinResponse::Stats { json } => Json::parse(&json)
                    .map_err(|e| ClientError::Protocol(format!("stats body: {e}"))),
                other => Err(ClientError::Protocol(format!("unexpected stats reply: {other:?}"))),
            }
        })
    }

    /// Fetches the live metrics report; same document as the JSON
    /// protocol's `metrics` method minus its `ok` envelope.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.idempotent(|c| {
            let id = c.fresh_id();
            proto::encode_metrics_req(&mut c.wbuf, id);
            match c.finish_call(id)? {
                BinResponse::Metrics { json } => Json::parse(&json)
                    .map_err(|e| ClientError::Protocol(format!("metrics body: {e}"))),
                other => {
                    Err(ClientError::Protocol(format!("unexpected metrics reply: {other:?}")))
                }
            }
        })
    }

    /// Fetches the flight-recorder dump (recent + slow traced requests).
    pub fn trace(&mut self) -> Result<Json, ClientError> {
        self.idempotent(|c| {
            let id = c.fresh_id();
            proto::encode_trace_req(&mut c.wbuf, id);
            match c.finish_call(id)? {
                BinResponse::Trace { json } => Json::parse(&json)
                    .map_err(|e| ClientError::Protocol(format!("trace body: {e}"))),
                other => Err(ClientError::Protocol(format!("unexpected trace reply: {other:?}"))),
            }
        })
    }

    /// Promotes a replica to primary; see [`Client::promote`] (same typed
    /// errors, and likewise never retried).
    pub fn promote(&mut self) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        proto::encode_promote_req(&mut self.wbuf, id);
        match self.finish_call(id)? {
            BinResponse::Promote { applied } => Ok(applied),
            other => Err(ClientError::Protocol(format!("unexpected promote reply: {other:?}"))),
        }
    }

    /// Requests graceful shutdown. The acknowledgement is best-effort (the
    /// server may close the socket first), so EOF counts as success.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        proto::encode_shutdown_req(&mut self.wbuf, id);
        self.flush()?;
        match self.read_response() {
            Ok(_) => Ok(()),
            Err(ClientError::Io(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = ClientError::Server(ServeError {
            code: crate::protocol::ERR_BACKPRESSURE.into(),
            message: "queue full".into(),
        });
        assert!(e.to_string().contains("backpressure"));
        assert!(ClientError::Protocol("x".into()).to_string().contains("x"));
        assert!(ClientError::Timeout.to_string().contains("timeout"));
    }

    #[test]
    fn backoff_grows_and_saturates() {
        let p = RetryPolicy {
            attempts: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(120),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(80));
        assert_eq!(p.backoff(4), Duration::from_millis(120), "cap applies");
        assert_eq!(p.backoff(63), Duration::from_millis(120), "shift overflow saturates");
    }

    #[test]
    fn connect_any_skips_dead_peers() {
        let live = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let live_addr = live.local_addr().unwrap();
        // Bind then drop: the port now refuses connections.
        let dead_addr =
            std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let client = Client::connect_any(&[dead_addr, live_addr]).unwrap();
        assert_eq!(client.active_peer(), live_addr);
    }

    #[test]
    fn reconnect_rotates_through_the_peer_list() {
        let a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = [a.local_addr().unwrap(), b.local_addr().unwrap()];
        let mut client = Client::connect_any(&addrs).unwrap();
        assert_eq!(client.active_peer(), addrs[0]);
        client.reconnect().unwrap();
        assert_eq!(client.active_peer(), addrs[1], "rotation starts past the failed peer");
        client.reconnect().unwrap();
        assert_eq!(client.active_peer(), addrs[0], "and wraps");
    }

    #[test]
    fn empty_peer_list_is_a_config_error() {
        let err = Client::connect_any::<&str>(&[]).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = BinClient::connect_any::<&str>(&[]).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn bin_client_rotates_and_drops_stale_buffers() {
        let a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = [a.local_addr().unwrap(), b.local_addr().unwrap()];
        let mut client = BinClient::connect_any(&addrs).unwrap();
        assert_eq!(client.active_peer(), addrs[0]);
        client.queue_raw(b"half a frame");
        client.reconnect().unwrap();
        assert_eq!(client.active_peer(), addrs[1]);
        assert!(client.wbuf.is_empty(), "stale queued frames must not replay");
        assert!(client.rbuf.is_empty());
    }
}
