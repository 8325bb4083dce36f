//! The blocking client: one [`Client`] type over both wire codecs, used by
//! the CLI, the tests and the bench drivers, and scriptable enough for
//! ad-hoc poking.
//!
//! ## One client, two wires
//!
//! A connection speaks one [`Wire`] for its whole life, fixed by the
//! constructor and by nothing else: [`Client::connect`] /
//! [`Client::connect_any`] dial a server's JSON-lines port (`--listen`),
//! [`Client::connect_binary`] / [`Client::connect_any_binary`] its
//! CRC-framed binary port (`--listen-binary`). Everything after the
//! constructor is the same code on both: an operation builds a
//! [`Request`], [`Wire::encode`] writes it in the connection's codec,
//! [`Wire::cut`] takes one reply off the receive buffer and decodes it
//! into the one typed [`BinResponse`], and the typed call checks the id and
//! turns an `Error` reply into [`ClientError::Server`]. The same question
//! gets the same answer on either wire, bit for bit.
//!
//! Every typed method is strict request/response. For pipelined load, the
//! `queue_*` methods batch encoded requests into one buffer,
//! [`Client::flush`] sends them with a single write, and
//! [`Client::read_response`] drains the replies, which arrive in request
//! order.
//!
//! ## Ids
//!
//! Requests carry a per-connection id counting up from 1 (0 is the
//! server's "unattributed" sentinel, and what a JSON reply without an id
//! reads as), and every typed call checks the id its reply echoes: a
//! mismatch is [`ClientError::Protocol`], never another question's answer.
//!
//! ## Timeouts and retries
//!
//! [`Client::set_read_timeout`] bounds how long a reply is awaited; an
//! expired wait surfaces as the typed [`ClientError::Timeout`]. After a
//! timeout the connection is out of step (the late reply may still arrive;
//! the id check refuses it) and must be reconnected before the next
//! request — which is why the retry path always reconnects.
//!
//! [`Client::set_retry`] enables bounded exponential-backoff retries for
//! the **idempotent** requests only: `predict`, `admit`, `stats`,
//! `metrics` and `trace` re-ask the same question, so replaying them is
//! always safe. `observe` is *never* retried — its ack assigns a sequence
//! number, and a retry after a lost ack could double-count the
//! observation — and neither is `promote`.
//!
//! ## Failover
//!
//! The `connect_any` constructors take a list of addresses — typically a
//! primary and its replicas. The first reachable peer serves; every retry
//! reconnect rotates to the next peer in the list, so with a
//! [`RetryPolicy`] set, the idempotent requests transparently fail over to
//! a surviving replica when the connected server dies. `observe` still
//! never retries, on any peer.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{self, BinResponse};
use crate::protocol::{self, Request};
use qdelay_journal::frame::{self, Check};
use qdelay_json::{Json, DEFAULT_MAX_LINE};
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

/// The codec a connection speaks, client side: the mirror of the server's
/// two framers (JSON lines on `--listen`, CRC frames on `--listen-binary`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Json,
    Bin,
}

/// The typed requests a JSON connection has sent and not yet read the reply
/// to, oldest first, as `(id, method)`: a JSON success reply carries no kind
/// tag, so it is decoded by the method of the request whose id it echoes.
pub type Pending = VecDeque<(u64, &'static str)>;

impl Wire {
    /// Appends one encoded request to `out` (and, on the JSON wire, its
    /// method to `pending`).
    pub fn encode(self, out: &mut Vec<u8>, pending: &mut Pending, id: u64, request: &Request) {
        match self {
            Wire::Json => {
                out.extend_from_slice(protocol::request_line(id, request).as_bytes());
                out.push(b'\n');
                pending.push_back((id, request.method()));
            }
            Wire::Bin => proto::encode_request(out, id, request),
        }
    }

    /// Cuts one complete reply off the front of `buf` and decodes it into
    /// `(id, response)`; `Ok(None)` when `buf` holds no complete reply yet.
    /// A reply past the codec's size cap, a damaged frame or a line that is
    /// not exactly one JSON value is an error, and the stream is lost.
    pub fn cut(
        self,
        buf: &mut Vec<u8>,
        pending: &mut Pending,
    ) -> Result<Option<(u64, BinResponse)>, String> {
        match self {
            Wire::Bin => match frame::check(buf, proto::MAX_RESP_PAYLOAD) {
                Check::Complete { start, end, next } => {
                    let decoded = proto::decode_response(&buf[start..end]);
                    buf.drain(..next);
                    decoded.map(Some)
                }
                Check::Damaged(reason) => Err(format!("response frame: {reason}")),
                Check::Incomplete => Ok(None),
            },
            Wire::Json => loop {
                let newline = buf.iter().position(|&b| b == b'\n');
                if newline.unwrap_or(buf.len()) > DEFAULT_MAX_LINE {
                    return Err(format!("reply line exceeds {DEFAULT_MAX_LINE} bytes"));
                }
                let Some(newline) = newline else { return Ok(None) };
                let parsed = qdelay_json::parse_line(&buf[..newline]);
                buf.drain(..=newline);
                let Some(v) = parsed.map_err(|e| e.to_string())? else { continue };
                let id = protocol::reply_id(&v)?;
                let method = match pending.front() {
                    Some(&(sent, method)) if sent == id => {
                        pending.pop_front();
                        Some(method)
                    }
                    _ => None,
                };
                return protocol::decode_reply(&v, method).map(|resp| Some((id, resp)));
            },
        }
    }
}

/// A blocking connection to a qdelay-serve server, on either wire.
pub struct Client {
    stream: TcpStream,
    wire: Wire,
    /// Bytes received but not yet cut into replies.
    rbuf: Vec<u8>,
    /// Encoded requests awaiting [`Client::flush`].
    wbuf: Vec<u8>,
    pending: Pending,
    next_id: u64,
    /// Failover peer set; `peers[active]` is the live connection's target.
    peers: Vec<SocketAddr>,
    active: usize,
    read_timeout: Option<Duration>,
    retry: Option<RetryPolicy>,
}

impl Client {
    /// Connects to a server's JSON-lines port and disables Nagle (the
    /// protocol is request/response).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::open(&[addr], Wire::Json)
    }

    /// Connects to a server's binary port.
    pub fn connect_binary<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::open(&[addr], Wire::Bin)
    }

    /// Connects to the first reachable JSON-lines port of a failover list
    /// (typically the primary plus its replicas). The whole list is kept:
    /// [`Client::reconnect`] rotates through it, so idempotent requests
    /// under a [`RetryPolicy`] fail over to surviving peers.
    pub fn connect_any<A: ToSocketAddrs>(addrs: &[A]) -> io::Result<Client> {
        Self::open(addrs, Wire::Json)
    }

    /// [`Client::connect_any`] over a list of binary ports.
    pub fn connect_any_binary<A: ToSocketAddrs>(addrs: &[A]) -> io::Result<Client> {
        Self::open(addrs, Wire::Bin)
    }

    fn open<A: ToSocketAddrs>(addrs: &[A], wire: Wire) -> io::Result<Client> {
        let peers = resolve_peers(addrs)?;
        let (stream, active) = connect_rotating(&peers, 0, None)?;
        Ok(Client {
            stream,
            wire,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            pending: Pending::new(),
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

    /// Bounds how long [`Client::read_response`] waits for more bytes;
    /// `None` (the default) waits forever. An expired wait surfaces as
    /// [`ClientError::Timeout`], after which the connection must be
    /// reconnected before the next request.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        self.stream.set_read_timeout(timeout)
    }

    /// Enables (or with `None`, disables) automatic retries for the
    /// idempotent requests: [`Client::predict`], [`Client::admit`],
    /// [`Client::stats`], [`Client::metrics`] and [`Client::trace`].
    /// [`Client::observe`] never retries — its ack assigns a sequence
    /// number — and neither does [`Client::promote`].
    pub fn set_retry(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// Tears down the current connection and dials again, reapplying the
    /// read timeout. With one peer this redials it; with a failover list
    /// the rotation starts at the *next* peer (the current one just
    /// failed) and takes the first that answers. Queued requests and
    /// half-read reply bytes are dropped — their stream is gone.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let from = if self.peers.len() > 1 { self.active + 1 } else { self.active };
        let (stream, active) = connect_rotating(&self.peers, from, self.read_timeout)?;
        self.stream = stream;
        self.active = active;
        self.rbuf.clear();
        self.wbuf.clear();
        self.pending.clear();
        Ok(())
    }

    /// Queues one request under a fresh id, which it returns.
    fn queue(&mut self, request: &Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.wire.encode(&mut self.wbuf, &mut self.pending, id, request);
        id
    }

    /// Queues one `observe`; returns its request id.
    pub fn queue_observe(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
        wait: f64,
        predicted_bmbp: Option<f64>,
        predicted_lognormal: Option<f64>,
    ) -> u64 {
        self.queue(&Request::Observe {
            site: site.into(),
            queue: queue.into(),
            procs,
            wait,
            predicted_bmbp,
            predicted_lognormal,
        })
    }

    /// Queues one `predict`; returns its request id.
    pub fn queue_predict(&mut self, site: &str, queue: &str, procs: u32) -> u64 {
        self.queue(&Request::Predict { site: site.into(), queue: queue.into(), procs })
    }

    /// Queues one `admit`; returns its request id.
    pub fn queue_admit(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
        budget: f64,
        confidence: Option<f64>,
    ) -> u64 {
        self.queue(&Request::Admit {
            site: site.into(),
            queue: queue.into(),
            procs,
            budget,
            confidence,
        })
    }

    /// Appends raw bytes to the outgoing buffer, bypassing the encoders (on
    /// the JSON wire, a line needs its `\n`). For protocol tests that send
    /// damaged requests: the reply to one decodes only if it is an error.
    pub fn queue_raw(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Sends everything queued with one write.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Reads the next reply, in server order, whatever its id or kind.
    pub fn read_response(&mut self) -> Result<(u64, BinResponse), ClientError> {
        loop {
            let cut = self.wire.cut(&mut self.rbuf, &mut self.pending);
            if let Some(reply) = cut.map_err(ClientError::Protocol)? {
                return Ok(reply);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Both kinds are platform spellings of an expired SO_RCVTIMEO.
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Err(ClientError::Timeout)
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// One strict request/response exchange: the request goes out under a
    /// fresh id, the next reply must echo that id, and an `Error` reply
    /// becomes [`ClientError::Server`].
    fn exchange(&mut self, request: &Request) -> Result<BinResponse, ClientError> {
        let id = self.queue(request);
        self.flush()?;
        match self.read_response()? {
            (got, _) if got != id => Err(ClientError::Protocol(format!(
                "reply id {got} does not match request id {id}"
            ))),
            (_, BinResponse::Error { code, message }) => {
                Err(ClientError::Server(ServeError { code, message }))
            }
            (_, response) => Ok(response),
        }
    }

    /// [`Client::exchange`], under the retry policy when the request is
    /// idempotent. Only transport failures and timeouts retry (a typed
    /// server error would fail again identically); every retry reconnects
    /// first, rotating peers, because after a timeout or a mid-reply
    /// failure the old connection's stream position is unknown.
    fn call(&mut self, request: &Request) -> Result<BinResponse, ClientError> {
        let idempotent = matches!(
            request,
            Request::Predict { .. }
                | Request::Admit { .. }
                | Request::Stats
                | Request::Metrics
                | Request::Trace
        );
        let Some(policy) = self.retry.filter(|_| idempotent) else {
            return self.exchange(request);
        };
        let attempts = policy.attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let err = match self.exchange(request) {
                Err(e @ (ClientError::Io(_) | ClientError::Timeout)) => e,
                other => return other,
            };
            if attempt + 1 >= attempts {
                return Err(err);
            }
            std::thread::sleep(policy.backoff(attempt));
            attempt += 1;
            // A failed reconnect consumes an attempt and loops: the stale
            // stream fails fast, and the next iteration dials again after
            // the grown backoff.
            let _ = self.reconnect();
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
        let request = Request::Observe {
            site: site.into(),
            queue: queue.into(),
            procs,
            wait,
            predicted_bmbp,
            predicted_lognormal,
        };
        match self.call(&request)? {
            BinResponse::Observe { seq, .. } => Ok(seq),
            other => Err(unexpected(&request, other)),
        }
    }

    /// Queries the current bounds for a partition.
    pub fn predict(
        &mut self,
        site: &str,
        queue: &str,
        procs: u32,
    ) -> Result<Prediction, ClientError> {
        let request = Request::Predict { site: site.into(), queue: queue.into(), procs };
        match self.call(&request)? {
            BinResponse::Predict { partition, n, seq, bmbp, lognormal } => {
                Ok(Prediction { partition, n: n as usize, seq, bmbp, lognormal })
            }
            other => Err(unexpected(&request, other)),
        }
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
        let request =
            Request::Admit { site: site.into(), queue: queue.into(), procs, budget, confidence };
        match self.call(&request)? {
            BinResponse::Admit { partition, n, seq, decision } => {
                Ok(AdmitDecision { partition, n: n as usize, seq, decision })
            }
            other => Err(unexpected(&request, other)),
        }
    }

    /// Asks the server to write a snapshot file to `path` on its side, or
    /// to its configured snapshot path; returns the partition count.
    pub fn snapshot(&mut self, path: Option<&str>) -> Result<usize, ClientError> {
        let request = Request::Snapshot { path: path.map(str::to_string) };
        match self.call(&request)? {
            BinResponse::Snapshot { partitions, .. } => Ok(partitions as usize),
            other => Err(unexpected(&request, other)),
        }
    }

    /// Fetches the registry overview + telemetry snapshot: the document's
    /// members, without the JSON wire's `ok`/`id` envelope.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        match self.call(&Request::Stats)? {
            BinResponse::Stats { json } => document(&json),
            other => Err(unexpected(&Request::Stats, other)),
        }
    }

    /// Fetches the live metrics report: uptime, per-second rates over the
    /// sampler's last interval, and a fresh telemetry snapshot.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        match self.call(&Request::Metrics)? {
            BinResponse::Metrics { json } => document(&json),
            other => Err(unexpected(&Request::Metrics, other)),
        }
    }

    /// Fetches the flight-recorder dump (recent + slow traced requests).
    pub fn trace(&mut self) -> Result<Json, ClientError> {
        match self.call(&Request::Trace)? {
            BinResponse::Trace { json } => document(&json),
            other => Err(unexpected(&Request::Trace, other)),
        }
    }

    /// Promotes a replica to primary; returns how many replicated records
    /// it had applied. Errors with `bad_request` on a non-replica. Not
    /// retried: promotion is a one-shot control action, and re-sending it
    /// to a *rotated* peer could promote the wrong server.
    pub fn promote(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Promote)? {
            BinResponse::Promote { applied } => Ok(applied),
            other => Err(unexpected(&Request::Promote, other)),
        }
    }

    /// Requests graceful shutdown. The acknowledgement is best-effort (the
    /// server may close the socket first), so EOF counts as success.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown) {
            Ok(_) | Err(ClientError::Io(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

fn unexpected(request: &Request, got: BinResponse) -> ClientError {
    ClientError::Protocol(format!("unexpected {} reply: {got:?}", request.method()))
}

/// Parses the JSON document a `stats`/`metrics`/`trace` reply
/// carries as text.
fn document(text: &str) -> Result<Json, ClientError> {
    Json::parse(text).map_err(|e| ClientError::Protocol(format!("reply document: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = ClientError::Server(ServeError {
            code: crate::protocol::ERR_IO.into(),
            message: "disk full".into(),
        });
        assert_eq!(e.to_string(), "server error io: disk full");
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
        let err = Client::connect_any_binary::<&str>(&[]).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn bin_client_rotates_and_drops_stale_buffers() {
        let a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = [a.local_addr().unwrap(), b.local_addr().unwrap()];
        // Less than a frame prefix, and a line without its newline.
        let half_replies = [(Wire::Bin, &b"half"[..]), (Wire::Json, &b"{\"id\":1,\"ok\""[..])];
        for (wire, half_reply) in half_replies {
            let mut client = Client::open(&addrs, wire).unwrap();
            assert_eq!(client.active_peer(), addrs[0]);
            client.queue_predict("s", "q", 1);
            client.queue_raw(b"half a request");
            // A reply the first peer got half way through sending.
            let (mut peer, _) = a.accept().unwrap();
            peer.write_all(half_reply).unwrap();
            drop(peer);
            assert!(matches!(client.read_response(), Err(ClientError::Io(_))));
            assert_eq!(client.rbuf, half_reply);
            client.reconnect().unwrap();
            assert_eq!(client.active_peer(), addrs[1]);
            assert!(client.wbuf.is_empty(), "{wire:?}: stale queued requests must not replay");
            assert!(client.rbuf.is_empty(), "{wire:?}: a half-read reply must not survive");
            assert!(client.pending.is_empty());
        }
    }

    #[test]
    fn replies_past_the_size_cap_are_refused() {
        let mut pending = Pending::new();
        // A line still growing past the cap, then the same line arrived whole.
        let mut line = vec![b' '; DEFAULT_MAX_LINE + 1];
        assert!(Wire::Json.cut(&mut line.clone(), &mut pending).unwrap_err().contains("exceeds"));
        line.push(b'\n');
        assert!(Wire::Json.cut(&mut line, &mut pending).unwrap_err().contains("exceeds"));
        // At the cap exactly it is still a reply.
        let mut line = br#"{"ok":false,"error":"io","message":"disk"}"#.to_vec();
        line.resize(DEFAULT_MAX_LINE, b' ');
        line.push(b'\n');
        let reply = Wire::Json.cut(&mut line, &mut pending).unwrap();
        let want = BinResponse::Error { code: "io".into(), message: "disk".into() };
        assert_eq!(reply, Some((0, want)));
        assert!(line.is_empty(), "the reply was cut off the buffer");
        // A frame prefix announcing more than the largest response payload.
        let mut prefix = (proto::MAX_RESP_PAYLOAD + 1).to_le_bytes().to_vec();
        prefix.extend_from_slice(&[0; 4]);
        assert!(Wire::Bin.cut(&mut prefix, &mut pending).unwrap_err().contains("response frame"));
    }
}
