//! The generator's two wire drivers: a blocking socket plus the repo's
//! public codecs (`proto::encode_*_req` / `frame::check` /
//! `proto::decode_response` for binary, a formatted line / `Json::parse`
//! for JSON lines). They live here rather than going through
//! `qdelay_serve::client` so that each stage of a request — encode, flush,
//! await, decode — can carry its own span, and so that a client-side change
//! in the repo cannot pass for a server gain.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qdelay_journal::frame::{self, Check};
use qdelay_json::Json;
use qdelay_predict::admission::Decision;
use qdelay_serve::proto::{self, BinResponse};

use crate::gen::PartitionSpec;

/// How long a reply may take before the request counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Proto {
    Bin,
    Json,
}

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Observe {
        wait: f64,
        bmbp: Option<f64>,
        lognormal: Option<f64>,
    },
    Predict,
    Admit {
        budget: f64,
    },
}

impl Op {
    pub fn name(&self) -> &'static str {
        match self {
            Op::Observe { .. } => "observe",
            Op::Predict => "predict",
            Op::Admit { .. } => "admit",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Observe {
        seq: u64,
    },
    Predict {
        n: u64,
        seq: u64,
        bmbp: Option<f64>,
        lognormal: Option<f64>,
    },
    Admit {
        n: u64,
        seq: u64,
        decision: Decision,
    },
    /// A typed error reply (`backpressure` is the server's reject).
    Error {
        code: String,
    },
}

/// Why no reply could be read. After any of these the stream position is
/// unknown and the connection is abandoned.
#[derive(Debug)]
pub enum RecvError {
    Timeout,
    Io(io::Error),
    Protocol(String),
}

/// Nanoseconds the last `recv` spent blocked in `read` versus checking and
/// decoding; only measured when the connection is traced.
#[derive(Clone, Copy, Default)]
pub struct RecvSplit {
    pub await_ns: u64,
    pub decode_ns: u64,
}

pub struct Conn {
    proto: Proto,
    stream: TcpStream,
    /// JSON side: buffered reader over a clone of `stream`.
    lines: BufReader<TcpStream>,
    line: Vec<u8>,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    text: String,
    /// Take the four extra clock reads per `recv` that split await from
    /// decode. Off in untraced runs.
    pub traced: bool,
    pub split: RecvSplit,
}

impl Conn {
    pub fn connect(proto: Proto, addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let lines = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn {
            proto,
            stream,
            lines,
            line: Vec::new(),
            rbuf: Vec::with_capacity(64 * 1024),
            rpos: 0,
            wbuf: Vec::with_capacity(16 * 1024),
            text: String::new(),
            traced: false,
            split: RecvSplit::default(),
        })
    }

    /// Encodes one request into the outgoing buffer.
    pub fn queue(&mut self, id: u64, p: &PartitionSpec, op: &Op) {
        match self.proto {
            Proto::Bin => bin_request_frame(&mut self.wbuf, id, p, op),
            Proto::Json => {
                self.text.clear();
                json_request_line(&mut self.text, id, p, op);
                self.wbuf.extend_from_slice(self.text.as_bytes());
            }
        }
    }

    /// Sends everything queued with one write.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Blocks for the next reply, in server order.
    pub fn recv(&mut self) -> Result<(u64, Reply), RecvError> {
        self.split = RecvSplit::default();
        match self.proto {
            Proto::Bin => self.recv_bin(),
            Proto::Json => self.recv_json(),
        }
    }

    fn recv_bin(&mut self) -> Result<(u64, Reply), RecvError> {
        loop {
            let t = self.traced.then(Instant::now);
            let checked = frame::check(&self.rbuf[self.rpos..], proto::MAX_RESP_PAYLOAD);
            match checked {
                Check::Complete { start, end, next } => {
                    let payload = &self.rbuf[self.rpos + start..self.rpos + end];
                    let decoded = proto::decode_response(payload).map_err(RecvError::Protocol);
                    self.rpos += next;
                    if self.rpos == self.rbuf.len() {
                        self.rbuf.clear();
                        self.rpos = 0;
                    }
                    let out = decoded.and_then(|(id, resp)| {
                        Ok((id, reply_from_bin(resp).map_err(RecvError::Protocol)?))
                    });
                    if let Some(t) = t {
                        self.split.decode_ns += t.elapsed().as_nanos() as u64;
                    }
                    return out;
                }
                Check::Damaged(why) => {
                    return Err(RecvError::Protocol(format!("response frame: {why}")))
                }
                Check::Incomplete => {
                    let t = self.traced.then(Instant::now);
                    let mut chunk = [0u8; 16 * 1024];
                    let n = self.stream.read(&mut chunk).map_err(read_error)?;
                    if let Some(t) = t {
                        self.split.await_ns += t.elapsed().as_nanos() as u64;
                    }
                    if n == 0 {
                        return Err(RecvError::Io(io::ErrorKind::UnexpectedEof.into()));
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }

    fn recv_json(&mut self) -> Result<(u64, Reply), RecvError> {
        self.line.clear();
        let t = self.traced.then(Instant::now);
        let n = self
            .lines
            .read_until(b'\n', &mut self.line)
            .map_err(read_error)?;
        if let Some(t) = t {
            self.split.await_ns = t.elapsed().as_nanos() as u64;
        }
        if n == 0 || self.line.last() != Some(&b'\n') {
            return Err(RecvError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        let t = self.traced.then(Instant::now);
        let text = std::str::from_utf8(&self.line)
            .map_err(|e| RecvError::Protocol(format!("reply is not UTF-8: {e}")))?;
        let v = Json::parse(text.trim_end())
            .map_err(|e| RecvError::Protocol(format!("reply is not JSON: {e}")))?;
        let out = reply_from_json(&v).map_err(RecvError::Protocol);
        if let Some(t) = t {
            self.split.decode_ns = t.elapsed().as_nanos() as u64;
        }
        out
    }
}

fn read_error(e: io::Error) -> RecvError {
    // Both kinds are platform spellings of an expired SO_RCVTIMEO.
    if matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    ) {
        RecvError::Timeout
    } else {
        RecvError::Io(e)
    }
}

/// Appends one framed binary request.
pub fn bin_request_frame(out: &mut Vec<u8>, id: u64, p: &PartitionSpec, op: &Op) {
    match *op {
        Op::Observe {
            wait,
            bmbp,
            lognormal,
        } => proto::encode_observe_req(out, id, &p.site, &p.queue, p.procs, wait, bmbp, lognormal),
        Op::Predict => proto::encode_predict_req(out, id, &p.site, &p.queue, p.procs),
        Op::Admit { budget } => {
            proto::encode_admit_req(out, id, &p.site, &p.queue, p.procs, budget, None)
        }
    }
}

/// Appends one JSON-lines request (newline included). `{}` on an `f64`
/// prints the shortest digits that parse back to the same bits, which is
/// what keeps bounds bit-identical across the text protocol.
pub fn json_request_line(out: &mut String, id: u64, p: &PartitionSpec, op: &Op) {
    let _ = write!(
        out,
        r#"{{"id":{id},"method":"{}","site":"{}","queue":"{}","procs":{}"#,
        op.name(),
        p.site,
        p.queue,
        p.procs
    );
    match *op {
        Op::Observe {
            wait,
            bmbp,
            lognormal,
        } => {
            let _ = write!(out, r#","wait":{wait}"#);
            if let Some(b) = bmbp {
                let _ = write!(out, r#","predicted_bmbp":{b}"#);
            }
            if let Some(l) = lognormal {
                let _ = write!(out, r#","predicted_lognormal":{l}"#);
            }
        }
        Op::Predict => {}
        Op::Admit { budget } => {
            let _ = write!(out, r#","budget":{budget}"#);
        }
    }
    out.push_str("}\n");
}

fn reply_from_bin(resp: BinResponse) -> Result<Reply, String> {
    Ok(match resp {
        BinResponse::Observe { seq, .. } => Reply::Observe { seq },
        BinResponse::Predict {
            n,
            seq,
            bmbp,
            lognormal,
            ..
        } => Reply::Predict {
            n,
            seq,
            bmbp,
            lognormal,
        },
        BinResponse::Admit {
            n, seq, decision, ..
        } => Reply::Admit { n, seq, decision },
        BinResponse::Error { code, .. } => Reply::Error { code },
        other => return Err(format!("unexpected reply {other:?}")),
    })
}

/// Decodes one JSON reply object into `(id, reply)`.
pub fn reply_from_json(v: &Json) -> Result<(u64, Reply), String> {
    let num = |k: &str| v.get(k).and_then(Json::as_f64);
    let int = |k: &str| {
        v.get(k)
            .and_then(Json::as_usize)
            .map(|n| n as u64)
            .ok_or_else(|| format!("reply lacks '{k}'"))
    };
    let id = int("id")?;
    let reply = match v.get("ok") {
        Some(Json::Bool(true)) => {
            if let Some(kind) = v.get("decision").and_then(Json::as_str) {
                let both = |a: &str, b: &str| {
                    num(a)
                        .zip(num(b))
                        .ok_or_else(|| format!("admit reply lacks '{a}'/'{b}'"))
                };
                let decision = match kind {
                    "admit" => {
                        let (bound, margin) = both("bound", "margin")?;
                        Decision::Admit { bound, margin }
                    }
                    "reject" => {
                        let (bound, margin) = both("bound", "margin")?;
                        Decision::Reject { bound, margin }
                    }
                    "defer" => Decision::Defer {
                        retry_hint: int("retry_hint")?,
                    },
                    other => return Err(format!("unknown decision '{other}'")),
                };
                Reply::Admit {
                    n: int("n")?,
                    seq: int("seq")?,
                    decision,
                }
            } else if v.get("bmbp").is_some() {
                Reply::Predict {
                    n: int("n")?,
                    seq: int("seq")?,
                    bmbp: num("bmbp"),
                    lognormal: num("lognormal"),
                }
            } else {
                Reply::Observe { seq: int("seq")? }
            }
        }
        Some(Json::Bool(false)) => Reply::Error {
            code: v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
        },
        _ => return Err("reply lacks 'ok'".to_string()),
    };
    Ok((id, reply))
}

/// One control request over a throwaway JSON connection (`stats`,
/// `metrics`, `shutdown`): the scrape path, never timed.
pub fn control(addr: SocketAddr, method: &str) -> io::Result<Json> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.write_all(format!("{{\"method\":\"{method}\"}}\n").as_bytes())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Json::parse(line.trim_end()).map_err(|e| io::Error::other(format!("{method} reply: {e}")))
}
