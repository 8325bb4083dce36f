//! Seeded frame-corruption battery for the binary listener: 120+ hostile
//! connections throwing truncations, bit-flips, oversized length
//! prefixes, garbage, and mid-frame disconnects at the server. The
//! contract under attack:
//!
//! * the server answers a typed error frame or closes the connection —
//!   it never panics;
//! * a valid frame sent *before* the damage on the same connection is
//!   still answered correctly (frame sync holds up to the damage point);
//! * a co-resident well-behaved connection (the "sentinel") is never
//!   corrupted: its sequence numbers stay contiguous and its final state
//!   matches a clean single-threaded replay.

use qdelay::serve::client::{Client, Pending, Wire};
use qdelay::serve::proto::{self, BinResponse};
use qdelay::serve::protocol::{ERR_BAD_REQUEST, ERR_LINE_TOO_LONG, ERR_PARSE};
use qdelay::serve::server::{Server, ServerConfig};
use qdelay_journal::frame;
use qdelay_json::Json;
use qdelay_rng::{Rng, StdRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Reads response frames from a raw stream until EOF or timeout; returns
/// the decoded responses. A read timeout is treated as end-of-answers
/// (the server legitimately waits forever on an incomplete frame).
fn drain_responses(stream: &mut TcpStream) -> Vec<(u64, BinResponse)> {
    stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = Vec::new();
    let mut out = Vec::new();
    loop {
        let cut = Wire::Bin.cut(&mut buf, &mut Pending::new());
        if let Some(reply) = cut.expect("server response frames are intact and always decode") {
            out.push(reply);
            continue;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break, // timeout or reset: no more answers coming
        }
    }
    out
}

/// Builds one valid framed predict request (never an observe, so hostile
/// connections cannot perturb the observation counts the sentinel checks).
fn valid_predict_frame(id: u64) -> Vec<u8> {
    let mut f = Vec::new();
    proto::encode_predict_req(&mut f, id, "probe", "q", 1);
    f
}

/// One hostile connection. Returns the number of error responses seen.
fn attack(addr: SocketAddr, rng: &mut StdRng, case: u64) -> usize {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    // Half the cases send a valid frame first; its answer must arrive
    // intact before the connection dies, proving frame sync up to the
    // damage point.
    let expect_pre = case % 2 == 0;
    if expect_pre {
        stream.write_all(&valid_predict_frame(1000 + case)).unwrap();
    }

    let kind = rng.next_u64() % 5;
    let mut frame_bytes = valid_predict_frame(2000 + case);
    match kind {
        0 => {
            // Truncation: cut the frame anywhere, send, disconnect.
            let cut = (rng.next_u64() as usize) % frame_bytes.len();
            let _ = stream.write_all(&frame_bytes[..cut]);
        }
        1 => {
            // Single bit flip anywhere in the frame.
            let bit = (rng.next_u64() as usize) % (frame_bytes.len() * 8);
            frame_bytes[bit / 8] ^= 1 << (bit % 8);
            let _ = stream.write_all(&frame_bytes);
        }
        2 => {
            // Oversized length prefix: claims a payload beyond the limit.
            let huge = proto::MAX_REQ_PAYLOAD + 1 + (rng.next_u64() as u32 % 1000);
            frame_bytes[..4].copy_from_slice(&huge.to_le_bytes());
            let _ = stream.write_all(&frame_bytes);
        }
        3 => {
            // Pure garbage bytes.
            let len = 8 + (rng.next_u64() as usize % 64);
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = stream.write_all(&garbage);
        }
        _ => {
            // Mid-frame disconnect: valid prefix, then vanish.
            let keep = 4 + (rng.next_u64() as usize) % (frame_bytes.len() - 4);
            let _ = stream.write_all(&frame_bytes[..keep]);
        }
    }
    // Signal no more bytes are coming, so "incomplete frame" cases see
    // EOF instead of a stalled read.
    let _ = stream.shutdown(Shutdown::Write);

    let responses = drain_responses(&mut stream);
    let mut errors = 0;
    let mut saw_pre = false;
    for (id, resp) in responses {
        match resp {
            BinResponse::Predict { .. } => {
                assert_eq!(id, 1000 + case, "only the valid pre-frame gets a real answer");
                assert!(expect_pre, "got an answer without sending a valid frame");
                saw_pre = true;
            }
            BinResponse::Error { code, .. } => {
                assert!(
                    code == ERR_PARSE || code == ERR_LINE_TOO_LONG,
                    "frame damage must map to parse/line_too_long, got {code}"
                );
                errors += 1;
            }
            other => panic!("unexpected response to a hostile connection: {other:?}"),
        }
    }
    if expect_pre {
        assert!(saw_pre, "valid pre-frame was never answered (case {case}, kind {kind})");
    }
    assert!(errors <= 1, "at most one error frame per damaged connection");
    errors
}

#[test]
fn corruption_battery_never_panics_or_leaks() {
    const CASES: u64 = 120;
    const SENTINEL_OBSERVES: usize = 121; // one per case, plus one up front

    let config = ServerConfig {
        shards: 4,
        binary_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.binary_addr().unwrap();

    // The co-resident connection hostile traffic must never corrupt.
    let mut sentinel = Client::connect_binary(addr).unwrap();
    let wait_of = |i: usize| ((i as u64).wrapping_mul(2_654_435_761) % 7_200) as f64;
    let seq = sentinel.observe("datastar", "normal", 4, wait_of(0), None, None).unwrap();
    assert_eq!(seq, 1);

    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut total_errors = 0usize;
    for case in 0..CASES {
        total_errors += attack(addr, &mut rng, case);
        // After every attack the sentinel must still work, with contiguous
        // sequence numbers (no lost or duplicated observations).
        let i = case as usize + 1;
        let seq = sentinel.observe("datastar", "normal", 4, wait_of(i), None, None).unwrap();
        assert_eq!(seq, i as u64 + 1, "sentinel seq broke after attack {case}");
    }
    // The battery must actually exercise the typed-error path, not just
    // silent closes.
    assert!(total_errors >= 20, "expected plenty of typed errors, got {total_errors}");

    // The sentinel partition's final bounds must equal a clean replay.
    let p = sentinel.predict("datastar", "normal", 4).unwrap();
    assert_eq!(p.n, SENTINEL_OBSERVES);
    assert_eq!(p.seq, SENTINEL_OBSERVES as u64);

    let clean_config = ServerConfig { shards: 1, ..ServerConfig::default() };
    let clean = Server::start("127.0.0.1:0", clean_config).unwrap();
    let mut replay = Client::connect(clean.local_addr()).unwrap();
    for i in 0..SENTINEL_OBSERVES {
        replay.observe("datastar", "normal", 4, wait_of(i), None, None).unwrap();
    }
    let q = replay.predict("datastar", "normal", 4).unwrap();
    assert_eq!(p.bmbp.map(f64::to_bits), q.bmbp.map(f64::to_bits));
    assert_eq!(p.lognormal.map(f64::to_bits), q.lognormal.map(f64::to_bits));
    replay.shutdown().unwrap();
    clean.join().unwrap();

    sentinel.shutdown().unwrap();
    server.join().unwrap();
}

/// Payload-level damage on an intact frame (valid CRC, malformed or
/// invalid contents) keeps the connection alive: the server answers a
/// typed error and the *next* frame still works.
#[test]
fn intact_frames_with_bad_payloads_keep_the_connection() {
    let config = ServerConfig {
        shards: 2,
        binary_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.binary_addr().unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    // A frame whose payload is a single unknown opcode byte + id.
    let mut bad = Vec::new();
    let start = frame::begin(&mut bad);
    bad.push(99); // no such opcode
    bad.extend_from_slice(&7u64.to_le_bytes());
    frame::finish(&mut bad, start);
    stream.write_all(&bad).unwrap();

    // An empty-payload frame (valid CRC over nothing).
    let mut empty = Vec::new();
    let s2 = frame::begin(&mut empty);
    frame::finish(&mut empty, s2);
    stream.write_all(&empty).unwrap();

    // Then a perfectly good request on the same connection.
    stream.write_all(&valid_predict_frame(42)).unwrap();
    let _ = stream.shutdown(Shutdown::Write);

    let responses = drain_responses(&mut stream);
    assert_eq!(responses.len(), 3, "each frame gets exactly one answer");
    assert!(matches!(&responses[0].1, BinResponse::Error { .. }), "unknown opcode -> error");
    assert!(matches!(&responses[1].1, BinResponse::Error { .. }), "empty payload -> error");
    assert_eq!(responses[2].0, 42);
    assert!(
        matches!(&responses[2].1, BinResponse::Predict { .. }),
        "connection survived payload-level errors"
    );

    let mut c = Client::connect_binary(addr).unwrap();
    c.shutdown().unwrap();
    server.join().unwrap();
}

/// The wrong protocol on each port. A connection's framer is fixed by the
/// listener it arrived on and nothing is sniffed, so a peer speaking the
/// other protocol is just a damaged stream: it costs one typed error, then
/// the server closes — it never hangs waiting for bytes that make sense,
/// even though these clients keep their write side open.
#[test]
fn wrong_protocol_on_each_port_gets_one_typed_error_then_a_close() {
    let config = ServerConfig {
        shards: 2,
        binary_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();

    // A JSON line to the binary port: its first four bytes read as a frame
    // length far out of range.
    let mut stream = TcpStream::connect(server.binary_addr().unwrap()).unwrap();
    stream.write_all(b"{\"id\":1,\"method\":\"stats\"}\n").unwrap();
    let responses = drain_responses(&mut stream);
    assert_eq!(responses.len(), 1, "one error frame, then EOF: {responses:?}");
    match &responses[0] {
        (proto::UNATTRIBUTED_ID, BinResponse::Error { code, .. }) => {
            assert_eq!(code, ERR_LINE_TOO_LONG)
        }
        other => panic!("expected an unattributed typed error, got {other:?}"),
    }

    // A binary frame to the JSON port. The id's 0xFF bytes are not UTF-8 in
    // any position, so the "line" is refused as text, not merely as JSON.
    let mut request = Vec::new();
    proto::encode_predict_req(&mut request, u64::MAX, "probe", "q", 1);
    assert!(!request.contains(&b'\n'), "the frame must read as a single line");
    request.push(b'\n');
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    stream.write_all(&request).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("the server closes; the read must not time out");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one error line, then EOF: {text:?}");
    let reply = Json::parse(lines[0]).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("error").and_then(Json::as_str), Some(ERR_PARSE));

    // Neither confused peer disturbed the server.
    let mut c = Client::connect_binary(server.binary_addr().unwrap()).unwrap();
    assert_eq!(c.observe("probe", "q", 1, 1.0, None, None).unwrap(), 1);
    c.shutdown().unwrap();
    server.join().unwrap();
}

/// Builds one valid framed admit request.
fn valid_admit_frame(id: u64, budget: f64, confidence: Option<f64>) -> Vec<u8> {
    let mut f = Vec::new();
    proto::encode_admit_req(&mut f, id, "probe", "q", 1, budget, confidence);
    f
}

/// One hostile connection throwing damaged OP_ADMIT frames. Mirrors
/// [`attack`] but over admit requests, whose frames carry an f64 budget
/// and an optional-confidence flag byte — more interpreted bytes for a
/// flip to land in.
fn attack_admit(addr: SocketAddr, rng: &mut StdRng, case: u64) -> usize {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    let budget = (rng.next_u64() % 10_000) as f64;
    let confidence = if case % 3 == 0 { Some(0.95) } else { None };
    let expect_pre = case % 2 == 0;
    if expect_pre {
        stream
            .write_all(&valid_admit_frame(1000 + case, budget, confidence))
            .unwrap();
    }

    let kind = rng.next_u64() % 3;
    let mut frame_bytes = valid_admit_frame(2000 + case, budget, confidence);
    match kind {
        0 => {
            // Truncation anywhere, including inside the budget bits.
            let cut = (rng.next_u64() as usize) % frame_bytes.len();
            let _ = stream.write_all(&frame_bytes[..cut]);
        }
        1 => {
            // Single bit flip anywhere in the frame.
            let bit = (rng.next_u64() as usize) % (frame_bytes.len() * 8);
            frame_bytes[bit / 8] ^= 1 << (bit % 8);
            let _ = stream.write_all(&frame_bytes);
        }
        _ => {
            // Mid-frame disconnect: valid prefix, then vanish.
            let keep = 4 + (rng.next_u64() as usize) % (frame_bytes.len() - 4);
            let _ = stream.write_all(&frame_bytes[..keep]);
        }
    }
    let _ = stream.shutdown(Shutdown::Write);

    let responses = drain_responses(&mut stream);
    let mut errors = 0;
    let mut saw_pre = false;
    for (id, resp) in responses {
        match resp {
            BinResponse::Admit { .. } => {
                assert_eq!(id, 1000 + case, "only the valid pre-frame gets a real answer");
                assert!(expect_pre, "got an answer without sending a valid frame");
                saw_pre = true;
            }
            BinResponse::Error { code, .. } => {
                assert!(
                    code == ERR_PARSE || code == ERR_LINE_TOO_LONG,
                    "frame damage must map to parse/line_too_long, got {code}"
                );
                errors += 1;
            }
            other => panic!("unexpected response to a hostile admit connection: {other:?}"),
        }
    }
    if expect_pre {
        assert!(saw_pre, "valid pre-admit was never answered (case {case}, kind {kind})");
    }
    assert!(errors <= 1, "at most one error frame per damaged connection");
    errors
}

/// Damaged OP_ADMIT frames never panic the server, never desynchronize a
/// co-resident sentinel, and the sentinel's admit decisions stay
/// bit-identical to a clean single-threaded replay.
#[test]
fn admit_corruption_battery_never_panics_or_leaks() {
    use qdelay::predict::admission::{decide, Decision};

    const CASES: u64 = 80;

    let config = ServerConfig {
        shards: 4,
        binary_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.binary_addr().unwrap();

    let mut sentinel = Client::connect_binary(addr).unwrap();
    let wait_of = |i: usize| ((i as u64).wrapping_mul(2_654_435_761) % 7_200) as f64;
    // Warm the sentinel partition far enough that the BMBP bound exists
    // and admit answers carry real bound/margin floats to compare.
    for i in 0..100 {
        sentinel.observe("datastar", "normal", 4, wait_of(i), None, None).unwrap();
    }

    let mut rng = StdRng::seed_from_u64(0xAD317);
    let mut total_errors = 0usize;
    let mut decisions = Vec::new();
    for case in 0..CASES {
        total_errors += attack_admit(addr, &mut rng, case);
        // After every attack the sentinel's admit path still answers, with
        // a decision drawn from the typed set.
        let budget = (case * 97) as f64;
        let a = sentinel.admit("datastar", "normal", 4, budget, None).unwrap();
        assert_eq!(a.n, 100, "hostile admits must never mutate the partition");
        decisions.push((budget, a.decision));
    }
    assert!(total_errors >= 10, "expected plenty of typed errors, got {total_errors}");
    assert!(
        decisions.iter().any(|(_, d)| matches!(d, Decision::Admit { .. }))
            && decisions.iter().any(|(_, d)| matches!(d, Decision::Reject { .. })),
        "sentinel budgets must straddle the bound"
    );

    // Every sentinel decision equals the pure function of a clean replay.
    let clean_config = ServerConfig { shards: 1, ..ServerConfig::default() };
    let clean = Server::start("127.0.0.1:0", clean_config).unwrap();
    let mut replay = Client::connect(clean.local_addr()).unwrap();
    for i in 0..100 {
        replay.observe("datastar", "normal", 4, wait_of(i), None, None).unwrap();
    }
    let q = replay.predict("datastar", "normal", 4).unwrap();
    for (budget, d) in decisions {
        let expected = decide(q.bmbp, q.lognormal, q.n as u64, budget);
        assert_eq!(d, expected, "admit at budget {budget} diverged from clean replay");
    }
    replay.shutdown().unwrap();
    clean.join().unwrap();

    sentinel.shutdown().unwrap();
    server.join().unwrap();
}

/// Intact (CRC-valid) OP_ADMIT frames with hostile payloads: NaN/Inf and
/// negative budget bit patterns, out-of-range confidence, unknown flag
/// bits, and a payload truncated under a valid checksum. Each costs one
/// typed error; the connection survives them all. Legitimate extremes —
/// zero and f64::MAX budgets — get real typed decisions on the same
/// connection.
#[test]
fn hostile_admit_payloads_get_typed_errors_and_keep_the_connection() {
    let config = ServerConfig {
        shards: 2,
        binary_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.binary_addr().unwrap();

    // Warm the partition so valid-extreme budgets yield admit/reject
    // rather than defer.
    let mut warm = Client::connect_binary(addr).unwrap();
    for i in 0..100u64 {
        warm.observe("probe", "q", 1, ((i % 40) * 30) as f64, None, None).unwrap();
    }

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    // Invalid budget bit patterns: quiet NaN, NaN with payload bits,
    // +Inf, -Inf, negative zero is VALID (== 0.0), negative finite is not.
    let nan_payload = f64::from_bits(0x7FF8_0000_0000_0001);
    let bad_budgets = [f64::NAN, nan_payload, f64::INFINITY, f64::NEG_INFINITY, -1.0];
    let mut next_id = 1u64;
    let mut expected: Vec<(u64, &str)> = Vec::new();
    for b in bad_budgets {
        stream.write_all(&valid_admit_frame(next_id, b, None)).unwrap();
        expected.push((next_id, "err_bad_request"));
        next_id += 1;
    }
    // Out-of-range and non-finite confidence values.
    for c in [0.0, 1.0, -0.5, f64::NAN] {
        stream.write_all(&valid_admit_frame(next_id, 100.0, Some(c))).unwrap();
        expected.push((next_id, "err_bad_request"));
        next_id += 1;
    }
    // Unknown flag bits: decode must refuse, not skip.
    {
        let mut f = Vec::new();
        let start = frame::begin(&mut f);
        f.push(proto::OP_ADMIT);
        f.extend_from_slice(&next_id.to_le_bytes());
        f.extend_from_slice(&1u16.to_le_bytes());
        f.push(b'p');
        f.extend_from_slice(&1u16.to_le_bytes());
        f.push(b'q');
        f.extend_from_slice(&1u32.to_le_bytes());
        f.extend_from_slice(&100.0f64.to_bits().to_le_bytes());
        f.push(0x02); // no such admit flag
        frame::finish(&mut f, start);
        stream.write_all(&f).unwrap();
        expected.push((next_id, "err_parse"));
        next_id += 1;
    }
    // Payload truncated mid-budget under a valid checksum.
    {
        let mut f = Vec::new();
        let start = frame::begin(&mut f);
        f.push(proto::OP_ADMIT);
        f.extend_from_slice(&next_id.to_le_bytes());
        f.extend_from_slice(&1u16.to_le_bytes());
        f.push(b'p');
        f.extend_from_slice(&1u16.to_le_bytes());
        f.push(b'q');
        f.extend_from_slice(&1u32.to_le_bytes());
        f.extend_from_slice(&[0xAA, 0xBB, 0xCC]); // 3 of the 8 budget bytes
        frame::finish(&mut f, start);
        stream.write_all(&f).unwrap();
        expected.push((next_id, "err_parse"));
        next_id += 1;
    }
    // Legitimate extremes on the battered connection: zero budget must
    // reject (the bound is positive), f64::MAX must admit.
    let zero_id = next_id;
    stream.write_all(&valid_admit_frame(zero_id, 0.0, None)).unwrap();
    let max_id = next_id + 1;
    stream.write_all(&valid_admit_frame(max_id, f64::MAX, None)).unwrap();
    let negzero_id = next_id + 2;
    stream.write_all(&valid_admit_frame(negzero_id, -0.0, None)).unwrap();
    let _ = stream.shutdown(Shutdown::Write);

    let responses = drain_responses(&mut stream);
    assert_eq!(
        responses.len(),
        expected.len() + 3,
        "each hostile frame costs exactly one reply and the extremes answer"
    );
    for (i, (want_id, want)) in expected.iter().enumerate() {
        let (id, resp) = &responses[i];
        assert_eq!(id, want_id, "reply order must follow frame order");
        match resp {
            BinResponse::Error { code, .. } => {
                let got = match code.as_str() {
                    ERR_BAD_REQUEST => "err_bad_request",
                    ERR_PARSE => "err_parse",
                    other => panic!("hostile admit payload {i} got code {other}"),
                };
                assert_eq!(&got, want, "hostile admit payload {i} miscoded");
            }
            other => panic!("hostile admit payload {i} was accepted: {other:?}"),
        }
    }
    use qdelay::predict::admission::Decision;
    let tail = &responses[expected.len()..];
    match (&tail[0], &tail[1], &tail[2]) {
        (
            (id0, BinResponse::Admit { decision: d0, .. }),
            (id1, BinResponse::Admit { decision: d1, .. }),
            (id2, BinResponse::Admit { decision: d2, .. }),
        ) => {
            assert_eq!((*id0, *id1, *id2), (zero_id, max_id, negzero_id));
            assert!(matches!(d0, Decision::Reject { .. }), "zero budget must reject: {d0:?}");
            assert!(matches!(d1, Decision::Admit { .. }), "f64::MAX budget must admit: {d1:?}");
            assert_eq!(d0, d2, "-0.0 and 0.0 budgets must decide identically");
        }
        other => panic!("extreme budgets were not answered with decisions: {other:?}"),
    }

    warm.shutdown().unwrap();
    server.join().unwrap();
}
