//! The per-layer ledger of a traced run, measured from outside: the
//! workload's own generated requests are replayed in-process through each
//! layer's public functions, in the order a request crosses them.
//!
//! Nanosecond figures are batch-timed means (two clock reads per pass over
//! the inputs); microsecond figures are medians of individually timed
//! calls. Spans inside `qdelay-serve` itself are a later change.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use qdelay_journal::{encode_frame, frame, FsyncPolicy, JournalWriter, Record};
use qdelay_json::Json;
use qdelay_predict::bmbp::Bmbp;
use qdelay_predict::bound::{self, BoundIndexCache, BoundMethod, BoundSpec};
use qdelay_predict::lognormal::{LogNormalConfig, LogNormalPredictor};
use qdelay_predict::rank_index::RankIndex;
use qdelay_predict::{admission, QuantilePredictor};
use qdelay_repl::wire;
use qdelay_serve::hibernate::PartitionStore;
use qdelay_serve::registry::{Partition, PartitionKey};
use qdelay_serve::{proto, protocol, snapshot};
use qdelay_sim::harness::{self, HarnessConfig};
use qdelay_stats::tolerance::{one_sided_k_factor, KFactorCache};
use qdelay_telemetry::LatencyHistogram;
use qdelay_trace::{catalog, synth};

use crate::child::{fresh_dir, Server};
use crate::conn::{bin_request_frame, json_request_line, reply_from_json, Op, Proto};
use crate::gen::{self, PartitionSpec};
use crate::load::Mix;
use crate::util::{batch_ns, median, Digest};
use crate::{ChildSpan, Ctx, Outcome};

/// Time given to each batch-timed probe.
const BUDGET: Duration = Duration::from_millis(15);
/// Requests of the workload's stream that are replayed through the layers.
const SAMPLE_OPS: usize = 512;
/// Requests whose replay is also written out call by call, as child spans.
const SPAN_REQUESTS: usize = 256;
/// Observes that warm a probe partition (BMBP serves a bound from 59).
const PROBE_WARM: usize = 100;

/// Every per-layer metric with its unit, in ledger order; `BENCHMARK.json`
/// lists the same names. A traced run emits all of them on every workload:
/// a layer the workload's requests never cross reads 0.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("server.ctx_switches_per_op", "count"),
    ("server.stage.decode_ns_p50", "ns"),
    ("server.stage.decode_ns_p99", "ns"),
    ("server.stage.queue_ns_p50", "ns"),
    ("server.stage.queue_ns_p99", "ns"),
    ("server.stage.handle_ns_p50", "ns"),
    ("server.stage.handle_ns_p99", "ns"),
    ("server.stage.reply_ns_p50", "ns"),
    ("server.stage.reply_ns_p99", "ns"),
    ("server.batch_size_p50", "count"),
    ("server.rejects", "count"),
    ("client.latency_p99_us", "us"),
    ("client.sat_rps_mean", "ops/s"),
    ("client.sat_latency_p50_us", "us"),
    ("client.sat_latency_p99_us", "us"),
    ("transport.path_self_us", "us"),
    ("transport.residual_us", "us"),
    ("proto.decode_req_ns", "ns"),
    ("proto.encode_resp_ns", "ns"),
    ("proto.req_bytes", "bytes"),
    ("proto.resp_bytes", "bytes"),
    ("frame.check_ns", "ns"),
    ("frame.encode_ns", "ns"),
    ("crc.ns_per_kib", "ns/KiB"),
    ("protocol.parse_req_ns", "ns"),
    ("protocol.render_resp_ns", "ns"),
    ("json.parse_ns_per_kib", "ns/KiB"),
    ("client.encode_req_ns", "ns"),
    ("client.decode_resp_ns", "ns"),
    ("registry.key_route_ns", "ns"),
    ("registry.observe_ns", "ns"),
    ("registry.predict_clean_ns", "ns"),
    ("registry.predict_dirty_ns", "ns"),
    ("registry.from_snapshot_us", "us"),
    ("predict.rank_insert_ns", "ns"),
    ("predict.rank_select_ns", "ns"),
    ("predict.bound_index_hit_ns", "ns"),
    ("predict.bound_index_miss_ns", "ns"),
    ("predict.bmbp_refit_ns", "ns"),
    ("predict.lognormal_refit_ns", "ns"),
    ("predict.admit_decide_ns", "ns"),
    ("predict.changepoint_trims", "count"),
    ("stats.kfactor_lookup_ns", "ns"),
    ("stats.kfactor_rootfind_us", "us"),
    ("stats.upper_index_exact_ns", "ns"),
    ("hibernate.touch_hit_ns", "ns"),
    ("hibernate.restore_us", "us"),
    ("hibernate.evict_us", "us"),
    ("hibernate.miss_ratio", "fraction"),
    ("hibernate.compactions", "count"),
    ("hibernate.spill_bytes_per_partition", "bytes"),
    ("snapshot.encode_partition_us", "us"),
    ("snapshot.decode_partition_us", "us"),
    ("snapshot.partition_bytes", "bytes"),
    ("journal.record_encode_ns", "ns"),
    ("journal.append_ns", "ns"),
    ("journal.commit_us", "us"),
    ("journal.fsync_us", "us"),
    ("journal.records_per_commit", "count"),
    ("journal.bytes_per_record", "bytes"),
    ("journal.fsyncs_per_op", "count"),
    ("journal.recover_s", "s"),
    ("journal.recover_records_per_s", "1/s"),
    ("repl.encode_record_ns", "ns"),
    ("repl.decode_msg_ns", "ns"),
    ("repl.catchup_records_per_s", "1/s"),
    ("repl.observe_rps_ratio", "fraction"),
    ("repl.lag_records_max", "count"),
    ("trace.synth_jobs_per_s", "1/s"),
    ("sim.replay_jobs_per_s", "1/s"),
    ("sim.epochs", "count"),
    ("sim.bounds_digest", "hash"),
    ("batchsim.jobs_per_s", "1/s"),
    ("telemetry.hist_record_ns", "ns"),
    ("cli.boot_ms", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.traced_ops", "count"),
];

static PROBE_HIST: LatencyHistogram = LatencyHistogram::new("bench.probe_ns");

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The first [`SAMPLE_OPS`] requests a connection with this mix would send.
fn sample_ops(specs: &[PartitionSpec], mix: Mix) -> Vec<(usize, Op)> {
    (0..SAMPLE_OPS)
        .map(|i| {
            let part = i % specs.len().min(64);
            let s = &specs[part];
            let wait = s.waits[i % s.waits.len()];
            let observe = Op::Observe {
                wait,
                bmbp: Some(s.budget),
                lognormal: Some(s.budget * 1.5),
            };
            let op = match mix {
                Mix::ObserveFeedback | Mix::Warm(_) => observe,
                // ≈ 45/10/45, as the job loop sends them.
                Mix::JobLoop => match i % 20 {
                    0..=8 => Op::Predict,
                    9 | 10 => Op::Admit { budget: s.budget },
                    _ => observe,
                },
                Mix::PredictRandom | Mix::PredictEach => Op::Predict,
            };
            (part, op)
        })
        .collect()
}

fn key_of(s: &PartitionSpec) -> PartitionKey {
    PartitionKey::for_request(&s.site, &s.queue, s.procs)
}

fn warmed(s: &PartitionSpec) -> Partition {
    let mut p = Partition::new();
    for i in 0..PROBE_WARM {
        p.observe(s.waits[i % s.waits.len()], None, None);
    }
    p.predict();
    p
}

fn record_of(s: &PartitionSpec, seq: u64, wait: f64) -> Record {
    Record {
        site: s.site.clone(),
        queue: s.queue.clone(),
        range: key_of(s).range.label().to_string(),
        seq,
        wait,
        predicted_bmbp: Some(s.budget),
        predicted_lognormal: Some(s.budget * 1.5),
        tombstone: false,
    }
}

/// What the shard does with one decoded request, against `p`; returns the
/// binary reply frame and the JSON reply line.
fn apply(p: &mut Partition, label: &str, id: u64, op: &Op) -> (Vec<u8>, String) {
    let mut framed = Vec::new();
    let jid = Json::Num(id as f64);
    let line = match *op {
        Op::Observe {
            wait,
            bmbp,
            lognormal,
        } => {
            let seq = p.observe(wait, bmbp, lognormal);
            proto::encode_observe_resp(&mut framed, id, label, seq);
            protocol::observe_line(Some(&jid), label, seq)
        }
        Op::Predict => {
            let r = p.predict();
            proto::encode_predict_resp(
                &mut framed,
                id,
                label,
                r.n as u64,
                r.seq,
                r.bmbp,
                r.lognormal,
            );
            protocol::predict_line(Some(&jid), label, r.n, r.seq, r.bmbp, r.lognormal)
        }
        Op::Admit { budget } => {
            let r = p.predict();
            let d = admission::decide(r.bmbp, r.lognormal, r.n as u64, budget);
            proto::encode_admit_resp(&mut framed, id, label, r.n as u64, r.seq, &d);
            protocol::admit_line(Some(&jid), label, r.n, r.seq, &d)
        }
    };
    (framed, line)
}

/// Emits every in-process per-layer metric, `transport.path_self_us` and
/// `transport.residual_us`, and the child spans of the first requests.
/// `p50_us` is the depth-1 median measured with spans off in this run.
pub fn ledger(
    seed: u64,
    specs: &[PartitionSpec],
    wire_proto: Option<Proto>,
    mix: Mix,
    p50_us: f64,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let ops = sample_ops(specs, mix);
    // The in-process workload has no wire; its codec probes use binary.
    let bin = wire_proto != Some(Proto::Json);

    // ---- serve.proto + journal::frame + serve.client --------------------
    let frames: Vec<Vec<u8>> = ops
        .iter()
        .enumerate()
        .map(|(i, (p, op))| {
            let mut f = Vec::new();
            bin_request_frame(&mut f, i as u64 + 1, &specs[*p], op);
            f
        })
        .collect();
    let lines: Vec<String> = ops
        .iter()
        .enumerate()
        .map(|(i, (p, op))| {
            let mut l = String::new();
            json_request_line(&mut l, i as u64 + 1, &specs[*p], op);
            l
        })
        .collect();
    let mut parts: Vec<Partition> = specs.iter().take(64).map(warmed).collect();
    let labels: Vec<String> = specs.iter().take(64).map(|s| key_of(s).label()).collect();
    let replies: Vec<(Vec<u8>, String)> = ops
        .iter()
        .enumerate()
        .map(|(i, (p, op))| apply(&mut parts[*p], &labels[*p], i as u64 + 1, op))
        .collect();

    let indexed: Vec<usize> = (0..ops.len()).collect();
    let mut buf = Vec::with_capacity(256);
    let mut text = String::with_capacity(256);
    let client_encode = batch_ns(&indexed, BUDGET, |&i| {
        let (p, op) = &ops[i];
        if bin {
            buf.clear();
            bin_request_frame(&mut buf, i as u64 + 1, &specs[*p], op);
            buf.len()
        } else {
            text.clear();
            json_request_line(&mut text, i as u64 + 1, &specs[*p], op);
            text.len()
        }
    });
    let client_decode = batch_ns(&replies, BUDGET, |(framed, line)| {
        if bin {
            match frame::check(framed, proto::MAX_RESP_PAYLOAD) {
                frame::Check::Complete { start, end, .. } => {
                    proto::decode_response(&framed[start..end]).is_ok()
                }
                _ => false,
            }
        } else {
            Json::parse(line)
                .ok()
                .and_then(|v| reply_from_json(&v).ok())
                .is_some()
        }
    });
    out.layer("client.encode_req_ns", client_encode);
    out.layer("client.decode_resp_ns", client_decode);

    let frame_check = batch_ns(&frames, BUDGET, |f| frame::check(f, proto::MAX_REQ_PAYLOAD));
    let decode_req = batch_ns(&frames, BUDGET, |f| {
        proto::decode_request(&f[frame::PREFIX_LEN..]).1.is_ok()
    });
    let mut rbuf = Vec::with_capacity(256);
    let mut parts2: Vec<Partition> = specs.iter().take(64).map(warmed).collect();
    // Encoding a reply needs the reply's content; predict on a clean
    // partition stands in for it, and its own cost is subtracted.
    let predict_clean = batch_ns(&indexed, BUDGET, |&i| parts2[ops[i].0].predict());
    let encode_resp = (batch_ns(&indexed, BUDGET, |&i| {
        let p = ops[i].0;
        let r = parts2[p].predict();
        rbuf.clear();
        proto::encode_predict_resp(
            &mut rbuf,
            i as u64,
            &labels[p],
            r.n as u64,
            r.seq,
            r.bmbp,
            r.lognormal,
        );
        rbuf.len()
    }) - predict_clean)
        .max(0.0);
    let payloads: Vec<&[u8]> = frames.iter().map(|f| &f[frame::PREFIX_LEN..]).collect();
    let frame_encode = batch_ns(&payloads, BUDGET, |p| {
        rbuf.clear();
        frame::encode(p, &mut rbuf);
        rbuf.len()
    });
    let blob: Vec<u8> = frames
        .iter()
        .flatten()
        .copied()
        .cycle()
        .take(64 * 1024)
        .collect();
    let crc = batch_ns(&[&blob[..]], BUDGET, |b| qdelay_journal::crc32(b)) / 64.0;
    let mean_len = |v: &mut dyn Iterator<Item = usize>| {
        let (n, total) = v.fold((0usize, 0usize), |(n, t), l| (n + 1, t + l));
        total as f64 / n as f64
    };
    out.layer("proto.decode_req_ns", decode_req);
    out.layer("proto.encode_resp_ns", encode_resp);
    out.layer(
        "proto.req_bytes",
        mean_len(&mut frames.iter().map(Vec::len)),
    );
    out.layer(
        "proto.resp_bytes",
        mean_len(&mut replies.iter().map(|r| r.0.len())),
    );
    out.layer("frame.check_ns", frame_check);
    out.layer("frame.encode_ns", frame_encode);
    out.layer("crc.ns_per_kib", crc);

    // ---- json + serve.protocol ------------------------------------------
    let parse_req = batch_ns(&lines, BUDGET, |l| {
        Json::parse(l.trim_end()).map(|v| protocol::parse_request(&v).1.is_ok())
    });
    let jid = Json::Num(7.0);
    let render_resp = (batch_ns(&indexed, BUDGET, |&i| {
        let p = ops[i].0;
        let r = parts2[p].predict();
        protocol::predict_line(Some(&jid), &labels[p], r.n, r.seq, r.bmbp, r.lognormal).len()
    }) - predict_clean)
        .max(0.0);
    out.layer("protocol.parse_req_ns", parse_req);
    out.layer("protocol.render_resp_ns", render_resp);

    // ---- serve.registry ---------------------------------------------------
    let key_route = batch_ns(&ops, BUDGET, |(p, _)| key_of(&specs[*p]).shard_index(2));
    let mut cursor = 0usize;
    let observe = batch_ns(&indexed, BUDGET, |&i| {
        let p = ops[i].0;
        cursor += 1;
        parts2[p].observe(specs[p].waits[cursor % specs[p].waits.len()], None, None)
    });
    let mut parts3: Vec<Partition> = specs.iter().take(64).map(warmed).collect();
    let predict_dirty = (batch_ns(&indexed, BUDGET, |&i| {
        let p = ops[i].0;
        cursor += 1;
        parts3[p].observe(specs[p].waits[cursor % specs[p].waits.len()], None, None);
        parts3[p].predict()
    }) - observe)
        .max(0.0);
    let snaps: Vec<_> = specs
        .iter()
        .take(32)
        .map(|s| warmed(s).to_snapshot(&key_of(s)))
        .collect();
    let from_snapshot = batch_ns(&snaps, BUDGET, |s| Partition::from_snapshot(s).is_ok()) / 1e3;
    out.layer("registry.key_route_ns", key_route);
    out.layer("registry.observe_ns", observe);
    out.layer("registry.predict_clean_ns", predict_clean);
    out.layer("registry.predict_dirty_ns", predict_dirty);
    out.layer("registry.from_snapshot_us", from_snapshot);

    // ---- predict + stats ----------------------------------------------------
    let pool: Vec<f64> = specs
        .iter()
        .flat_map(|s| s.waits.iter().copied())
        .take(4096)
        .collect();
    let mut index = RankIndex::new();
    let rank_insert = batch_ns(&pool, BUDGET, |&w| {
        if index.len() >= 4096 {
            index.clear();
        }
        index.insert(w)
    });
    let index: RankIndex = pool.iter().copied().collect();
    let ranks: Vec<usize> = (0..256).map(|i| index.len() * (700 + i) / 1000).collect();
    let rank_select = batch_ns(&ranks, BUDGET, |&k| index.select(k));
    let spec95 = BoundSpec::paper_default();
    let mut cache = BoundIndexCache::new(spec95, BoundMethod::Auto);
    let index_hit = batch_ns(&[150usize], BUDGET, |&n| cache.upper_index(n));
    let sizes: Vec<usize> = (59..190).step_by(7).collect();
    let index_miss = batch_ns(&sizes, BUDGET, |&n| {
        cache.invalidate();
        cache.upper_index(n)
    });
    let upper_exact = batch_ns(&[59usize, 100, 500, 2000, 10_000], BUDGET, |&n| {
        bound::upper_index(n, spec95, BoundMethod::Exact)
    });
    // A refit is timed as (observe + refit) minus observe alone, on two
    // predictors fed the same stream.
    let refit_cost = |make: &dyn Fn() -> Box<dyn QuantilePredictor>| {
        let (mut a, mut b) = (make(), make());
        let plain = batch_ns(&pool, BUDGET, |&w| a.observe(w));
        let with = batch_ns(&pool, BUDGET, |&w| {
            b.observe(w);
            b.refit();
            b.current_bound()
        });
        (with - plain).max(0.0)
    };
    let bmbp_refit = refit_cost(&|| Box::new(Bmbp::with_defaults()));
    let logn_refit = refit_cost(&|| Box::new(LogNormalPredictor::new(LogNormalConfig::trim())));
    let budgets: Vec<f64> = specs.iter().take(64).map(|s| s.budget).collect();
    let decide = batch_ns(&budgets, BUDGET, |&b| {
        admission::decide(Some(b * 0.9), Some(b), 100, b)
    });
    let mut kcache = KFactorCache::new(0.95, 0.95).map_err(|e| e.to_string())?;
    let ns: Vec<usize> = (2..100).collect();
    kcache.k_factor(50).map_err(|e| e.to_string())?;
    let k_lookup = batch_ns(&ns, BUDGET, |&n| kcache.k_factor(n).ok());
    let k_rootfind = batch_ns(&[10usize, 30, 59, 90], BUDGET, |&n| {
        one_sided_k_factor(n, 0.95, 0.95).ok()
    }) / 1e3;
    out.layer("predict.rank_insert_ns", rank_insert);
    out.layer("predict.rank_select_ns", rank_select);
    out.layer("predict.bound_index_hit_ns", index_hit);
    out.layer("predict.bound_index_miss_ns", index_miss);
    out.layer("predict.bmbp_refit_ns", bmbp_refit);
    out.layer("predict.lognormal_refit_ns", logn_refit);
    out.layer("predict.admit_decide_ns", decide);
    out.layer("stats.kfactor_lookup_ns", k_lookup);
    out.layer("stats.kfactor_rootfind_us", k_rootfind);
    out.layer("stats.upper_index_exact_ns", upper_exact);

    // ---- serve.hibernate + serve.snapshot --------------------------------------
    let dir = fresh_dir(&scratch.join("probe")).map_err(io_err("probe dir"))?;
    let mut store = PartitionStore::new(Some(8), Some(dir.join("spill.bin")))
        .map_err(io_err("probe spill file"))?;
    let keys: Vec<PartitionKey> = specs.iter().take(24).map(key_of).collect();
    store
        .install_parts(
            specs
                .iter()
                .take(24)
                .map(|s| (key_of(s), warmed(s)))
                .collect(),
            Vec::new(),
        )
        .map_err(io_err("probe spill install"))?;
    // 24 keys round-robin through 8 resident slots: every touch restores
    // from the spill file and every enforce_cap evicts.
    let (mut restores, mut evicts) = (Vec::new(), Vec::new());
    for round in 0..8 {
        for k in &keys {
            let t0 = Instant::now();
            black_box(
                store
                    .touch(k.clone())
                    .map_err(io_err("probe restore"))?
                    .seq(),
            );
            let t1 = Instant::now();
            store.enforce_cap().map_err(io_err("probe evict"))?;
            if round > 0 {
                restores.push((t1 - t0).as_nanos() as f64 / 1e3);
                evicts.push(t1.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    let hot = keys.last().expect("24 keys").clone();
    let mut touch_failed = false;
    let touch_hit = batch_ns(&[hot], BUDGET, |k| {
        touch_failed |= store.touch(k.clone()).is_err();
    });
    if touch_failed {
        return Err("probe touch of a resident partition failed".into());
    }
    let spill_bytes = store.spill_disk_bytes() as f64 / store.hibernated_count().max(1) as f64;
    drop(store);
    let texts: Vec<String> = snaps
        .iter()
        .map(|s| snapshot::encode_partition(s).to_string_compact())
        .collect();
    let encode_part = batch_ns(&snaps, BUDGET, |s| {
        snapshot::encode_partition(s).to_string_compact().len()
    }) / 1e3;
    let decode_part = batch_ns(&texts, BUDGET, |t| {
        Json::parse(t)
            .ok()
            .and_then(|v| snapshot::decode_partition(&v).ok())
            .is_some()
    }) / 1e3;
    let part_bytes = mean_len(&mut texts.iter().map(String::len));
    let json_per_kib = batch_ns(&texts, BUDGET, |t| Json::parse(t).is_ok()) / (part_bytes / 1024.0);
    out.layer("hibernate.touch_hit_ns", touch_hit);
    out.layer("hibernate.restore_us", median(&restores));
    out.layer("hibernate.evict_us", median(&evicts));
    out.layer("hibernate.spill_bytes_per_partition", spill_bytes);
    out.layer("snapshot.encode_partition_us", encode_part);
    out.layer("snapshot.decode_partition_us", decode_part);
    out.layer("snapshot.partition_bytes", part_bytes);
    out.layer("json.parse_ns_per_kib", json_per_kib);

    // ---- journal + repl codecs -----------------------------------------------------
    let records: Vec<Record> = ops
        .iter()
        .enumerate()
        .map(|(i, (p, _))| {
            record_of(
                &specs[*p],
                i as u64 + 1,
                specs[*p].waits[i % specs[*p].waits.len()],
            )
        })
        .collect();
    let record_encode = batch_ns(&records, BUDGET, |r| {
        rbuf.clear();
        r.encode(&mut rbuf);
        rbuf.len()
    });
    let mut framed_records = Vec::new();
    for r in &records {
        encode_frame(r, &mut framed_records);
    }
    let bytes_per_record = framed_records.len() as f64 / records.len() as f64;
    let journal_err = |e: qdelay_journal::JournalError| format!("probe journal: {e}");
    let mut appends = Vec::new();
    let mut commit_cost = |policy: FsyncPolicy, shard: u32| -> Result<f64, String> {
        let mut w =
            JournalWriter::open(&dir, 1, shard, 64 << 20, policy, None).map_err(journal_err)?;
        let mut commits = Vec::new();
        for batch in records.chunks(16).take(24) {
            let t0 = Instant::now();
            for r in batch {
                w.append(r);
            }
            let t1 = Instant::now();
            w.commit().map_err(journal_err)?;
            commits.push(t1.elapsed().as_nanos() as f64 / 1e3);
            appends.push((t1 - t0).as_nanos() as f64 / batch.len() as f64);
        }
        w.close().map_err(journal_err)?;
        Ok(median(&commits))
    };
    let commit_us = commit_cost(FsyncPolicy::Never, 0)?;
    let synced_us = commit_cost(FsyncPolicy::Always, 1)?;
    out.layer("journal.record_encode_ns", record_encode);
    out.layer("journal.append_ns", median(&appends));
    out.layer("journal.commit_us", commit_us);
    out.layer("journal.fsync_us", (synced_us - commit_us).max(0.0));
    out.layer("journal.bytes_per_record", bytes_per_record);

    let cursor_at = wire::Cursor {
        epoch: 1,
        shard: 0,
        counter: 0,
        offset: 4096,
    };
    let repl_encode = batch_ns(&records, BUDGET, |r| {
        rbuf.clear();
        wire::encode_record(cursor_at, r, &mut rbuf);
        rbuf.len()
    });
    let repl_msgs: Vec<Vec<u8>> = records
        .iter()
        .map(|r| {
            let mut m = Vec::new();
            wire::encode_record(cursor_at, r, &mut m);
            m
        })
        .collect();
    let repl_decode = batch_ns(&repl_msgs, BUDGET, |m| {
        wire::decode_msg(&m[frame::PREFIX_LEN..]).is_ok()
    });
    out.layer("repl.encode_record_ns", repl_encode);
    out.layer("repl.decode_msg_ns", repl_decode);

    // ---- trace, sim, batchsim, telemetry ------------------------------------------
    let mut profile = catalog::find("datastar", "normal").ok_or("catalog lacks datastar/normal")?;
    profile.job_count = 20_000;
    let t = Instant::now();
    let trace = synth::generate(&profile, &synth::SynthSettings::with_seed(seed));
    out.layer(
        "trace.synth_jobs_per_s",
        trace.len() as f64 / t.elapsed().as_secs_f64(),
    );
    let epochs_before = qdelay_telemetry::snapshot()
        .counter("sim.epochs")
        .unwrap_or(0);
    let t = Instant::now();
    let replayed = harness::run(
        &trace,
        &mut Bmbp::with_defaults(),
        &HarnessConfig::default(),
    );
    out.layer(
        "sim.replay_jobs_per_s",
        trace.len() as f64 / t.elapsed().as_secs_f64(),
    );
    let epochs = qdelay_telemetry::snapshot()
        .counter("sim.epochs")
        .unwrap_or(0)
        - epochs_before;
    out.layer("sim.epochs", epochs as f64);
    let mut digest = Digest::new();
    for r in &replayed.records {
        digest.eat(r.predicted.map_or(0, f64::to_bits));
    }
    out.layer("sim.bounds_digest", digest.value());
    let t = Instant::now();
    let machine = crate::replay::machine_trace(seed, 16);
    out.layer(
        "batchsim.jobs_per_s",
        machine.len() as f64 / t.elapsed().as_secs_f64(),
    );
    let values: Vec<u64> = (0..256).map(|i| 100 + i * 37).collect();
    out.layer(
        "telemetry.hist_record_ns",
        batch_ns(&values, BUDGET, |&v| PROBE_HIST.record(v)),
    );

    // ---- the request path, added up ---------------------------------------------------
    let decode = if bin {
        frame_check + decode_req
    } else {
        parse_req
    };
    let encode = if bin { encode_resp } else { render_resp };
    let miss = out.layer_value("hibernate.miss_ratio");
    let restore_evict_ns = (median(&restores) + median(&evicts)) * 1e3;
    let op_ns = match mix {
        Mix::PredictRandom | Mix::PredictEach => predict_clean + miss * restore_evict_ns,
        // At depth 1 every observe is its own group commit and fsync.
        Mix::ObserveFeedback | Mix::Warm(_) => {
            observe + record_encode + median(&appends) + synced_us * 1e3
        }
        Mix::JobLoop => 0.45 * predict_dirty + 0.10 * (predict_clean + decide) + 0.45 * observe,
    };
    let path_us = match wire_proto {
        Some(_) => {
            (client_encode + decode + key_route + touch_hit + op_ns + encode + client_decode) / 1e3
        }
        // In-process, a question is `observe` plus a dirty `predict`.
        None => (observe + predict_dirty) / 1e3,
    };
    out.layer("transport.path_self_us", path_us);
    out.layer("transport.residual_us", p50_us - path_us);
    out.note(format!(
        "depth-1 p50 {p50_us:.2} us = {path_us:.2} us of layer self time on the request's \
         path + {:.2} us no layer owns (socket, wake-ups, thread hops, the clock)",
        p50_us - path_us
    ));

    out.children = child_spans(specs, &ops, bin);
    Ok(())
}

/// Replays the first requests one call at a time, each call timed on its
/// own: the child spans of those requests in the span file. A layer's self
/// time is its span; the request's unexplained time is its client span
/// minus these children.
fn child_spans(specs: &[PartitionSpec], ops: &[(usize, Op)], bin: bool) -> Vec<ChildSpan> {
    let mut spans = Vec::new();
    let mut parts: Vec<Partition> = specs.iter().take(64).map(warmed).collect();
    for (i, (p, op)) in ops.iter().take(SPAN_REQUESTS).enumerate() {
        let request = i as u64 + 1;
        let s = &specs[*p];
        let mut timed = |layer: &'static str, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            spans.push(ChildSpan {
                request,
                layer,
                ns: t.elapsed().as_nanos() as u64,
            });
        };
        let mut framed = Vec::new();
        let mut line = String::new();
        if bin {
            timed("client.encode_req", &mut || {
                bin_request_frame(&mut framed, request, s, op)
            });
            timed("frame.check", &mut || {
                black_box(frame::check(&framed, proto::MAX_REQ_PAYLOAD));
            });
            timed("proto.decode_request", &mut || {
                black_box(
                    proto::decode_request(&framed[frame::PREFIX_LEN..])
                        .1
                        .is_ok(),
                );
            });
        } else {
            timed("client.encode_req", &mut || {
                json_request_line(&mut line, request, s, op)
            });
            timed("json.parse+protocol.parse_request", &mut || {
                black_box(
                    Json::parse(line.trim_end())
                        .map(|v| protocol::parse_request(&v))
                        .ok(),
                );
            });
        }
        timed("registry.key_route", &mut || {
            black_box(key_of(s).shard_index(2));
        });
        let label = key_of(s).label();
        let mut reply = (Vec::new(), String::new());
        timed("registry.partition_op+encode_resp", &mut || {
            reply = apply(&mut parts[*p], &label, request, op);
        });
        timed("client.decode_resp", &mut || {
            if bin {
                black_box(proto::decode_response(&reply.0[frame::PREFIX_LEN..]).ok());
            } else {
                black_box(
                    Json::parse(&reply.1)
                        .ok()
                        .and_then(|v| reply_from_json(&v).ok()),
                );
            }
        });
    }
    spans
}

/// The traced run of `replay-catalog`: there is no server, so the scraped
/// metrics are left at zero, one child is booted only to time
/// `cli.boot_ms`, and the in-process ledger runs over partitions generated
/// from the seed.
pub fn replay_ledger(ctx: &Ctx, p50_us: f64, out: &mut Outcome) -> Result<(), String> {
    let dir = fresh_dir(&ctx.out.join(crate::REPLAY_CATALOG)).map_err(io_err("scratch dir"))?;
    let boot = Server::spawn(&ctx.qdelay_bin, &[], &dir.join("server.err"))
        .map_err(|e| format!("cannot start qdelay serve: {e}"))?
        .boot;
    out.layer("cli.boot_ms", boot.as_secs_f64() * 1e3);
    let trims = qdelay_telemetry::snapshot()
        .counter("predict.bmbp.trims")
        .unwrap_or(0);
    out.layer("predict.changepoint_trims", trims as f64);
    let specs = gen::partitions(ctx.seed, 64, 1024);
    ledger(ctx.seed, &specs, None, Mix::JobLoop, p50_us, &dir, out)
}
