//! The four socket workloads: set-up, the two closed-loop phases, the
//! final-state oracle, and (for `observe-durable`) the crash check.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use qdelay_json::Json;

use crate::affinity::Pinned;
use crate::child::{fresh_dir, Server};
use crate::conn::{control, Conn, Op, Proto, Reply};
use crate::gen::{self, Part, PartitionSpec};
use crate::load::{same_prediction, Limit, Mix, PhaseStats, Worker, SLICE};
use crate::util::{median, quantile_sorted, sliced_p99, sorted};
use crate::{Ctx, Metric, Outcome};

/// Requests each connection keeps in flight in the saturation phase.
pub const WINDOW: usize = 16;
/// Requests in flight per connection while warming up.
const WARM_WINDOW: usize = 64;
/// Observes per connection thrown at the server right before `SIGKILL`.
const CRASH_BURST: usize = 64;

pub struct Spec {
    pub name: &'static str,
    pub proto: Proto,
    pub partitions: usize,
    /// Observes per partition before anything is timed.
    pub warm: usize,
    /// Waits generated per partition (the stream wraps past this).
    pub pool: usize,
    pub mix: Mix,
    /// Server flags beyond the listeners and `--shards 2`.
    pub flags: fn(&Path) -> Vec<String>,
}

fn path_flag(flag: &str, path: PathBuf) -> [String; 2] {
    [flag.to_string(), path.to_string_lossy().into_owned()]
}

pub const SOCKET_WORKLOADS: [Spec; 4] = [
    Spec {
        name: "predict-hot",
        proto: Proto::Bin,
        partitions: 64,
        warm: 100,
        pool: 1024,
        mix: Mix::PredictRandom,
        flags: |_| Vec::new(),
    },
    Spec {
        name: "observe-durable",
        proto: Proto::Bin,
        partitions: 256,
        warm: 60,
        pool: 4096,
        mix: Mix::ObserveFeedback,
        flags: |dir| {
            let mut f = path_flag("--journal-path", dir.join("wal")).to_vec();
            // 256 KiB segments compacted at 1 MiB: a set-up's share of the
            // run crosses the compaction threshold a dozen times, so peak
            // RSS (the compactor's) grows smoothly with the operations done.
            // At the defaults a run sits right at the first threshold and
            // peak RSS doubles on the runs that happen to cross it.
            let more = [
                "--fsync",
                "always",
                "--segment-bytes",
                "262144",
                "--compact-bytes",
                "1048576",
            ];
            f.extend(more.map(String::from));
            f
        },
    },
    Spec {
        name: "predict-cold",
        proto: Proto::Bin,
        partitions: 3000,
        warm: 60,
        pool: 96,
        mix: Mix::PredictRandom,
        flags: |dir| {
            let mut f = path_flag("--snapshot-path", dir.join("snap.json")).to_vec();
            f.extend(["--max-resident".to_string(), "75".to_string()]);
            f
        },
    },
    Spec {
        name: "mixed-json",
        proto: Proto::Json,
        partitions: 1024,
        warm: 60,
        pool: 1024,
        mix: Mix::JobLoop,
        flags: |_| Vec::new(),
    },
];

/// A server with its warmed connections: what one set-up produces.
struct Rig {
    server: Server,
    workers: Vec<Worker>,
    dir: PathBuf,
}

fn addr_for(server: &Server, proto: Proto) -> std::net::SocketAddr {
    match proto {
        Proto::Bin => server.bin_addr,
        Proto::Json => server.json_addr,
    }
}

/// Runs `f` on every worker at once, one thread per connection.
fn on_all<R: Send>(workers: &mut [Worker], f: impl Fn(&mut Worker) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = workers.iter_mut().map(|w| s.spawn(|| f(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread panicked"))
            .collect()
    })
}

fn merged(all: Vec<PhaseStats>) -> PhaseStats {
    let mut total = PhaseStats::default();
    for s in all {
        total.merge(s);
    }
    total
}

/// Spawns the child, connects, warms every partition and ends with one
/// predict of each, so the timed phases start on clean partitions. Returns
/// the rig and the warm-up's accounting.
fn set_up(
    spec: &Spec,
    ctx: &Ctx,
    specs: &[PartitionSpec],
    extra_flags: &[String],
    tag: &str,
) -> Result<(Rig, PhaseStats), String> {
    let dir = fresh_dir(&ctx.out.join(spec.name).join(tag)).map_err(|e| e.to_string())?;
    let mut flags = (spec.flags)(&dir);
    flags.extend_from_slice(extra_flags);
    let server = Server::spawn(&ctx.qdelay_bin, &flags, &dir.join("server.err"))
        .map_err(|e| format!("cannot start qdelay serve: {e}"))?;
    // Each connection owns a disjoint slice of the partitions, so the
    // order of operations on a partition is the order one thread sent them.
    let mut workers = Vec::new();
    for c in 0..ctx.conns {
        let conn = Conn::connect(spec.proto, addr_for(&server, spec.proto))
            .map_err(|e| format!("cannot connect: {e}"))?;
        let parts: Vec<Part> = specs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % ctx.conns == c)
            .map(|(_, s)| Part::new(s.clone()))
            .collect();
        workers.push(Worker::new(
            conn,
            parts,
            crate::util::mix(ctx.seed, 0xC0 + c as u64),
        ));
    }
    let warm = spec.warm as u32;
    let stats = merged(on_all(&mut workers, |w| {
        let n = w.parts.len() as u64;
        let mut s = w.run_phase(
            Mix::Warm(warm),
            WARM_WINDOW,
            Limit::Ops(n * u64::from(warm)),
            false,
        );
        s.merge(w.run_phase(Mix::PredictEach, WARM_WINDOW, Limit::Ops(n), false));
        s
    }));
    Ok((
        Rig {
            server,
            workers,
            dir,
        },
        stats,
    ))
}

/// The median round trip of a phase, in microseconds.
fn p50_us(stats: &PhaseStats) -> f64 {
    median(&stats.latencies_ns) / 1e3
}

/// What one set-up's share of the measurement produced.
struct Round {
    /// Traced runs only: the depth-1 pass made with spans off.
    plain: Option<PhaseStats>,
    depth1: PhaseStats,
    sat: PhaseStats,
    /// Server CPU seconds and voluntary context switches across `sat`.
    cpu_s: f64,
    switches: u64,
    peak_rss_mib: f64,
}

impl Round {
    fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.sat.succeeded.max(1) as f64
    }
}

/// Runs the two timed phases against one rig, each for its `1/rounds`
/// share of the run's time.
fn measure(
    spec: &Spec,
    ctx: &Ctx,
    server: &Server,
    workers: &mut [Worker],
    rounds: u32,
) -> Result<Round, String> {
    let io = |e: std::io::Error| format!("/proc/{}: {e}", server.pid());
    // Traced: depth 1 once with spans off and once with spans on, so the
    // tracing overhead is a measured number.
    let plain = ctx
        .traced
        .then(|| depth1_phase(spec, workers, ctx.depth1_len() / rounds, false));
    let depth1 = depth1_phase(spec, workers, ctx.depth1_len() / rounds, ctx.traced);
    let cpu0 = server.cpu_seconds().map_err(io)?;
    let switches0 = server.voluntary_switches().unwrap_or(0);
    let sat = saturation_phase(
        spec,
        workers,
        WINDOW,
        ctx.saturation_len() / rounds,
        ctx.traced,
    );
    Ok(Round {
        plain,
        depth1,
        cpu_s: server.cpu_seconds().map_err(io)? - cpu0,
        switches: server.voluntary_switches().unwrap_or(0) - switches0,
        peak_rss_mib: server.peak_rss_mib().map_err(io)?,
        sat,
    })
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let specs = gen::partitions(ctx.seed, spec.partitions, spec.pool);
    let mut out = Outcome::new(spec.name);
    // Held to the end of the run; the server child and the generator
    // threads started below inherit the pin.
    let pinned = Pinned::to_one_cpu();
    out.note(match &pinned {
        Ok(p) => format!(
            "generator and server pinned to CPU {} (see src/affinity.rs)",
            p.cpu
        ),
        Err(e) => {
            format!("could not pin to one CPU ({e}): timings will wander with thread placement")
        }
    });
    out.note(format!(
        "{} partitions, {} warm-up observes each, {} connection(s), window {WINDOW}",
        spec.partitions, spec.warm, ctx.conns
    ));

    // Every set-up gets an equal share of the measurement and every metric
    // is the median over the set-ups: a server instance that happens to run
    // slow (one in five or so does, by a quarter, from its first request to
    // its last) then moves nothing.
    let setups = ctx.setups();
    let mut setup_s = Vec::new();
    let mut rounds = Vec::new();
    let mut warm_up = PhaseStats::default();
    let mut last_rig = None;
    let mut before = None;
    for round in 0..setups {
        drop(last_rig.take());
        let started = Instant::now();
        let (mut rig, warm) = set_up(spec, ctx, &specs, &[], &format!("setup{round}"))?;
        setup_s.push(started.elapsed().as_secs_f64());
        warm_up.merge(warm);
        if ctx.traced {
            before = Some(Scrape::take(&rig.server));
        }
        rounds.push(measure(
            spec,
            ctx,
            &rig.server,
            &mut rig.workers,
            setups as u32,
        )?);
        last_rig = Some(rig);
    }
    let Rig {
        server,
        mut workers,
        dir,
    } = last_rig.expect("at least one set-up");
    out.server_flags = server.flags.clone();
    out.layer("cli.boot_ms", server.boot.as_secs_f64() * 1e3);

    // Requests sent between the two scrapes of a traced run.
    let mut scraped_ops = 0;
    let observes = matches!(spec.mix, Mix::ObserveFeedback | Mix::JobLoop);
    let oracle = observes.then(|| {
        merged(on_all(&mut workers, |w| {
            let n = w.parts.len() as u64;
            w.run_phase(Mix::PredictEach, 1, Limit::Ops(n), false)
        }))
    });
    let after = ctx.traced.then(|| Scrape::take(&server));

    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let rps = per_round(&|r| sustained_rps(&r.sat));
    let p50 = per_round(&|r| p50_us(&r.depth1));
    let cpu = per_round(&Round::cpu_us_per_op);
    let rss = per_round(&|r| r.peak_rss_mib);
    let cov = |f: fn(&PhaseStats) -> u64| -> u64 {
        rounds.iter().map(|r| f(&r.depth1) + f(&r.sat)).sum()
    };
    let (cov_hits, cov_total) = (cov(|s| s.cov_hits), cov(|s| s.cov_total).max(1));
    out.e2e = vec![
        Metric::new("throughput_rps", median(&rps), "ops/s"),
        Metric::new("latency_p50_us", median(&p50), "us"),
        Metric::new("cpu_us_per_op", median(&cpu), "us"),
        Metric::new("peak_rss_mb", median(&rss), "MiB"),
        Metric::new(
            "bound_coverage",
            cov_hits as f64 / cov_total as f64,
            "fraction",
        ),
        Metric::new("setup_s", median(&setup_s), "s"),
    ];
    out.note(format!(
        "per set-up: setup_s {setup_s:.3?}, latency_p50_us {p50:.2?}, throughput_rps {rps:.0?}, \
         cpu_us_per_op {cpu:.2?}, peak_rss_mb {rss:.1?}; each metric is the median"
    ));
    out.note(format!(
        "coverage from {cov_total} waits held against the BMBP bound served just before"
    ));

    // The last round is the one a traced run keeps spans and ledgers of.
    let last = rounds.pop().expect("at least one set-up");
    let (mut depth1, mut sat) = (PhaseStats::default(), PhaseStats::default());
    for r in rounds {
        depth1.merge(r.depth1);
        sat.merge(r.sat);
    }
    let (d1_sent, sat_sent) = (last.depth1.sent, last.sat.sent);
    let d1_p99_us = sliced_p99(&last.depth1.latencies_ns) / 1e3;
    let sat_ns = sorted(last.sat.latencies_ns.clone());
    let sat_mean_rps = last.sat.succeeded as f64 / last.sat.wall.as_secs_f64();
    let switches_per_op = last.switches as f64 / last.sat.succeeded.max(1) as f64;
    let spans: Vec<_> = [&last.depth1.spans[..], &last.sat.spans[..]].concat();
    depth1.merge(last.depth1);
    sat.merge(last.sat);
    out.phase("warm-up", &warm_up);
    if let Some(plain) = &last.plain {
        out.phase("depth-1 (spans off)", plain);
        scraped_ops += plain.sent;
    }
    out.phase("depth-1", &depth1);
    out.phase("saturation", &sat);
    if let Some(oracle) = &oracle {
        out.phase("final-state oracle", oracle);
        scraped_ops += oracle.sent;
    }

    let mut recover = None;
    if spec.name == "observe-durable" {
        recover = Some(crash_check(
            spec,
            ctx,
            server,
            &mut workers,
            &dir,
            &mut out,
        )?);
    } else {
        drop(server);
    }

    if let (Some(before), Some(after), Some(plain)) = (before, after, &last.plain) {
        let plain_p50 = p50_us(plain);
        out.layer("client.latency_p99_us", d1_p99_us);
        out.layer("client.sat_rps_mean", sat_mean_rps);
        out.layer(
            "client.sat_latency_p50_us",
            quantile_sorted(&sat_ns, 0.5) / 1e3,
        );
        out.layer(
            "client.sat_latency_p99_us",
            quantile_sorted(&sat_ns, 0.99) / 1e3,
        );
        out.layer("server.ctx_switches_per_op", switches_per_op);
        out.layer(
            "bench.trace_overhead_frac",
            (median(&p50) - plain_p50) / plain_p50,
        );
        scraped_ops += d1_sent + sat_sent;
        after.report(&before, spec.proto, scraped_ops.max(1) as f64, &mut out);
        if let Some((recover_s, records_per_s)) = recover {
            out.layer("journal.recover_s", recover_s);
            out.layer("journal.recover_records_per_s", records_per_s);
            replication_pass(spec, ctx, &specs, sat_mean_rps, &mut out)?;
        }
        out.layer("bench.traced_ops", spans.len() as f64);
        out.spans = spans;
        let scratch = ctx.out.join(spec.name);
        crate::layers::ledger(
            ctx.seed,
            &specs,
            Some(spec.proto),
            spec.mix,
            plain_p50,
            &scratch,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Saturation throughput as the upper quartile of the per-[`SLICE`]
/// completion rates. The mean over the phase loses whole slices to stalls
/// that are not the service's (another process taking the CPU for a few
/// milliseconds) and repeated about twice as badly in every set of runs
/// tried; the rate the service sustains between stalls is what repeats. The
/// plain mean is reported per layer as `client.sat_rps_mean`, so a change
/// that adds stalls of its own still shows.
fn sustained_rps(sat: &PhaseStats) -> f64 {
    // The first slice holds the window fill and the last is partial.
    let full = match sat.slices.len() {
        0 => return 0.0,
        n if n > 4 => &sat.slices[1..n - 1],
        _ => &sat.slices[..],
    };
    let rates: Vec<f64> = full
        .iter()
        .map(|&n| f64::from(n) / SLICE.as_secs_f64())
        .collect();
    quantile_sorted(&sorted(rates), 0.75)
}

/// The saturation phase: every connection keeps `window` requests in flight
/// for `length`.
fn saturation_phase(
    spec: &Spec,
    workers: &mut [Worker],
    window: usize,
    length: Duration,
    traced: bool,
) -> PhaseStats {
    let deadline = Instant::now() + length;
    merged(on_all(workers, |w| {
        w.run_phase(spec.mix, window, Limit::Until(deadline), traced)
    }))
}

/// The depth-1 phase: one request in flight in the whole system. The
/// connections take turns, an equal share of `length` each, so every
/// partition is asked and nothing contends with the request being timed.
fn depth1_phase(spec: &Spec, workers: &mut [Worker], length: Duration, traced: bool) -> PhaseStats {
    let share = length / workers.len() as u32;
    let turns = workers
        .iter_mut()
        .map(|w| w.run_phase(spec.mix, 1, Limit::Until(Instant::now() + share), traced));
    merged(turns.collect())
}

/// The server's own view, scraped over the `metrics` and `stats` methods.
pub struct Scrape {
    telemetry: Json,
}

impl Scrape {
    pub fn take(server: &Server) -> Scrape {
        let telemetry = control(server.json_addr, "metrics")
            .ok()
            .and_then(|m| m.get("current").cloned())
            .unwrap_or(Json::Null);
        Scrape { telemetry }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.telemetry
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.telemetry
            .get("gauges")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    pub fn hist(&self, name: &str, q: &str) -> f64 {
        self.telemetry
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(q))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Emits the scraped per-layer metrics; `self` is the scrape after the
    /// timed phases, `before` the one ahead of them. The server's stage
    /// histograms cannot be reset, so they also hold the warm-up.
    fn report(&self, before: &Scrape, proto: Proto, ops: f64, out: &mut Outcome) {
        let p = match proto {
            Proto::Bin => "bin",
            Proto::Json => "json",
        };
        for stage in ["decode", "queue", "handle", "reply"] {
            for q in ["p50", "p99"] {
                let name = format!("server.stage.{stage}_ns_{q}");
                out.layer(&name, self.hist(&format!("serve.stage.{p}.{stage}_ns"), q));
            }
        }
        let delta = |name: &str| self.counter(name) - before.counter(name);
        out.layer(
            "server.batch_size_p50",
            self.hist("serve.batch_size", "p50"),
        );
        out.layer("server.rejects", delta("serve.rejects"));
        out.layer(
            "hibernate.miss_ratio",
            delta("serve.hibernate.restores") / ops,
        );
        out.layer(
            "hibernate.compactions",
            delta("serve.hibernate.spill_compactions"),
        );
        out.layer("journal.fsyncs_per_op", delta("journal.fsyncs") / ops);
        let commits = delta("journal.commits");
        out.layer(
            "journal.records_per_commit",
            if commits > 0.0 {
                delta("journal.records") / commits
            } else {
                0.0
            },
        );
        out.layer("predict.changepoint_trims", delta("predict.bmbp.trims"));
    }
}

/// The durability check: throw a burst at the server, `SIGKILL` it with the
/// burst in flight, boot a new child on the same journal, and require every
/// partition to come back at a sequence number no lower than the last one
/// acknowledged, serving the bounds the shadow computes for exactly that
/// prefix. Returns `(boot-to-first-reply seconds, journal records replayed
/// per second of the journal's own recovery time)`.
fn crash_check(
    spec: &Spec,
    ctx: &Ctx,
    server: Server,
    workers: &mut [Worker],
    dir: &Path,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    struct Pending {
        part: usize,
        id: u64,
        wait: f64,
        bmbp: Option<f64>,
        lognormal: Option<f64>,
        acked: bool,
    }
    // One observe for each of the first CRASH_BURST partitions of every
    // connection; the shadow is advanced only for those that prove durable.
    let mut bursts: Vec<Vec<Pending>> = Vec::new();
    for w in workers.iter_mut() {
        let mut burst = Vec::new();
        for part in 0..w.parts.len().min(CRASH_BURST) {
            let p = &mut w.parts[part];
            let served = p.shadow.predict();
            let wait = p.next_wait();
            let id = u64::MAX - part as u64;
            let op = Op::Observe {
                wait,
                bmbp: served.bmbp,
                lognormal: served.lognormal,
            };
            w.conn.queue(id, &p.spec, &op);
            burst.push(Pending {
                part,
                id,
                wait,
                bmbp: served.bmbp,
                lognormal: served.lognormal,
                acked: false,
            });
        }
        bursts.push(burst);
    }
    for w in workers.iter_mut() {
        let _ = w.conn.flush();
    }
    // Kill on the first acknowledgement: at least one observe is known
    // durable, and the rest of the burst is wherever the crash caught it.
    let mut acked = 0u64;
    let mut killed = Some(server);
    for (w, burst) in workers.iter_mut().zip(&mut bursts) {
        while let Ok((id, reply)) = w.conn.recv() {
            if let (Some(p), Reply::Observe { .. }) = (burst.iter_mut().find(|p| p.id == id), reply)
            {
                p.acked = true;
                acked += 1;
            }
            if let Some(server) = killed.take() {
                server.kill();
            }
        }
    }
    drop(killed);

    let started = Instant::now();
    let flags = (spec.flags)(dir);
    let server = Server::spawn(&ctx.qdelay_bin, &flags, &dir.join("server-recovered.err"))
        .map_err(|e| format!("cannot restart qdelay serve on its journal: {e}"))?;
    let mut recover_s = None;
    let (mut checked, mut bad, mut applied) = (0u64, 0u64, 0u64);
    let mut first_bad = None;
    for (w, burst) in workers.iter_mut().zip(&bursts) {
        let mut conn = Conn::connect(spec.proto, addr_for(&server, spec.proto))
            .map_err(|e| format!("cannot connect to the recovered server: {e}"))?;
        for (i, part) in w.parts.iter_mut().enumerate() {
            conn.queue(i as u64 + 1, &part.spec, &Op::Predict);
            checked += 1;
            let reply = conn
                .flush()
                .map_err(|e| e.to_string())
                .and_then(|()| conn.recv().map_err(|e| format!("{e:?}")));
            recover_s.get_or_insert_with(|| started.elapsed().as_secs_f64());
            let pending = burst.iter().find(|p| p.part == i);
            let verdict = match reply {
                Ok((
                    _,
                    Reply::Predict {
                        n,
                        seq,
                        bmbp,
                        lognormal,
                    },
                )) => {
                    let base = part.shadow.seq();
                    match pending {
                        Some(p) if seq == base + 1 => {
                            part.shadow.observe(p.wait, p.bmbp, p.lognormal);
                            applied += 1;
                        }
                        Some(p) if p.acked => {
                            bad += 1;
                            first_bad.get_or_insert(format!(
                                "{}: observe seq {} was acknowledged but recovered seq is {seq}",
                                part.spec.site,
                                base + 1
                            ));
                            continue;
                        }
                        _ => {}
                    }
                    let want = part.shadow.predict();
                    if same_prediction(&want, n, seq, bmbp, lognormal) {
                        Ok(())
                    } else {
                        Err(format!("recovered seq {seq} serves bounds that differ from the shadow replay of that prefix"))
                    }
                }
                Ok((_, other)) => Err(format!("recovered server answered {other:?}")),
                Err(e) => Err(e),
            };
            if let Err(why) = verdict {
                bad += 1;
                first_bad.get_or_insert(format!("{}: {why}", part.spec.site));
            }
        }
    }
    let scrape = Scrape::take(&server);
    let records = scrape.counter("journal.recovery.records");
    // The journal's own replay time (whole milliseconds), without the boot.
    let replay_s = scrape.gauge("journal.recovery_ms").max(1.0) / 1e3;
    drop(server);
    out.attempted += checked;
    out.failed += bad;
    out.note(format!(
        "crash check: SIGKILL with {} observes in flight ({acked} acknowledged, {applied} found \
         durable); {checked} partitions recovered, {bad} wrong; {records} journal records replayed",
        bursts.iter().map(Vec::len).sum::<usize>()
    ));
    out.note(format!(
        "a process kill keeps the OS page cache, so this checks crash durability, not power-loss \
         durability; scratch filesystem: {}",
        crate::env::fs_type(dir)
    ));
    if let Some(why) = first_bad {
        out.note(format!("first crash-check failure: {why}"));
    }
    Ok((recover_s.unwrap_or(0.0), records / replay_s))
}

/// The one extra pass of a traced `observe-durable` run: a fresh primary
/// with a replication listener, a `--replicate-from` child attached to it,
/// and a short saturation phase with the replica tailing the journal.
/// Reported, not gated: a third process on two cores does not repeat well
/// enough to be an end-to-end metric.
fn replication_pass(
    spec: &Spec,
    ctx: &Ctx,
    specs: &[PartitionSpec],
    base_rps: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let listen = ["--listen-repl".to_string(), "127.0.0.1:0".to_string()];
    let (
        Rig {
            server,
            mut workers,
            dir,
        },
        warm,
    ) = set_up(spec, ctx, specs, &listen, "repl-primary")?;
    out.phase("replication warm-up", &warm);
    let repl_addr = server
        .repl_addr
        .ok_or("primary printed no replication address")?;
    let replica = Server::spawn(
        &ctx.qdelay_bin,
        &["--replicate-from".to_string(), repl_addr.to_string()],
        &dir.join("replica.err"),
    )
    .map_err(|e| format!("cannot start the replica: {e}"))?;
    // The warm-up is already journaled: the replica has that much to catch
    // up on before it reports CAUGHT_UP.
    let observations = |s: &Server| {
        control(s.json_addr, "stats")
            .ok()
            .and_then(|v| v.get("observations").and_then(Json::as_f64))
    };
    let backlog = observations(&server).unwrap_or(0.0);
    let waited = Instant::now();
    while observations(&replica).unwrap_or(0.0) < backlog {
        if waited.elapsed() > Duration::from_secs(20) {
            return Err("the replica never caught up with the primary".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let catchup_ms = Scrape::take(&replica).hist("repl.catchup_ms", "p50");
    out.layer(
        "repl.catchup_records_per_s",
        backlog / (catchup_ms.max(1.0) / 1e3),
    );

    let deadline = Instant::now() + ctx.saturation_len();
    let (sat, lag_max) = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| s.spawn(move || w.run_phase(spec.mix, WINDOW, Limit::Until(deadline), false)))
            .collect();
        let mut lag_max = 0.0f64;
        while Instant::now() < deadline {
            lag_max = lag_max.max(Scrape::take(&server).gauge("repl.lag_records"));
            std::thread::sleep(Duration::from_millis(100));
        }
        let stats = handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread panicked"));
        (merged(stats.collect()), lag_max)
    });
    out.phase("saturation with a replica", &sat);
    out.layer(
        "repl.observe_rps_ratio",
        sat.succeeded as f64 / sat.wall.as_secs_f64() / base_rps,
    );
    out.layer("repl.lag_records_max", lag_max);
    Ok(())
}
