//! `qdelay` — command-line queue-delay bound prediction.
//!
//! The "work prototype ... being integrated with various batch scheduling
//! systems" the paper describes (§1), as a standalone tool:
//!
//! ```text
//! qdelay predict <trace-file> [--quantile Q] [--confidence C] [--lower]
//! qdelay evaluate <trace-file> [--epoch SECS] [--training FRAC]
//! qdelay generate <machine> <queue> [--seed N]
//! qdelay simulate [--days N] [--procs N] [--policy fcfs|easy|conservative|predictive]
//!                 [--seed N]
//! qdelay serve [--listen ADDR] [--listen-binary ADDR] [--shards N] [--snapshot-path FILE]
//!              [--journal-path DIR] [--fsync always|never|interval[:ms]]
//!              [--segment-bytes N] [--compact-bytes N]
//!              [--listen-repl ADDR | --replicate-from ADDR]
//!              [--slow-request-us N] [--flight-recorder-depth N] [--metrics-interval MS]
//! qdelay stats [--connect ADDR[,ADDR...]] [--watch] [--interval-ms MS] [--samples N]
//! qdelay admit --site S --queue Q --procs N --budget SECS
//!              [--connect ADDR[,ADDR...]] [--confidence C]
//! qdelay promote [--connect ADDR]
//! qdelay snapshot export <file>
//! qdelay catalog
//! qdelay paper <exhibit|all> [--seed N]
//! ```
//!
//! `--connect` takes a comma-separated failover list (primary plus
//! replicas): the idempotent commands (`stats`, `admit`) retry on the
//! next peer when the connected server dies. `promote` targets exactly
//! one server — promoting "whichever answered" would be a footgun. A
//! replica (`--replicate-from`) also promotes on SIGHUP.
//!
//! Every command additionally accepts `--telemetry <path.json>`: on
//! success, the first-party telemetry registry (`qdelay-telemetry`) is
//! snapshotted to that file as deterministic JSON and a summary table is
//! printed to stderr.
//!
//! Trace files use the native format (`submit_unix wait_secs [procs [run]]`,
//! `#` comments) or SWF (auto-detected via a `;` header or 18-field rows).

mod paper;

use qdelay_predict::bmbp::Bmbp;
use qdelay_predict::{BoundSpec, QuantilePredictor};
use qdelay_sim::harness::{self, HarnessConfig};
use qdelay_sim::paper::MethodKind;
use qdelay_trace::{catalog, swf, synth, Trace};
use std::io::Write;
use std::process::ExitCode;

/// Writes bulk output to stdout, exiting quietly when the reader closed the
/// pipe (`qdelay generate ... | head` and `qdelay paper ... | head` must not
/// panic).
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("qdelay: write failed: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--telemetry` is global: strip it before command dispatch so every
    // subcommand accepts it uniformly.
    let telemetry_path = match extract_telemetry_flag(&mut args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("qdelay: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("predict") => cmd_predict(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("admit") => cmd_admit(&args[1..]),
        Some("promote") => cmd_promote(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("catalog") => cmd_catalog(&args[1..]),
        Some("paper") => cmd_paper(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    let result = result.and_then(|()| {
        match &telemetry_path {
            Some(path) => export_telemetry(path),
            None => Ok(()),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("qdelay: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Removes `--telemetry <path.json>` from `args`, returning the path.
fn extract_telemetry_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == "--telemetry") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--telemetry needs a file path".to_string());
    }
    let path = args.remove(i + 1);
    args.remove(i);
    if args.iter().any(|a| a == "--telemetry") {
        return Err("--telemetry given more than once".to_string());
    }
    Ok(Some(path))
}

/// Writes the registry snapshot as JSON to `path` and prints the human
/// summary table to stderr (stdout stays reserved for command output).
fn export_telemetry(path: &str) -> Result<(), String> {
    let snap = qdelay_telemetry::snapshot();
    let mut json = snap.to_json().to_string_pretty();
    json.push('\n');
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("qdelay: telemetry snapshot written to {path}");
    eprint!("{}", snap.render_table());
    Ok(())
}

fn print_usage() {
    println!(
        "qdelay — predict bounds on batch-queue delay (BMBP)\n\n\
         USAGE:\n\
         \x20 qdelay predict <trace-file> [--quantile Q] [--confidence C] [--lower]\n\
         \x20 qdelay evaluate <trace-file> [--epoch SECS] [--training FRAC]\n\
         \x20 qdelay generate <machine> <queue> [--seed N]\n\
         \x20 qdelay simulate [--days N] [--procs N]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--policy fcfs|easy|conservative|predictive]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--seed N]\n\
         \x20 qdelay serve [--listen ADDR] [--listen-binary ADDR] [--shards N]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--snapshot-path FILE]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--journal-path DIR] [--fsync always|never|interval[:ms]]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--segment-bytes N] [--compact-bytes N]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--listen-repl ADDR | --replicate-from ADDR]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--max-resident N]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--slow-request-us N] [--flight-recorder-depth N]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--metrics-interval MS]\n\
         \x20 qdelay stats [--connect ADDR[,ADDR...]] [--watch] [--interval-ms MS] [--samples N]\n\
         \x20 qdelay admit --site S --queue Q --procs N --budget SECS\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--connect ADDR[,ADDR...]] [--confidence C]\n\
         \x20 qdelay promote [--connect ADDR]\n\
         \x20 qdelay snapshot export <file>\n\
         \x20 qdelay catalog\n\
         \x20 qdelay paper <exhibit|all> [--seed N]\n\n\
         Serving (Linux only): --shards N means N shards and N I/O threads;\n\
         a connection belongs to one thread, which executes its requests\n\
         itself under the owning shard's lock. --listen takes JSON lines,\n\
         --listen-binary the CRC-framed binary codec; both carry every\n\
         method. stats, snapshot, metrics, trace, promote and shutdown pause\n\
         the other connections of the thread they arrive on, so keep them\n\
         rare.\n\n\
         Replication: --listen-repl (with --journal-path) ships the WAL to\n\
         replicas; --replicate-from runs a read-only warm standby that a\n\
         SIGHUP or 'qdelay promote' turns into a primary. --connect takes a\n\
         comma-separated failover list for stats/admit.\n\n\
         Capacity: --max-resident N caps the partitions each shard keeps in\n\
         memory; cold ones hibernate to spill files (next to the journal or\n\
         snapshot — one of --journal-path / --snapshot-path is required)\n\
         and are restored bit-identically by their next observe (a predict\n\
         or admit of one is answered from the index, without a restore).\n\n\
         Snapshots: a --snapshot-path file and a journal directory's\n\
         snapshot.json hold framed binary partition records; 'qdelay\n\
         snapshot export FILE' prints one as the JSON snapshot document.\n\n\
         Evaluation: --epoch is the whole number of seconds between\n\
         refits (default 300, the paper's; 0 refits before every arrival).\n\n\
         Exhibits: 'qdelay paper' regenerates table1, tables34, tables567,\n\
         table8, figure1, figure2, ablations (or all of them) at --seed\n\
         (default 42), writing results_tables34.json, results_tables567.json,\n\
         figure1.csv and figure2.csv into the working directory.\n\n\
         Any command also accepts --telemetry <path.json>: on success the\n\
         internal counters/gauges/latency histograms are exported there as\n\
         JSON and summarized on stderr.\n\n\
         Trace files: native format 'submit_unix wait_secs [procs [run]]'\n\
         or Standard Workload Format (auto-detected)."
    );
}

/// The flags each command reads. `--telemetry` is global and stripped
/// before dispatch; any other flag a command does not read is an error.
fn accepted_flags(command: &str) -> &'static [&'static str] {
    match command {
        "predict" => &["--quantile", "--confidence", "--lower"],
        "evaluate" => &["--epoch", "--training"],
        "generate" => &["--seed"],
        "simulate" => &["--days", "--procs", "--policy", "--seed"],
        "serve" => &[
            "--listen", "--listen-binary", "--shards", "--snapshot-path", "--journal-path",
            "--fsync", "--segment-bytes", "--compact-bytes", "--listen-repl", "--replicate-from",
            "--max-resident", "--slow-request-us", "--flight-recorder-depth", "--metrics-interval",
        ],
        "stats" => &["--connect", "--watch", "--interval-ms", "--samples"],
        "admit" => &["--site", "--queue", "--procs", "--budget", "--confidence", "--connect"],
        "promote" => &["--connect"],
        "paper" => &["--seed"],
        _ => &[],
    }
}

/// `text` as a number of at least `min`.
fn at_least(flag: &str, text: &str, min: f64) -> Result<f64, String> {
    let v = text.parse::<f64>().ok().filter(|v| !v.is_nan());
    match v.ok_or_else(|| format!("bad value for {flag}"))? {
        v if v < min => Err(format!("{flag} must be at least {min}")),
        v => Ok(v),
    }
}

/// `text` as a whole number of at least `min` that fits `T`. A fraction,
/// a sign, an exponent or an overflow is an error naming the flag, never a
/// truncation or a saturation.
fn whole<T: TryFrom<u64>>(flag: &str, text: &str, min: u64) -> Result<T, String> {
    let out_of_range = || format!("{flag} is out of range, got '{text}'");
    let v = text.parse::<u64>().map_err(|e| match e.kind() {
        std::num::IntErrorKind::PosOverflow => out_of_range(),
        _ => format!("{flag} takes a whole number, got '{text}'"),
    })?;
    if v < min {
        return Err(format!("{flag} must be at least {min}"));
    }
    T::try_from(v).map_err(|_| out_of_range())
}

/// Pulls `--flag value` out of `command`'s argument list; returns the
/// remaining positionals. A flag the command does not read
/// ([`accepted_flags`]) is an error naming both — never a positional, and
/// never silently ignored.
fn parse_flags(command: &str, args: &[String]) -> Result<(Vec<String>, Flags), String> {
    const ANY: f64 = f64::NEG_INFINITY;
    let mut flags = Flags::default();
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        if !flag.starts_with("--") {
            positional.push(arg.clone());
            continue;
        }
        if !accepted_flags(command).contains(&flag) {
            return Err(format!("'{command}' does not take {flag} (try --help)"));
        }
        let mut value =
            |what: &str| args.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        let mut num = |min: f64| at_least(flag, &value("a value")?, min);
        macro_rules! int {
            ($min:expr) => {
                whole(flag, &value("a value")?, $min)?
            };
        }
        match flag {
            "--quantile" => flags.quantile = num(ANY)?,
            "--confidence" => flags.confidence = num(ANY)?,
            "--epoch" => {
                let text = value("a value")?;
                let bad = || format!("{flag} takes whole seconds, got '{text}'");
                flags.epoch = text.parse().map_err(|_| bad())?;
            }
            "--training" => flags.training = num(ANY)?,
            "--seed" => flags.seed = int!(0),
            "--days" => flags.days = int!(0),
            "--procs" => flags.procs = int!(0),
            "--lower" => flags.lower = true,
            "--watch" => flags.watch = true,
            "--policy" => flags.policy = value("a value")?,
            "--listen" => flags.listen = value("a host:port")?,
            "--listen-binary" => flags.listen_binary = Some(value("a host:port")?),
            "--snapshot-path" => flags.snapshot_path = Some(value("a file path")?),
            "--journal-path" => flags.journal_path = Some(value("a directory")?),
            "--listen-repl" => flags.listen_repl = Some(value("a host:port")?),
            "--replicate-from" => flags.replicate_from = Some(value("a host:port")?),
            "--connect" => flags.connect = value("a host:port")?,
            "--site" => flags.site = value("a name")?,
            "--queue" => flags.queue = value("a name")?,
            "--fsync" => {
                let spec = value("always | never | interval[:ms]")?;
                flags.fsync = Some(qdelay_serve::durability::FsyncPolicy::parse(&spec)?);
            }
            "--segment-bytes" => flags.segment_bytes = Some(int!(1)),
            "--compact-bytes" => flags.compact_bytes = Some(int!(1)),
            "--shards" => flags.shards = int!(1),
            "--max-resident" => flags.max_resident = Some(int!(0)),
            "--slow-request-us" => flags.slow_request_us = Some(int!(0)),
            "--flight-recorder-depth" => flags.flight_recorder_depth = Some(int!(1)),
            "--metrics-interval" => flags.metrics_interval_ms = Some(int!(1)),
            "--interval-ms" => flags.interval_ms = int!(1),
            "--samples" => flags.samples = int!(0),
            "--budget" => match num(0.0)? {
                b if b.is_finite() => flags.budget = Some(b),
                _ => return Err("--budget must be a finite number of wait-seconds".into()),
            },
            _ => return Err(format!("'{command}' lists {flag} but does not read it")),
        }
    }
    Ok((positional, flags))
}

struct Flags {
    quantile: f64,
    confidence: f64,
    epoch: u64,
    training: f64,
    seed: u64,
    days: u32,
    procs: u32,
    lower: bool,
    policy: String,
    listen: String,
    listen_binary: Option<String>,
    shards: usize,
    max_resident: Option<usize>,
    snapshot_path: Option<String>,
    journal_path: Option<String>,
    listen_repl: Option<String>,
    replicate_from: Option<String>,
    fsync: Option<qdelay_serve::durability::FsyncPolicy>,
    segment_bytes: Option<u64>,
    compact_bytes: Option<u64>,
    slow_request_us: Option<u64>,
    flight_recorder_depth: Option<usize>,
    metrics_interval_ms: Option<u64>,
    connect: String,
    watch: bool,
    interval_ms: u64,
    samples: u64,
    site: String,
    queue: String,
    budget: Option<f64>,
}

impl Default for Flags {
    fn default() -> Self {
        Self {
            quantile: 0.95,
            confidence: 0.95,
            epoch: 300,
            training: 0.10,
            seed: 42,
            days: 30,
            procs: 128,
            lower: false,
            policy: "easy".to_string(),
            listen: "127.0.0.1:4680".to_string(),
            listen_binary: None,
            shards: 4,
            max_resident: None,
            snapshot_path: None,
            journal_path: None,
            listen_repl: None,
            replicate_from: None,
            fsync: None,
            segment_bytes: None,
            compact_bytes: None,
            slow_request_us: None,
            flight_recorder_depth: None,
            metrics_interval_ms: None,
            connect: "127.0.0.1:4680".to_string(),
            watch: false,
            interval_ms: 1000,
            samples: 0,
            site: String::new(),
            queue: String::new(),
            budget: None,
        }
    }
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // SWF detection: ';' header or first data line with many fields.
    let looks_swf = text.lines().any(|l| l.trim_start().starts_with(';'))
        || text
            .lines()
            .find(|l| !l.trim().is_empty())
            .is_some_and(|l| l.split_whitespace().count() >= 15);
    if looks_swf {
        let log = swf::parse_swf(&text).map_err(|e| e.to_string())?;
        let mut traces = log.to_traces("swf");
        if traces.is_empty() {
            return Err("SWF log holds no usable jobs".to_string());
        }
        traces.sort_by_key(|t| std::cmp::Reverse(t.len()));
        let t = traces.remove(0);
        eprintln!(
            "qdelay: SWF log; using largest queue '{}' ({} jobs)",
            t.queue(),
            t.len()
        );
        Ok(t)
    } else {
        Trace::parse_native("file", "queue", &text).map_err(|e| e.to_string())
    }
}

fn cmd_predict(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("predict", args)?;
    let path = pos.first().ok_or("predict needs a trace file")?;
    let trace = load_trace(path)?;
    let spec =
        BoundSpec::new(flags.quantile, flags.confidence).map_err(|e| e.to_string())?;
    let mut bmbp = Bmbp::with_defaults();
    for j in &trace {
        bmbp.observe(j.wait_secs);
    }
    let outcome = if flags.lower {
        bmbp.lower_bound_for(spec)
    } else {
        bmbp.upper_bound_for(spec)
    };
    match outcome.value() {
        Some(v) => {
            let dir = if flags.lower { "lower" } else { "upper" };
            println!(
                "{v:.0}  # {:.0}%-confidence {dir} bound on the {:.2} quantile, from {} waits",
                flags.confidence * 100.0,
                flags.quantile,
                trace.len()
            );
            Ok(())
        }
        None => Err(format!(
            "not enough history ({} jobs) for this quantile/confidence",
            trace.len()
        )),
    }
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("evaluate", args)?;
    let path = pos.first().ok_or("evaluate needs a trace file")?;
    let trace = load_trace(path)?;
    let cfg = HarnessConfig {
        epoch_secs: flags.epoch,
        training_fraction: flags.training,
        sample: None,
    };
    println!(
        "{:<18} {:>8} {:>9} {:>13}",
        "method", "jobs", "correct", "median ratio"
    );
    for method in MethodKind::ALL {
        let res = harness::run(&trace, method.make().as_mut(), &cfg);
        let m = res.metrics();
        println!(
            "{:<18} {:>8} {:>8.3}{} {:>13.2e}",
            res.predictor,
            m.jobs,
            m.correct_fraction,
            if m.is_correct(0.95) { " " } else { "*" },
            m.median_ratio
        );
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("generate", args)?;
    let machine = pos.first().ok_or("generate needs <machine> <queue>")?;
    let queue = pos.get(1).ok_or("generate needs <machine> <queue>")?;
    let profile = catalog::find(machine, queue)
        .ok_or_else(|| format!("no catalog entry {machine}/{queue} (see 'qdelay catalog')"))?;
    let trace = synth::generate(&profile, &synth::SynthSettings::with_seed(flags.seed));
    emit(&trace.to_native());
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    use qdelay_batchsim::engine::Simulation;
    use qdelay_batchsim::policy::SchedulerPolicy;
    use qdelay_batchsim::workload::WorkloadConfig;
    use qdelay_batchsim::MachineConfig;
    let (_, flags) = parse_flags("simulate", args)?;
    let policy = match flags.policy.as_str() {
        "fcfs" => SchedulerPolicy::Fcfs,
        "easy" => SchedulerPolicy::EasyBackfill,
        "conservative" => SchedulerPolicy::ConservativeBackfill,
        "predictive" => SchedulerPolicy::PredictiveBackfill,
        other => return Err(format!("unknown policy '{other}'")),
    };
    let mut sim = Simulation::new(MachineConfig::single_queue(flags.procs), policy);
    let traces = sim.run(&WorkloadConfig {
        days: flags.days,
        seed: flags.seed,
        ..WorkloadConfig::default()
    });
    emit(&traces[0].to_native());
    Ok(())
}

/// Runs the prediction service in the foreground until a client sends
/// `{"method":"shutdown"}`. With `--snapshot-path`, state is restored from
/// the file at boot (if present) and written back at graceful shutdown, so
/// a restarted server picks up serving bit-identical bounds. With
/// `--journal-path`, every acknowledged observation is additionally
/// write-ahead logged before its ack, and boot recovery (snapshot ⊕
/// journal) survives `kill -9`. `--listen-repl` ships that WAL to
/// replicas; `--replicate-from` runs this process as a read-only warm
/// standby that SIGHUP (or `qdelay promote`) turns into a primary.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use qdelay_serve::server::{Server, ServerConfig};
    let (pos, flags) = parse_flags("serve", args)?;
    if let Some(extra) = pos.first() {
        return Err(format!("serve takes no positional argument (got '{extra}')"));
    }
    // Mirror the server's own validation with flag-level wording so the
    // error names the flags the operator actually typed.
    if flags.replicate_from.is_some() && flags.listen_repl.is_some() {
        return Err("--replicate-from and --listen-repl are mutually exclusive \
                    (promote the replica first)"
            .to_string());
    }
    if flags.listen_repl.is_some() && flags.journal_path.is_none() {
        return Err("--listen-repl needs --journal-path (the WAL is the replication log)"
            .to_string());
    }
    if flags.replicate_from.is_some() && flags.journal_path.is_some() {
        return Err("--replicate-from keeps no journal of its own \
                    (its log is the primary's WAL); drop --journal-path"
            .to_string());
    }
    if flags.max_resident.is_some()
        && flags.snapshot_path.is_none()
        && flags.journal_path.is_none()
    {
        return Err("--max-resident needs --snapshot-path or --journal-path \
                    (hibernation spills cold partitions to a directory beside them)"
            .to_string());
    }
    let journal = journal_config(&flags)?;
    let mut config = ServerConfig {
        shards: flags.shards,
        snapshot_path: flags.snapshot_path.clone().map(std::path::PathBuf::from),
        journal,
        binary_addr: flags.listen_binary.clone(),
        repl_addr: flags.listen_repl.clone(),
        replicate_from: flags.replicate_from.clone(),
        max_resident: flags.max_resident,
        ..ServerConfig::default()
    };
    if let Some(us) = flags.slow_request_us {
        config.slow_request_us = us;
    }
    if let Some(depth) = flags.flight_recorder_depth {
        config.flight_recorder_depth = depth;
    }
    if let Some(ms) = flags.metrics_interval_ms {
        config.metrics_interval = std::time::Duration::from_millis(ms);
    }
    let server = Server::start(flags.listen.as_str(), config)
        .map_err(|e| format!("cannot serve on {}: {e}", flags.listen))?;
    eprintln!(
        "qdelay: serving on {}{}{} ({} shard{}{}{}{})",
        server.local_addr(),
        match server.binary_addr() {
            Some(addr) => format!(" (binary on {addr})"),
            None => String::new(),
        },
        match server.repl_addr() {
            Some(addr) => format!(" (replication on {addr})"),
            None => String::new(),
        },
        flags.shards,
        if flags.shards == 1 { "" } else { "s" },
        match &flags.snapshot_path {
            Some(p) => format!(", snapshots at {p}"),
            None => String::new(),
        },
        match &flags.journal_path {
            Some(p) => format!(", journal at {p}"),
            None => String::new(),
        },
        match &flags.replicate_from {
            Some(p) => format!(", read-only replica of {p}"),
            None => String::new(),
        }
    );
    if let Some(cap) = flags.max_resident {
        eprintln!(
            "qdelay: hibernation on — at most {cap} resident partition{} per shard, \
             cold ones spill to disk",
            if cap == 1 { "" } else { "s" }
        );
    }
    if flags.replicate_from.is_some() {
        #[cfg(unix)]
        {
            sighup::install();
            spawn_sighup_promoter(server.local_addr());
            eprintln!("qdelay: SIGHUP (or 'qdelay promote') promotes this replica to primary");
        }
        #[cfg(not(unix))]
        eprintln!("qdelay: 'qdelay promote' promotes this replica to primary");
    }
    eprintln!("qdelay: send {{\"method\":\"shutdown\"}} to stop gracefully");
    server.join().map_err(|e| format!("serve: {e}"))
}

/// Minimal first-party SIGHUP latch: the handler only flips an atomic
/// (async-signal-safe); a watcher thread does the actual promotion.
#[cfg(unix)]
mod sighup {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the signal handler, drained by the promoter thread.
    pub static PENDING: AtomicBool = AtomicBool::new(false);

    const SIGHUP: i32 = 1;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sighup(_signum: i32) {
        PENDING.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        let handler = on_sighup as extern "C" fn(i32);
        unsafe {
            signal(SIGHUP, handler as usize);
        }
    }
}

/// Watches the SIGHUP latch and promotes through the server's own JSON
/// port, so the signal path exercises exactly what `qdelay promote` does.
/// The thread is detached — it dies with the process.
#[cfg(unix)]
fn spawn_sighup_promoter(addr: std::net::SocketAddr) {
    use std::sync::atomic::Ordering;
    std::thread::Builder::new()
        .name("sighup-promote".into())
        .spawn(move || loop {
            if sighup::PENDING.swap(false, Ordering::SeqCst) {
                let outcome = qdelay_serve::client::Client::connect(addr)
                    .map_err(|e| e.to_string())
                    .and_then(|mut c| c.promote().map_err(|e| e.to_string()));
                match outcome {
                    Ok(applied) => eprintln!(
                        "qdelay: promoted to primary ({applied} replicated records applied)"
                    ),
                    Err(e) => eprintln!("qdelay: SIGHUP promotion failed: {e}"),
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        })
        .expect("spawn sighup promoter");
}

/// Fetches a live server's `metrics` report. One-shot mode pretty-prints
/// the whole document; `--watch` polls every `--interval-ms` and renders
/// one line of per-second rates per sample (`--samples 0` = until killed
/// or the server goes away).
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("stats", args)?;
    if let Some(extra) = pos.first() {
        return Err(format!("stats takes no positional argument (got '{extra}')"));
    }
    let mut client = connect_with_failover(&flags.connect)?;
    if !flags.watch {
        let reply = client
            .metrics()
            .map_err(|e| format!("metrics request failed: {e}"))?;
        emit(&format!("{}\n", reply.to_string_pretty()));
        return Ok(());
    }
    let mut taken = 0u64;
    loop {
        let reply = client
            .metrics()
            .map_err(|e| format!("metrics request failed: {e}"))?;
        emit(&format!("{}\n", render_watch_line(&reply)));
        taken += 1;
        if flags.samples > 0 && taken >= flags.samples {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(flags.interval_ms));
    }
}

/// One watch-mode line: uptime, the rate window, every nonzero per-second
/// rate the server reported, and — on a capacity-capped server — the
/// hibernation levels (resident/hibernated partitions, spill disk bytes)
/// and how cold traffic has been served so far: partitions restored from
/// disk against questions answered from the index.
fn render_watch_line(reply: &qdelay_json::Json) -> String {
    use qdelay_json::Json;
    let num = |key: &str| reply.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut line = format!(
        "up {:>8.1}s  window {:>5.0}ms ",
        num("uptime_ms") / 1000.0,
        num("window_ms")
    );
    let mut any = false;
    if let Some(Json::Obj(rates)) = reply.get("rates") {
        for (name, rate) in rates {
            if let Some(r) = rate.as_f64() {
                if r != 0.0 {
                    line.push_str(&format!(" {name} {r:.1}/s"));
                    any = true;
                }
            }
        }
    }
    let current = |section: &str, name: &str| {
        reply
            .get("current")
            .and_then(|c| c.get(section))
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let gauge = |name: &str| current("gauges", name);
    let counter = |name: &str| current("counters", name);
    let hibernated = gauge("serve.hibernate.hibernated");
    let spill = gauge("serve.hibernate.disk_bytes");
    if hibernated > 0.0 || spill > 0.0 {
        line.push_str(&format!(
            "  resident {:.0} hibernated {hibernated:.0} spill {:.1}KiB \
             restores {:.0} index_answers {:.0}",
            gauge("serve.hibernate.resident"),
            spill / 1024.0,
            counter("serve.hibernate.restores"),
            counter("serve.hibernate.index_answers"),
        ));
        any = true;
    }
    if !any {
        line.push_str(" (idle)");
    }
    line
}

/// Asks a live server whether a job bound for `(site, queue, procs)` can
/// expect to start within `--budget` wait-seconds: prints the typed
/// `admit`/`reject`/`defer` decision with the bound and margin (or retry
/// hint) the shard answered with.
fn cmd_admit(args: &[String]) -> Result<(), String> {
    use qdelay_predict::admission::Decision;
    let (pos, flags) = parse_flags("admit", args)?;
    if let Some(extra) = pos.first() {
        return Err(format!("admit takes no positional argument (got '{extra}')"));
    }
    if flags.site.is_empty() || flags.queue.is_empty() {
        return Err("admit needs --site and --queue".to_string());
    }
    let budget = flags.budget.ok_or("admit needs --budget <wait-seconds>")?;
    let mut client = connect_with_failover(&flags.connect)?;
    let reply = client
        .admit(&flags.site, &flags.queue, flags.procs, budget, Some(flags.confidence))
        .map_err(|e| format!("admit request failed: {e}"))?;
    let line = match reply.decision {
        Decision::Admit { bound, margin } => format!(
            "admit   {}  bound {bound:.0}s fits budget {budget:.0}s (margin {margin:.0}s, n {})\n",
            reply.partition, reply.n
        ),
        Decision::Reject { bound, margin } => format!(
            "reject  {}  bound {bound:.0}s exceeds budget {budget:.0}s (margin {margin:.0}s, n {})\n",
            reply.partition, reply.n
        ),
        Decision::Defer { retry_hint } => format!(
            "defer   {}  no bound yet (n {}); retry after {retry_hint} more observation{}\n",
            reply.partition,
            reply.n,
            if retry_hint == 1 { "" } else { "s" }
        ),
    };
    emit(&line);
    Ok(())
}

/// Splits a `--connect` value on commas into the failover peer list; a
/// plain single address is the common one-element case.
fn connect_list(spec: &str) -> Vec<String> {
    spec.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()
}

/// Dials the `--connect` list for the idempotent commands: first reachable
/// peer serves, and with more than one peer a default retry policy makes
/// `stats`/`admit` fail over to the survivors.
fn connect_with_failover(spec: &str) -> Result<qdelay_serve::client::Client, String> {
    let peers = connect_list(spec);
    let mut client = qdelay_serve::client::Client::connect_any(&peers)
        .map_err(|e| format!("cannot connect to {spec}: {e}"))?;
    if peers.len() > 1 {
        client.set_retry(Some(qdelay_serve::client::RetryPolicy::default()));
    }
    Ok(client)
}

/// Promotes a read-only replica to primary over its JSON port. Refuses an
/// address *list*: promotion must name exactly one server — failing over
/// to "whichever peer answered" could promote the wrong one.
fn cmd_promote(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("promote", args)?;
    if let Some(extra) = pos.first() {
        return Err(format!("promote takes no positional argument (got '{extra}')"));
    }
    if connect_list(&flags.connect).len() != 1 {
        return Err("promote targets exactly one server (no --connect list)".to_string());
    }
    let mut client = qdelay_serve::client::Client::connect(flags.connect.as_str())
        .map_err(|e| format!("cannot connect to {}: {e}", flags.connect))?;
    let applied = client
        .promote()
        .map_err(|e| format!("promote request failed: {e}"))?;
    emit(&format!(
        "promoted  {} now accepts observations ({applied} replicated record{} applied)\n",
        flags.connect,
        if applied == 1 { "" } else { "s" }
    ));
    Ok(())
}

/// `qdelay snapshot export <file>`: prints a snapshot file — the framed
/// file a server writes — as the JSON snapshot document, pretty-printed.
fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    match args {
        [sub, path] if sub == "export" => {
            emit(&export_snapshot(path)?);
            Ok(())
        }
        _ => Err("usage: qdelay snapshot export <file>".to_string()),
    }
}

/// The JSON document of the snapshot file at `path`. Unlike a server's
/// boot, a missing file is an error here, not empty state.
fn export_snapshot(path: &str) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = qdelay_serve::snapshot::parse(&bytes).map_err(|e| format!("{path}: {e}"))?;
    Ok(qdelay_serve::snapshot::export(doc))
}

/// Builds the durability config from the serve flags, rejecting journal
/// tuning knobs given without `--journal-path`.
fn journal_config(
    flags: &Flags,
) -> Result<Option<qdelay_serve::durability::JournalConfig>, String> {
    let Some(dir) = &flags.journal_path else {
        if flags.fsync.is_some() || flags.segment_bytes.is_some() || flags.compact_bytes.is_some()
        {
            return Err(
                "--fsync/--segment-bytes/--compact-bytes need --journal-path".to_string()
            );
        }
        return Ok(None);
    };
    let mut cfg = qdelay_serve::durability::JournalConfig::new(dir);
    if let Some(policy) = flags.fsync {
        cfg.fsync = policy;
    }
    if let Some(bytes) = flags.segment_bytes {
        cfg.segment_bytes = bytes;
    }
    if let Some(bytes) = flags.compact_bytes {
        cfg.compact_bytes = bytes;
    }
    Ok(Some(cfg))
}

fn cmd_catalog(args: &[String]) -> Result<(), String> {
    let (pos, _) = parse_flags("catalog", args)?;
    if let Some(extra) = pos.first() {
        return Err(format!("catalog takes no positional argument (got '{extra}')"));
    }
    let mut text = format!(
        "{:<10} {:<12} {:>8} {:>10} {:>10} {:>10}\n",
        "machine", "queue", "jobs", "mean", "median", "std"
    );
    for p in catalog::paper_catalog() {
        text.push_str(&format!(
            "{:<10} {:<12} {:>8} {:>10.0} {:>10.0} {:>10.0}\n",
            p.machine, p.queue, p.job_count, p.mean_wait, p.median_wait, p.std_wait
        ));
    }
    emit(&text);
    Ok(())
}

/// Prints one of the paper's exhibits, or all of them in order, at
/// `--seed`; their artifacts land in the working directory.
fn cmd_paper(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("paper", args)?;
    let names = || format!("{} or all", paper::EXHIBITS.map(|(name, _)| name).join(", "));
    let [wanted] = pos.as_slice() else {
        return Err(format!("paper needs one exhibit: {}", names()));
    };
    let chosen: Vec<paper::Exhibit> = paper::EXHIBITS
        .into_iter()
        .filter(|(name, _)| wanted == "all" || wanted == name)
        .map(|(_, exhibit)| exhibit)
        .collect();
    if chosen.is_empty() {
        return Err(format!("unknown exhibit '{wanted}' (one of {})", names()));
    }
    for exhibit in chosen {
        emit(&exhibit(flags.seed, std::path::Path::new("."))?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_defaults() {
        let (pos, flags) = parse_flags("predict", &strs(&["trace.txt"])).unwrap();
        assert_eq!(pos, vec!["trace.txt"]);
        assert_eq!(flags.quantile, 0.95);
        assert_eq!(flags.confidence, 0.95);
        assert_eq!(flags.epoch, 300);
        assert!(!flags.lower);
    }

    #[test]
    fn flags_parse_values() {
        let args = strs(&["f", "--quantile", "0.9", "--confidence", "0.8", "--lower"]);
        let (pos, flags) = parse_flags("predict", &args).unwrap();
        assert_eq!(pos, vec!["f"]);
        assert_eq!(flags.quantile, 0.9);
        assert_eq!(flags.confidence, 0.8);
        assert!(flags.lower);
        let (_, flags) = parse_flags("simulate", &strs(&["--seed", "7", "--policy", "fcfs"])).unwrap();
        assert_eq!(flags.seed, 7);
        assert_eq!(flags.policy, "fcfs");
    }

    #[test]
    fn flags_reject_missing_and_bad_values() {
        assert!(parse_flags("predict", &strs(&["--quantile"])).is_err());
        assert!(parse_flags("predict", &strs(&["--quantile", "nan"])).is_err());
        assert!(parse_flags("generate", &strs(&["--seed", "not-a-number"])).is_err());
        let (_, flags) = parse_flags("evaluate", &strs(&["--epoch", "60"])).unwrap();
        assert_eq!(flags.epoch, 60);
        for bad in ["1.5", "300.0", "-5", "junk"] {
            let err = parse_flags("evaluate", &strs(&["--epoch", bad])).err().unwrap();
            assert_eq!(err, format!("--epoch takes whole seconds, got '{bad}'"));
        }
    }

    #[test]
    fn integer_flags_take_whole_numbers_only() {
        for (command, flag, text, want) in [
            ("generate", "--seed", "7.9", "--seed takes a whole number, got '7.9'"),
            ("simulate", "--days", "-3", "--days takes a whole number, got '-3'"),
            ("serve", "--shards", "1.5", "--shards takes a whole number, got '1.5'"),
            ("serve", "--segment-bytes", "1e30", "--segment-bytes takes a whole number, got '1e30'"),
            ("serve", "--shards", "0", "--shards must be at least 1"),
            ("simulate", "--procs", "4294967296", "--procs is out of range, got '4294967296'"),
            ("generate", "--seed", "18446744073709551616", "--seed is out of range, got '18446744073709551616'"),
            ("paper", "--seed", "7.9", "--seed takes a whole number, got '7.9'"),
            ("paper", "--seed", "-1", "--seed takes a whole number, got '-1'"),
            ("paper", "--seed", "banana", "--seed takes a whole number, got 'banana'"),
        ] {
            let err = parse_flags(command, &strs(&[flag, text])).err().expect("must fail");
            assert_eq!(err, want);
        }
        let (_, flags) = parse_flags("simulate", &strs(&["--seed", "18446744073709551615", "--days", "3"])).unwrap();
        assert_eq!((flags.seed, flags.days), (u64::MAX, 3));
    }

    #[test]
    fn unknown_flags_are_named_errors() {
        // A typo, the removed reservation cap, and a real flag of another
        // command all fail loudly, naming the command and the flag, instead
        // of landing in the positionals or being silently ignored.
        for (command, args) in [
            ("predict", &["t.txt", "--quantil", "0.5"][..]),
            ("simulate", &["--dayz", "1"]),
            ("simulate", &["--reservation-depth", "128"]),
            ("serve", &["--quantile", "0.5"]),
            ("predict", &["t.txt", "--shards", "8"]),
            ("catalog", &["--seed", "7"]),
            ("stats", &["--budget", "60"]),
            ("paper", &["table8", "--days", "1"]),
        ] {
            let err = parse_flags(command, &strs(args)).err().expect("unknown flag must fail");
            let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
            let want = format!("'{command}' does not take {flag} (try --help)");
            assert_eq!(err, want);
        }
        let err = cmd_predict(&strs(&["t.txt", "--quantil", "0.5"])).unwrap_err();
        assert!(err.contains("--quantil"), "{err}");
        let err = cmd_simulate(&strs(&["--dayz", "1"])).unwrap_err();
        assert!(err.contains("--dayz"), "{err}");
        let err = cmd_serve(&strs(&["--quantile", "0.5"])).unwrap_err();
        assert_eq!(err, "'serve' does not take --quantile (try --help)");
        let err = cmd_catalog(&strs(&["--seed", "7"])).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(cmd_catalog(&strs(&["extra"])).is_err());
        // An exhibit name the paper command does not know, or none, is an
        // error listing the ones it does.
        let valid = "table1, tables34, tables567, table8, figure1, figure2, ablations or all";
        let err = cmd_paper(&strs(&["table9", "--seed", "7"])).unwrap_err();
        assert_eq!(err, format!("unknown exhibit 'table9' (one of {valid})"));
        for args in [&[][..], &["table1", "table8"]] {
            let err = cmd_paper(&strs(args)).unwrap_err();
            assert_eq!(err, format!("paper needs one exhibit: {valid}"));
        }
        let err = cmd_paper(&strs(&["table8", "--seed", "banana"])).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        // Every flag a command lists is one the parser reads.
        for command in ["predict", "evaluate", "generate", "simulate", "serve", "stats", "admit", "promote", "paper"] {
            for flag in accepted_flags(command) {
                let args = strs(&[flag, "1"]);
                let err = parse_flags(command, &args).err().unwrap_or_default();
                assert!(!err.contains("does not"), "{command} {flag}: {err}");
            }
        }
    }

    #[test]
    fn serve_flags() {
        let (_, flags) = parse_flags("serve", &strs(&[
            "--listen", "0.0.0.0:9000", "--listen-binary", "0.0.0.0:9001", "--shards", "8",
            "--snapshot-path", "/tmp/s.json",
        ]))
        .unwrap();
        assert_eq!(flags.listen, "0.0.0.0:9000");
        assert_eq!(flags.listen_binary.as_deref(), Some("0.0.0.0:9001"));
        assert_eq!(flags.shards, 8);
        assert_eq!(flags.snapshot_path.as_deref(), Some("/tmp/s.json"));

        let (_, flags) = parse_flags("serve", &strs(&[])).unwrap();
        assert_eq!(flags.listen, "127.0.0.1:4680");
        assert_eq!(flags.listen_binary, None);
        assert_eq!(flags.shards, 4);
        assert_eq!(flags.snapshot_path, None);

        assert!(parse_flags("serve", &strs(&["--shards", "0"])).is_err());
        assert!(parse_flags("serve", &strs(&["--listen"])).is_err());
        assert!(parse_flags("serve", &strs(&["--listen-binary"])).is_err());
        assert!(parse_flags("serve", &strs(&["--snapshot-path"])).is_err());
        assert!(cmd_serve(&strs(&["extra"])).is_err());
    }

    #[test]
    fn observability_flags() {
        let (_, flags) = parse_flags("serve", &strs(&[
            "--slow-request-us", "2500", "--flight-recorder-depth", "512",
            "--metrics-interval", "250",
        ]))
        .unwrap();
        assert_eq!(flags.slow_request_us, Some(2500));
        assert_eq!(flags.flight_recorder_depth, Some(512));
        assert_eq!(flags.metrics_interval_ms, Some(250));

        // Defaults defer to the server's own (None = don't override).
        let (_, flags) = parse_flags("serve", &strs(&[])).unwrap();
        assert_eq!(flags.slow_request_us, None);
        assert_eq!(flags.flight_recorder_depth, None);
        assert_eq!(flags.metrics_interval_ms, None);

        // 0 disables slow promotion but depth/interval must stay positive.
        let (_, flags) = parse_flags("serve", &strs(&["--slow-request-us", "0"])).unwrap();
        assert_eq!(flags.slow_request_us, Some(0));
        assert!(parse_flags("serve", &strs(&["--flight-recorder-depth", "0"])).is_err());
        assert!(parse_flags("serve", &strs(&["--metrics-interval", "0"])).is_err());
        assert!(parse_flags("serve", &strs(&["--slow-request-us"])).is_err());
    }

    #[test]
    fn stats_flags() {
        let (_, flags) = parse_flags("stats", &strs(&[
            "--connect", "10.0.0.1:9000", "--watch", "--interval-ms", "200", "--samples", "5",
        ]))
        .unwrap();
        assert_eq!(flags.connect, "10.0.0.1:9000");
        assert!(flags.watch);
        assert_eq!(flags.interval_ms, 200);
        assert_eq!(flags.samples, 5);

        let (_, flags) = parse_flags("stats", &strs(&[])).unwrap();
        assert_eq!(flags.connect, "127.0.0.1:4680");
        assert!(!flags.watch);
        assert_eq!(flags.interval_ms, 1000);
        assert_eq!(flags.samples, 0);

        assert!(parse_flags("stats", &strs(&["--connect"])).is_err());
        assert!(parse_flags("stats", &strs(&["--interval-ms", "0"])).is_err());
        assert!(cmd_stats(&strs(&["extra"])).is_err());
    }

    #[test]
    fn admit_flags() {
        let (_, flags) = parse_flags("admit", &strs(&[
            "--site", "datastar", "--queue", "normal", "--procs", "8", "--budget", "3600",
        ]))
        .unwrap();
        assert_eq!(flags.site, "datastar");
        assert_eq!(flags.queue, "normal");
        assert_eq!(flags.procs, 8);
        assert_eq!(flags.budget, Some(3600.0));

        let (_, flags) = parse_flags("admit", &strs(&[])).unwrap();
        assert!(flags.site.is_empty());
        assert!(flags.queue.is_empty());
        assert_eq!(flags.budget, None);

        assert!(parse_flags("admit", &strs(&["--site"])).is_err());
        assert!(parse_flags("admit", &strs(&["--queue"])).is_err());
        assert!(parse_flags("admit", &strs(&["--budget"])).is_err());
        assert!(parse_flags("admit", &strs(&["--budget", "-5"])).is_err());
        assert!(parse_flags("admit", &strs(&["--budget", "inf"])).is_err());
        assert!(cmd_admit(&strs(&["extra"])).is_err());
        let err = cmd_admit(&strs(&["--budget", "60"])).unwrap_err();
        assert!(err.contains("--site"), "{err}");
        let err = cmd_admit(&strs(&["--site", "s", "--queue", "q"])).unwrap_err();
        assert!(err.contains("--budget"), "{err}");
    }

    #[test]
    fn admit_command_decides_against_a_live_server() {
        use qdelay_serve::server::{Server, ServerConfig};
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig { shards: 2, ..Default::default() },
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        // Cold partition: the command succeeds and the server defers.
        cmd_admit(&strs(&[
            "--connect", &addr, "--site", "s", "--queue", "q", "--procs", "4",
            "--budget", "600",
        ]))
        .unwrap();

        // Warm it up, then both a fitting and an impossible budget resolve.
        let mut c = qdelay_serve::client::Client::connect(addr.as_str()).unwrap();
        for i in 0..100 {
            c.observe("s", "q", 4, f64::from(i % 40) * 30.0, None, None).unwrap();
        }
        cmd_admit(&strs(&[
            "--connect", &addr, "--site", "s", "--queue", "q", "--procs", "4",
            "--budget", "1e6",
        ]))
        .unwrap();
        cmd_admit(&strs(&[
            "--connect", &addr, "--site", "s", "--queue", "q", "--procs", "4",
            "--budget", "0",
        ]))
        .unwrap();

        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn stats_command_polls_a_live_server() {
        use qdelay_serve::server::{Server, ServerConfig};
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                shards: 2,
                metrics_interval: std::time::Duration::from_millis(20),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut c = qdelay_serve::client::Client::connect(addr.as_str()).unwrap();
        c.observe("s", "q", 1, 3.0, None, None).unwrap();

        // One-shot and a bounded watch both succeed against the live port.
        cmd_stats(&strs(&["--connect", &addr])).unwrap();
        cmd_stats(&strs(&["--connect", &addr, "--watch", "--interval-ms", "30", "--samples", "2"]))
            .unwrap();

        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn watch_line_renders_rates_and_idle() {
        use qdelay_json::Json;
        let busy = Json::Obj(vec![
            ("uptime_ms".into(), Json::Num(12_300.0)),
            ("window_ms".into(), Json::Num(1_000.0)),
            (
                "rates".into(),
                Json::Obj(vec![
                    ("serve.requests".into(), Json::Num(1052.5)),
                    ("serve.errors".into(), Json::Num(0.0)),
                ]),
            ),
        ]);
        let line = render_watch_line(&busy);
        assert!(line.contains("up     12.3s"), "{line}");
        assert!(line.contains("serve.requests 1052.5/s"), "{line}");
        assert!(!line.contains("serve.errors"), "zero rates are elided: {line}");

        let idle = Json::Obj(vec![("uptime_ms".into(), Json::Num(500.0))]);
        assert!(render_watch_line(&idle).contains("(idle)"));

        // A capped server's line ends with the hibernation levels and the
        // restore / index-answer totals.
        let section = |entries: &[(&str, f64)]| {
            Json::Obj(entries.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect())
        };
        let capped = Json::Obj(vec![(
            "current".into(),
            Json::Obj(vec![
                (
                    "gauges".into(),
                    section(&[
                        ("serve.hibernate.resident", 150.0),
                        ("serve.hibernate.hibernated", 2850.0),
                        ("serve.hibernate.disk_bytes", 2048.0),
                    ]),
                ),
                (
                    "counters".into(),
                    section(&[
                        ("serve.hibernate.restores", 180_000.0),
                        ("serve.hibernate.index_answers", 1_774_211.0),
                    ]),
                ),
            ]),
        )]);
        let line = render_watch_line(&capped);
        assert!(
            line.ends_with(
                "resident 150 hibernated 2850 spill 2.0KiB restores 180000 index_answers 1774211"
            ),
            "{line}"
        );
    }

    #[test]
    fn journal_flags() {
        use qdelay_serve::durability::FsyncPolicy;
        let (_, flags) = parse_flags("serve", &strs(&[
            "--journal-path", "/tmp/wal", "--fsync", "interval:50",
            "--segment-bytes", "65536", "--compact-bytes", "262144",
        ]))
        .unwrap();
        assert_eq!(flags.journal_path.as_deref(), Some("/tmp/wal"));
        assert_eq!(
            flags.fsync,
            Some(FsyncPolicy::Interval(std::time::Duration::from_millis(50)))
        );
        assert_eq!(flags.segment_bytes, Some(65536));
        assert_eq!(flags.compact_bytes, Some(262144));

        let cfg = journal_config(&flags).unwrap().expect("journal configured");
        assert_eq!(cfg.dir, std::path::PathBuf::from("/tmp/wal"));
        assert_eq!(cfg.segment_bytes, 65536);
        assert_eq!(cfg.compact_bytes, 262144);

        // Defaults pass through when only the path is given.
        let (_, flags) = parse_flags("serve", &strs(&["--journal-path", "/tmp/wal"])).unwrap();
        let defaults = qdelay_serve::durability::JournalConfig::new("/tmp/wal");
        let cfg = journal_config(&flags).unwrap().unwrap();
        assert_eq!(cfg.fsync, defaults.fsync);
        assert_eq!(cfg.segment_bytes, defaults.segment_bytes);
        assert_eq!(cfg.compact_bytes, defaults.compact_bytes);

        // No journaling at all.
        let (_, flags) = parse_flags("serve", &strs(&[])).unwrap();
        assert!(journal_config(&flags).unwrap().is_none());

        // Tuning knobs without a journal path are rejected.
        let (_, flags) = parse_flags("serve", &strs(&["--fsync", "always"])).unwrap();
        assert!(journal_config(&flags).is_err());

        // Bad values are typed parse errors.
        assert!(parse_flags("serve", &strs(&["--fsync", "sometimes"])).is_err());
        assert!(parse_flags("serve", &strs(&["--fsync", "interval:abc"])).is_err());
        assert!(parse_flags("serve", &strs(&["--segment-bytes", "0"])).is_err());
        assert!(parse_flags("serve", &strs(&["--compact-bytes", "0"])).is_err());
        assert!(parse_flags("serve", &strs(&["--journal-path"])).is_err());
    }

    #[test]
    fn replication_flags() {
        let (_, flags) = parse_flags("serve", &strs(&["--listen-repl", "0.0.0.0:4700"])).unwrap();
        assert_eq!(flags.listen_repl.as_deref(), Some("0.0.0.0:4700"));
        assert_eq!(flags.replicate_from, None);

        let (_, flags) = parse_flags("serve", &strs(&["--replicate-from", "10.0.0.1:4700"])).unwrap();
        assert_eq!(flags.replicate_from.as_deref(), Some("10.0.0.1:4700"));

        assert!(parse_flags("serve", &strs(&["--listen-repl"])).is_err());
        assert!(parse_flags("serve", &strs(&["--replicate-from"])).is_err());

        // Flag-level validation: the WAL is the replication log.
        let err = cmd_serve(&strs(&["--listen-repl", "127.0.0.1:0"])).unwrap_err();
        assert!(err.contains("--journal-path"), "{err}");
        let err = cmd_serve(&strs(&[
            "--replicate-from", "127.0.0.1:1", "--journal-path", "/tmp/wal",
        ]))
        .unwrap_err();
        assert!(err.contains("no journal of its own"), "{err}");
        let err = cmd_serve(&strs(&[
            "--replicate-from", "127.0.0.1:1", "--listen-repl", "127.0.0.1:0",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn hibernation_flags() {
        let (_, flags) = parse_flags("serve", &strs(&["--max-resident", "256"])).unwrap();
        assert_eq!(flags.max_resident, Some(256));
        // 0 is a legal (fully-hibernated) cap; a missing value is not.
        let (_, flags) = parse_flags("serve", &strs(&["--max-resident", "0"])).unwrap();
        assert_eq!(flags.max_resident, Some(0));
        let (_, flags) = parse_flags("serve", &strs(&[])).unwrap();
        assert_eq!(flags.max_resident, None);
        assert!(parse_flags("serve", &strs(&["--max-resident"])).is_err());

        // Flag-level validation: hibernation needs a spill directory,
        // which lives beside the snapshot or the journal.
        let err = cmd_serve(&strs(&["--max-resident", "4"])).unwrap_err();
        assert!(err.contains("--snapshot-path or --journal-path"), "{err}");
    }

    #[test]
    fn connect_lists_split_on_commas() {
        assert_eq!(connect_list("127.0.0.1:4680"), vec!["127.0.0.1:4680"]);
        assert_eq!(
            connect_list("a:1, b:2 ,c:3"),
            vec!["a:1", "b:2", "c:3"],
            "whitespace around commas is tolerated"
        );
        assert_eq!(connect_list("a:1,,b:2"), vec!["a:1", "b:2"], "empty entries drop");
    }

    #[test]
    fn promote_rejects_lists_and_non_replicas() {
        assert!(cmd_promote(&strs(&["extra"])).is_err());
        let err = cmd_promote(&strs(&["--connect", "a:1,b:2"])).unwrap_err();
        assert!(err.contains("exactly one server"), "{err}");

        // A live non-replica answers with the typed bad_request error.
        use qdelay_serve::server::{Server, ServerConfig};
        let server =
            Server::start("127.0.0.1:0", ServerConfig { shards: 1, ..Default::default() })
                .unwrap();
        let addr = server.local_addr().to_string();
        let err = cmd_promote(&strs(&["--connect", &addr])).unwrap_err();
        assert!(err.contains("not a replica"), "{err}");
        let mut c = qdelay_serve::client::Client::connect(addr.as_str()).unwrap();
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn stats_accepts_a_failover_list_with_a_dead_peer() {
        use qdelay_serve::server::{Server, ServerConfig};
        let server =
            Server::start("127.0.0.1:0", ServerConfig { shards: 1, ..Default::default() })
                .unwrap();
        let addr = server.local_addr().to_string();
        // Bind-then-drop: the first peer refuses, the second serves.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        cmd_stats(&strs(&["--connect", &format!("{dead},{addr}")])).unwrap();
        let mut c = qdelay_serve::client::Client::connect(addr.as_str()).unwrap();
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn serve_starts_and_shuts_down_over_the_wire() {
        // `--listen :0` picks a free port; drive the lifecycle end-to-end by
        // racing a client thread against the blocking cmd_serve call.
        use qdelay_serve::server::{Server, ServerConfig};
        let server = Server::start("127.0.0.1:0", ServerConfig { shards: 2, ..Default::default() })
            .unwrap();
        let addr = server.local_addr();
        let mut c = qdelay_serve::client::Client::connect(addr).unwrap();
        c.observe("s", "q", 1, 3.0, None, None).unwrap();
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn predict_needs_enough_history() {
        let dir = std::env::temp_dir().join("qdelay-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "100 5\n200 6\n").unwrap();
        let err = cmd_predict(&strs(&[path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("not enough history"), "{err}");
    }

    #[test]
    fn predict_emits_bound_with_history() {
        let dir = std::env::temp_dir().join("qdelay-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.txt");
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("{} {}\n", 100 + i * 60, i % 40));
        }
        std::fs::write(&path, text).unwrap();
        cmd_predict(&strs(&[path.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn swf_detection_picks_largest_queue() {
        let dir = std::env::temp_dir().join("qdelay-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.swf");
        let mut text = String::from("; SWF header\n");
        for i in 0..80 {
            text.push_str(&format!(
                "{i} {} 10 100 4 -1 -1 4 -1 -1 1 1 1 -1 1 -1 -1 -1\n",
                i * 50
            ));
        }
        text.push_str("99 5000 3 100 4 -1 -1 4 -1 -1 1 1 1 -1 2 -1 -1 -1\n");
        std::fs::write(&path, text).unwrap();
        let trace = load_trace(path.to_str().unwrap()).unwrap();
        assert_eq!(trace.queue(), "q1");
        assert_eq!(trace.len(), 80);
    }

    #[test]
    fn unknown_catalog_entry_is_an_error() {
        let err = cmd_generate(&strs(&["nope", "nada"])).unwrap_err();
        assert!(err.contains("no catalog entry"));
    }

    #[test]
    fn snapshot_export_prints_the_pretty_document_of_a_written_file() {
        use qdelay_serve::registry::{Partition, PartitionKey};
        use qdelay_serve::snapshot;
        let dir = std::env::temp_dir().join("qdelay-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("export.snap");
        let key = PartitionKey::for_request("ds", "normal", 4);
        let mut p = Partition::new();
        for i in 0..70 {
            p.observe(f64::from(i % 13) * 60.0, None, None);
        }
        let parts = vec![p.to_snapshot(&key)];
        let dead = vec![(PartitionKey::for_request("ds", "gone", 4), 9)];
        snapshot::write(&path, &snapshot::render(parts.clone(), dead.clone()).unwrap()).unwrap();
        let path = path.to_str().unwrap();
        let mut want = snapshot::encode(parts, dead).to_string_pretty();
        want.push('\n');
        assert_eq!(export_snapshot(path).unwrap(), want);
        assert!(cmd_snapshot(&strs(&["export"])).unwrap_err().contains("usage"));
        assert!(cmd_snapshot(&strs(&["import", path])).unwrap_err().contains("usage"));
        let missing = dir.join("no-such.snap");
        assert!(export_snapshot(missing.to_str().unwrap()).unwrap_err().contains("cannot read"));
        let junk = dir.join("junk.snap");
        std::fs::write(&junk, b"\x01junk").unwrap();
        assert!(export_snapshot(junk.to_str().unwrap()).unwrap_err().contains("junk.snap"));
        // The export is output only: reading it back is a typed refusal.
        let exported = dir.join("exported.json");
        std::fs::write(&exported, &want).unwrap();
        let err = export_snapshot(exported.to_str().unwrap()).unwrap_err();
        assert!(err.contains("version-4 framed snapshot files only"), "{err}");
    }

    #[test]
    fn telemetry_flag_is_stripped_before_dispatch() {
        let mut args = strs(&["evaluate", "t.txt", "--telemetry", "out.json", "--epoch", "60"]);
        let path = extract_telemetry_flag(&mut args).unwrap();
        assert_eq!(path.as_deref(), Some("out.json"));
        assert_eq!(args, strs(&["evaluate", "t.txt", "--epoch", "60"]));

        let mut none = strs(&["catalog"]);
        assert_eq!(extract_telemetry_flag(&mut none).unwrap(), None);
        assert_eq!(none, strs(&["catalog"]));

        let mut missing = strs(&["evaluate", "--telemetry"]);
        assert!(extract_telemetry_flag(&mut missing).is_err());
        let mut twice = strs(&["--telemetry", "a", "--telemetry", "b"]);
        assert!(extract_telemetry_flag(&mut twice).is_err());
    }

    #[test]
    fn telemetry_export_writes_valid_json() {
        let dir = std::env::temp_dir().join("qdelay-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("telemetry-trace.txt");
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&format!("{} {}\n", 100 + i * 60, i % 40));
        }
        std::fs::write(&trace_path, text).unwrap();
        cmd_evaluate(&strs(&[trace_path.to_str().unwrap()])).unwrap();

        let out_path = dir.join("telemetry.json");
        export_telemetry(out_path.to_str().unwrap()).unwrap();
        let written = std::fs::read_to_string(&out_path).unwrap();
        let json = qdelay_json::Json::parse(&written).expect("snapshot must be valid JSON");
        assert!(json.get("counters").is_some());
        assert!(json.get("gauges").is_some());
        assert!(json.get("histograms").is_some());
        // The evaluate run above must have left predictor telemetry behind.
        let counters = json.get("counters").unwrap();
        assert!(
            ["hit", "carry_forward", "miss"]
                .iter()
                .any(|c| counters.get(&format!("predict.bound_index.{c}")).is_some()),
            "expected bound-index counters in {written}"
        );
    }
}
