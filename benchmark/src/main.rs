//! The committed benchmark of the qdelay prediction service.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one of
//! five named workloads — four against the release `qdelay serve` binary
//! spawned as a child process, one in-process — checks every output against
//! an in-process oracle, prints each metric by name with its unit, and ends
//! with one JSON line. `--trace 0` measures the end-to-end metrics with no
//! spans taken; `--trace 1` is the separate traced run that produces the
//! per-layer ledger. `check` runs the untraced set twice and fails unless
//! the two agree within the bounds in `BENCHMARK.json`. See `README.md`.

mod affinity;
mod child;
mod conn;
mod env;
mod gen;
mod layers;
mod load;
mod replay;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use qdelay_json::Json;

use load::{PhaseStats, Span};

pub const REPLAY_CATALOG: &str = "replay-catalog";

/// What one invocation runs with.
pub struct Ctx {
    pub qdelay_bin: PathBuf,
    /// `benchmark/out/`: every file this program writes lives under it.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Generator threads, one connection each: `min(2, nproc)`.
    pub conns: usize,
}

impl Ctx {
    /// Set-ups per run. An untraced run sets up several times, measures a
    /// share of each phase on every set-up and reports medians over them
    /// (`setup_s` included), so one slow boot or one slow server instance
    /// does not read as a regression; a traced run sets up once.
    pub fn setups(&self) -> usize {
        if self.traced {
            1
        } else {
            3
        }
    }

    /// Depth-1 time over all set-ups: 40 % of `--seconds`. A traced run
    /// makes two shorter passes, one with spans off and one with spans on.
    pub fn depth1_len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * if self.traced { 0.15 } else { 0.4 })
    }

    /// Saturation time over all set-ups: 60 % of `--seconds`, 20 % traced.
    pub fn saturation_len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * if self.traced { 0.2 } else { 0.6 })
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct PhaseLine {
    name: String,
    sent: u64,
    succeeded: u64,
    failed: u64,
    first_failure: Option<String>,
}

/// One in-process call made while replaying a request through the layers
/// its path crosses: a child span of that request.
pub struct ChildSpan {
    pub request: u64,
    pub layer: &'static str,
    pub ns: u64,
}

/// Everything one workload run produced.
pub struct Outcome {
    workload: String,
    phases: Vec<PhaseLine>,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    layers: Vec<Metric>,
    notes: Vec<String>,
    pub server_flags: Vec<String>,
    pub spans: Vec<Span>,
    pub children: Vec<ChildSpan>,
}

impl Outcome {
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            phases: Vec::new(),
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
            server_flags: Vec::new(),
            spans: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Books one phase: its requests count as attempted, anything but the
    /// expected reply as failed.
    pub fn phase(&mut self, name: &str, stats: &PhaseStats) {
        self.attempted += stats.sent;
        self.failed += stats.failed();
        self.phases.push(PhaseLine {
            name: name.to_string(),
            sent: stats.sent,
            succeeded: stats.succeeded,
            failed: stats.failed(),
            first_failure: stats.first_failure.clone(),
        });
    }

    /// Records one per-layer metric; its unit comes from the table every
    /// per-layer metric is listed in.
    pub fn layer(&mut self, name: &str, value: f64) {
        let (_, unit) = layers::PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("'{name}' is not in the per-layer table"));
        self.layers.push(Metric::new(name, value, unit));
    }

    /// Puts the per-layer metrics in table order, with 0 for every layer
    /// this workload's requests never crossed.
    fn complete_layers(&mut self) {
        let mut all = Vec::with_capacity(layers::PER_LAYER.len());
        for (name, unit) in layers::PER_LAYER {
            let value = self
                .layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            all.push(Metric::new(name, value, unit));
        }
        self.layers = all;
    }

    pub fn layer_value(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.layers
        } else {
            &self.e2e
        }
    }

    fn print(&self, ctx: &Ctx) {
        println!(
            "== {} (seed {}, {} s, {}) ==",
            self.workload,
            ctx.seed,
            ctx.seconds,
            if ctx.traced { "traced" } else { "untraced" }
        );
        for p in &self.phases {
            println!(
                "phase {:<22} sent {:>9} succeeded {:>9} failed {:>6}",
                p.name, p.sent, p.succeeded, p.failed
            );
            if let Some(why) = &p.first_failure {
                println!("  first failure: {why}");
            }
        }
        for m in self.metrics(ctx.traced) {
            println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("failed_frac {} / {} attempted", self.failed, self.attempted);
        for n in &self.notes {
            println!("note: {n}");
        }
    }

    fn metrics_json(&self, traced: bool) -> Json {
        Json::Obj(
            self.metrics(traced)
                .iter()
                .map(|m| {
                    let value = Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]);
                    (m.name.clone(), value)
                })
                .collect(),
        )
    }

    /// The contract's result object: the last line of standard output.
    fn result_line(&self, traced: bool) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json(traced)),
        ])
        .to_string_compact()
    }

    /// `benchmark/out/result-<workload>[-trace].json` and, for a traced
    /// run, the span file.
    fn write_files(&self, ctx: &Ctx) -> std::io::Result<()> {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("phase".into(), Json::Str(p.name.clone())),
                    ("sent".into(), Json::Num(p.sent as f64)),
                    ("succeeded".into(), Json::Num(p.succeeded as f64)),
                    ("failed".into(), Json::Num(p.failed as f64)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(ctx.seed as f64)),
            ("seconds".into(), Json::Num(ctx.seconds)),
            ("traced".into(), Json::Bool(ctx.traced)),
            ("claim".into(), Json::Null),
            ("environment".into(), env::record(&ctx.out)),
            ("generator_threads".into(), Json::Num(ctx.conns as f64)),
            ("server_flags".into(), strs(&self.server_flags)),
            ("op_counts".into(), Json::Arr(phases)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json(ctx.traced)),
            ("notes".into(), strs(&self.notes)),
        ]);
        let suffix = if ctx.traced { "-trace" } else { "" };
        std::fs::write(
            ctx.out
                .join(format!("result-{}{suffix}.json", self.workload)),
            doc.to_string_pretty() + "\n",
        )?;
        if ctx.traced {
            std::fs::write(
                ctx.out.join(format!("trace-{}.json", self.workload)),
                self.span_file(),
            )?;
        }
        Ok(())
    }

    /// Spans as one JSON document, written by hand: a run holds tens of
    /// thousands and a `Json` tree of them would cost more than the run.
    fn span_file(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(self.spans.len() * 120 + 1024);
        let _ = writeln!(
            s,
            "{{\"workload\":\"{}\",\"unit\":\"ns\",\"requests\":[",
            self.workload
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"id\":{},\"op\":\"{}\",\"start\":{},\"total\":{},\"encode\":{},\"flush\":{},\"await\":{},\"decode\":{}}}",
                if i == 0 { "" } else { ",\n" },
                sp.id, sp.op, sp.start_ns, sp.total_ns, sp.encode_ns, sp.flush_ns, sp.await_ns, sp.decode_ns
            );
        }
        s.push_str("\n],\"in_process_children\":[\n");
        for (i, c) in self.children.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"request\":{},\"layer\":\"{}\",\"ns\":{}}}",
                if i == 0 { "" } else { ",\n" },
                c.request,
                c.layer,
                c.ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

pub const WORKLOAD_NAMES: [&str; 5] = [
    "predict-hot",
    "observe-durable",
    "predict-cold",
    "mixed-json",
    REPLAY_CATALOG,
];

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    if name == REPLAY_CATALOG {
        return replay::run(ctx);
    }
    let spec = workloads::SOCKET_WORKLOADS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload '{name}' (one of {WORKLOAD_NAMES:?} or 'all')"))?;
    workloads::run(spec, ctx)
}

struct Args {
    check: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match a.as_str() {
            "check" => args.check = true,
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// `BENCHMARK.json`'s `(name, better, bound)` for each end-to-end metric and
/// the names of its per-layer metrics.
struct Contract {
    end_to_end: Vec<(String, bool, f64)>,
    per_layer: Vec<String>,
}

fn read_contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    let name = |m: &Json| {
        m.get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    Ok(Contract {
        end_to_end: list("end_to_end")
            .iter()
            .map(|m| {
                let higher = m.get("better").and_then(Json::as_str) == Some("higher");
                (
                    name(m),
                    higher,
                    m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                )
            })
            .collect(),
        per_layer: list("per_layer").iter().map(name).collect(),
    })
}

/// The metric names a run emitted must be the ones `BENCHMARK.json` lists.
fn check_names(outcome: &Outcome, traced: bool, contract: &Contract) -> Result<(), String> {
    let mut want: Vec<&str> = if traced {
        contract.per_layer.iter().map(String::as_str).collect()
    } else {
        contract
            .end_to_end
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect()
    };
    let mut got: Vec<&str> = outcome
        .metrics(traced)
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    if want == got {
        return Ok(());
    }
    let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
    let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
    Err(format!(
        "{}: emitted metrics differ from BENCHMARK.json (missing {missing:?}, unlisted {extra:?})",
        outcome.workload
    ))
}

fn run_and_report(name: &str, ctx: &Ctx, contract: &Contract) -> Result<Outcome, String> {
    let mut outcome = run_workload(name, ctx)?;
    if ctx.traced {
        outcome.complete_layers();
    }
    check_names(&outcome, ctx.traced, contract)?;
    outcome.print(ctx);
    outcome
        .write_files(ctx)
        .map_err(|e| format!("cannot write result files: {e}"))?;
    println!("{}", outcome.result_line(ctx.traced));
    Ok(outcome)
}

/// Self-agreement: the whole untraced set twice on this build. Prints the
/// observed relative difference for every metric and workload, and fails if
/// one exceeds its bound in the worse direction.
fn check(ctx: &Ctx, contract: &Contract) -> Result<bool, String> {
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for name in WORKLOAD_NAMES {
            set.push(run_and_report(name, ctx, contract)?);
        }
        sets.push(set);
    }
    println!("== self-agreement: second set against first ==");
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut agree = true;
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for (name, higher_better, bound) in &contract.end_to_end {
            let (Some(x), Some(y)) = (a.e2e_value(name), b.e2e_value(name)) else {
                continue;
            };
            let worse_by = if *higher_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let ok = worse_by <= *bound;
            agree &= ok;
            println!(
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                a.workload,
                name,
                x,
                y,
                worse_by * 100.0,
                bound * 100.0,
                if ok { "" } else { "  <-- outside its bound" }
            );
        }
        agree &= a.correct() && b.correct();
    }
    Ok(agree)
}

fn locate_server() -> Result<PathBuf, String> {
    let path = match std::env::var_os("QDELAY_BIN") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("qdelay"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "no release `qdelay` binary at {} — run through benchmark/run.sh, which builds it",
            path.display()
        ))
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let contract = read_contract()?;
    let out = Path::new("benchmark").join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("benchmark/out: {e}"))?;
    let ctx = Ctx {
        qdelay_bin: locate_server()?,
        out: out.canonicalize().map_err(|e| e.to_string())?,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        // Never more generator threads or connections than cores: a third
        // runnable thread would measure the scheduler, not the service.
        conns: env::nproc().min(2),
    };
    // The change-point threshold table and the K-factor table are
    // process-wide and cost seconds on first use; the shadow partitions
    // need them, so pay before any clock starts.
    qdelay_predict::changepoint::ThresholdTable::default_table();
    qdelay_predict::lognormal::LogNormalPredictor::prewarm_k_factors(
        &qdelay_predict::lognormal::LogNormalConfig::trim(),
    );
    if args.check {
        return check(&ctx, &contract);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOAD_NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    // A run whose outputs were wrong still exits 0: its result line says
    // `"correct":false` and counts the failures.
    for name in names {
        run_and_report(name, &ctx, &contract)?;
    }
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("qdelay-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
