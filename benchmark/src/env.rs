//! The machine and build a result was measured on; written into every
//! result file, because a number without them cannot be compared.

use std::path::Path;
use std::process::Command;

use qdelay_json::Json;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn file_line(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

pub fn record(out_dir: &Path) -> Json {
    let s = Json::Str;
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("cpu_model".into(), s(cpu_model())),
        ("kernel".into(), s(file_line("/proc/sys/kernel/osrelease"))),
        ("rustc".into(), s(command_line("rustc", &["--version"]))),
        // A driver's checkout is not a git repository; "unknown" there.
        (
            "git_commit".into(),
            s(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("scratch_fs".into(), s(fs_type(out_dir))),
    ])
}
