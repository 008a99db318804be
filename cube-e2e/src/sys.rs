//! Process accounting and run context, read from Linux `/proc`.

use std::path::Path;

/// `/proc` reports CPU times in `USER_HZ` ticks, fixed at 100 per second
/// on Linux for every architecture this runs on.
const TICK_MS: f64 = 10.0;

/// User plus system CPU time of process `pid`, in milliseconds.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; the fields after its
    // closing parenthesis start at field 3 (state).
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    Some((ticks(11)? + ticks(12)?) as f64 * TICK_MS)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The type of the filesystem holding `path` (e.g. `ext4`, `tmpfs`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    // Fields: id parent dev root mountpoint options [optional…] - type …
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = Path::new(fields.get(4)?);
            let dash = fields.iter().position(|f| *f == "-")?;
            let kind = fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.as_os_str().len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, kind)| kind)
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
