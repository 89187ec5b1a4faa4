//! Per-thread CPU accounting read from `/proc`: on-CPU time and run-queue
//! wait from `schedstat`, context switches from `status`, grouped by the
//! thread names the server gives its reactors and workers.

use std::collections::BTreeMap;
use std::path::Path;

/// Cumulative scheduler counters of one thread (or a sum of threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskStat {
    /// Nanoseconds spent on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub runq_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl TaskStat {
    /// Counters accumulated since `earlier` (saturating, so a reused tid
    /// can never produce a negative delta).
    pub fn since(self, earlier: TaskStat) -> TaskStat {
        TaskStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: TaskStat) -> TaskStat {
        TaskStat {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            runq_ns: self.runq_ns + other.runq_ns,
            ctx_switches: self.ctx_switches + other.ctx_switches,
        }
    }
}

/// Which part of the system a thread belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A server connection-I/O thread (`lc-reactor-N`).
    Reactor,
    /// A server match-engine thread (`lc-worker-N`, or `lc-worker-N.G`
    /// after a respawn). The supervisor, whose name the kernel truncates
    /// to `lc-worker-super`, is not a worker.
    Worker,
    /// One of this benchmark's load-generation threads.
    Client,
}

/// Name prefix of every load-generation thread this benchmark spawns.
pub const CLIENT_PREFIX: &str = "lcb-";

/// Classify a thread by its `comm` name.
pub fn role_of(comm: &str) -> Option<Role> {
    if comm.starts_with("lc-reactor-") {
        Some(Role::Reactor)
    } else if comm
        .strip_prefix("lc-worker-")
        .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
    {
        Some(Role::Worker)
    } else if comm.starts_with(CLIENT_PREFIX) {
        Some(Role::Client)
    } else {
        None
    }
}

/// `(cpu_ns, runq_ns)`: the first two fields of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}

/// Voluntary plus involuntary context switches from a `status` file.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.trim().parse::<u64>().ok())
    };
    Some(field("voluntary_ctxt_switches:")? + field("nonvoluntary_ctxt_switches:")?)
}

/// Peak resident set (`VmHWM`) in KiB from a `status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Counters of the task whose `/proc` directory is `dir`.
pub fn read_task(dir: &Path) -> Option<TaskStat> {
    let (cpu_ns, runq_ns) = parse_schedstat(&std::fs::read_to_string(dir.join("schedstat")).ok()?)?;
    let ctx_switches = parse_ctx_switches(&std::fs::read_to_string(dir.join("status")).ok()?)?;
    Some(TaskStat {
        cpu_ns,
        runq_ns,
        ctx_switches,
    })
}

/// The calling thread's counters.
pub fn thread_self() -> TaskStat {
    read_task(Path::new("/proc/thread-self")).unwrap_or_default()
}

/// Counters of every thread of this process that has a [`Role`], by tid.
pub fn sample_threads() -> BTreeMap<u64, (Role, TaskStat)> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if let (Some(role), Some(stat)) = (role_of(comm.trim()), read_task(&dir)) {
            out.insert(tid, (role, stat));
        }
    }
    out
}

/// Per-role counters accumulated between two samples. A thread that
/// appears only in `after` (a respawned worker) counts from zero.
pub fn delta_by_role(
    before: &BTreeMap<u64, (Role, TaskStat)>,
    after: &BTreeMap<u64, (Role, TaskStat)>,
    role: Role,
) -> TaskStat {
    after
        .iter()
        .filter(|(_, (r, _))| *r == role)
        .map(|(tid, (_, now))| match before.get(tid) {
            Some((r, then)) if *r == role => now.since(*then),
            _ => *now,
        })
        .fold(TaskStat::default(), TaskStat::plus)
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set (`clear_refs` value 5, Linux 4.0+). Best effort: where it
/// is refused, the peak keeps counting from process start.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("note: could not reset the peak RSS: {e}");
    }
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a live `lc-worker-0` thread (trimmed).
    const STATUS: &str = "Name:\tlc-worker-0\nUmask:\t0022\nState:\tS (sleeping)\n\
        Tgid:\t4242\nVmPeak:\t  310412 kB\nVmHWM:\t   61236 kB\nVmRSS:\t   60800 kB\n\
        Threads:\t7\nvoluntary_ctxt_switches:\t1532\nnonvoluntary_ctxt_switches:\t87\n";
    const SCHEDSTAT: &str = "2381829361 49392811 1619\n";

    #[test]
    fn schedstat_gives_cpu_and_runqueue_ns() {
        assert_eq!(
            parse_schedstat(SCHEDSTAT),
            Some((2_381_829_361, 49_392_811))
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn status_gives_context_switches_and_peak_rss() {
        assert_eq!(parse_ctx_switches(STATUS), Some(1619));
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(61_236));
        assert_eq!(parse_ctx_switches("Name:\tx\n"), None);
    }

    #[test]
    fn roles_follow_thread_names() {
        assert_eq!(role_of("lc-reactor-0"), Some(Role::Reactor));
        assert_eq!(role_of("lc-worker-1"), Some(Role::Worker));
        assert_eq!(role_of("lc-worker-1.2"), Some(Role::Worker));
        assert_eq!(role_of("lc-worker-super"), None);
        assert_eq!(role_of("lcb-send"), Some(Role::Client));
        assert_eq!(role_of("lc-accept"), None);
    }

    #[test]
    fn deltas_sum_per_role_and_count_new_threads_from_zero() {
        let stat = |cpu, runq, ctx| TaskStat {
            cpu_ns: cpu,
            runq_ns: runq,
            ctx_switches: ctx,
        };
        let before = BTreeMap::from([
            (10, (Role::Worker, stat(100, 10, 1))),
            (11, (Role::Worker, stat(200, 20, 2))),
            (12, (Role::Reactor, stat(50, 5, 5))),
        ]);
        let after = BTreeMap::from([
            (10, (Role::Worker, stat(150, 15, 4))),
            (13, (Role::Worker, stat(30, 3, 3))),
            (12, (Role::Reactor, stat(80, 9, 9))),
        ]);
        assert_eq!(delta_by_role(&before, &after, Role::Worker), stat(80, 8, 6));
        assert_eq!(
            delta_by_role(&before, &after, Role::Reactor),
            stat(30, 4, 4)
        );
        assert_eq!(delta_by_role(&before, &after, Role::Client), stat(0, 0, 0));
    }
}
