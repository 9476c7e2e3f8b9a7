//! What the benchmark reads from the host: core count, stolen CPU time,
//! peak resident memory, and the environment a child run must not see.

use std::process::Command;

/// Variables that change what the simulator does (worker and shard
/// counts, the naive loop, experiment scale, fingerprint recording).
/// A measured child must get the built-in defaults, so these are
/// removed from its environment — and from this process at start-up.
pub const SCRUBBED_ENV: [&str; 5] = [
    "NIM_JOBS",
    "NIM_SHARDS",
    "NIM_NO_SKIP",
    "NIM_SCALE",
    "NIM_RECORD_FP",
];

pub fn scrub_env(cmd: &mut Command) {
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
}

/// Cores the process may use; no workload runs more threads than this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Steal ticks since boot from the aggregate `cpu` line of a
/// `/proc/stat` text (8th value), or `None` if the line is missing.
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Steal ticks since boot; 0 where `/proc/stat` is unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0)
}

/// `VmHWM` (peak resident set) in MB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_environment_is_scrubbed_of_every_simulator_knob() {
        let mut cmd = Command::new("true");
        for var in SCRUBBED_ENV {
            cmd.env(var, "7");
        }
        cmd.env("NIM_UNRELATED", "kept");
        scrub_env(&mut cmd);
        for var in SCRUBBED_ENV {
            let removed = cmd
                .get_envs()
                .any(|(k, v)| k == std::ffi::OsStr::new(var) && v.is_none());
            assert!(removed, "{var} still reaches the child");
        }
        assert!(cmd
            .get_envs()
            .any(|(k, v)| k == std::ffi::OsStr::new("NIM_UNRELATED") && v.is_some()));
    }

    #[test]
    fn proc_files_parse() {
        let stat = "cpu  100 2 30 4000 5 0 6 77 0 0\ncpu0 50 1 15 2000 2 0 3 40 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(77));
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
        let status = "Name:\tnimbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }
}
