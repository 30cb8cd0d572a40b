//! Machine shape and process accounting, read from `/proc`. The parsers
//! are pure functions over file contents so they can be unit-tested.

use swamp_codec::json::Json;

/// What the numbers were measured on; printed with every output.
#[derive(Clone, Debug)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub mem_total_mb: f64,
    pub kernel: String,
    pub rustc: &'static str,
}

impl Machine {
    pub fn read() -> Machine {
        let file = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(&file("/proc/cpuinfo")).unwrap_or_else(|| "unknown".into()),
            mem_total_mb: status_kb(&file("/proc/meminfo"), "MemTotal").unwrap_or(0) as f64
                / 1024.0,
            kernel: file("/proc/sys/kernel/osrelease").trim().to_owned(),
            rustc: env!("BENCH_RUSTC_VERSION"),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::object([
            ("nproc", Json::Number(self.nproc as f64)),
            ("cpu_model", Json::String(self.cpu_model.clone())),
            ("mem_total_mb", Json::Number(self.mem_total_mb.round())),
            ("kernel", Json::String(self.kernel.clone())),
            ("rustc", Json::String(self.rustc.to_owned())),
        ])
    }
}

impl std::fmt::Display for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" mem={:.0}MB kernel={} rustc=\"{}\"",
            self.nproc, self.cpu_model, self.mem_total_mb, self.kernel, self.rustc
        )
    }
}

/// First `model name` of `/proc/cpuinfo`.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_owned())
    })
}

/// A `Key:   123 kB` field of `/proc/meminfo` or `/proc/self/status`.
pub fn status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, rest) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// CPU time and minor faults of this process so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

impl ProcStat {
    pub fn read() -> ProcStat {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    pub fn since(self, earlier: ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }
}

/// Parses `/proc/<pid>/stat`. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`:
/// `minflt` is field 10, `utime` 14 and `stime` 15, in clock ticks of
/// 1/100 s (`USER_HZ`, fixed at 100 on Linux).
pub fn parse_stat(stat: &str) -> Option<ProcStat> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so field k sits at index k - 3.
    let num = |field: usize| fields.get(field - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: num(10)?,
        user_s: num(14)? as f64 / 100.0,
        sys_s: num(15)? as f64 / 100.0,
    })
}

/// Peak resident set of this process in MB since the last reset.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_kb(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Resets the kernel's peak-RSS watermark to the current RSS, so the
/// next [`peak_rss_mb`] reports the peak of what follows. Where the
/// kernel refuses the write the watermark keeps the process-wide peak,
/// which is still an upper bound.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "1234 (swamp) bench) R 1 2 3 4 5 6 777 8 9 10 250 125 0 0 20 0 3 0 99 1000 50";
        let p = parse_stat(stat).unwrap();
        assert_eq!(p.minflt, 777);
        assert_eq!(p.user_s, 2.5);
        assert_eq!(p.sys_s, 1.25);
        assert_eq!(parse_stat("no parenthesis"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn stat_delta_saturates() {
        let a = ProcStat {
            user_s: 1.0,
            sys_s: 0.5,
            minflt: 10,
        };
        let b = ProcStat {
            user_s: 3.0,
            sys_s: 0.75,
            minflt: 4,
        };
        let d = b.since(a);
        assert_eq!((d.user_s, d.sys_s, d.minflt), (2.0, 0.25, 0));
    }

    #[test]
    fn status_and_cpuinfo_fields_parse() {
        let status = "Name:\tbench\nVmHWM:\t  204800 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(204_800));
        assert_eq!(status_kb(status, "VmRSS"), Some(1_024));
        assert_eq!(status_kb(status, "VmSwap"), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nmodel name\t: other\n";
        assert_eq!(cpu_model(cpuinfo).as_deref(), Some("Example CPU @ 2.0GHz"));
        assert_eq!(cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn live_proc_files_read_on_linux() {
        let m = Machine::read();
        assert!(m.nproc >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(ProcStat::read().minflt > 0);
    }
}
