//! Measurements the process takes of itself: resident memory and CPU
//! time from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux target).
const USER_HZ: f64 = 100.0;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<u64>().ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// Peak resident set size of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM")
}

/// Current resident set size (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS")
}

/// User plus system CPU time of the whole process (all threads, live and
/// exited), in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count fields after it.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, i.e. 11 and 12
    // after the state field that follows the name.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}
