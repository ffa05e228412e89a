//! What a process can learn about itself from `/proc/self` — peak
//! resident set and CPU time — with no libc and no `unsafe`.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI; asking
/// `sysconf` would need libc.
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process in kB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU ticks this process (all threads, exited ones
/// included) has consumed.
pub fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    cpu_ticks_of(&stat)
}

/// Parses `utime + stime` (fields 14 and 15) out of a `stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
fn cpu_ticks_of(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Converts [`cpu_ticks`] to seconds.
pub fn ticks_to_s(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 181 0 0 0 37 5 0 0 20 0 1 0 \
                    1234 1000000 100 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(cpu_ticks_of(stat), Some(42));
    }

    #[test]
    fn this_process_has_a_peak_rss_and_cpu_time() {
        assert!(peak_rss_kb().expect("VmHWM in /proc/self/status") > 0);
        assert!(cpu_ticks().is_some());
    }
}
