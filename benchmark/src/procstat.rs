//! What the kernel says this process cost: CPU time and peak memory.

/// Kernel clock ticks per second as `/proc` reports them. `USER_HZ` is
/// 100 on every Linux ABI; there is no libc here to ask `sysconf`.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far (all threads), or
/// zero where `/proc` is missing.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_cpu_ticks(&stat))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` out of a `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted from
/// the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or zero where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kb(&status))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_used_cpu_and_memory() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
