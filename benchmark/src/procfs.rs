//! Readers for the Linux `/proc` files the benchmark reports from: the
//! CPU of reaped children from `/proc/self/stat`, peak resident set from
//! `/proc/self/status`, and the tick rate from the auxiliary vector.

/// `cutime + cstime` from the text of `/proc/<pid>/stat`: the CPU of every
/// child the process has reaped, including what those children reaped in
/// turn (the process backend's workers), in clock ticks.
pub fn stat_reaped_ticks(stat: &str) -> Option<u64> {
    // The command name sits in parentheses and may itself contain spaces
    // or parentheses, so fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, so cutime and cstime (16, 17) sit
    // at indices 13 and 14 of the remainder.
    let mut total = 0u64;
    for field in fields.get(13..15)? {
        total = total.checked_add(field.parse().ok()?)?;
    }
    Some(total)
}

/// `VmHWM` (peak resident set size) in kB from the text of
/// `/proc/<pid>/status`.
pub fn status_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// `AT_CLKTCK` from the raw bytes of `/proc/<pid>/auxv` (native-endian
/// pairs of machine words): the unit of the tick counts in `stat`.
pub fn auxv_clock_ticks(auxv: &[u8]) -> Option<u64> {
    const AT_CLKTCK: u64 = 17;
    const WORD: usize = std::mem::size_of::<usize>();
    let word = |b: &[u8]| -> u64 {
        let mut buf = [0u8; WORD];
        buf.copy_from_slice(b);
        usize::from_ne_bytes(buf) as u64
    };
    auxv.chunks_exact(2 * WORD)
        .map(|pair| (word(&pair[..WORD]), word(&pair[WORD..])))
        .find(|&(key, _)| key == AT_CLKTCK)
        .map(|(_, value)| value)
        .filter(|&hz| hz > 0)
}

/// CPU time of every child this process has reaped, in milliseconds.
pub fn reaped_cpu_ms() -> Option<f64> {
    let ticks = stat_reaped_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)?;
    let hz = auxv_clock_ticks(&std::fs::read("/proc/self/auxv").ok()?)?;
    Some(ticks as f64 * 1e3 / hz as f64)
}

/// Peak resident set size of this process, in kB.
pub fn self_vm_hwm_kb() -> Option<u64> {
    status_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_sums_reaped_child_ticks() {
        // Fields 14..17 are 11 22 33 44; the name holds ") (" on purpose.
        let stat = "4242 (maia) (perf) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    11 22 33 44 20 0 3 0 12345 1000 200";
        assert_eq!(stat_reaped_ticks(stat), Some(77));
        assert_eq!(stat_reaped_ticks("4242 (x) S 1 2"), None);
        assert_eq!(stat_reaped_ticks("no parenthesis at all"), None);
        let bad = "1 (x) S 1 1 1 0 -1 0 0 0 0 0 1 2 x 4";
        assert_eq!(stat_reaped_ticks(bad), None);
    }

    #[test]
    fn stat_parses_this_process() {
        let text = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(stat_reaped_ticks(&text).is_some(), "{text}");
        assert!(reaped_cpu_ms().is_some());
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status =
            "Name:\tmaia-perf\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(status_vm_hwm_kb(status), Some(12345));
        assert_eq!(status_vm_hwm_kb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(status_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert!(self_vm_hwm_kb().unwrap() > 0);
    }

    #[test]
    fn auxv_yields_the_clock_tick_rate() {
        let mut auxv = Vec::new();
        for (k, v) in [(6usize, 4096usize), (17, 100), (0, 0)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(auxv_clock_ticks(&auxv), Some(100));
        assert_eq!(auxv_clock_ticks(&auxv[..16]), None);
        let live = std::fs::read("/proc/self/auxv").unwrap();
        assert!(auxv_clock_ticks(&live).is_some());
    }
}
