//! `/proc` readers. Each returns `None` where the file does not exist
//! (anything but Linux), which the report renders as `null`.

use std::fs;

/// On-CPU nanoseconds of every live thread of this process, summed
/// (first field of each `/proc/self/task/*/schedstat`). Threads that
/// have exited are not counted, so callers sample it only across
/// intervals in which no thread ends.
pub fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread may end between the listing and the read.
        if let Ok(text) = fs::read_to_string(path) {
            total += parse_schedstat(&text)?;
        }
    }
    Some(total)
}

fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm(&fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hardware threads the host reports; recorded, never used to size the
/// load (the client count is fixed by the benchmark).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_proc_formats() {
        assert_eq!(parse_schedstat("928390 58394 3\n"), Some(928_390));
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_agree_with_the_platform() {
        if cfg!(target_os = "linux") {
            let before = process_cpu_ns().expect("schedstat is readable on Linux");
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            assert!(process_cpu_ns().unwrap() > before, "burning CPU must show");
            assert!(peak_rss_mib().unwrap() > 0.0);
        } else {
            assert_eq!(process_cpu_ns(), None);
            assert_eq!(peak_rss_mib(), None);
        }
        assert!(nproc() >= 1);
    }
}
