//! What `/proc` says about this process: CPU time by thread, resident
//! memory, context switches. Read from the benchmark's side only — the
//! libraries under test are not instrumented for it.

use std::fs;

/// `/proc/*/stat` reports CPU time in clock ticks of `USER_HZ`, which the
/// kernel ABI fixes at 100 on every Linux architecture.
const TICK_US: f64 = 10_000.0;

/// The layer a thread belongs to, judged by the name the library gave it.
/// The kernel truncates thread names to 15 bytes, so `pando-worker-pool-0`
/// reads `pando-worker-po` here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Reactor,
    TcpPoller,
    Worker,
    /// The main thread: pulls the merged output and checks every result.
    Output,
    /// Input pump, acceptor, redial threads and anything unnamed.
    Other,
}

impl Layer {
    /// The layer of a library thread. The main thread is told apart by its
    /// id, not its name, which is whatever the binary is called.
    pub fn of_thread(name: &str) -> Layer {
        if name.starts_with("pando-reactor-") {
            Layer::Reactor
        } else if name.starts_with("tcp-poll-") {
            Layer::TcpPoller
        } else if name.starts_with("pando-worker-po") {
            Layer::Worker
        } else {
            Layer::Other
        }
    }
}

/// Thread name and CPU time (user + system, µs) from one `/proc/*/stat`
/// line. The name sits in parentheses and may itself contain spaces or
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_line(line: &str) -> Option<(&str, f64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?;
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime: f64 = rest.nth(11)?.parse().ok()?;
    let stime: f64 = rest.next()?.parse().ok()?;
    Some((name, (utime + stime) * TICK_US))
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    /// `clock_gettime(2)`.
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, µs) of the whole process so far, exited
/// threads included and the benchmark's own spinning threads ([`crate::spin`])
/// left out, at the scheduler's own resolution — `/proc/self/stat` rounds the
/// same figure to 10 ms ticks, which is a per cent of a light window's CPU
/// time.
pub fn process_cpu_us() -> f64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `timespec` of the layout the
    // kernel fills in; the clock id is a constant of the Linux ABI.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    if rc == 0 {
        time.sec as f64 * 1e6 + time.nsec as f64 / 1e3 - crate::spin::spun_us()
    } else {
        0.0
    }
}

/// CPU time consumed so far, whole process and per layer, in µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSnapshot {
    /// All threads, including ones that have exited.
    pub process_us: f64,
    /// Live threads only, indexed by `Layer as usize`.
    by_layer: [f64; 5],
    /// Live threads at the time of the snapshot.
    pub threads: usize,
    /// Voluntary + involuntary context switches of the live threads.
    pub ctx_switches: f64,
}

impl CpuSnapshot {
    /// Reads `/proc/self`. Threads that exit between the directory listing
    /// and the read are skipped, and so are the benchmark's spinning threads.
    pub fn take() -> CpuSnapshot {
        let mut snap = CpuSnapshot { process_us: process_cpu_us(), ..CpuSnapshot::default() };
        let Ok(tasks) = fs::read_dir("/proc/self/task") else { return snap };
        let main_tid = std::process::id().to_string();
        for task in tasks.flatten() {
            let dir = task.path();
            let Ok(stat) = fs::read_to_string(dir.join("stat")) else { continue };
            let Some((name, us)) = parse_stat_line(&stat) else { continue };
            if name == crate::spin::THREAD_NAME {
                continue;
            }
            let is_main = task.file_name().to_str() == Some(main_tid.as_str());
            let layer = if is_main { Layer::Output } else { Layer::of_thread(name) };
            snap.by_layer[layer as usize] += us;
            snap.threads += 1;
            if let Ok(status) = fs::read_to_string(dir.join("status")) {
                snap.ctx_switches += status_field(&status, "voluntary_ctxt_switches")
                    + status_field(&status, "nonvoluntary_ctxt_switches");
            }
        }
        snap
    }

    pub fn layer_us(&self, layer: Layer) -> f64 {
        self.by_layer[layer as usize]
    }
}

/// Numeric value of a `Key:\tvalue [unit]` line of `/proc/*/status`; 0 when
/// the key is missing.
fn status_field(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status").map_or(0.0, |s| status_field(&s, "VmHWM") / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_yields_name_and_cpu_time() {
        let line = "4242 (pando-reactor-0) S 1 4242 4242 0 -1 4194368 80 0 0 0 \
                    250 50 0 0 20 0 6 0 4015659 2703360 284 18446744073709551615";
        assert_eq!(parse_stat_line(line), Some(("pando-reactor-0", 3_000_000.0)));
        // A name with spaces and parentheses must not shift the fields.
        let odd = "7 (a (b) c) R 1 7 7 0 -1 0 0 0 0 0 3 4 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_line(odd), Some(("a (b) c", 70_000.0)));
        assert_eq!(parse_stat_line("7 (short) R 1 2"), None);
        assert_eq!(parse_stat_line("garbage"), None);
    }

    #[test]
    fn thread_names_map_to_layers() {
        assert_eq!(Layer::of_thread("pando-reactor-0"), Layer::Reactor);
        assert_eq!(Layer::of_thread("tcp-poll-0"), Layer::TcpPoller);
        assert_eq!(Layer::of_thread("pando-worker-po"), Layer::Worker, "truncated to 15 bytes");
        assert_eq!(Layer::of_thread("pando-input-pum"), Layer::Other);
        assert_eq!(Layer::of_thread("tcp-accept"), Layer::Other);
    }

    #[test]
    fn status_fields_parse_with_units() {
        let status = "Name:\tperf\nVmHWM:\t    2048 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(status, "VmHWM"), 2048.0);
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), 17.0);
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), 0.0);
    }

    #[test]
    fn live_snapshot_sees_this_thread() {
        let snap = CpuSnapshot::take();
        assert!(snap.threads >= 1);
        assert!(peak_rss_mib() > 0.0);
    }
}
