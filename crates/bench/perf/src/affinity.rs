//! Gives every busy thread of the stack a CPU of its own choosing — the
//! benchmark's, not the kernel's.
//!
//! Left to the kernel, where the threads of a run land decides what the run
//! measures, for the whole life of the process: on the two-vCPU reference
//! host `tcp_raytrace` with two pool threads read 1 420 or 2 820 frames/s
//! (both pool threads on one CPU, or one each) and `tcp_paced` a median
//! latency anywhere from 130 µs to 277 µs over eight runs. So each thread
//! is pinned by the layer its name says it belongs to, spread over the CPUs
//! the process is allowed: the production shape — cross-CPU wake-ups, lock
//! contention, parallel compute — with placement taken out of the dice.

use crate::procfs::Layer;
use std::fs;

extern "C" {
    /// `sched_setaffinity(2)`; `pid` is a thread id, `mask` points at
    /// `cpusetsize` bytes.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs of a `/proc/*/status` `Cpus_allowed_list` value such as `0-1`
/// or `3,5-7`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (first, last) = range.split_once('-').unwrap_or((range, range));
        cpus.extend(first.parse::<usize>().ok()?..=last.parse::<usize>().ok()?);
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The CPUs this process may run on. Read once, before any thread is
/// pinned: afterwards the calling thread's own list would be one CPU long.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                parse_cpu_list(status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?)
            })
            .unwrap_or_else(|| vec![0])
    })
}

/// Which of `cpus` slots the `index`-th live thread of `layer` (in order of
/// creation) runs on. With two CPUs: the master side — ordered output and
/// reactor 0 — on the first; the poller and pool thread 0 on the second; a
/// second pool thread back on the first.
fn slot(layer: Layer, index: usize, cpus: usize) -> Option<usize> {
    match layer {
        Layer::Output => Some(0),
        Layer::Reactor => Some(index % cpus),
        Layer::TcpPoller | Layer::Worker => Some((1 + index) % cpus),
        // Acceptor, input pump, redial: idle while a window is open.
        Layer::Other => None,
    }
}

/// Restricts thread `tid` (0: the caller) to `cpu`.
///
/// # Errors
///
/// The kernel refused; the run must not go on, or it would mix two
/// populations of measurements.
pub fn pin_thread(tid: i32, cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or(format!("cpu {cpu} is beyond the mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly `size_of_val(&mask)` bytes
    // that the kernel only reads.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity(tid {tid}, cpu {cpu}) was refused"))
    }
}

/// Pins every live thread of the process that belongs to a busy layer.
/// Called after each bring-up, once the library has spawned its threads.
/// Thread names are cut to 15 bytes (`pando-worker-po`), so a thread's index
/// within its layer is its rank by thread id, which is creation order.
///
/// # Errors
///
/// As [`pin_thread`]. A thread that exits between the listing and the call
/// is skipped.
pub fn pin_busy_threads() -> Result<(), String> {
    let cpus = allowed_cpus();
    let main_tid = std::process::id() as i32;
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    let own_name = fs::read_to_string("/proc/self/comm").unwrap_or_default();
    let mut threads: Vec<(i32, Layer)> = tasks
        .flatten()
        .filter_map(|task| {
            let tid: i32 = task.file_name().to_str()?.parse().ok()?;
            if tid == main_tid {
                return Some((tid, Layer::Output));
            }
            // A thread names itself as it starts; until then it carries the
            // process's name. Give a thread that was only just spawned the
            // moment it needs.
            let comm = task.path().join("comm");
            let mut name = fs::read_to_string(&comm).ok()?;
            for _ in 0..200 {
                if name != own_name {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
                name = fs::read_to_string(&comm).ok()?;
            }
            Some((tid, Layer::of_thread(name.trim_end())))
        })
        .collect();
    threads.sort_unstable_by_key(|(tid, _)| *tid);
    let mut seen = [0usize; 5];
    for (tid, layer) in threads {
        let index = seen[layer as usize];
        seen[layer as usize] += 1;
        let Some(slot) = slot(layer, index, cpus.len()) else { continue };
        if let Err(refused) = pin_thread(tid, cpus[slot]) {
            if fs::metadata(format!("/proc/self/task/{tid}")).is_ok() {
                return Err(refused);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_expand() {
        assert_eq!(parse_cpu_list("\t0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("3,5-7"), Some(vec![3, 5, 6, 7]));
        assert_eq!(parse_cpu_list("12"), Some(vec![12]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn layers_spread_over_two_cpus_and_fold_onto_one() {
        assert_eq!(slot(Layer::Output, 0, 2), Some(0));
        assert_eq!(slot(Layer::Reactor, 0, 2), Some(0));
        assert_eq!(slot(Layer::TcpPoller, 0, 2), Some(1));
        assert_eq!(slot(Layer::Worker, 0, 2), Some(1));
        assert_eq!(slot(Layer::Worker, 1, 2), Some(0));
        assert_eq!(slot(Layer::Other, 0, 2), None);
        for layer in [Layer::Output, Layer::Reactor, Layer::TcpPoller, Layer::Worker] {
            assert_eq!(slot(layer, 3, 1), Some(0));
        }
    }
}
