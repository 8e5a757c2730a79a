//! Keeps the host's CPUs from halting while an open-loop window is open.
//!
//! At 5 000 tasks/s the fleet is idle seven tenths of the time, and every
//! task is half a dozen thread wake-ups. On a virtual CPU that has gone
//! idle a wake-up is the hypervisor's to deliver, and how long it takes is
//! how busy the *host* is: ten runs of `tcp_paced` read a median latency of
//! 155–205 µs and 111–141 µs of CPU per task, level for the length of a run
//! and drifting over minutes. One thread per CPU that spins under
//! `SCHED_IDLE` — it runs only when nothing else wants the CPU, and is
//! preempted the instant anything does — turns each of those wake-ups into
//! a context switch the guest kernel does itself: the same ten runs,
//! alternated with the others, read 142–166 µs and 93–115 µs. It is the
//! user-space form of booting with `idle=poll`.
//!
//! Closed loops keep both CPUs busy by themselves and run without it.

use crate::affinity;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    /// `sched_setscheduler(2)`; `param` points at a `struct sched_param`,
    /// which is one `int`.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    /// `clock_gettime(2)`.
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const SCHED_IDLE: i32 = 5;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// What the spinning threads are called; `procfs` leaves them out of the
/// thread census.
pub const THREAD_NAME: &str = "perf-spin";

/// CPU time the spinning threads have used so far, ns. The process's CPU
/// clock counts them; what a run reports must not.
static SPUN_NS: AtomicU64 = AtomicU64::new(0);

/// CPU time of every spinning thread of this process so far, µs.
pub fn spun_us() -> f64 {
    // A statistic that publishes no other data.
    SPUN_NS.load(Ordering::Relaxed) as f64 / 1e3
}

fn thread_cpu_ns() -> u64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `timespec` of the layout the
    // kernel fills in; the clock id is a constant of the Linux ABI.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    time.sec as u64 * 1_000_000_000 + time.nsec as u64
}

/// One spinning thread per CPU the process may use, until [`Spinners::stop`].
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Returns once every thread spins on its CPU.
    ///
    /// # Errors
    ///
    /// The kernel refused a thread its CPU or the `SCHED_IDLE` policy; the
    /// run must not go on, or it would mix two populations of measurements.
    pub fn start() -> Result<Spinners, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready, readied) = mpsc::channel();
        let threads: Vec<JoinHandle<()>> = affinity::allowed_cpus()
            .iter()
            .map(|&cpu| {
                let (stop, ready) = (stop.clone(), ready.clone());
                std::thread::Builder::new()
                    .name(THREAD_NAME.into())
                    .spawn(move || {
                        let idle = idle_on(cpu);
                        let spins = idle.is_ok();
                        ready.send(idle).expect("the starter waits for every thread");
                        if spins {
                            spin(&stop);
                        }
                    })
                    .expect("spawn a spinning thread")
            })
            .collect();
        let spinners = Spinners { stop, threads };
        let refused = readied.iter().take(spinners.threads.len()).find_map(Result::err);
        match refused {
            None => Ok(spinners),
            Some(refused) => {
                spinners.stop();
                Err(refused)
            }
        }
    }

    /// Ends and joins the threads.
    pub fn stop(self) {
        // The flag guards no data.
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads {
            thread.join().expect("a spinning thread does not panic");
        }
    }
}

/// Confines the calling thread to `cpu`, under `SCHED_IDLE`.
fn idle_on(cpu: usize) -> Result<(), String> {
    affinity::pin_thread(0, cpu)?;
    let priority = 0;
    // SAFETY: `priority` is a live `sched_param` the kernel only reads; pid 0
    // is the calling thread.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
        return Err("sched_setscheduler(SCHED_IDLE) was refused".to_string());
    }
    Ok(())
}

fn spin(stop: &AtomicBool) {
    let mut accounted = thread_cpu_ns();
    loop {
        // Some tens of µs of `pause`, which leaves the core's resources to a
        // sibling hyperthread, between two looks at the clock.
        for _ in 0..256 {
            std::hint::spin_loop();
        }
        let now = thread_cpu_ns();
        SPUN_NS.fetch_add(now - accounted, Ordering::Relaxed);
        accounted = now;
        if stop.load(Ordering::Relaxed) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_account_for_the_cpu_they_use_and_stop() {
        let before = spun_us();
        let spinners = Spinners::start().expect("SCHED_IDLE is open to any process");
        spinners.stop();
        assert!(spun_us() > before, "the spinning threads reported no CPU time");
    }
}
