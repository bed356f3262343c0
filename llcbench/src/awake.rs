//! Keeps every CPU out of idle while an open-loop step is timed.
//!
//! At a moderate request rate the CPUs are idle most of the time, and on
//! a virtual machine an idle virtual CPU is halted and handed back to the
//! host. Every request then waits for the host to schedule a halted CPU
//! again, once to wake the daemon and once to wake the generator, and
//! how long that takes depends on what else the host runs: on a shared
//! 2-vCPU host it moved the median latency of the same traffic by 2× from
//! one ten-second stretch to the next. One `SCHED_IDLE` spinner per CPU
//! keeps the CPUs running. The kernel runs a `SCHED_IDLE` thread only
//! when nothing else wants the CPU and preempts it as soon as something
//! does, so the spinners take no CPU time from the daemon or the
//! generator; they only take away the halt.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// The spinners; dropping it stops and joins them.
#[derive(Debug)]
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// One `SCHED_IDLE` spinner per CPU. A thread that cannot lower its
    /// policy exits at once rather than spin at normal priority.
    pub fn start() -> KeepAwake {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: pid 0 is the calling thread; the parameter
                    // outlives the call and has the kernel's layout.
                    let lowered =
                        unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) };
                    if lowered != 0 {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
