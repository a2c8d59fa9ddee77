//! The process's CPU clock.
//!
//! On a shared VM the hypervisor takes the vCPU away in bursts: a 6 ms op
//! can read 25 ms on the wall clock while the process ran for 8 ms of it.
//! With steal-time accounting (as on KVM guests) the kernel's CPU clocks
//! leave that stolen time out, so engine ops are timed on this clock.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the process has consumed, seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on) through a valid,
    // aligned pointer to a local it exclusively borrows, and the clock id is
    // a constant the kernel defines. The return code is checked below.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn cpu_clock_advances_with_work_and_not_faster_than_the_wall() {
        let (wall, cpu) = (Instant::now(), process_cpu_s());
        let mut x = 0u64;
        while wall.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let used = process_cpu_s() - cpu;
        assert!(used > 0.005, "{used}");
        // Other test threads may run meanwhile, so allow for a second core.
        assert!(used <= 2.0 * wall.elapsed().as_secs_f64() + 1e-3, "{used}");
    }
}
