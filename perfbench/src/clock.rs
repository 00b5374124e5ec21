//! The calling thread's CPU clock.
//!
//! The benchmark times single-threaded, compute-bound calls. On a shared
//! virtual machine their wall time also counts the moments the host gave
//! this CPU to someone else; the thread's CPU time does not, so it is the
//! steadier measure of the work the program did.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this thread has used, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // x86-64/aarch64 Linux (two 64-bit fields), and the clock id is a
    // constant the kernel accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A started CPU-time measurement.
#[derive(Clone, Copy)]
pub struct CpuTimer(u64);

impl CpuTimer {
    pub fn start() -> Self {
        CpuTimer(thread_cpu_ns())
    }
}

/// Time elapsed since a start point, in microseconds. The benchmark reads
/// the thread's CPU clock for every compute-bound call, and the wall clock
/// for fsync-bound calls and for loops too short for a CPU-clock read
/// (which is a system call).
pub trait Elapsed {
    fn us(&self) -> f64;
}

impl Elapsed for CpuTimer {
    fn us(&self) -> f64 {
        (thread_cpu_ns() - self.0) as f64 / 1e3
    }
}

impl Elapsed for std::time::Instant {
    fn us(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e6
    }
}
