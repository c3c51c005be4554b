//! Throughput benchmark of the nanowall simulator.
//!
//! Four platform workloads ([`workload::Workload`]) are driven through the
//! public `nanowall` API from one thread. An untraced run of the benchmark
//! reports simulated throughput end to end; a traced run installs the
//! platform's `HostProfiler` and reports per-layer host cost. See
//! `README.md` beside this crate for the workloads and metrics.

pub mod layers;
pub mod spans;
pub mod stats;
pub mod workload;

/// CPU time the calling thread has consumed, in seconds.
///
/// The benchmark times the simulator with this clock rather than the wall
/// clock: the simulator runs on the calling thread and never blocks, so on
/// an idle host the two agree, but time the thread spends descheduled —
/// waiting behind other tenants' processes, or stolen from the virtual CPU
/// by the hypervisor — counts on the wall clock only.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU-time clock is always available");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the wall clock stands in for the thread's CPU time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_secs() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`) in MiB, when the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
