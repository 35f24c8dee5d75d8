//! Pins the benchmark process to one CPU.
//!
//! `SbcPool` reads `available_parallelism()` when it is built and fans a
//! tick out over that many workers once `live × n` passes a threshold.
//! On the few shared vCPUs the benchmark is given, that hands sub-millisecond
//! work items back and forth between threads whose wake-ups wait on the
//! host's scheduler: `beacon_small` ran a third slower and repeated five
//! times worse that way than on one CPU. Pinned, `available_parallelism()`
//! answers 1, every tick runs on the calling thread, and the numbers are
//! the program's.

/// CPUs the affinity mask has room for.
const MAX_CPUS: usize = 1024;
const WORDS: usize = MAX_CPUS / 64;

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library `std` already links; `pid` 0 is the caller.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it later starts — to
/// the highest-numbered CPU it is allowed on (the low ones take most
/// interrupts), and answers which.
#[cfg(target_os = "linux")]
pub fn to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` writable bytes, as the call requires.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MAX_CPUS)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity: empty CPU set")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes, as the call requires.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn to_one_cpu() -> Result<usize, String> {
    Err("pinning needs Linux's sched_setaffinity".into())
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    /// Runs on a thread of its own: the affinity is the thread's, and the
    /// other tests keep theirs.
    #[test]
    fn pinned_thread_sees_one_cpu() {
        std::thread::spawn(|| {
            let cpu = super::to_one_cpu().expect("pins");
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
            // A thread started from here inherits the pin.
            let inherited = std::thread::spawn(|| super::to_one_cpu().expect("pins again"));
            assert_eq!(inherited.join().unwrap(), cpu);
        })
        .join()
        .unwrap();
    }
}
