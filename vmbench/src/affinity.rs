//! CPU affinity through glibc: which CPUs the process may use, and
//! pinning all of its threads to one of them.

use std::os::raw::c_int;

/// `cpu_set_t`: 1024 bits.
const SET_WORDS: usize = 16;
/// `ESRCH`: the thread exited between listing and pinning it.
const ESRCH: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> std::io::Result<Vec<usize>> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a live buffer of exactly the `cpusetsize` bytes
    // passed; the kernel writes at most that many.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok((0..SET_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect())
}

/// Pin every thread of this process to `cpu`. Threads started later
/// inherit the mask of the thread that starts them.
pub fn pin_process(cpu: usize) -> std::io::Result<()> {
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    for entry in std::fs::read_dir("/proc/self/task")? {
        let Some(tid) = entry?
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<c_int>().ok())
        else {
            continue;
        };
        // SAFETY: `mask` is a live, initialised buffer of exactly the
        // `cpusetsize` bytes passed, and the call only reads it.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc != 0 {
            let err = std::io::Error::last_os_error();
            if err.raw_os_error() != Some(ESRCH) {
                return Err(err);
            }
        }
    }
    Ok(())
}
