//! Pinning the calling thread to one CPU through the C library's
//! `sched_getaffinity` and `sched_setaffinity`, which the standard library
//! does not wrap. Threads a pinned thread starts inherit its mask.

use std::io;

/// A `cpu_set_t`: one bit per CPU, room for 1024.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn get() -> io::Result<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    match unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } {
        0 => Ok(mask),
        _ => Err(io::Error::last_os_error()),
    }
}

fn set(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` is a live buffer of exactly the size passed, only read
    // by the call, and pid 0 names the calling thread.
    match unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Keeps the calling thread, and the threads it starts, on the first CPU
/// it may use; dropping it restores the thread's previous mask.
pub struct OneCpu {
    saved: CpuSet,
}

impl OneCpu {
    pub fn pin() -> io::Result<OneCpu> {
        let saved = get()?;
        let first = (0..saved.len() * 64)
            .find(|&cpu| saved[cpu / 64] >> (cpu % 64) & 1 == 1)
            .ok_or_else(|| io::Error::other("the thread may run on no CPU"))?;
        let mut one: CpuSet = [0; 16];
        one[first / 64] = 1 << (first % 64);
        set(&one)?;
        Ok(OneCpu { saved })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // Restoring fails only if every saved CPU went offline meanwhile;
        // the thread then stays on one CPU for whatever the child runs next.
        let _ = set(&self.saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_one_cpu_and_restores() {
        let before = get().unwrap();
        {
            let _pin = OneCpu::pin().unwrap();
            let mask = get().unwrap();
            assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            let inherited = std::thread::spawn(|| get().unwrap()).join().unwrap();
            assert_eq!(inherited, mask, "a new thread inherits the pin");
        }
        assert_eq!(get().unwrap(), before);
    }
}
