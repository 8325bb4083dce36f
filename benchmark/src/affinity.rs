//! Pins the socket workloads — generator threads and server child alike —
//! to one CPU.
//!
//! On a two-core virtual machine a request's four thread wake-ups each
//! either stay on the waker's core (about 3 µs) or cross to an idle core
//! (an IPI into a halted vCPU, 20 µs and more), and which of the two the
//! scheduler picks wanders from second to second: unpinned, the depth-1
//! median of one build was seen anywhere from 19 µs to 99 µs and saturation
//! throughput from 114k to 199k req/s. On one CPU every wake-up is a context
//! switch on that CPU and the core never idles under load, so what is
//! measured is the software path of a request — syscalls, copies, context
//! switches, the code in between — and it repeats to a few per cent. What is
//! given up is parallelism between the shards, which two cores shared with
//! the load generator could not show reliably either.

use std::io;

/// `cpu_set_t` is 1024 bits on Linux.
const WORDS: usize = 16;
type CpuSet = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn get() -> io::Result<CpuSet> {
    let mut set: CpuSet = [0; WORDS];
    // SAFETY: `set` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(io::Error::last_os_error())
    }
}

fn set(set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The calling thread pinned to one CPU until this is dropped. Threads and
/// child processes started meanwhile inherit the pin.
pub struct Pinned {
    before: CpuSet,
    pub cpu: usize,
}

impl Pinned {
    /// Pins to the highest-numbered CPU the thread may run on (CPU 0 takes
    /// most device interrupts).
    pub fn to_one_cpu() -> io::Result<Pinned> {
        let before = get()?;
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|&c| before[c / 64] >> (c % 64) & 1 == 1)
            .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
        let mut one: CpuSet = [0; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one)?;
        Ok(Pinned { before, cpu })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // Nothing to do about a failure here: the next workload would run
        // pinned, which its result file records.
        let _ = set(&self.before);
    }
}
