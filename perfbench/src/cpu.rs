//! Which CPU a repetition runs on.
//!
//! The CPUs of a shared machine are not equally fast at one time: a
//! neighbour busy on the physical core behind one vCPU slows only that
//! vCPU, by up to a fifth. The scheduler mostly keeps a single busy
//! thread on one CPU, so the CPU a run happened to land on would decide
//! its host figures. [`crate::report::repeat`] therefore moves each round of
//! repetitions to the next CPU the process may use.

use std::os::raw::c_int;

/// Affinity mask words: room for 1,024 CPUs.
const WORDS: usize = 16;

extern "C" {
    // glibc's wrappers; a `cpu_set_t` is an array of `unsigned long`.
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// The CPUs this thread may run on.
pub struct Cpus {
    mask: [u64; WORDS],
    list: Vec<usize>,
}

impl Cpus {
    /// The calling thread's affinity, or `None` if it cannot be read.
    pub fn current() -> Option<Cpus> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let read = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        let list: Vec<usize> = (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (read == 0 && !list.is_empty()).then_some(Cpus { mask, list })
    }

    /// How many CPUs the thread may use.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Pins the calling thread to allowed CPU `k` (modulo their number).
    pub fn pin(&self, k: usize) {
        let cpu = self.list[k % self.list.len()];
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask);
    }

    /// Gives the calling thread its original affinity back.
    pub fn restore(&self) {
        set(&self.mask);
    }
}

/// Sets the calling thread's affinity. A failure leaves the thread where
/// it was, which costs only steadiness, so it is ignored.
fn set(mask: &[u64; WORDS]) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe {
        sched_setaffinity(0, size_of_val(mask), mask.as_ptr());
    }
}
