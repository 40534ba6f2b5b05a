//! The machine a report was measured on, CPU pinning, and peak RSS.

use std::fs;
use std::path::Path;

/// Words in the affinity masks passed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

/// A CPU affinity mask as the kernel lays it out.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CpuMask([u64; MASK_WORDS]);

#[cfg(target_os = "linux")]
mod sys {
    use super::{CpuMask, MASK_WORDS};

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuMask> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(CpuMask(mask))
    }

    pub fn set(mask: &CpuMask) -> bool {
        // SAFETY: `mask.0` is a live buffer of exactly the byte length
        // passed and the kernel only reads it; pid 0 names the calling
        // thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuMask;

    pub fn get() -> Option<CpuMask> {
        None
    }

    pub fn set(_: &CpuMask) -> bool {
        false
    }
}

impl CpuMask {
    /// The calling thread's affinity mask (`None` where unsupported).
    pub fn current() -> Option<CpuMask> {
        sys::get()
    }

    /// The mask holding only this mask's highest CPU — the one device
    /// interrupts, which default to CPU 0, are least likely to land on.
    pub fn last_cpu(&self) -> CpuMask {
        let mut one = [0u64; MASK_WORDS];
        if let Some((i, w)) = self.0.iter().enumerate().rev().find(|(_, w)| **w != 0) {
            one[i] = 1 << (63 - w.leading_zeros());
        }
        CpuMask(one)
    }

    /// Confine the calling thread — and every thread it spawns from now
    /// on — to this mask. `false` when the kernel refuses.
    pub fn apply(&self) -> bool {
        sys::set(self)
    }

    pub fn cpus(&self) -> Vec<usize> {
        (0..MASK_WORDS * 64)
            .filter(|&i| self.0[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }
}

fn first_line_field(path: &str, key: &str) -> Option<String> {
    fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> Option<f64> {
    let field = first_line_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Clock ticks (1/100 s) the hypervisor has kept this VM's CPUs from
/// running so far (`steal` in `/proc/stat`). A run during which it grows is
/// a run on a machine that was partly somewhere else.
pub fn steal_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// The commit a report belongs to: `.git/HEAD` when the checkout is a
/// repository, `unknown` otherwise (the pipeline's checkouts are not).
pub fn git_revision() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// Machine fingerprint for the report header.
pub struct Machine {
    pub cores: usize,
    pub affinity: Vec<usize>,
    pub cpu_model: String,
    pub kernel: String,
}

impl Machine {
    pub fn probe() -> Machine {
        Machine {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            affinity: CpuMask::current().map(|m| m.cpus()).unwrap_or_default(),
            cpu_model: first_line_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_string()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        }
    }
}
