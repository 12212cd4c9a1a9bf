//! Host facts and provenance for every result record, the process's peak
//! resident set, and the in-run kernel references the kernel layer is
//! measured against.

use crate::stats::{median, Json};
use sia_blocks::gemm::{active_microkernel, dgemm_with, GemmConfig, GemmLayout};
use std::time::Instant;

/// Facts about the host and the build that produced a result.
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub microkernel: &'static str,
    pub llc_bytes: u64,
    pub rustc: &'static str,
    pub git_rev: &'static str,
    pub profile: &'static str,
}

impl HostFacts {
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            microkernel: active_microkernel(),
            llc_bytes: llc_bytes(),
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: env!("PERFBENCH_GIT_REV"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    pub fn write(&self, w: &mut Json) {
        w.open('{');
        w.key("nproc");
        w.num(self.nproc as f64);
        w.key("cpu_model");
        w.str(&self.cpu_model);
        w.key("gemm_microkernel");
        w.str(self.microkernel);
        w.key("llc_bytes");
        w.num(self.llc_bytes as f64);
        w.key("rustc");
        w.str(self.rustc);
        w.key("git_rev");
        w.str(self.git_rev);
        w.key("build_profile");
        w.str(self.profile);
        w.close('}');
    }
}

/// Size of the largest (last-level) cache of cpu0, from sysfs; 32 MiB when
/// it cannot be read.
fn llc_bytes() -> u64 {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best = 0u64;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let Ok(size) = std::fs::read_to_string(entry.path().join("size")) else {
            continue;
        };
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (size, 1),
            },
        };
        best = best.max(num.parse::<u64>().unwrap_or(0) * mult);
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Resets the process's peak resident set to its current resident set, so
/// the next [`peak_rss_mib`] covers only what runs in between. Best effort:
/// without the kernel interface the peak stays the process-lifetime one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) since start or the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative host CPU ticks from `/proc/stat`: `(steal, total)` over the
/// user, nice, system, idle, iowait, irq, softirq and steal columns.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the host's CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings (0 when either is missing).
pub fn steal_frac(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) => {
            crate::stats::ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        }
        _ => 0.0,
    }
}

/// Kernel references measured on this host in the same run.
pub struct KernelRefs {
    /// Single-threaded `dgemm` at `GEMM_N`³, GFLOP/s (flops computed as
    /// `2 n³`).
    pub gemm_gflop_per_s: f64,
    /// `memcpy` bandwidth, GB/s of bytes copied (each byte read once and
    /// written once).
    pub memcpy_gb_per_s: f64,
    /// Bytes of the array the copy runs over (source half plus
    /// destination half).
    pub memcpy_bytes: u64,
}

pub const GEMM_N: usize = 512;

impl KernelRefs {
    /// Median of a few repetitions each: `dgemm` at 512³ with one thread,
    /// and a copy within an array of four times the last-level cache (64 MiB
    /// to 2 GiB).
    pub fn measure() -> Self {
        let n = GEMM_N;
        let a: Vec<f64> = (0..n * n).map(|i| (i % 17) as f64 * 0.25).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i % 13) as f64 * 0.5).collect();
        let mut c = vec![0.0; n * n];
        let cfg = GemmConfig::with_threads(1);
        let nn = GemmLayout::NoTrans;
        let gemm: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                dgemm_with(cfg, n, n, n, 1.0, &a, nn, &b, nn, 0.0, &mut c);
                2.0 * (n as f64).powi(3) / t.elapsed().as_secs_f64() * 1e-9
            })
            .collect();
        std::hint::black_box(&c);

        // One array of four times the last-level cache; each pass copies
        // its first half onto its second. Capped at 2 GiB so a host that
        // reports a huge shared cache does not exhaust memory.
        let total = (4 * llc_bytes()).clamp(64 << 20, 2 << 30) as usize;
        let mut array = vec![1u8; total];
        let (src, dst) = array.split_at_mut(total / 2);
        let copy: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                dst.copy_from_slice(std::hint::black_box(src));
                src.len() as f64 / t.elapsed().as_secs_f64() * 1e-9
            })
            .collect();
        std::hint::black_box(&array);
        KernelRefs {
            gemm_gflop_per_s: median(&gemm),
            memcpy_gb_per_s: median(&copy),
            memcpy_bytes: total as u64,
        }
    }
}
