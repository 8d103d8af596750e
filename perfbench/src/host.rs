//! The host header printed with every result, and process memory.

use serde_json::Value;

/// Where a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// SIMD features the CPU reports (the build targets baseline x86-64
    /// unless `RUSTFLAGS` says otherwise).
    pub simd: Vec<&'static str>,
    /// Commit of the checkout, when it is a git work tree.
    pub git_rev: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
}

/// Worker threads the benchmark may use: every available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    if std::arch::is_x86_feature_detected!("avx2") {
        v.push("avx2");
    }
    if std::arch::is_x86_feature_detected!("fma") {
        v.push("fma");
    }
    if std::arch::is_x86_feature_detected!("avx512f") {
        v.push("avx512f");
    }
    v
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> Vec<&'static str> {
    Vec::new()
}

/// The commit of the working directory's `.git`, read from its files
/// (no subprocess, nothing outside the checkout).
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Host {
        Host {
            cpu: cpu_model(),
            nproc: nproc(),
            simd: simd_features(),
            git_rev: git_rev(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }

    /// One-line header.
    pub fn header(&self) -> String {
        format!(
            "# host cpu=\"{}\" nproc={} simd={} git={} rustc=\"{}\"",
            self.cpu,
            self.nproc,
            if self.simd.is_empty() {
                "none".to_string()
            } else {
                self.simd.join(",")
            },
            self.git_rev,
            self.rustc
        )
    }

    /// JSON form for result files.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "cpu": (self.cpu.clone()),
            "nproc": (self.nproc),
            "simd": (self.simd.iter().map(|s| s.to_string()).collect::<Vec<_>>()),
            "git_rev": (self.git_rev.clone()),
            "rustc": (self.rustc.to_string())
        })
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_names_every_field() {
        let h = Host::probe();
        let line = h.header();
        for key in ["cpu=", "nproc=", "simd=", "git=", "rustc="] {
            assert!(line.contains(key), "{line}");
        }
        assert!(h.nproc >= 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
