//! The host and environment block, the override guard, and the run's
//! scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Environment overrides that make a run measure a different program.
pub const REFUSED_OVERRIDES: [&str; 5] = [
    "LAZYDP_FAULTS",
    "LAZYDP_STORE_PAGES",
    "LAZYDP_GEMM",
    "LAZYDP_SIMD",
    "LAZYDP_THREADS",
];

/// Checks that no override is set. `LAZYDP_OBS` may only name the mode
/// the run sets itself (`obs_mode`).
///
/// # Errors
///
/// Names every offending variable.
pub fn check_environment(obs_mode: &str) -> Result<(), String> {
    let mut bad: Vec<String> = REFUSED_OVERRIDES
        .iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| format!("{k}={v}")))
        .collect();
    if let Ok(v) = std::env::var("LAZYDP_OBS") {
        if v != obs_mode {
            bad.push(format!("LAZYDP_OBS={v} (this run sets {obs_mode})"));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with overrides that change the measured program: {}",
            bad.join(", ")
        ))
    }
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// Whether AVX2+FMA were detected.
    pub simd: bool,
    /// `rustc -V`.
    pub rustc: String,
    /// Git revision of the checkout, or `none` outside a repository.
    pub git_rev: String,
    /// The obs mode of the reported metrics.
    pub obs_mode: &'static str,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.trim();
    (out.status.success() && !line.is_empty()).then(|| line.to_string())
}

impl Host {
    /// Probes the host.
    #[must_use]
    pub fn probe(obs_mode: &'static str) -> Self {
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let ceiling = cwd.parent().map(Path::to_path_buf).unwrap_or_default();
        Self {
            nproc: lazydp_exec::available_threads(),
            simd: lazydp_tensor::simd::cpu_supports_simd(),
            rustc: command_line(Command::new(rustc).arg("-V"))
                .unwrap_or_else(|| "unknown".to_string()),
            git_rev: command_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            )
            .unwrap_or_else(|| "none".to_string()),
            obs_mode,
        }
    }

    /// One-line summary.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} simd_avx2_fma={} rustc=\"{}\" git_rev={} obs={}",
            self.nproc, self.simd, self.rustc, self.git_rev, self.obs_mode
        )
    }

    /// JSON object form for the run report.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"simd_avx2_fma\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"obs\": \"{}\"}}",
            self.nproc, self.simd, self.rustc, self.git_rev, self.obs_mode
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fresh directory for one run's spill files and checkpoints,
/// removed when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<root>/run-<pid>-<ns>`.
    ///
    /// # Errors
    ///
    /// Propagates the directory creation error.
    pub fn create(root: &Path) -> std::io::Result<Self> {
        let path = root.join(format!(
            "run-{}-{}",
            std::process::id(),
            lazydp_obs::clock::now_ns()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// A subdirectory (created on demand by its user).
    #[must_use]
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
