//! Conformance reporting: a scenario's oracle verdicts, rendered so that any
//! failure carries a single-command reproduction line with the seed, and
//! optionally dumped as a CI artifact.

use crate::oracle::Violation;
use std::path::PathBuf;

/// The outcome of running one seeded scenario through both runtimes and all
/// oracles.
#[derive(Debug)]
pub struct ConformanceReport {
    /// The generating seed.
    pub seed: u64,
    /// One-line scenario description.
    pub scenario_summary: String,
    /// All oracle violations (empty = conformant).
    pub violations: Vec<Violation>,
    /// Foreground bytes served inside the window by the simulator.
    pub sim_bytes: u64,
    /// Foreground bytes served inside the window by the live runtime.
    pub live_bytes: u64,
    /// The live run's telemetry snapshot rendered as flat JSON (the
    /// registry read cut at quiescence), dumped as a `METRICS-seed-*.json`
    /// CI artifact via [`Self::write_metrics_artifact`].
    pub metrics_json: String,
}

impl ConformanceReport {
    /// Whether every oracle held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-command reproduction line for a seed.
    pub fn repro_line(seed: u64) -> String {
        format!("cargo run --release -p themis-harness --bin harness -- --seed {seed}")
    }

    /// Renders the full report (scenario, totals, verdict per oracle).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario: {}\n", self.scenario_summary));
        out.push_str(&format!(
            "served:   sim {} MiB, live {} MiB\n",
            self.sim_bytes >> 20,
            self.live_bytes >> 20
        ));
        if self.violations.is_empty() {
            out.push_str("verdict:  CONFORMANT (share bounds, work conservation, no starvation, integrity, class liveness, placement, sim↔live agreement, telemetry consistency)\n");
        } else {
            out.push_str(&format!(
                "verdict:  {} VIOLATION(S)\n",
                self.violations.len()
            ));
            for v in &self.violations {
                out.push_str(&format!("  - {v}\n"));
            }
            out.push_str(&format!("reproduce: {}\n", Self::repro_line(self.seed)));
        }
        out
    }

    /// Writes the rendered report under `target/conformance/` (best effort;
    /// the CI conformance job uploads this directory on failure). Returns
    /// the path on success.
    ///
    /// The directory is anchored at the *workspace* `target/` (resolved from
    /// this crate's manifest dir at compile time), not the process CWD —
    /// test binaries of different packages run with different CWDs, and the
    /// artifacts must all land where CI looks for them.
    pub fn write_artifact(&self) -> Option<PathBuf> {
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/conformance"
        ));
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("seed-{}.txt", self.seed));
        std::fs::write(&path, self.render()).ok()?;
        Some(path)
    }

    /// Writes the live run's telemetry snapshot as flat JSON under
    /// `target/conformance/METRICS-seed-<seed>.json` (best effort; same
    /// workspace-anchored directory as [`Self::write_artifact`]). The CI
    /// conformance job uploads these beside the seed reports, so every CI
    /// run leaves a machine-readable record of what the cluster measured.
    pub fn write_metrics_artifact(&self) -> Option<PathBuf> {
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/conformance"
        ));
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("METRICS-seed-{}.json", self.seed));
        std::fs::write(&path, &self.metrics_json).ok()?;
        Some(path)
    }

    /// Panics with the rendered report (and dumps the artifact) unless the
    /// scenario was fully conformant. The panic message ends with the
    /// one-command repro line, so a CI failure is a one-line paste away from
    /// a local reproduction.
    pub fn assert_clean(&self) {
        if self.is_clean() {
            return;
        }
        let artifact = self.write_artifact();
        panic!(
            "seed {} failed conformance:\n{}artifact: {}\n",
            self.seed,
            self.render(),
            artifact
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "<not written>".into()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_report_renders_repro_line_and_panics() {
        let report = ConformanceReport {
            seed: 77,
            scenario_summary: "synthetic".into(),
            violations: vec![Violation {
                oracle: "share-bounds",
                run: "sim",
                detail: "synthetic violation".into(),
            }],
            sim_bytes: 1 << 20,
            live_bytes: 1 << 20,
            metrics_json: "{}\n".into(),
        };
        assert!(!report.is_clean());
        let rendered = report.render();
        assert!(rendered.contains("--seed 77"), "{rendered}");
        assert!(rendered.contains("share-bounds"), "{rendered}");
        let err = std::panic::catch_unwind(|| report.assert_clean())
            .expect_err("must panic on violations");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("cargo run --release -p themis-harness"),
            "{msg}"
        );
    }

    #[test]
    fn clean_report_is_silent() {
        let report = ConformanceReport {
            seed: 1,
            scenario_summary: "ok".into(),
            violations: Vec::new(),
            sim_bytes: 0,
            live_bytes: 0,
            metrics_json: "{}\n".into(),
        };
        assert!(report.is_clean());
        report.assert_clean();
        assert!(report.render().contains("CONFORMANT"));
    }
}
