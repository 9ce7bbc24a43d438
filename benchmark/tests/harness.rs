//! Checks on the benchmark package itself: it builds with the workspace's
//! release profile, and its error-rate accounting counts a healed worker
//! loss and a golden mismatch as failed samples.

use std::path::Path;
use std::process::Command;

/// The settings of a manifest's `[profile.release]` table, comments and
/// blank lines dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("readable manifest");
    let mut lines = text.lines().map(str::trim);
    lines
        .by_ref()
        .find(|l| *l == "[profile.release]")
        .unwrap_or_else(|| panic!("{} has no [profile.release]", manifest.display()));
    lines
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// A standalone package ignores the workspace root's profile, so the
/// benchmark must restate it; a divergence would measure another build.
#[test]
fn release_profile_mirrors_the_workspace() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_eq!(
        release_profile(&here.join("Cargo.toml")),
        release_profile(&here.join("../Cargo.toml")),
        "benchmark/Cargo.toml [profile.release] differs from the workspace root's"
    );
}

#[test]
fn error_rate_counts_healed_losses_and_golden_mismatches() {
    let out = Command::new(env!("CARGO_BIN_EXE_maia-perf"))
        .arg("selftest")
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "selftest failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
