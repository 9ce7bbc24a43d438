//! The two-set agreement check: two sets of benchmark runs of the same
//! code, alternated A B A B with a fresh seed each, must agree within the
//! benchmark's own bounds — the pairing a parent-vs-change comparison
//! uses. For each end-to-end metric it reports each set's median and
//! quartile spread; with `--traced` it also runs one traced run per set
//! and requires every exact counter to be identical.

use std::process::{Command, Stdio};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::Workload;

pub struct Options {
    pub workload: Workload,
    /// Runs per set.
    pub runs: usize,
    pub seconds: f64,
    pub seed: u64,
    pub traced: bool,
}

/// One benchmark run of this binary; returns its last stdout line.
fn benchmark_run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a benchmark run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !last.starts_with("{\"correct\": true") {
        return Err(format!("{} seed {seed} did not succeed: {last}", w.name()));
    }
    Ok(last)
}

/// The value of metric `name` in a result line.
pub fn json_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// Run the check; returns the process exit code (0 when the sets agree).
pub fn run(opts: &Options) -> i32 {
    let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for i in 0..2 * opts.runs {
        match benchmark_run(opts.workload, opts.seed + i as u64, opts.seconds, false) {
            Ok(line) => sets[i % 2].push(line),
            Err(e) => {
                eprintln!("maia-perf agree: {e}");
                return 1;
            }
        }
    }
    println!(
        "{}: {} runs per set, alternated A B A B, {} s each, seeds {}..{}",
        opts.workload.name(),
        opts.runs,
        opts.seconds,
        opts.seed,
        opts.seed + 2 * opts.runs as u64 - 1
    );
    println!(
        "{:<14} {:>12} {:>9} {:>12} {:>9} {:>8} {:>6}  verdict",
        "metric", "A median", "A spread", "B median", "B spread", "B vs A", "bound"
    );
    let mut agree = true;
    for m in &END_TO_END {
        let values = |set: &[String]| -> Vec<f64> {
            set.iter().filter_map(|l| json_value(l, m.name)).collect()
        };
        let (a, b) = (values(&sets[0]), values(&sets[1]));
        let (Some(ma), Some(mb)) = (stats::median(&a), stats::median(&b)) else {
            eprintln!("maia-perf agree: {} missing from the results", m.name);
            return 1;
        };
        let (sa, sb) = (
            stats::quartile_spread(&a).unwrap_or(f64::NAN),
            stats::quartile_spread(&b).unwrap_or(f64::NAN),
        );
        let drift = mb / ma - 1.0;
        // Set-up time is bounded on its median only; every other spread
        // must sit below a third of the bound so one set's noise cannot
        // pass for a regression.
        let steady = m.name == "setup_s" || (sa < m.bound / 3.0 && sb < m.bound / 3.0);
        let ok = steady && drift <= m.bound;
        agree &= ok;
        println!(
            "{:<14} {ma:>12.4} {:>8.2}% {mb:>12.4} {:>8.2}% {:>7.2}% {:>5.0}%  {}",
            m.name,
            sa * 100.0,
            sb * 100.0,
            drift * 100.0,
            m.bound * 100.0,
            if ok { "ok" } else { "DISAGREE" }
        );
        for (label, v) in [("A", &a), ("B", &b)] {
            let list: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("    {label}: {}", list.join(" "));
        }
    }
    if opts.traced {
        let seed = opts.seed + 2 * opts.runs as u64;
        let traced: Result<Vec<String>, String> = (0..2)
            .map(|i| benchmark_run(opts.workload, seed + i, opts.seconds, true))
            .collect();
        let traced = match traced {
            Ok(t) => t,
            Err(e) => {
                eprintln!("maia-perf agree: {e}");
                return 1;
            }
        };
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (a, b) = (
                json_value(&traced[0], m.name),
                json_value(&traced[1], m.name),
            );
            let same = a.is_some() && a == b;
            agree &= same;
            println!(
                "exact {:<22} A {a:?} B {b:?}  {}",
                m.name,
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    println!(
        "verdict: {}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    i32::from(!agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_values_are_found_by_name() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"wall_ms.p50\": {\"value\": 25.5, \"unit\": \"ms\"}, \
                    \"setup_s\": {\"value\": 0.0012, \"unit\": \"s\"}}}";
        assert_eq!(json_value(line, "wall_ms.p50"), Some(25.5));
        assert_eq!(json_value(line, "setup_s"), Some(0.0012));
        assert_eq!(json_value(line, "wall_ms.p90"), None);
    }
}
