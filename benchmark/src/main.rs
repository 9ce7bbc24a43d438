//! `maia-perf`: the fresh-process benchmark of the maia workspace.
//!
//! ```text
//! maia-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! maia-perf selftest
//! maia-perf agree --workload NAME [--runs N] [--seconds S] [--seed N] [--traced]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! untraced samples and the traced replay run, after the error-rate
//! self-test. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod affinity;
mod agree;
mod child;
mod layers;
mod metrics;
mod procfs;
mod reference;
mod rng;
mod runner;
mod stats;
mod trace;
mod workload;

use workload::Workload;

const USAGE: &str = "\
usage: maia-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       maia-perf selftest
       maia-perf agree --workload NAME [--runs N] [--seconds S] [--seed N] [--traced]
workloads: sweep, crosscheck, cluster_channel, cluster_process";

/// Sampling time per workload when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 20.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        // The process backend re-executes this binary as its workers.
        Some("partition-worker") => maia_bench::cli::main_with_args(&args),
        Some("child") => match parse_child(&args[1..]) {
            Ok(job) => child::run(&job),
            Err(e) => usage_error(&e),
        },
        Some("selftest") if args.len() == 1 => {
            match runner::selftest() {
                Ok(()) => {
                    println!("selftest passed: healed worker loss and golden mismatch both count as failed");
                    0
                }
                Err(e) => {
                    eprintln!("maia-perf selftest: {e}");
                    1
                }
            }
        }
        Some("agree") => match parse_agree(&args[1..]) {
            Ok(opts) => agree::run(&opts),
            Err(e) => usage_error(&e),
        },
        _ => match parse_run(&args) {
            Ok(opts) => run_benchmark(&opts),
            Err(e) => usage_error(&e),
        },
    };
    std::process::exit(code);
}

fn usage_error(message: &str) -> i32 {
    eprintln!("maia-perf: {message}\n{USAGE}");
    2
}

fn run_benchmark(opts: &runner::Options) -> i32 {
    // The full run (every workload, both phases) also proves the
    // error_rate accounting before measuring anything.
    if opts.workloads.len() == Workload::ALL.len() && opts.sample && opts.trace {
        if let Err(e) = runner::selftest() {
            eprintln!("maia-perf selftest: {e}");
            return 1;
        }
    }
    runner::run(opts)
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_seed(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| "--seed requires a non-negative integer".to_string())
}

fn parse_seconds(text: &str) -> Result<f64, String> {
    text.parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| "--seconds requires a positive number".to_string())
}

fn parse_run(args: &[String]) -> Result<runner::Options, String> {
    let mut workloads = Vec::new();
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut it, "--workload")?;
                let w =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
                if !workloads.contains(&w) {
                    workloads.push(w);
                }
            }
            "--seed" => seed = parse_seed(value(&mut it, "--seed")?)?,
            "--seconds" => seconds = parse_seconds(value(&mut it, "--seconds")?)?,
            "--trace" => {
                trace = Some(match value(&mut it, "--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    Ok(runner::Options {
        workloads,
        seed,
        seconds,
        sample: trace != Some(true),
        trace: trace != Some(false),
    })
}

fn parse_agree(args: &[String]) -> Result<agree::Options, String> {
    let mut opts = agree::Options {
        workload: Workload::Sweep,
        runs: 3,
        seconds: DEFAULT_SECONDS,
        seed: 1,
        traced: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut it, "--workload")?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--runs" => {
                opts.runs = value(&mut it, "--runs")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 2)
                    .ok_or("--runs requires an integer >= 2")?;
            }
            "--seconds" => opts.seconds = parse_seconds(value(&mut it, "--seconds")?)?,
            "--seed" => opts.seed = parse_seed(value(&mut it, "--seed")?)?,
            "--traced" => opts.traced = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.workload = workload.ok_or("agree requires --workload")?;
    Ok(opts)
}

fn parse_child(args: &[String]) -> Result<child::Job, String> {
    let mut it = args.iter();
    let kind = value(&mut it, "child")?;
    let kind = child::Kind::parse(kind).ok_or_else(|| format!("unknown child kind '{kind}'"))?;
    let name = value(&mut it, "child")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let mut job = child::Job {
        kind,
        workload,
        order: workload.experiments(),
        cell_seed: 0,
        golden: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--order" => {
                let codes = value(&mut it, "--order")?;
                job.order = codes
                    .split(',')
                    .filter(|c| !c.is_empty())
                    .map(|c| {
                        maia_core::ExperimentId::parse(c)
                            .ok_or_else(|| format!("unknown experiment '{c}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--cell-seed" => {
                job.cell_seed = value(&mut it, "--cell-seed")?
                    .parse()
                    .map_err(|_| "--cell-seed requires an integer".to_string())?;
            }
            "--golden" => job.golden = Some(value(&mut it, "--golden")?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn run_flags_select_workloads_and_phases() {
        let all = parse_run(&args(&["--seed", "7"])).unwrap();
        assert_eq!(all.workloads, Workload::ALL.to_vec());
        assert!(all.sample && all.trace);
        assert_eq!(all.seed, 7);
        let one = parse_run(&args(&[
            "--workload",
            "crosscheck",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(one.workloads, vec![Workload::Crosscheck]);
        assert!(!one.sample && one.trace);
        assert_eq!(one.seconds, 10.0);
        let untraced = parse_run(&args(&["--trace", "0"])).unwrap();
        assert!(untraced.sample && !untraced.trace);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed", "-1"],
            &["--frob"],
            &["--seed"],
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn child_flags_parse() {
        let job = parse_child(&args(&[
            "replay",
            "sweep",
            "--order",
            "F04,T01",
            "--cell-seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(job.kind, child::Kind::Replay);
        assert_eq!(job.order.len(), 2);
        assert_eq!(job.cell_seed, 9);
        assert!(parse_child(&args(&["replay", "sweep", "--order", "F99"])).is_err());
        assert!(parse_child(&args(&["nope", "sweep"])).is_err());
    }
}
