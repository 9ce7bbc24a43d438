//! A01's kernels and A02's solver run their numerics once, live on the
//! first layout of a multi-layout call, and replay the recorded ops on
//! the others. Every layout must come out exactly as a live run of it:
//! the same virtual wall time, rank finish times and `RankStats`, bit for
//! bit, and the same numeric result — on the healthy machine and under a
//! straggler that sets in mid-run, which a replay prices on its own
//! clock.

use maia_apps::overflow::OverflowCase;
use maia_apps::overflow_mpi::run_mpi_layouts;
use maia_arch::faults::Straggler;
use maia_arch::{Device, Faults};
use maia_interconnect::SoftwareStack;
use maia_mpi::world::WorldResult;
use maia_mpi::WorldSpec;
use maia_npb::mpi_npb::{self, MpiRuns};

fn world_bits(w: &WorldResult) -> (u64, Vec<u64>, Vec<(u64, u64)>) {
    (
        w.end_time.as_ps(),
        w.rank_finish_s.iter().map(|s| s.to_bits()).collect(),
        w.rank_stats
            .iter()
            .map(|s| (s.comm_s.to_bits(), s.compute_s.to_bits()))
            .collect(),
    )
}

/// Rank 3 computes 4x slower from half of `healthy`'s first-layout wall
/// time on.
fn mid_run_straggler(healthy: &WorldResult) -> Faults {
    let mut faults = Faults::default();
    faults.stragglers.push(Straggler {
        rank: 3,
        slowdown: 4.0,
        from_s: healthy.end_time.as_secs_f64() / 2.0,
    });
    faults
}

/// Run `kernel` live on each layout alone, then on every rotation of
/// `layouts` (so each layout is replayed at least once), healthy and
/// under a mid-run straggler, and require every replayed world and every
/// result to match the live ones bit for bit. `result_bits` renders a
/// result's exact bits.
fn check<T>(
    name: &str,
    layouts: &[WorldSpec],
    kernel: impl Fn(&[WorldSpec]) -> (T, Vec<WorldResult>),
    result_bits: impl Fn(&T) -> Vec<u64>,
) {
    let healthy = kernel(&layouts[..1]).1.remove(0);
    for faults in [Faults::default(), mid_run_straggler(&healthy)] {
        let specs: Vec<WorldSpec> = layouts
            .iter()
            .map(|s| s.clone().with_faults(&faults))
            .collect();
        let n = specs.len();
        let live: Vec<(Vec<u64>, WorldResult)> = specs
            .iter()
            .map(|spec| {
                let (result, mut worlds) = kernel(std::slice::from_ref(spec));
                (result_bits(&result), worlds.remove(0))
            })
            .collect();
        let stragglers = !faults.stragglers.is_empty();
        for (i, (bits, _)) in live.iter().enumerate() {
            assert_eq!(
                bits, &live[0].0,
                "{name}: live layout {i} computed a different result"
            );
        }
        for first in 0..n {
            let rotated: Vec<WorldSpec> = (0..n).map(|j| specs[(first + j) % n].clone()).collect();
            let (result, worlds) = kernel(&rotated);
            assert_eq!(result_bits(&result), live[0].0, "{name}: result");
            assert_eq!(worlds.len(), n);
            for (j, world) in worlds.iter().enumerate() {
                let layout = (first + j) % n;
                assert_eq!(
                    world_bits(world),
                    world_bits(&live[layout].1),
                    "{name}: layout {layout} at position {j} (stragglers: {stragglers})"
                );
            }
        }
    }
}

fn a01_layouts() -> Vec<WorldSpec> {
    vec![
        WorldSpec::all_on(Device::Host, 8),
        WorldSpec::all_on(Device::Phi0, 8),
    ]
}

fn runs<T>(r: MpiRuns<T>) -> (T, Vec<WorldResult>) {
    (r.result, r.worlds)
}

#[test]
fn ep_replays_match_live_runs() {
    check(
        "EP",
        &a01_layouts(),
        |s| runs(mpi_npb::ep_mpi_layouts(18, s)),
        |r| {
            let mut bits = vec![r.sx.to_bits(), r.sy.to_bits(), r.accepted, r.pairs];
            bits.extend(r.q);
            bits
        },
    );
}

#[test]
fn cg_replays_match_live_runs() {
    check(
        "CG",
        &a01_layouts(),
        |s| runs(mpi_npb::cg_mpi_layouts(600, 5, 3, 10.0, s)),
        |zeta| vec![zeta.to_bits()],
    );
}

#[test]
fn ft_replays_match_live_runs() {
    check(
        "FT",
        &a01_layouts(),
        |s| runs(mpi_npb::ft_mpi_layouts(16, 16, 16, s)),
        |c| vec![c.re.to_bits(), c.im.to_bits()],
    );
}

#[test]
fn is_replays_match_live_runs() {
    check(
        "IS",
        &a01_layouts(),
        |s| runs(mpi_npb::is_mpi_layouts(14, 10, s)),
        |keys| keys.iter().map(|&k| u64::from(k)).collect(),
    );
}

/// A02's case and layouts. This is also what pins that each layout,
/// run live, ends with a bit-equal residual: the sweep's A02 now
/// computes only one.
#[test]
fn overflow_replays_match_live_runs() {
    let case = OverflowCase {
        zone_n: 10,
        zones: 4,
    };
    let layouts = [
        WorldSpec::all_on(Device::Host, 4),
        WorldSpec::all_on(Device::Phi0, 4),
        WorldSpec::symmetric(2, 1, SoftwareStack::PostUpdate),
    ];
    check(
        "OVERFLOW",
        &layouts,
        |s| {
            let r = run_mpi_layouts(&case, 3, 1, s);
            ((r.final_residual, r.final_mismatch), r.worlds)
        },
        |(residual, mismatch)| vec![residual.to_bits(), mismatch.to_bits()],
    );
}

/// The single-layout functions are the live runs the checks above
/// compare against.
#[test]
fn single_layout_wrappers_are_the_live_runs() {
    let [host, phi] = [Device::Host, Device::Phi0].map(|d| WorldSpec::all_on(d, 8));
    let both = mpi_npb::cg_mpi_layouts(600, 5, 3, 10.0, &[host.clone(), phi.clone()]);
    for (i, spec) in [host, phi].iter().enumerate() {
        let one = mpi_npb::cg_mpi(600, 5, 3, 10.0, spec);
        assert_eq!(one.result.to_bits(), both.result.to_bits());
        assert_eq!(one.wall_s.to_bits(), both.wall_s(i).to_bits());
    }
}
