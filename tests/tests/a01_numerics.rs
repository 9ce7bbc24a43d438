//! A01's results, pinned by their bits. The sweep's golden shows only
//! A01's virtual times and the kernels' unit tests compare with
//! tolerances, so a kernel rewrite that moved one rounding would pass
//! both; this test would not. The values are the outputs of the scalar
//! kernels (one draw at a time in EP, a concatenated gather per CG
//! iteration) at A01's sizes over A01's two layouts.

use maia_arch::Device;
use maia_mpi::WorldSpec;
use maia_npb::mpi_npb;

/// FNV-1a over the keys' little-endian bytes.
fn fnv1a(keys: &[u32]) -> u64 {
    keys.iter()
        .flat_map(|k| k.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn a01_results_match_the_scalar_kernels_bit_for_bit() {
    let layouts = [Device::Host, Device::Phi0].map(|d| WorldSpec::all_on(d, 8));

    let ep = mpi_npb::ep_mpi_layouts(18, &layouts).result;
    assert_eq!(ep.sx.to_bits(), 0x4067_6a3c_988d_50cb, "EP sx {}", ep.sx);
    assert_eq!(ep.sy.to_bits(), 0xc077_bbda_7456_b03a, "EP sy {}", ep.sy);
    assert_eq!(ep.q, [96_200, 91_230, 16_950, 1_056, 22, 0, 0, 0, 0, 0]);
    assert_eq!((ep.accepted, ep.pairs), (205_458, 1 << 18));

    let zeta = mpi_npb::cg_mpi_layouts(600, 5, 3, 10.0, &layouts).result;
    assert_eq!(zeta.to_bits(), 0x4028_7ea6_7299_166c, "CG zeta {zeta}");

    let ft = mpi_npb::ft_mpi_layouts(16, 16, 16, &layouts).result;
    assert_eq!(
        (ft.re.to_bits(), ft.im.to_bits()),
        (0x405f_7291_86f5_4f05, 0x405e_5271_9d43_fafc),
        "FT checksum {ft:?}"
    );

    let keys = mpi_npb::is_mpi_layouts(14, 10, &layouts).result;
    assert_eq!(keys.len(), 1 << 14);
    assert_eq!(fnv1a(&keys), 0xdeab_ce5a_da64_4f6d, "IS sorted keys");
}
