//! Collective operations, implemented as real message-passing algorithms
//! over [`Rank`]'s point-to-point layer.
//!
//! Algorithm selection mirrors the production library the paper used:
//!
//! * `MPI_Bcast` — binomial tree.
//! * `MPI_Reduce` — reversed binomial tree with per-hop combine cost
//!   ([`Rank::reduce_sum_data`], which carries the data).
//! * `MPI_Allreduce` — recursive doubling on a power-of-two subgroup
//!   (extra ranks fold in and out), per MPICH.
//! * `MPI_Allgather` — Bruck's algorithm for messages ≤ 2 KB, ring above;
//!   the switch is what produces the abrupt jump between 2 KB and 4 KB in
//!   the paper's Figure 13.
//! * `MPI_Alltoall` — pairwise exchange, each send paying an incast
//!   factor that grows with the world size.
//! * `MPI_Barrier` — dissemination.
//!
//! Each collective spans the whole world, and each of its receives names
//! its source and tag, so the messages a rank sends and receives are a
//! function of its rank, the world size and the arguments alone: what
//! [`crate::replay`] relies on. The `*_data` variants carry real `f64`
//! payloads for the distributed NPB and OVERFLOW runs.

use crate::world::Rank;

/// Tag bases per collective so concurrent phases never cross-match.
const TAG_BARRIER: i32 = 1_000_000;
const TAG_BCAST: i32 = 2_000_000;
const TAG_ALLREDUCE: i32 = 4_000_000;
const TAG_ALLGATHER: i32 = 5_000_000;
const TAG_ALLTOALL: i32 = 6_000_000;
const TAG_BCAST_DATA: i32 = 7_000_000;
const TAG_REDUCE_DATA: i32 = 8_000_000;
const TAG_ALLGATHER_DATA: i32 = 9_000_000;
const TAG_ALLTOALL_DATA: i32 = 10_000_000;

/// Message size (bytes per rank) above which Allgather switches from
/// Bruck to ring — the Figure 13 algorithm-change point.
pub const ALLGATHER_BRUCK_MAX: u64 = 2 * 1024;

impl Rank {
    /// Dissemination barrier: ⌈log₂ p⌉ rounds of zero-byte exchanges.
    pub async fn barrier(&mut self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let dest = (self.rank() + dist) % p;
            let src = (self.rank() + p - dist) % p;
            self.send(dest, TAG_BARRIER + k as i32, 0).await;
            self.recv(src, TAG_BARRIER + k as i32).await;
            dist <<= 1;
            k += 1;
        }
    }

    /// Binomial-tree broadcast of `bytes` from `root`.
    pub async fn bcast(&mut self, root: usize, bytes: u64) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let vrank = (self.rank() + p - root) % p;
        // Receive phase: wait for the subtree parent.
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let src = (self.rank() + p - mask) % p;
                self.recv(src, TAG_BCAST).await;
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children.
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < p {
                let dest = (self.rank() + mask) % p;
                self.send(dest, TAG_BCAST, bytes).await;
            }
            mask >>= 1;
        }
    }

    /// Allreduce by recursive doubling (MPICH's algorithm for short and
    /// medium messages). Non-power-of-two worlds fold the surplus ranks
    /// into a power-of-two subgroup first and redistribute afterwards.
    pub async fn allreduce(&mut self, bytes: u64) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let pof2 = 1usize << (usize::BITS - 1 - p.leading_zeros()); // largest 2^k <= p
        let rem = p - pof2;
        let me = self.rank();

        // Fold: the first 2*rem ranks pair up (even sends to odd).
        let newrank: Option<usize> = if me < 2 * rem {
            if me.is_multiple_of(2) {
                self.send(me + 1, TAG_ALLREDUCE, bytes).await;
                None // retires from the doubling phase
            } else {
                self.recv(me - 1, TAG_ALLREDUCE).await;
                self.reduce_op(bytes).await;
                Some(me / 2)
            }
        } else {
            Some(me - rem)
        };

        if let Some(nr) = newrank {
            let mut mask = 1usize;
            while mask < pof2 {
                let partner_nr = nr ^ mask;
                let partner = if partner_nr < rem {
                    partner_nr * 2 + 1
                } else {
                    partner_nr + rem
                };
                self.send(partner, TAG_ALLREDUCE + mask as i32, bytes).await;
                self.recv(partner, TAG_ALLREDUCE + mask as i32).await;
                self.reduce_op(bytes).await;
                mask <<= 1;
            }
        }

        // Unfold: odd partners return the result to the retired evens.
        if me < 2 * rem {
            if me.is_multiple_of(2) {
                self.recv(me + 1, TAG_ALLREDUCE + 1_000).await;
            } else {
                self.send(me - 1, TAG_ALLREDUCE + 1_000, bytes).await;
            }
        }
    }

    /// Allgather of `bytes` contributed per rank. Bruck's algorithm for
    /// contributions ≤ [`ALLGATHER_BRUCK_MAX`], ring otherwise.
    pub async fn allgather(&mut self, bytes: u64) {
        if bytes <= ALLGATHER_BRUCK_MAX {
            self.allgather_bruck(bytes).await;
        } else {
            self.allgather_ring(bytes).await;
        }
    }

    /// Bruck allgather: ⌈log₂ p⌉ rounds; round k ships the 2^k blocks
    /// accumulated so far.
    pub async fn allgather_bruck(&mut self, bytes: u64) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let me = self.rank();
        let mut k = 0i32;
        let mut dist = 1usize;
        while dist < p {
            let blocks = dist.min(p - dist) as u64;
            let dest = (me + p - dist) % p;
            let src = (me + dist) % p;
            self.send(dest, TAG_ALLGATHER + k, blocks * bytes).await;
            self.recv(src, TAG_ALLGATHER + k).await;
            dist <<= 1;
            k += 1;
        }
    }

    /// Ring allgather: p−1 rounds, each forwarding one block.
    pub async fn allgather_ring(&mut self, bytes: u64) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let me = self.rank();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        for round in 0..(p - 1) as i32 {
            self.send(right, TAG_ALLGATHER + round, bytes).await;
            self.recv(left, TAG_ALLGATHER + round).await;
        }
    }

    /// Pairwise-exchange alltoall of `bytes` per (rank, rank) pair. Each
    /// send pays the incast inflation that grows with the world size
    /// ([`crate::transport::alltoall_incast`]), priced from the sender's
    /// device.
    pub async fn alltoall(&mut self, bytes: u64) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let me = self.rank();
        for round in 1..p {
            let dest = (me + round) % p;
            let src = (me + p - round) % p;
            self.send_incast(dest, TAG_ALLTOALL + round as i32, bytes).await;
            self.recv(src, TAG_ALLTOALL + round as i32).await;
        }
    }

    /// Binomial broadcast *carrying real data*: after the call every rank
    /// holds the root's `buf` contents. Timing matches [`Rank::bcast`].
    pub async fn bcast_data(&mut self, root: usize, buf: &mut Vec<f64>) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let vrank = (self.rank() + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let src = (self.rank() + p - mask) % p;
                *buf = self.recv_data(src, TAG_BCAST_DATA).await;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < p {
                let dest = (self.rank() + mask) % p;
                self.send_data(dest, TAG_BCAST_DATA, buf).await;
            }
            mask >>= 1;
        }
    }

    /// Binomial reduction with real elementwise summation: on `root`,
    /// `buf` ends up holding the sum over all ranks (deterministic — the
    /// combine tree is fixed). Other ranks' buffers are consumed.
    pub async fn reduce_sum_data(&mut self, root: usize, buf: &mut [f64]) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let vrank = (self.rank() + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask == 0 {
                let src_v = vrank | mask;
                if src_v < p {
                    let src = (src_v + root) % p;
                    let data = self.recv_data(src, TAG_REDUCE_DATA).await;
                    assert_eq!(data.len(), buf.len(), "reduce buffer length mismatch");
                    for (b, d) in buf.iter_mut().zip(&data) {
                        *b += d;
                    }
                    self.reduce_op((buf.len() * 8) as u64).await;
                }
            } else {
                let dest_v = vrank & !mask;
                let dest = (dest_v + root) % p;
                self.send_data(dest, TAG_REDUCE_DATA, buf).await;
                break;
            }
            mask <<= 1;
        }
    }

    /// Allreduce with real data: reduce to rank 0 then broadcast — every
    /// rank ends with the identical elementwise sum.
    pub async fn allreduce_sum_data(&mut self, buf: &mut Vec<f64>) {
        self.reduce_sum_data(0, buf).await;
        self.bcast_data(0, buf).await;
    }

    /// Ring allgather carrying real data, in the shape of
    /// `MPI_Allgatherv`: rank `r`'s contribution lands in
    /// `out[displs[r]..displs[r + 1]]` on every rank, and `local` is this
    /// rank's. Contributions may differ in length. Each ring round
    /// forwards a block straight from `out` and copies its arrival into
    /// the owner's slot.
    ///
    /// # Panics
    /// Panics unless `displs` has `size + 1` nondecreasing entries ending
    /// within `out`, and `local` and every arrival have their slot's
    /// length.
    pub async fn allgather_data(&mut self, local: &[f64], out: &mut [f64], displs: &[usize]) {
        let p = self.size();
        let me = self.rank();
        assert_eq!(displs.len(), p + 1, "allgather needs size + 1 displacements");
        let slot = |owner: usize| displs[owner]..displs[owner + 1];
        out[slot(me)].copy_from_slice(local);
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        for round in 0..p - 1 {
            // Forward the block that arrived last round (initially ours).
            let outgoing_owner = (me + p - round) % p;
            let payload = &out[slot(outgoing_owner)];
            self.send_data(right, TAG_ALLGATHER_DATA + round as i32, payload)
                .await;
            let data = self.recv_data(left, TAG_ALLGATHER_DATA + round as i32).await;
            let incoming_owner = (me + p - round - 1 + p) % p;
            out[slot(incoming_owner)].copy_from_slice(&data);
        }
    }

    /// Pairwise alltoall carrying real data: `blocks[d]` goes to rank
    /// `d`; the return value's entry `s` came from rank `s`. Unlike
    /// [`Rank::alltoall`], it pays no alltoall incast
    /// ([`crate::transport::alltoall_incast`]): its sends are plain
    /// [`Rank::send_data`]s.
    ///
    /// # Panics
    /// Panics unless `blocks.len() == size`.
    pub async fn alltoall_data(&mut self, mut blocks: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let p = self.size();
        assert_eq!(blocks.len(), p, "alltoall needs one block per rank");
        let me = self.rank();
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
        out[me] = std::mem::take(&mut blocks[me]);
        for round in 1..p {
            let dest = (me + round) % p;
            let src = (me + p - round) % p;
            let payload = std::mem::take(&mut blocks[dest]);
            self.send_data(dest, TAG_ALLTOALL_DATA + round as i32, &payload)
                .await;
            out[src] = self.recv_data(src, TAG_ALLTOALL_DATA + round as i32).await;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::placement::WorldSpec;
    use crate::world::MpiWorld;
    use maia_arch::Device;

    /// Every collective must complete without deadlock for awkward world
    /// sizes (non-powers of two included).
    #[test]
    fn collectives_complete_for_odd_sizes() {
        for p in [1usize, 2, 3, 5, 8, 13, 16] {
            let spec = WorldSpec::all_on(Device::Host, p);
            MpiWorld::run(&spec, |mut rank| async move {
                rank.barrier().await;
                rank.bcast(0, 4096).await;
                rank.allreduce(4096).await;
                rank.allgather(512).await;
                rank.allgather(16 * 1024).await;
                rank.alltoall(1024).await;
                rank.barrier().await;
                rank
            })
            .unwrap_or_else(|e| panic!("p={p}: {e}"));
        }
    }

    #[test]
    fn data_collectives_compute_correct_results() {
        use parking_lot::Mutex;
        use std::sync::Arc;
        let p = 7;
        let spec = WorldSpec::all_on(Device::Host, p);
        let results = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&results);
        MpiWorld::run(&spec, move |mut rank| {
            let r2 = Arc::clone(&r2);
            async move {
                let me = rank.rank() as f64;
                // bcast: everyone ends with rank 3's vector.
                let mut b = if rank.rank() == 3 { vec![1.0, 2.0, 3.0] } else { Vec::new() };
                rank.bcast_data(3, &mut b).await;
                assert_eq!(b, vec![1.0, 2.0, 3.0]);
                // allreduce: sum of 0..p in each slot.
                let mut s = vec![me, 2.0 * me];
                rank.allreduce_sum_data(&mut s).await;
                assert_eq!(s, vec![21.0, 42.0]);
                // allgather with ragged blocks: rank i contributes i copies
                // of i (rank 0 contributes an empty block).
                let local = vec![me; rank.rank()];
                // Rank r's block starts at 0 + 1 + ... + (r - 1).
                let displs: Vec<usize> =
                    (0..=rank.size()).map(|r| r * r.saturating_sub(1) / 2).collect();
                let mut gathered = vec![f64::NAN; displs[rank.size()]];
                rank.allgather_data(&local, &mut gathered, &displs).await;
                let blocks = displs.windows(2).map(|w| &gathered[w[0]..w[1]]);
                for (owner, block) in blocks.enumerate() {
                    assert_eq!(block.len(), owner);
                    assert!(block.iter().all(|&v| v == owner as f64));
                }
                // alltoall: block for dest d is [me*10 + d].
                let blocks: Vec<Vec<f64>> =
                    (0..rank.size()).map(|d| vec![me * 10.0 + d as f64]).collect();
                let got = rank.alltoall_data(blocks).await;
                for (src, block) in got.iter().enumerate() {
                    assert_eq!(block, &vec![src as f64 * 10.0 + me]);
                }
                r2.lock().push(rank.rank());
                rank
            }
        })
        .unwrap();
        assert_eq!(results.lock().len(), p);
    }

    #[test]
    fn data_collectives_cost_virtual_time() {
        // The data-carrying allreduce on the Phi costs far more virtual
        // time than on the host, like its timing-only counterpart.
        let time_on = |dev: Device, ranks: usize| {
            let spec = WorldSpec::all_on(dev, ranks);
            MpiWorld::run(&spec, |mut rank| async move {
                let mut v = vec![1.0f64; 4096];
                rank.allreduce_sum_data(&mut v).await;
                rank
            })
            .unwrap()
            .end_time
            .as_secs_f64()
        };
        let host = time_on(Device::Host, 16);
        let phi = time_on(Device::Phi0, 59);
        assert!(host > 0.0);
        assert!(phi > 2.0 * host, "phi {phi} vs host {host}");
    }

    #[test]
    fn bcast_scales_logarithmically() {
        let time_for = |p: usize| {
            let spec = WorldSpec::all_on(Device::Host, p);
            MpiWorld::run(&spec, |mut rank| async move {
                rank.bcast(0, 1 << 20).await;
                rank
            })
            .unwrap()
            .end_time
            .as_secs_f64()
        };
        let t2 = time_for(2);
        let t16 = time_for(16);
        // Binomial: 4 levels vs 1 level — about 4x, far from linear 15x.
        assert!(t16 / t2 > 2.0 && t16 / t2 < 6.0, "ratio {}", t16 / t2);
    }

    #[test]
    fn allgather_jump_at_algorithm_switch() {
        // Figure 13: time jumps abruptly when the library leaves Bruck.
        let time_for = |bytes: u64, algo: &'static str| {
            let spec = WorldSpec::all_on(Device::Phi0, 59);
            MpiWorld::run(&spec, move |mut rank| async move {
                match algo {
                    "bruck" => rank.allgather_bruck(bytes).await,
                    "ring" => rank.allgather_ring(bytes).await,
                    _ => rank.allgather(bytes).await,
                }
                rank
            })
            .unwrap()
            .end_time
            .as_secs_f64()
        };
        let t2k = time_for(2 * 1024, "switched");
        let t4k = time_for(4 * 1024, "switched");
        let t8k = time_for(8 * 1024, "switched");
        // The jump is the switch itself: Bruck up to ALLGATHER_BRUCK_MAX,
        // ring from the next size on.
        assert_eq!(t2k, time_for(2 * 1024, "bruck"));
        assert_eq!(t4k, time_for(4 * 1024, "ring"));
        // The 2k->4k step (algorithm switch) is abrupt relative to the
        // smooth post-switch 4k->8k growth.
        let jump = t4k / t2k;
        let smooth = t8k / t4k;
        assert!(jump > 2.0, "no algorithm-switch jump: {jump}");
        assert!(smooth < 2.0, "post-switch growth not smooth: {smooth}");
        assert!(jump > smooth + 0.3, "jump {jump} not abrupt vs {smooth}");
    }

    #[test]
    fn allreduce_non_power_of_two_costs_more_rounds() {
        let time_for = |p: usize| {
            let spec = WorldSpec::all_on(Device::Host, p);
            MpiWorld::run(&spec, |mut rank| async move {
                rank.allreduce(64 * 1024).await;
                rank
            })
            .unwrap()
            .end_time
            .as_secs_f64()
        };
        // 24 ranks fold into 16 and back: more expensive than plain 16.
        assert!(time_for(24) > time_for(16));
    }

    #[test]
    fn alltoall_grows_about_linearly_in_ranks() {
        let time_for = |p: usize| {
            let spec = WorldSpec::all_on(Device::Host, p);
            MpiWorld::run(&spec, |mut rank| async move {
                rank.alltoall(4 * 1024).await;
                rank
            })
            .unwrap()
            .end_time
            .as_secs_f64()
        };
        let t8 = time_for(8);
        let t16 = time_for(16);
        let ratio = t16 / t8;
        assert!(ratio > 1.8 && ratio < 3.0, "alltoall scaling ratio {ratio}");
    }
}
