//! Direct edit distance mirroring the wavefront mesh.
//!
//! The mesh assigns one PE per cell of the `|a| × |b|` DP table and
//! sweeps it in `|a| + |b| − 1` anti-diagonal wavefronts.  The direct
//! solver computes the same table with rolling rows — O(min(m, n))
//! memory — tiled into column strips so the active row segment and the
//! strip's boundary column stay cache-resident on large inputs.
//! Levenshtein distance is a single u64 per pair, so any correct
//! evaluation order is bit-identical to the mesh.
//!
//! Stats are the mesh's closed forms: `|a| + |b| − 1` cycles
//! (`p + q − 2 + B` batched, wavefronts one cycle apart), each of the
//! `|a|·|b|` PEs busy once per instance, `|a| + |b|` words in and out
//! per instance, and the mesh's empty-operand short-circuit (a 0-sized
//! mesh: zero cycles, zero PEs).

use sdp_core::edit_array::{BatchEditRun, EditRun};
use sdp_fault::SdpError;
use sdp_systolic::Stats;

/// Column-strip width: strips of 1024 u64 cells (8 KiB) plus the two
/// boundary columns stay L1-resident regardless of operand lengths.
const STRIP: usize = 1024;

/// Tiled rolling-row Levenshtein.  The shorter operand is the inner
/// (column) dimension — distance is symmetric — so memory is
/// O(min(|a|, |b|)) plus the two O(max) boundary columns.
fn levenshtein_tiled(a: &[u8], b: &[u8]) -> u64 {
    let (outer, inner) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let (m, n) = (outer.len(), inner.len());
    // `left[i]` = D[i][j₀−1], the column entering the current strip;
    // `right[i]` collects D[i][j₁] leaving it.
    let mut left: Vec<u64> = (0..=m as u64).collect();
    let mut right: Vec<u64> = vec![0; m + 1];
    let mut seg = [0u64; STRIP];
    let mut j0 = 1usize;
    while j0 <= n {
        let j1 = (j0 + STRIP - 1).min(n); // inclusive strip end
        let w = j1 - j0 + 1;
        for (t, s) in seg.iter_mut().take(w).enumerate() {
            *s = (j0 + t) as u64; // row 0: D[0][j] = j
        }
        right[0] = j1 as u64;
        for i in 1..=m {
            let mut diag = left[i - 1]; // D[i−1][j₀−1]
            let mut cur = left[i]; // D[i][j−1], starting at the boundary
            let oc = outer[i - 1];
            for (t, s) in seg.iter_mut().take(w).enumerate() {
                let up = *s; // D[i−1][j]
                let sub = if oc == inner[j0 + t - 1] { 0 } else { 1 };
                cur = (up + 1).min(cur + 1).min(diag + sub);
                diag = up;
                *s = cur;
            }
            right[i] = cur;
        }
        std::mem::swap(&mut left, &mut right);
        j0 = j1 + 1;
    }
    left[m]
}

/// Closed-form mesh Stats for a batch of `bn` same-shaped comparisons.
fn mesh_stats(p: usize, q: usize, bn: usize) -> Stats {
    let io = (bn * (p + q)) as u64;
    Stats::from_parts(
        (p + q - 2 + bn) as u64,
        vec![bn as u64; p * q],
        io,
        io,
        0,
        0,
        0,
    )
}

/// Direct edit distance: bit-identical to
/// `sdp_core::edit_array::edit_distance_mesh` with the analytic Stats
/// of the `|a| × |b|` wavefront mesh.
pub fn edit_direct(a: &[u8], b: &[u8]) -> EditRun {
    if a.is_empty() || b.is_empty() {
        return EditRun {
            distance: (a.len() + b.len()) as u64,
            cycles: 0,
            stats: Stats::new(0),
        };
    }
    let stats = mesh_stats(a.len(), b.len(), 1);
    EditRun {
        distance: levenshtein_tiled(a, b),
        cycles: stats.cycles(),
        stats,
    }
}

/// Direct batch edit distance: bit-identical to
/// `sdp_core::edit_array::edit_distance_mesh_batch` (same distances,
/// same typed errors) with the analytic Stats of the streamed mesh.
pub fn edit_direct_batch(pairs: &[(&[u8], &[u8])]) -> Result<BatchEditRun, SdpError> {
    if pairs.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    let (p, q) = (pairs[0].0.len(), pairs[0].1.len());
    for (index, (a, b)) in pairs.iter().enumerate() {
        if (a.len(), b.len()) != (p, q) {
            return Err(SdpError::BatchShapeMismatch { index });
        }
    }
    let bn = pairs.len();
    if p == 0 || q == 0 {
        return Ok(BatchEditRun {
            distances: vec![(p + q) as u64; bn],
            cycles: 0,
            stats: Stats::new(0),
        });
    }
    let stats = mesh_stats(p, q, bn);
    Ok(BatchEditRun {
        distances: pairs.iter().map(|(a, b)| levenshtein_tiled(a, b)).collect(),
        cycles: stats.cycles(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_core::edit_array::{edit_distance_mesh, edit_distance_mesh_batch, edit_distance_seq};
    use sdp_fault::NoFaults;
    use sdp_trace::NullSink;

    fn word(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                b'a' + (s % 4) as u8
            })
            .collect()
    }

    #[test]
    fn single_matches_sim_exactly() {
        for (la, lb) in [(0, 0), (0, 3), (4, 0), (1, 1), (6, 9), (17, 5)] {
            let (a, b) = (word(la as u64, la), word(100 + lb as u64, lb));
            let sim = edit_distance_mesh(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
            let direct = edit_direct(&a, &b);
            assert_eq!(direct.distance, sim.distance, "{la}x{lb}");
            assert_eq!(direct.cycles, sim.cycles);
            assert_eq!(direct.stats, sim.stats);
        }
    }

    #[test]
    fn batch_matches_sim_exactly() {
        for bn in [1usize, 2, 7] {
            let words: Vec<(Vec<u8>, Vec<u8>)> = (0..bn as u64)
                .map(|s| (word(s, 5), word(50 + s, 8)))
                .collect();
            let pairs: Vec<(&[u8], &[u8])> = words
                .iter()
                .map(|(a, b)| (a.as_slice(), b.as_slice()))
                .collect();
            let sim = edit_distance_mesh_batch(&pairs, &mut NullSink).unwrap();
            let direct = edit_direct_batch(&pairs).unwrap();
            assert_eq!(direct.distances, sim.distances, "bn {bn}");
            assert_eq!(direct.cycles, sim.cycles);
            assert_eq!(direct.stats, sim.stats);
        }
    }

    #[test]
    fn tiling_is_exact_across_strip_boundaries() {
        // Lengths straddling the strip width exercise the boundary
        // columns; the plain rolling-row reference is the oracle.
        for (la, lb) in [
            (STRIP - 1, 40),
            (STRIP, 40),
            (STRIP + 3, 40),
            (40, STRIP + 1),
        ] {
            let (a, b) = (word(7, la), word(11, lb));
            assert_eq!(
                levenshtein_tiled(&a, &b),
                edit_distance_seq(&a, &b),
                "{la}x{lb}"
            );
        }
    }

    #[test]
    fn errors_match_sim() {
        assert_eq!(
            edit_direct_batch(&[]).err(),
            edit_distance_mesh_batch(&[], &mut NullSink).err()
        );
        let pairs: Vec<(&[u8], &[u8])> = vec![(b"abc", b"de"), (b"ab", b"de")];
        assert_eq!(
            edit_direct_batch(&pairs).err(),
            edit_distance_mesh_batch(&pairs, &mut NullSink).err()
        );
    }
}
