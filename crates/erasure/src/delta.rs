//! Delta parity-updating.
//!
//! Section II-B of the Reo paper describes the write-amplification problem
//! of Reed–Solomon parity maintenance. When one data chunk of a stripe is
//! overwritten there are two ways to bring the parity chunks up to date:
//! re-encode them from every data chunk ([`ReedSolomon::encode_into`]), or
//! patch them with the change to the one chunk:
//! `delta = old_data XOR new_data`, then
//! `new_parity[p] = old_parity[p] XOR coeff(p, d) * delta`.
//! [`apply_delta_update`] is the patch. Which of the two an overwrite uses
//! — the one with the fewer chunk reads — is decided by the stripe layer,
//! which issues the reads.

use crate::rs::{CodecError, ReedSolomon};

/// Applies a delta parity update for an overwrite of data shard `d`.
///
/// Given the old and new contents of the updated data shard and the old
/// parity shards, patches each parity shard in place:
/// `parity[p] ^= coeff(p, d) * (old_data XOR new_data)`.
///
/// # Errors
///
/// * [`CodecError::WrongShardCount`] — `parity` does not hold exactly
///   `rs.parity_shards()` shards.
/// * [`CodecError::UnevenShards`] — `old_data`, `new_data`, and parity
///   shards do not all share one length.
/// * [`CodecError::EmptyShards`] — zero-length shards.
///
/// # Panics
///
/// Panics if `d >= rs.data_shards()`.
///
/// # Examples
///
/// ```
/// use reo_erasure::{delta, ReedSolomon};
///
/// let rs = ReedSolomon::new(3, 2)?;
/// let mut data = vec![vec![1u8, 1], vec![2, 2], vec![3, 3]];
/// let mut parity = rs.encode(&data)?;
///
/// let old = data[1].clone();
/// data[1] = vec![9, 9];
/// delta::apply_delta_update(&rs, 1, &old, &data[1], &mut parity)?;
///
/// assert_eq!(parity, rs.encode(&data)?);
/// # Ok::<(), reo_erasure::CodecError>(())
/// ```
pub fn apply_delta_update(
    rs: &ReedSolomon,
    d: usize,
    old_data: &[u8],
    new_data: &[u8],
    parity: &mut [Vec<u8>],
) -> Result<(), CodecError> {
    assert!(d < rs.data_shards(), "data shard index out of range");
    if parity.len() != rs.parity_shards() {
        return Err(CodecError::WrongShardCount {
            expected: rs.parity_shards(),
            actual: parity.len(),
        });
    }
    let len = old_data.len();
    if len == 0 {
        return Err(CodecError::EmptyShards);
    }
    if new_data.len() != len || parity.iter().any(|p| p.len() != len) {
        return Err(CodecError::UnevenShards);
    }

    // Fused kernel: the delta XOR and the coefficient multiply happen in
    // one pass per parity shard, with no intermediate delta buffer.
    for (p, shard) in parity.iter_mut().enumerate() {
        rs.parity_kernel(p, d)
            .mul_delta_xor(shard, old_data, new_data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn delta_update_matches_full_reencode() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut data: Vec<Vec<u8>> = (0..4)
            .map(|i| (0..32).map(|j| ((i * 37 + j) % 251) as u8).collect())
            .collect();
        let mut parity = rs.encode(&data).unwrap();

        for d in 0..4 {
            let old = data[d].clone();
            for b in data[d].iter_mut() {
                *b = b.wrapping_add(13);
            }
            apply_delta_update(&rs, d, &old, &data[d], &mut parity).unwrap();
            assert_eq!(
                parity,
                rs.encode(&data).unwrap(),
                "after updating shard {d}"
            );
        }
    }

    #[test]
    fn noop_update_leaves_parity_unchanged() {
        let rs = ReedSolomon::new(3, 1).unwrap();
        let data = vec![vec![5u8; 8], vec![6; 8], vec![7; 8]];
        let mut parity = rs.encode(&data).unwrap();
        let before = parity.clone();
        apply_delta_update(&rs, 0, &data[0], &data[0], &mut parity).unwrap();
        assert_eq!(parity, before);
    }

    #[test]
    fn shape_errors() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let mut short_parity: Vec<Vec<u8>> = vec![];
        assert!(matches!(
            apply_delta_update(&rs, 0, &[1], &[2], &mut short_parity),
            Err(CodecError::WrongShardCount { .. })
        ));
        let mut parity = vec![vec![0u8; 2]];
        assert_eq!(
            apply_delta_update(&rs, 0, &[1], &[2, 3], &mut parity).unwrap_err(),
            CodecError::UnevenShards
        );
        assert_eq!(
            apply_delta_update(&rs, 0, &[], &[], &mut parity).unwrap_err(),
            CodecError::EmptyShards
        );
    }

    /// §II-B's read counts as the codec's inputs set them: the delta patch
    /// takes the old chunk and the `k` parity chunks (`1 + k` reads), a
    /// re-encode takes every data chunk, `m - 1` of them not in hand.
    #[test]
    fn cost_model_matches_paper_rule() {
        let reads = |m: usize, k: usize| {
            let rs = ReedSolomon::new(m, k).unwrap();
            let data: Vec<Vec<u8>> = (0..m).map(|i| vec![i as u8 + 1; 4]).collect();
            let mut parity = rs.encode(&data).unwrap();
            let new = vec![0xa5u8; 4];
            apply_delta_update(&rs, 0, &data[0], &new, &mut parity).unwrap();
            let mut updated = data.clone();
            updated[0] = new;
            assert_eq!(parity, rs.encode(&updated).unwrap());
            let delta = 1 + parity.len();
            let direct = updated.len() - 1;
            (delta, direct)
        };
        // Wide stripes favour delta; k+1 < m-1.
        assert_eq!(reads(8, 1), (2, 7));
        assert_eq!(reads(8, 2), (3, 7));
        // Narrow stripes favour direct.
        assert_eq!(reads(2, 2), (3, 1));
        // Tie (m-1 == k+1).
        assert_eq!(reads(4, 2), (3, 3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_shard_index_panics() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let mut parity = vec![vec![0u8; 1]];
        let _ = apply_delta_update(&rs, 5, &[1], &[2], &mut parity);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_delta_updates_stay_consistent(
            seed: u64,
            m in 2usize..6,
            k in 1usize..4,
            updates in 1usize..8,
        ) {
            let rs = ReedSolomon::new(m, k).unwrap();
            let len = 24usize;
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            };
            let mut data: Vec<Vec<u8>> = (0..m)
                .map(|_| (0..len).map(|_| next()).collect())
                .collect();
            let mut parity = rs.encode(&data).unwrap();
            for _ in 0..updates {
                let d = (next() as usize) % m;
                let old = data[d].clone();
                data[d] = (0..len).map(|_| next()).collect();
                apply_delta_update(&rs, d, &old, &data[d], &mut parity).unwrap();
            }
            prop_assert_eq!(parity, rs.encode(&data).unwrap());
        }
    }
}
