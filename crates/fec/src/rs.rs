//! Systematic Reed–Solomon erasure coding.
//!
//! Construction: take the `n x k` Vandermonde matrix `V`, and normalize it
//! to `E = V * inv(V[0..k])`. The top `k` rows of `E` are the identity, so
//! the first `k` output shards equal the data shards (systematic); the
//! remaining `m = n - k` rows generate parity. Any `k` rows of `E` are
//! invertible (they are a change of basis away from `k` distinct-point
//! Vandermonde rows), so any `k` surviving shards reconstruct the data.

use crate::gf256;
use crate::matrix::GfMatrix;

/// Errors surfaced by [`ReedSolomon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Fewer than `k` shards present.
    NotEnoughShards { have: usize, need: usize },
    /// Shards disagree on length.
    ShardSizeMismatch,
    /// Parameters outside GF(256)'s limits.
    InvalidParameters(String),
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::NotEnoughShards { have, need } => {
                write!(
                    f,
                    "not enough shards to reconstruct: have {have}, need {need}"
                )
            }
            RsError::ShardSizeMismatch => write!(f, "shards disagree on length"),
            RsError::InvalidParameters(msg) => write!(f, "invalid RS parameters: {msg}"),
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic `RS(k, n)` erasure coder: `k` data shards, `n - k` parity
/// shards, tolerates any `n - k` erasures.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    n: usize,
    /// `n x k` encoding matrix; top `k x k` block is the identity.
    encode: GfMatrix,
}

impl ReedSolomon {
    /// Create a coder with `data_shards` data and `parity_shards` parity
    /// shards.
    pub fn new(data_shards: usize, parity_shards: usize) -> Result<Self, RsError> {
        let k = data_shards;
        let n = data_shards + parity_shards;
        if k == 0 {
            return Err(RsError::InvalidParameters(
                "need at least one data shard".into(),
            ));
        }
        if n > 255 {
            return Err(RsError::InvalidParameters(format!(
                "total shards {n} exceeds GF(256) limit of 255"
            )));
        }
        let v = GfMatrix::vandermonde(n, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .inverse()
            .expect("square Vandermonde with distinct points always inverts");
        let encode = v.mul(&top_inv);
        Ok(Self { k, n, encode })
    }

    pub fn data_shards(&self) -> usize {
        self.k
    }

    pub fn parity_shards(&self) -> usize {
        self.n - self.k
    }

    /// Encode `k` equal-length data shards into `n` shards (the first `k`
    /// are the data, verbatim).
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.k {
            return Err(RsError::InvalidParameters(format!(
                "expected {} data shards, got {}",
                self.k,
                data.len()
            )));
        }
        let len = data[0].len();
        if data.iter().any(|s| s.len() != len) {
            return Err(RsError::ShardSizeMismatch);
        }
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.n);
        out.extend(data.iter().cloned());
        for r in self.k..self.n {
            let mut shard = vec![0u8; len];
            for c in 0..self.k {
                gf256::mul_acc(&mut shard, &data[c], self.encode.get(r, c));
            }
            out.push(shard);
        }
        Ok(out)
    }

    /// Reconstruct the `k` data shards from any `k` received shards.
    ///
    /// `shards[i]` is `Some(bytes)` if shard `i` (0-based over all `n`)
    /// arrived, `None` if it was lost.
    pub fn reconstruct(&self, shards: &[Option<Vec<u8>>]) -> Result<Vec<Vec<u8>>, RsError> {
        if shards.len() != self.n {
            return Err(RsError::InvalidParameters(format!(
                "expected {} shard slots, got {}",
                self.n,
                shards.len()
            )));
        }
        // Fast path: all data shards present.
        if shards[..self.k].iter().all(|s| s.is_some()) {
            return Ok(shards[..self.k]
                .iter()
                .map(|s| s.clone().unwrap())
                .collect());
        }

        let present: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect();
        if present.len() < self.k {
            return Err(RsError::NotEnoughShards {
                have: present.len(),
                need: self.k,
            });
        }
        let use_rows = &present[..self.k];
        let len = shards[use_rows[0]].as_ref().unwrap().len();
        if use_rows
            .iter()
            .any(|&i| shards[i].as_ref().unwrap().len() != len)
        {
            return Err(RsError::ShardSizeMismatch);
        }

        let sub = self.encode.select_rows(use_rows);
        let dec = sub
            .inverse()
            .expect("any k rows of the systematic Vandermonde code invert");

        let mut data = vec![vec![0u8; len]; self.k];
        for (out_row, item) in data.iter_mut().enumerate() {
            for (in_idx, &shard_idx) in use_rows.iter().enumerate() {
                let c = dec.get(out_row, in_idx);
                gf256::mul_acc(item, shards[shard_idx].as_ref().unwrap(), c);
            }
        }
        Ok(data)
    }

    /// Whether a loss pattern with `lost` erasures is recoverable.
    pub fn can_recover(&self, lost: usize) -> bool {
        lost <= self.parity_shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_rng::{Rng, StdRng};

    fn random_shards(rng: &mut StdRng, k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|_| (0..len).map(|_| rng.random_range(0..=255u8)).collect())
            .collect()
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = random_shards(&mut rng, 4, 64);
        let encoded = rs.encode(&data).unwrap();
        assert_eq!(encoded.len(), 6);
        assert_eq!(&encoded[..4], &data[..]);
    }

    #[test]
    fn reconstructs_after_max_parity_losses() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let data = random_shards(&mut rng, 5, 100);
        let encoded = rs.encode(&data).unwrap();
        // Lose 3 shards, including data shards.
        let mut received: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        received[0] = None;
        received[2] = None;
        received[6] = None;
        let recovered = rs.reconstruct(&received).unwrap();
        assert_eq!(recovered, data);
    }

    #[test]
    fn every_loss_pattern_up_to_parity_recovers() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let data = random_shards(&mut rng, 4, 16);
        let encoded = rs.encode(&data).unwrap();
        // All C(6,2)=15 double-loss patterns.
        for i in 0..6 {
            for j in (i + 1)..6 {
                let mut received: Vec<Option<Vec<u8>>> =
                    encoded.iter().cloned().map(Some).collect();
                received[i] = None;
                received[j] = None;
                let recovered = rs.reconstruct(&received).unwrap();
                assert_eq!(recovered, data, "loss pattern ({i},{j})");
            }
        }
    }

    #[test]
    fn too_many_losses_error() {
        let rs = ReedSolomon::new(3, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let data = random_shards(&mut rng, 3, 8);
        let encoded = rs.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        received[0] = None;
        received[1] = None;
        match rs.reconstruct(&received) {
            Err(RsError::NotEnoughShards { have: 2, need: 3 }) => {}
            other => panic!("expected NotEnoughShards, got {other:?}"),
        }
    }

    #[test]
    fn fast_path_when_all_data_present() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_shards(&mut rng, 3, 8);
        let encoded = rs.encode(&data).unwrap();
        // Lose only parity.
        let mut received: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        received[3] = None;
        received[4] = None;
        assert_eq!(rs.reconstruct(&received).unwrap(), data);
    }

    #[test]
    fn zero_parity_degenerates_to_identity() {
        let rs = ReedSolomon::new(4, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let data = random_shards(&mut rng, 4, 8);
        let encoded = rs.encode(&data).unwrap();
        assert_eq!(encoded, data);
        assert!(!rs.can_recover(1));
        assert!(rs.can_recover(0));
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(matches!(
            ReedSolomon::new(0, 2),
            Err(RsError::InvalidParameters(_))
        ));
        assert!(matches!(
            ReedSolomon::new(200, 100),
            Err(RsError::InvalidParameters(_))
        ));
    }

    #[test]
    fn rejects_mismatched_shard_sizes() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let data = vec![vec![0u8; 4], vec![0u8; 5]];
        assert_eq!(rs.encode(&data), Err(RsError::ShardSizeMismatch));
    }

    #[test]
    fn large_configuration_round_trips() {
        // Frame-sized: 40 data + 14 parity (35% redundancy, the paper's
        // requirement for 5% loss).
        let rs = ReedSolomon::new(40, 14).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let data = random_shards(&mut rng, 40, 1200);
        let encoded = rs.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        // Lose 14 scattered shards.
        for i in [0usize, 3, 7, 11, 13, 17, 22, 25, 30, 33, 38, 45, 50, 53] {
            received[i] = None;
        }
        assert_eq!(rs.reconstruct(&received).unwrap(), data);
    }
}
