//! The correctness oracle: `pb_sparse::reference` products reduced to
//! order-sensitive digests, so the timed section holds a `u64` per product
//! instead of the product itself.

use pb_sparse::reference::multiply_csr;
use pb_sparse::Csr;

/// Streaming 64-bit digest over words (multiply–xorshift mixing).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0x9e37_79b9_7f4a_7c15)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let mut h = (self.0 ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 32;
        self.0 = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    }

    fn finish(mut self) -> u64 {
        self.0 ^= self.0 >> 29;
        self.0
    }
}

/// Digest of a CSR matrix: shape, row pointers, column indices and value
/// bits, in that order.  Bit-identical matrices, and only those in
/// practice, have equal digests.
pub fn digest(m: &Csr<f64>) -> u64 {
    digest_blocks(m.ncols(), std::slice::from_ref(m))
}

/// [`digest`] of the matrix formed by stacking `blocks` (row blocks of
/// one product, in order) without building it.
pub fn digest_blocks(ncols: usize, blocks: &[Csr<f64>]) -> u64 {
    let mut d = Digest::new();
    d.word(blocks.iter().map(|b| b.nrows()).sum::<usize>() as u64);
    d.word(ncols as u64);
    d.word(0);
    let mut offset = 0usize;
    for b in blocks {
        for &p in &b.rowptr()[1..] {
            d.word((offset + p) as u64);
        }
        offset += b.nnz();
    }
    for b in blocks {
        for &c in b.colidx() {
            d.word(u64::from(c));
        }
    }
    for b in blocks {
        for &v in b.values() {
            d.word(v.to_bits());
        }
    }
    d.finish()
}

/// Rows `rows` of `a` as a matrix of their own.
fn row_block(a: &Csr<f64>, rows: std::ops::Range<usize>) -> Csr<f64> {
    let rp = a.rowptr();
    let (lo, hi) = (rp[rows.start], rp[rows.end]);
    let rowptr = rp[rows.start..=rows.end].iter().map(|&p| p - lo).collect();
    Csr::from_parts_unchecked(
        rows.len(),
        a.ncols(),
        rowptr,
        a.colidx()[lo..hi].to_vec(),
        a.values()[lo..hi].to_vec(),
    )
}

/// Digest of the reference product `a·b`, computed as `blocks` row blocks
/// on as many threads.  Every row of the reference product depends on one
/// row of `a` only, so the stacked blocks are the full product, bit for
/// bit.
pub fn reference_digest(a: &Csr<f64>, b: &Csr<f64>, blocks: usize) -> u64 {
    let blocks = blocks.clamp(1, a.nrows().max(1));
    // Balance the blocks by flop, the reference kernel's cost.
    let flop: Vec<usize> = (0..a.nrows())
        .map(|i| a.row(i).0.iter().map(|&k| b.row_nnz(k as usize)).sum())
        .collect();
    let total: usize = flop.iter().sum();
    let mut bounds = vec![0usize];
    let mut acc = 0usize;
    for (i, f) in flop.iter().enumerate() {
        acc += f;
        if bounds.len() < blocks && acc * blocks >= total * bounds.len() {
            bounds.push(i + 1);
        }
    }
    bounds.push(a.nrows());
    bounds.dedup();
    let products: Vec<Csr<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = bounds
            .windows(2)
            .map(|w| {
                let block = row_block(a, w[0]..w[1]);
                s.spawn(move || multiply_csr(&block, b))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference block panicked"))
            .collect()
    });
    digest_blocks(b.ncols(), &products)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_reference_matches_whole_reference() {
        crate::one_thread();
        let a = pb_gen::rmat_square(7, 6, 3);
        let whole = digest(&multiply_csr(&a, &a));
        for blocks in [1, 2, 3, 7] {
            assert_eq!(reference_digest(&a, &a, blocks), whole, "blocks = {blocks}");
        }
    }

    #[test]
    fn digest_sees_one_flipped_value_bit() {
        crate::one_thread();
        let a = pb_gen::erdos_renyi_square(6, 4, 1);
        let mut c = multiply_csr(&a, &a);
        let before = digest(&c);
        c.values_mut()[3] = f64::from_bits(c.values()[3].to_bits() ^ 1);
        assert_ne!(digest(&c), before);
    }
}
