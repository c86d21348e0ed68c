//! Workload definitions and the inputs they are built from.  Every input is
//! a pure function of the workload seed.

use pb_sparse::Csr;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Erdős–Rényi `A·A` whose tuple buffer and product are far larger
    /// than the last-level cache: the DRAM regime of the paper's Eq. 4.
    ErDram,
    /// Graph500 R-MAT `A·A` that fits in the last-level cache, with skewed
    /// bins and heavy merging (sort- and compress-bound).
    RmatSkew,
    /// An in-process `pb-serve` driven by one closed-loop connection that
    /// interleaves reads with store, multiply and evict requests.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ErDram, Workload::RmatSkew, Workload::ServeMixed];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ErDram => "er-dram",
            Workload::RmatSkew => "rmat-skew",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// Input sizes: the benchmark's own, or tiny ones for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Sizes that run in milliseconds.
    Tiny,
}

/// Generator family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `pb_gen::erdos_renyi_square`.
    Er,
    /// `pb_gen::rmat_square` (Graph500 parameters).
    Rmat,
}

/// One seeded square input matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatSpec {
    pub family: Family,
    pub scale: u32,
    pub edge_factor: u32,
    pub seed: u64,
}

impl MatSpec {
    /// Runs the generator.
    pub fn generate(&self) -> Csr<f64> {
        match self.family {
            Family::Er => pb_gen::erdos_renyi_square(self.scale, self.edge_factor, self.seed),
            Family::Rmat => pb_gen::rmat_square(self.scale, self.edge_factor, self.seed),
        }
    }

    /// The `pb-serve` request that generates the same matrix server-side
    /// under `name`.
    pub fn gen_request(&self, name: &str) -> String {
        let kind = match self.family {
            Family::Er => "er",
            Family::Rmat => "rmat",
        };
        format!(
            "{{\"op\":\"gen\",\"name\":\"{name}\",\"kind\":\"{kind}\",\"scale\":{},\"edge_factor\":{},\"seed\":{}}}",
            self.scale, self.edge_factor, self.seed
        )
    }
}

/// SplitMix64 step: derives independent input seeds from the workload seed.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The matrices a workload multiplies (`serve-mixed` keeps them resident as
/// `r0, r1, …`): `A` of a kernel workload, or the reader's ER and R-MAT
/// residents.
pub fn operands(workload: Workload, size: Size, seed: u64) -> Vec<MatSpec> {
    let spec = |family, scale, edge_factor, salt| MatSpec {
        family,
        scale,
        edge_factor,
        seed: derive(seed, salt),
    };
    match (workload, size) {
        (Workload::ErDram, Size::Full) => vec![spec(Family::Er, 17, 20, 1)],
        (Workload::ErDram, Size::Tiny) => vec![spec(Family::Er, 8, 4, 1)],
        (Workload::RmatSkew, Size::Full) => vec![spec(Family::Rmat, 13, 8, 2)],
        (Workload::RmatSkew, Size::Tiny) => vec![spec(Family::Rmat, 8, 4, 2)],
        (Workload::ServeMixed, Size::Full) => {
            vec![spec(Family::Er, 11, 8, 3), spec(Family::Rmat, 11, 8, 4)]
        }
        (Workload::ServeMixed, Size::Tiny) => {
            vec![spec(Family::Er, 6, 4, 3), spec(Family::Rmat, 6, 4, 4)]
        }
    }
}

/// The products a pass computes, as indices into [`operands`]: `A·A` for a
/// kernel workload; `r0·r1` (ER times R-MAT) for `serve-mixed`, whose reads
/// repeat one product so that their latency has one mode.
pub fn products(workload: Workload) -> Vec<(usize, usize)> {
    match workload {
        Workload::ErDram | Workload::RmatSkew => vec![(0, 0)],
        Workload::ServeMixed => vec![(0, 1)],
    }
}

/// The `i`-th fresh matrix a `store` ships: ER s=11 ef=8 (16 k entries, a
/// ~480 KB protocol line) at full size.
pub fn store_spec(size: Size, seed: u64, i: u64) -> MatSpec {
    let (scale, edge_factor) = match size {
        Size::Full => (11, 8),
        Size::Tiny => (6, 4),
    };
    MatSpec {
        family: Family::Er,
        scale,
        edge_factor,
        seed: derive(seed, 1000 + i),
    }
}

/// Distinct store matrices pre-rendered per run; cycles reuse them under
/// fresh catalog names.
pub const STORE_POOL: u64 = 4;

/// The `"rows":…,"cols":…,"entries":[…]` body of a `store` request for
/// `m`.  Values print in Rust's shortest round-trip form, so the server
/// parses back the exact bits.
pub fn store_body(m: &Csr<f64>) -> String {
    let mut s = String::with_capacity(m.nnz() * 32 + 64);
    s.push_str(&format!(
        "\"rows\":{},\"cols\":{},\"entries\":[",
        m.nrows(),
        m.ncols()
    ));
    for (n, (r, c, v)) in m.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{r},{c},{v}]"));
    }
    s.push(']');
    s
}

/// A complete `store` request line.
pub fn store_line(name: &str, body: &str) -> String {
    format!("{{\"op\":\"store\",\"name\":\"{name}\",{body}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_inputs_but_not_shapes() {
        crate::one_thread();
        for w in Workload::ALL {
            let a = operands(w, Size::Tiny, 1);
            let b = operands(w, Size::Tiny, 2);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_ne!(x.seed, y.seed);
                let (mx, my) = (x.generate(), y.generate());
                assert_eq!(mx.shape(), my.shape());
                assert_ne!(crate::oracle::digest(&mx), crate::oracle::digest(&my));
            }
            assert_eq!(operands(w, Size::Tiny, 1), a, "same seed, same inputs");
        }
    }

    #[test]
    fn store_lines_round_trip_exactly() {
        crate::one_thread();
        let m = store_spec(Size::Tiny, 5, 0).generate();
        let line = store_line("x", &store_body(&m));
        let Ok(pb_serve::Request::Store {
            rows,
            cols,
            entries,
            ..
        }) = pb_serve::parse_request(&line)
        else {
            panic!("store line must parse");
        };
        let back = pb_sparse::Coo::from_entries(rows, cols, entries)
            .expect("valid entries")
            .to_csr();
        assert_eq!(crate::oracle::digest(&back), crate::oracle::digest(&m));
    }
}
