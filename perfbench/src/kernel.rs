//! The timed engine loop: warm multiplies through a persistent workspace,
//! cold multiplies through fresh engines, and the in-process `store` path,
//! each result checked against the oracle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pb_serve::{Catalog, Request};
use pb_sparse::semiring::PlusTimes;
use pb_sparse::{Coo, Csr};
use pb_spgemm::{Algorithm, SpGemm, Workspace};

use crate::oracle::digest;

/// One product `a·b` a pass computes, with its flop and the oracle's
/// digest.
#[derive(Debug)]
pub struct Product {
    pub a: Arc<Csr<f64>>,
    pub b: Arc<Csr<f64>>,
    pub flop: u64,
    pub oracle: u64,
}

/// Pre-rendered `store` lines and the digests of the matrices they carry.
#[derive(Debug, Default)]
pub struct StoreCase {
    pub lines: Vec<String>,
    pub digests: Vec<u64>,
}

/// Outcome counts of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Samples of one timed engine loop.
#[derive(Debug, Default)]
pub struct KernelRun {
    /// Wall time of one warm pass over every product, ms.
    pub warm_ms: Vec<f64>,
    /// Wall time of one cold pass over every product, ms.
    pub cold_ms: Vec<f64>,
    /// Latency of one in-process store, ms.
    pub store_ms: Vec<f64>,
    /// Warm passes discarded before the workspace stopped allocating.
    pub warmups: usize,
    /// Multiplies completed, warm-ups included.
    pub multiplies: u64,
    /// Wall time of the loop, s.
    pub wall_s: f64,
    pub tally: Tally,
}

/// Most warm-up passes before the loop gives up waiting for a
/// zero-allocation profile and times anyway.
const MAX_WARMUPS: usize = 8;

/// Whether `c` is, bit for bit, the product the oracle digested.
pub fn matches_oracle(c: &Csr<f64>, oracle: u64) -> bool {
    digest(c) == oracle
}

/// Computes every product once with `engines[i]`, checking each product
/// against its oracle digest after the clock stops.  Returns the pass's
/// wall time and whether every multiply allocated nothing.
fn pass(products: &[Product], engines: &[SpGemm], tally: &mut Tally) -> (Duration, bool) {
    let mut elapsed = Duration::ZERO;
    let mut allocation_free = true;
    for (p, engine) in products.iter().zip(engines) {
        let t = Instant::now();
        let (c, profile) = engine.multiply_with_profile::<PlusTimes<f64>>(&p.a, &p.b);
        elapsed += t.elapsed();
        allocation_free &= profile.stats.bytes_allocated == 0;
        tally.record(matches_oracle(&c, p.oracle));
    }
    (elapsed, allocation_free)
}

/// One in-process store: parse the protocol line, build the CSR matrix and
/// insert it into (then drop it from) a catalog — what `pb-serve` does for
/// a `store` minus the socket.  The digest check runs off the clock.
pub fn store_once(catalog: &mut Catalog, line: &str, expected: u64, tally: &mut Tally) -> f64 {
    let t = Instant::now();
    let built = match pb_serve::parse_request(line) {
        Ok(Request::Store {
            rows,
            cols,
            entries,
            ..
        }) => Coo::from_entries(rows, cols, entries)
            .map(|c| c.to_csr())
            .ok(),
        _ => None,
    };
    let mut elapsed = t.elapsed();
    let Some(m) = built else {
        tally.record(false);
        return elapsed.as_secs_f64() * 1e3;
    };
    let ok = digest(&m) == expected;
    let t = Instant::now();
    let stored = catalog.store("s", m).is_ok() && catalog.evict("s");
    elapsed += t.elapsed();
    tally.record(ok && stored);
    elapsed.as_secs_f64() * 1e3
}

/// The timed engine loop, driven in slices: warm passes through persistent
/// workspaces and cold passes through fresh engines.  After each pass,
/// `store` (if any) is exercised until store time reaches 5% of the pass
/// time.
pub struct EngineLoop<'a> {
    products: &'a [Product],
    store: Option<&'a StoreCase>,
    warm: Vec<SpGemm>,
    catalog: Catalog,
    next_store: usize,
    start: Instant,
    out: KernelRun,
}

impl<'a> EngineLoop<'a> {
    /// Builds the warm engines and warms them up: passes are discarded
    /// until the workspaces stop allocating, and the first
    /// allocation-free pass is the first warm sample.
    pub fn new(products: &'a [Product], store: Option<&'a StoreCase>) -> EngineLoop<'a> {
        let mut lp = EngineLoop {
            products,
            store,
            warm: products
                .iter()
                .map(|_| SpGemm::pb().workspace(Arc::new(Workspace::new())))
                .collect(),
            catalog: Catalog::new(1 << 30, Algorithm::Pb),
            next_store: 0,
            start: Instant::now(),
            out: KernelRun::default(),
        };
        loop {
            let (t, allocation_free) = lp.pass(true);
            if allocation_free || lp.out.warmups >= MAX_WARMUPS {
                lp.out.warm_ms.push(t.as_secs_f64() * 1e3);
                return lp;
            }
            lp.out.warmups += 1;
        }
    }

    /// One pass over every product, warm or cold, then its stores.
    fn pass(&mut self, warm: bool) -> (Duration, bool) {
        let cold: Vec<SpGemm>;
        let engines = if warm {
            &self.warm
        } else {
            cold = self.products.iter().map(|_| SpGemm::pb()).collect();
            &cold
        };
        let (t, allocation_free) = pass(self.products, engines, &mut self.out.tally);
        self.out.multiplies += self.products.len() as u64;
        self.stores(t);
        (t, allocation_free)
    }

    fn stores(&mut self, pass_time: Duration) {
        let Some(case) = self.store else { return };
        let mut spent = 0.0;
        for _ in 0..50 {
            let i = self.next_store % case.lines.len();
            self.next_store += 1;
            let ms = store_once(
                &mut self.catalog,
                &case.lines[i],
                case.digests[i],
                &mut self.out.tally,
            );
            self.out.store_ms.push(ms);
            spent += ms;
            if spent >= 0.05 * pass_time.as_secs_f64() * 1e3 {
                break;
            }
        }
    }

    /// Warm passes: at least one, then until `deadline`.
    pub fn warm_until(&mut self, deadline: Instant) {
        assert!(!self.warm.is_empty(), "warm passes after release_warm");
        loop {
            let (t, _) = self.pass(true);
            self.out.warm_ms.push(t.as_secs_f64() * 1e3);
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Cold passes: at least one, then until `deadline`.
    pub fn cold_until(&mut self, deadline: Instant) {
        loop {
            let (t, _) = self.pass(false);
            self.out.cold_ms.push(t.as_secs_f64() * 1e3);
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Drops the warm workspaces, so cold passes never run while they hold
    /// their buffers.
    pub fn release_warm(&mut self) {
        self.warm.clear();
    }

    /// The samples; `wall_s` spans from [`EngineLoop::new`] to now.
    pub fn finish(mut self) -> KernelRun {
        self.out.wall_s = self.start.elapsed().as_secs_f64();
        self.out
    }
}

/// Runs the timed loop for `seconds`: the first half warm, the second half
/// cold, with the warm workspaces released in between.  At least one warm
/// and one cold pass always run.
pub fn run(products: &[Product], store: Option<&StoreCase>, seconds: f64) -> KernelRun {
    let start = Instant::now();
    let mut lp = EngineLoop::new(products, store);
    let warm_until = start + Duration::from_secs_f64(seconds / 2.0);
    if Instant::now() < warm_until {
        lp.warm_until(warm_until);
    }
    lp.release_warm();
    lp.cold_until(start + Duration::from_secs_f64(seconds));
    lp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{store_body, store_line, store_spec, Size};

    fn tiny_product() -> Product {
        let m = pb_gen::rmat_square(7, 4, 9);
        let oracle = digest(&pb_sparse::reference::multiply_csr(&m, &m));
        let flop = pb_sparse::stats::flop_csr(&m, &m);
        let m = Arc::new(m);
        Product {
            a: Arc::clone(&m),
            b: m,
            flop,
            oracle,
        }
    }

    fn tiny_store() -> StoreCase {
        let m = store_spec(Size::Tiny, 1, 0).generate();
        StoreCase {
            lines: vec![store_line("s", &store_body(&m))],
            digests: vec![digest(&m)],
        }
    }

    #[test]
    fn loop_checks_every_product_and_store() {
        crate::one_thread();
        let run = run(&[tiny_product()], Some(&tiny_store()), 0.05);
        assert!(!run.warm_ms.is_empty() && !run.cold_ms.is_empty());
        assert!(!run.store_ms.is_empty());
        assert_eq!(run.tally.failed, 0);
        let multiplies = run.warmups + run.warm_ms.len() + run.cold_ms.len();
        assert_eq!(
            run.tally.attempted,
            multiplies as u64 + run.store_ms.len() as u64
        );
    }

    #[test]
    fn a_corrupted_product_counts_as_failed() {
        crate::one_thread();
        let pr = tiny_product();
        let mut c = SpGemm::pb().multiply(&pr.a, &pr.b);
        assert!(matches_oracle(&c, pr.oracle));
        let last = c.nnz() - 1;
        c.values_mut()[last] = f64::from_bits(c.values()[last].to_bits() ^ 1);
        assert!(!matches_oracle(&c, pr.oracle), "one flipped bit");

        // A wrong oracle makes every timed multiply a failure.
        let mut pr = tiny_product();
        pr.oracle ^= 1;
        let run = run(&[pr], None, 0.02);
        assert!(run.tally.attempted > 0);
        assert_eq!(run.tally.failed, run.tally.attempted);
    }

    #[test]
    fn a_corrupted_store_counts_as_failed() {
        crate::one_thread();
        let mut case = tiny_store();
        case.digests[0] ^= 1;
        let mut catalog = Catalog::new(1 << 20, Algorithm::Pb);
        let mut tally = Tally::default();
        store_once(&mut catalog, &case.lines[0], case.digests[0], &mut tally);
        store_once(&mut catalog, "{\"op\":\"store\"}", 0, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 2));
    }
}
