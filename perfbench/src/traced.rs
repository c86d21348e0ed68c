//! The traced run: times each layer from outside by wrapping the
//! benchmark's own spans around calls into the layer's public functions,
//! and recomposes the PB pipeline from its phase functions.  Spans are
//! kept in memory and written out as Chrome trace-event JSON at the end.

use std::sync::Arc;
use std::time::Instant;

use pb_baseline::Baseline;
use pb_model::RooflineModel;
use pb_serve::{Catalog, Request};
use pb_sparse::reference::multiply_csr;
use pb_sparse::semiring::PlusTimes;
use pb_sparse::{Coo, Csr};
use pb_spgemm::workspace::{scratch_target_len, WorkspaceLease};
use pb_spgemm::{
    assemble, compress, expand, sort, symbolic, Algorithm, BinnedTuples, Entry, PbConfig, Phase,
    Planner, Signals, SortAlgorithm, SpGemm, SpGemmProfile, StatsCollector, Workspace,
};

use crate::inputs;
use crate::kernel::Tally;
use crate::oracle::digest;
use crate::report::{Report, PER_LAYER};
use crate::{serve, sys, Args};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Microseconds since the tracer's origin.
    start: f64,
    end: f64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder.  Spans nest: [`Tracer::begin`] opens a child of
/// the innermost open span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e3
    }

    /// Opens span `name` for operation `op`.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now_us(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.now_us();
    }

    /// Runs `f` inside span `name`.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    fn duration_ms(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start) / 1e3
    }

    /// Span `id`'s duration minus the part its child spans cover.
    fn self_ms(&self, id: usize) -> f64 {
        // Children open after their parent, so only later spans qualify.
        let children: f64 = (id + 1..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration_ms(c))
            .sum();
        self.duration_ms(id) - children
    }

    /// Per operation in `ops`, the summed self time of spans `name`, ms.
    fn per_op_self_ms(&self, name: &str, ops: &[u64]) -> Vec<f64> {
        ops.iter()
            .map(|&op| {
                (0..self.spans.len())
                    .filter(|&i| self.spans[i].name == name && self.spans[i].op == op)
                    .map(|i| self.self_ms(i))
                    .sum()
            })
            .collect()
    }

    /// Median over `ops` of [`Tracer::per_op_self_ms`].
    fn median_self_ms(&self, name: &str, ops: &[u64]) -> f64 {
        sys::median(&self.per_op_self_ms(name, ops))
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, ordered
    /// by end time as the format's validators require).
    pub fn chrome_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&self.spans[a], &self.spans[b]);
            sa.end
                .total_cmp(&sb.end)
                .then(sb.start.total_cmp(&sa.start))
        });
        let events: Vec<String> = order
            .into_iter()
            .map(|i| {
                let s = &self.spans[i];
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
                    s.name,
                    s.start,
                    s.end - s.start,
                    s.op
                )
            })
            .collect();
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }
}

/// `a·b` through the public phase functions, one span per phase, with the
/// benchmark's own [`StatsCollector`] and [`WorkspaceLease`] — the same
/// calls, in the same order, as the engine's PB arm.
pub fn compose(
    tr: &mut Tracer,
    op: u64,
    a: &Csr<f64>,
    b: &Csr<f64>,
    config: &PbConfig,
    workspace: Option<Arc<Workspace>>,
) -> Csr<f64> {
    type S = PlusTimes<f64>;
    let csc = tr.scope("sparse.to_csc", op, || a.to_csc());
    let stats = StatsCollector::new();
    let isa = config.resolve_simd();
    stats.record_isa(isa);
    let mut lease = WorkspaceLease::<f64>::acquire(workspace);
    let tuple_bytes = BinnedTuples::<f64>::tuple_bytes();
    let sym = tr.scope("core.symbolic", op, || {
        symbolic::symbolic(&csc, b, config, tuple_bytes)
    });
    let mut tuples = tr.scope("core.expand", op, || {
        expand::expand::<S>(&csc, b, &sym, config, &stats, &mut lease)
    });
    tr.scope("core.sort", op, || {
        // A pooled lease sorts through the workspace's scratch slabs, as
        // the engine does; a fresh one sorts with per-bin scratch.
        if lease.is_pooled() && config.sort == SortAlgorithm::LsdRadix {
            let max_bin = sym.bin_flop.iter().copied().max().unwrap_or(0) as usize;
            let target = scratch_target_len(sym.flop as usize, sym.domains, max_bin);
            let zero = Entry { key: 0, val: 0.0 };
            lease.prepare_scratch(target, sym.domains, zero, &stats);
            let slabs = lease.scratch_slabs(sym.domains);
            sort::sort_bins_slabbed_with(&mut tuples, config.sort, isa, &stats, &slabs);
        } else {
            sort::sort_bins_with(&mut tuples, config.sort, isa, &stats);
        }
    });
    tr.scope("core.compress", op, || {
        compress::compress_bins::<S>(&mut tuples, config.compress_split, &stats)
    });
    let c = tr.scope("core.assemble", op, || {
        assemble::assemble_reusing(&tuples, &stats, &mut lease)
    });
    lease.release(tuples);
    c
}

/// A product under test: residents `r{i}·r{j}` and their oracle.
struct Traced {
    i: usize,
    j: usize,
    a: Arc<Csr<f64>>,
    b: Arc<Csr<f64>>,
    flop: u64,
    oracle: u64,
    fingerprint: u64,
}

/// Computes every product with `engine` under span `name`; returns their
/// digests and profiles.
fn engine_pass(
    tr: &mut Tracer,
    name: &'static str,
    op: u64,
    engine: &SpGemm,
    products: &[Traced],
) -> Vec<(u64, SpGemmProfile)> {
    products
        .iter()
        .map(|pr| {
            let (c, profile) = tr.scope(name, op, || {
                engine.multiply_with_profile::<PlusTimes<f64>>(&pr.a, &pr.b)
            });
            (digest(&c), profile)
        })
        .collect()
}

/// [`engine_pass`] once per op in `ops`, counting every product against
/// its oracle.
fn checked_passes(
    tr: &mut Tracer,
    name: &'static str,
    ops: &[u64],
    engine: &SpGemm,
    products: &[Traced],
    tally: &mut Tally,
) {
    for &op in ops {
        for (pr, (d, _)) in products
            .iter()
            .zip(engine_pass(tr, name, op, engine, products))
        {
            tally.record(d == pr.oracle);
        }
    }
}

fn pct_beta(bytes: u64, ms: f64, beta: f64) -> f64 {
    100.0 * bytes as f64 / (ms / 1e3) / 1e9 / beta
}

/// Most measured operations of the phase loop: enough for stable medians,
/// few enough that the span bookkeeping stays small on fast workloads.
const MAX_MEASURED_OPS: usize = 30;

/// Runs the traced measurement of `args.workload` and returns the
/// per-layer report.  `args.seconds` bounds the repeated-multiply loop.
pub fn run(args: &Args) -> Result<Report, String> {
    let ticks = sys::CpuTicks::now();
    let mut tr = Tracer::new();
    let mut report = Report::new(PER_LAYER);
    let mut tally = Tally::default();
    let config = PbConfig::default();

    // --- pb-gen and the single-thread reference (pb-sparse). -------------
    let specs = inputs::operands(args.workload, args.size, args.seed);
    let mats: Vec<Arc<Csr<f64>>> = specs
        .iter()
        .map(|spec| Arc::new(tr.scope("gen.generate", 0, || spec.generate())))
        .collect();
    let mut products = Vec::new();
    for (i, j) in inputs::products(args.workload) {
        let (a, b) = (Arc::clone(&mats[i]), Arc::clone(&mats[j]));
        let c = tr.scope("sparse.reference", 0, || multiply_csr(&a, &b));
        let (oracle, fingerprint) = (digest(&c), pb_serve::fingerprint(&c));
        products.push(Traced {
            i,
            j,
            flop: pb_sparse::stats::flop_csr(&a, &b),
            a,
            b,
            oracle,
            fingerprint,
        });
    }
    let flop: u64 = products.iter().map(|s| s.flop).sum();
    let setup_op = [0u64];
    report.set(
        "gen.generate_s",
        tr.median_self_ms("gen.generate", &setup_op) / 1e3,
    );
    report.set(
        "sparse.reference_mflops",
        flop as f64 / tr.median_self_ms("sparse.reference", &setup_op) / 1e3,
    );

    // --- core phases: the engine call, then the recomposed pipeline. -----
    // Op 1 warms the workspace and is not measured.
    let workspace = Arc::new(Workspace::new());
    let warm = SpGemm::pb().workspace(Arc::clone(&workspace));
    let loop_start = Instant::now();
    let mut measured = Vec::new();
    let mut profiles = Vec::new();
    let mut warm_bytes = 0u64;
    for op in 1u64.. {
        let id = tr.begin("op", op);
        let passes = engine_pass(&mut tr, "engine.multiply", op, &warm, &products);
        for (pr, (d, profile)) in products.iter().zip(&passes) {
            tally.record(*d == pr.oracle);
            let compose_id = tr.begin("compose", op);
            let ws = Some(Arc::clone(&workspace));
            let composed = compose(&mut tr, op, &pr.a, &pr.b, &config, ws);
            tr.end(compose_id);
            // The recomposed pipeline must reproduce the engine bit for bit.
            tally.record(digest(&composed) == *d);
            if op > 1 {
                warm_bytes = warm_bytes.max(profile.stats.bytes_allocated);
            }
        }
        tr.end(id);
        if op > 1 {
            measured.push(op);
            profiles = passes.into_iter().map(|(_, p)| p).collect();
        }
        let spent = loop_start.elapsed().as_secs_f64();
        if measured.len() >= MAX_MEASURED_OPS
            || (measured.len() >= 2 && spent >= 0.3 * args.seconds)
        {
            break;
        }
    }
    let engine_ms = tr.median_self_ms("engine.multiply", &measured);
    let phases = [
        ("sparse.to_csc", "sparse.to_csc_ms"),
        ("core.symbolic", "core.symbolic_ms"),
        ("core.expand", "core.expand_ms"),
        ("core.sort", "core.sort_ms"),
        ("core.compress", "core.compress_ms"),
        ("core.assemble", "core.assemble_ms"),
    ];
    let mut attributed = 0.0;
    for (span, metric) in phases {
        let ms = tr.median_self_ms(span, &measured);
        attributed += ms;
        report.set(metric, ms);
    }
    report.set("core.engine_ms", engine_ms);
    report.set("core.unattributed_ms", engine_ms - attributed);
    // Tracing overhead: the same warm multiply with the program's own span
    // tracer switched on, minus the untraced one.
    let traced_ops = [500u64, 501];
    pb_spgemm::trace::set_enabled(true);
    checked_passes(
        &mut tr,
        "engine.traced",
        &traced_ops,
        &warm,
        &products,
        &mut tally,
    );
    pb_spgemm::trace::set_enabled(false);
    report.set(
        "trace.overhead_ms",
        tr.median_self_ms("engine.traced", &traced_ops) - engine_ms,
    );
    report.set("workspace.warm_bytes_allocated", warm_bytes as f64);
    let warm_mflops = flop as f64 / engine_ms / 1e3;
    let bin_skew = profiles
        .iter()
        .map(|p| p.stats.max_bin_flop as f64 / p.stats.mean_bin_flop.max(1.0))
        .fold(0.0, f64::max);
    report.set("core.bin_skew", bin_skew);

    // --- parallel: the same warm engine on a pool of every core. ---------
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build()
        .map_err(|e| format!("cannot build a {nproc}-thread pool: {e:?}"))?;
    let mut exact = Vec::new();
    let mut nproc_ops = Vec::new();
    for op in 1000u64..1003 {
        let passes = pool.install(|| engine_pass(&mut tr, "engine.nproc", op, &warm, &products));
        for (pr, (d, _)) in products.iter().zip(&passes) {
            exact.push(f64::from(u8::from(*d == pr.oracle)));
        }
        if op > 1000 {
            nproc_ops.push(op);
        }
    }
    drop(warm);
    drop(workspace);
    let nproc_mflops = flop as f64 / tr.median_self_ms("engine.nproc", &nproc_ops) / 1e3;
    report.set("core.warm_mflops_nproc", nproc_mflops);
    report.set("core.speedup_nproc", nproc_mflops / warm_mflops);
    report.set(
        "core.bit_exact_share_nproc",
        exact.iter().sum::<f64>() / exact.len() as f64,
    );

    // --- workspace: cold engines allocate and first-touch every buffer. --
    let cold_ops = [2000u64, 2001];
    let cold = SpGemm::pb();
    checked_passes(
        &mut tr,
        "engine.cold",
        &cold_ops,
        &cold,
        &products,
        &mut tally,
    );
    report.set(
        "workspace.first_touch_ms",
        tr.median_self_ms("engine.cold", &cold_ops) - engine_ms,
    );

    // --- pb-baseline: the hash SpGEMM the paper compares against. --------
    let hash_ops = [3000u64, 3001];
    let hash = SpGemm::baseline(Baseline::Hash);
    checked_passes(
        &mut tr,
        "baseline.hash",
        &hash_ops,
        &hash,
        &products,
        &mut tally,
    );
    let hash_mflops = flop as f64 / tr.median_self_ms("baseline.hash", &hash_ops) / 1e3;
    report.set("baseline.hash_mflops", hash_mflops);
    report.set("core.pb_over_hash", warm_mflops / hash_mflops);

    // --- pb-model: β, per-phase share of it, and the Eq. 4 bound. --------
    let beta = tr.scope("model.stream", 0, || crate::stream_beta_gbps(args.size));
    report.set("model.stream_beta_gbps", beta);
    for (phase, span, metric) in [
        (Phase::Expand, "core.expand", "core.expand_pct_beta"),
        (Phase::Sort, "core.sort", "core.sort_pct_beta"),
        (Phase::Compress, "core.compress", "core.compress_pct_beta"),
    ] {
        let bytes: u64 = profiles.iter().map(|p| p.phase_bytes(phase)).sum();
        report.set(
            metric,
            pct_beta(bytes, tr.median_self_ms(span, &measured), beta),
        );
    }
    let nnz_c: usize = profiles.iter().map(|p| p.nnz_c).sum();
    let cf = flop as f64 / nnz_c.max(1) as f64;
    let eq4_mflops = RooflineModel::new(beta).outer_predicted_gflops(cf) * 1e3;
    report.set("core.pct_eq4", 100.0 * warm_mflops / eq4_mflops);
    println!(
        "roofline: beta {beta:.2} GB/s, cf {cf:.3}, Eq. 4 bound {eq4_mflops:.1} Mflop/s, PB {warm_mflops:.1} Mflop/s (computed bytes)"
    );

    // --- planner: one decision per product. ------------------------------
    let planner = Planner::new();
    let decide_ops: Vec<u64> = (4000..4020).collect();
    for &op in &decide_ops {
        for pr in &products {
            tr.scope("planner.decide", op, || {
                planner.decide(&Signals::measure(&pr.a, &pr.b, &config))
            });
        }
    }
    report.set(
        "planner.decide_us",
        1e3 * tr.median_self_ms("planner.decide", &decide_ops) / products.len() as f64,
    );

    // --- pb-serve: the store path's parts, then a short closed loop. -----
    let store_m = inputs::store_spec(args.size, args.seed, 0).generate();
    let line = inputs::store_line("s", &inputs::store_body(&store_m));
    let mut catalog = Catalog::new(1 << 30, Algorithm::Auto);
    let store_ops: Vec<u64> = (5000..5010).collect();
    for &op in &store_ops {
        let parsed = tr.scope("serve.parse", op, || pb_serve::parse_request(&line));
        let Ok(Request::Store {
            rows,
            cols,
            entries,
            ..
        }) = parsed
        else {
            return Err("the store line did not parse".into());
        };
        let m = Coo::from_entries(rows, cols, entries)
            .map_err(|e| format!("store entries: {e}"))?
            .to_csr();
        tally.record(digest(&m) == digest(&store_m));
        let stored = tr.scope("serve.catalog_store", op, || catalog.store("s", m));
        tally.record(stored.is_ok() && catalog.evict("s"));
    }
    report.set(
        "serve.parse_ms",
        tr.median_self_ms("serve.parse", &store_ops),
    );
    report.set(
        "serve.catalog_store_ms",
        tr.median_self_ms("serve.catalog_store", &store_ops),
    );

    let server = tr.scope("serve.start", 0, || crate::seeded_server(&specs))?;
    let reads: Vec<serve::Read> = products
        .iter()
        .map(|pr| serve::read(pr.i, pr.j, pr.fingerprint))
        .collect();
    let writer = (args.workload == inputs::Workload::ServeMixed).then(|| {
        let w = inputs::store_spec(args.size, args.seed, 0).generate();
        serve::Writer {
            resident: "r0".into(),
            pool: vec![serve::WriteJob::new(
                &inputs::store_body(&w),
                pb_serve::fingerprint(&multiply_csr(&w, &mats[0])),
            )],
        }
    });
    let served = tr.scope("serve.closed_loop", 0, || {
        let mut client = serve::Client::connect(server.addr())?;
        serve::closed_loop(&mut client, &reads, writer.as_ref(), 0.1 * args.seconds)
    })?;
    server.join();
    tally.merge(served.tally);
    report.set("planner.pb_share", served.pb_share());
    report.set(
        "serve.batched_share",
        served.batched as f64 / served.multiplies as f64,
    );
    // The same read multiplies outside the server, on an engine built the
    // way the catalog builds its entries (auto planner, own workspace).
    let auto = SpGemm::auto().workspace(Arc::new(Workspace::new()));
    let auto_ops = [6000u64, 6001, 6002];
    checked_passes(
        &mut tr,
        "serve.engine",
        &auto_ops,
        &auto,
        &products,
        &mut tally,
    );
    // Op 6000 warms the workspace.  Per read request, not per pass over every square.
    let engine_per_read = tr.median_self_ms("serve.engine", &auto_ops[1..]) / products.len() as f64;
    report.set("serve.engine_ms", engine_per_read);
    report.set(
        "serve.overhead_ms",
        sys::median(&served.multiply_ms) - engine_per_read,
    );
    report.set("serve.multiply_ms_p90", sys::tail(&served.multiply_ms).1);
    report.set("env.steal_pct", ticks.steal_pct_since());

    // --- write the spans out and check them. -----------------------------
    let trace = tr.chrome_json();
    pb_spgemm::trace::validate_chrome_trace(&trace)
        .map_err(|e| format!("the span trace is not valid Chrome JSON: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, trace).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "traced: {} measured ops, {} spans written to {}",
        measured.len(),
        tr.spans.len(),
        path.display()
    );
    report.tally = tally;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recomposed pipeline reproduces the engine bit for bit, through a
    /// persistent workspace and through fresh buffers alike.
    #[test]
    fn composed_pipeline_equals_the_engine() {
        crate::one_thread();
        let config = PbConfig::default();
        for m in [
            pb_gen::rmat_square(8, 6, 3),
            pb_gen::erdos_renyi_square(8, 5, 4),
        ] {
            let expected = digest(&SpGemm::pb().multiply(&m, &m));
            let workspace = Arc::new(Workspace::new());
            let mut tr = Tracer::new();
            for op in 0..3 {
                let ws = Some(Arc::clone(&workspace));
                let pooled = compose(&mut tr, op, &m, &m, &config, ws);
                assert_eq!(digest(&pooled), expected);
                let fresh = compose(&mut tr, op, &m, &m, &config, None);
                assert_eq!(digest(&fresh), expected);
            }
        }
    }

    #[test]
    fn self_time_excludes_children_and_trace_validates() {
        crate::one_thread();
        let mut tr = Tracer::new();
        let outer = tr.begin("outer", 1);
        tr.scope("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.end(outer);
        let inner_ms = tr.median_self_ms("inner", &[1]);
        assert!(inner_ms >= 5.0);
        let outer_self = tr.median_self_ms("outer", &[1]);
        assert!(outer_self >= 0.0 && outer_self < tr.duration_ms(outer));
        let summary = pb_spgemm::trace::validate_chrome_trace(&tr.chrome_json()).expect("valid");
        assert_eq!(summary.spans, 2);
    }
}
