//! `pb-perfbench` — the PB-SpGEMM suite's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! pb-perfbench --workload <er-dram|rmat-skew|serve-mixed> --seed N
//!              --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload with tracing off and prints the
//! end-to-end metrics; `--trace 1` is a separate run that times each layer
//! from outside through its public functions and prints the per-layer
//! metrics.  The last stdout line is the JSON result.  The engine runs on
//! whatever rayon pool the process has; `perfbench/run.py` sizes it to one
//! thread.  See `README.md` for every metric's definition.

mod inputs;
mod kernel;
mod oracle;
mod report;
mod serve;
mod sys;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pb_sparse::reference::multiply_csr;
use pb_sparse::Csr;

use inputs::{MatSpec, Size, Workload};
use kernel::{Product, StoreCase};
use report::Report;

/// Sizes the process's rayon pool to one thread, as `run.py` does for the
/// benchmark: at two or more threads the PB engine's products are not yet
/// bit-identical to the oracle.  Every test that reaches rayon calls this
/// first, before the pool exists.
#[cfg(test)]
fn one_thread() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("PB_RAYON_THREADS", "1"));
    assert_eq!(
        rayon::current_num_threads(),
        1,
        "the rayon pool was sized before one_thread()"
    );
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub size: Size,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        // Relative to the checkout root, where `run.py` runs the binary.
        out_dir: PathBuf::from("perfbench/out"),
        size: Size::Full,
    })
}

/// Set-up repeats at least `SETUP_MIN_REPS` times and until it has taken
/// `SETUP_MIN_S` in all (at most `SETUP_MAX_REPS` times); `setup_s` is the
/// median repetition.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_S: f64 = 2.0;

/// Runs `f` as the set-up rule above says; returns its last result and the
/// median time of one run.
fn repeat_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = f()?;
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_MIN_REPS && times.iter().sum::<f64>() >= SETUP_MIN_S;
        if enough || times.len() >= SETUP_MAX_REPS {
            return Ok((out, sys::median(&times)));
        }
        // The previous result is dropped here, outside the timed window.
        drop(out);
    }
}

/// Threads the set-up's oracle may use (it is off the clock).
fn oracle_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workload's products with their flop and oracle digest.
fn oracle_products(workload: Workload, mats: Vec<Csr<f64>>) -> Vec<Product> {
    let mats: Vec<Arc<Csr<f64>>> = mats.into_iter().map(Arc::new).collect();
    inputs::products(workload)
        .into_iter()
        .map(|(i, j)| {
            let (a, b) = (Arc::clone(&mats[i]), Arc::clone(&mats[j]));
            Product {
                flop: pb_sparse::stats::flop_csr(&a, &b),
                oracle: oracle::reference_digest(&a, &b, oracle_threads()),
                a,
                b,
            }
        })
        .collect()
}

/// The in-process store lines shared by every workload.
fn store_case(size: Size, seed: u64) -> StoreCase {
    let mut case = StoreCase::default();
    for i in 0..inputs::STORE_POOL {
        let m = inputs::store_spec(size, seed, i).generate();
        case.lines
            .push(inputs::store_line("s", &inputs::store_body(&m)));
        case.digests.push(oracle::digest(&m));
    }
    case
}

/// STREAM triad bandwidth at the process pool's thread count, over three
/// arrays that together span at least four times the last-level cache.
pub fn stream_beta_gbps(size: Size) -> f64 {
    let elements = match size {
        Size::Full => (4 * sys::llc_bytes() / 3 / 8).max(1 << 21),
        Size::Tiny => 1 << 12,
    };
    pb_model::stream::run(&pb_model::stream::StreamConfig {
        elements,
        ntimes: 3,
        threads: None,
    })
    .beta_gbps()
}

/// Prints the host diagnostics that explain a drifting set: the steal
/// share over the run and an in-process STREAM β.
fn print_diagnostics(ticks: sys::CpuTicks, size: Size) {
    let steal = ticks.steal_pct_since();
    let beta = stream_beta_gbps(size);
    println!(
        "diagnostics: env.steal_pct={steal:.3} model.stream_beta_gbps={beta:.3} threads={} nproc={}",
        rayon::current_num_threads(),
        oracle_threads()
    );
}

fn mflops(flop: u64, ms: f64) -> f64 {
    flop as f64 / ms / 1e3
}

/// Fills the engine-loop metrics shared by every workload.  A rate is
/// flop over the mean pass time, not the median: the host's speed flips
/// between modes that last seconds, and the median of millisecond passes
/// jumps from one mode to the other as their shares cross one half.
fn engine_metrics(report: &mut Report, products: &[Product], run: &kernel::KernelRun) {
    let flop: u64 = products.iter().map(|p| p.flop).sum();
    report.set("warm_mflops", mflops(flop, sys::mean(&run.warm_ms)));
    report.set("cold_mflops", mflops(flop, sys::mean(&run.cold_ms)));
    report.tally.merge(run.tally);
    let ms = |v: &[f64]| {
        format!(
            "{} passes, mean {:.2}, p10 {:.2}, p50 {:.2}, p90 {:.2}",
            v.len(),
            sys::mean(v),
            sys::quantile(v, 0.1),
            sys::median(v),
            sys::quantile(v, 0.9)
        )
    };
    println!(
        "engine loop: {} Mflop per pass, {} warm-up; warm ms: {}; cold ms: {}; {} stores",
        flop as f64 / 1e6,
        run.warmups,
        ms(&run.warm_ms),
        ms(&run.cold_ms),
        run.store_ms.len()
    );
}

/// Reports the median latency, and prints its spread and tail.  The tail
/// is a per-layer metric (`serve.multiply_ms_p90`): on a shared two-core
/// host it followed how long the host ran slow, not the program.
fn latency_metrics(report: &mut Report, samples: &[f64]) {
    let (q, tail) = sys::tail(samples);
    println!(
        "multiply latency: {} samples; ms p25 {:.2}, p50 {:.2}, p75 {:.2}, p{:.0} {tail:.2}",
        samples.len(),
        sys::quantile(samples, 0.25),
        sys::median(samples),
        sys::quantile(samples, 0.75),
        100.0 * q,
    );
    report.set("multiply_ms_p50", sys::median(samples));
}

/// `er-dram` and `rmat-skew`: the caller is the client.  Its requests are
/// multiplies (warm, then cold); in-process stores ride along.
fn kernel_workload(args: &Args) -> Result<Report, String> {
    let specs = inputs::operands(args.workload, args.size, args.seed);
    let (mats, setup_s) = repeat_setup(|| Ok(specs.iter().map(MatSpec::generate).collect()))?;
    let products = oracle_products(args.workload, mats);
    let store = store_case(args.size, args.seed);

    sys::reset_peak_rss()?;
    let ticks = sys::CpuTicks::now();
    let run = kernel::run(&products, Some(&store), args.seconds);
    let peak = sys::peak_rss_mb()?;

    let mut report = Report::new(report::END_TO_END);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak);
    engine_metrics(&mut report, &products, &run);
    latency_metrics(&mut report, &run.warm_ms);
    report.set("rps", run.multiplies as f64 / run.wall_s);
    report.set("store_ms_p50", sys::median(&run.store_ms));
    print_diagnostics(ticks, args.size);
    Ok(report)
}

/// The oracle of `serve-mixed`: the reader's requests and the writer's
/// store pool, each with its product's fingerprint.
fn serve_oracle(mats: &[Csr<f64>], size: Size, seed: u64) -> (Vec<serve::Read>, serve::Writer) {
    let reads = inputs::products(Workload::ServeMixed)
        .into_iter()
        .map(|(i, j)| {
            serve::read(
                i,
                j,
                pb_serve::fingerprint(&multiply_csr(&mats[i], &mats[j])),
            )
        })
        .collect();
    let pool = (0..inputs::STORE_POOL)
        .map(|i| {
            let w = inputs::store_spec(size, seed, i).generate();
            serve::WriteJob::new(
                &inputs::store_body(&w),
                pb_serve::fingerprint(&multiply_csr(&w, &mats[0])),
            )
        })
        .collect();
    let writer = serve::Writer {
        resident: "r0".into(),
        pool,
    };
    (reads, writer)
}

/// A server that is stopped, and its threads joined, when dropped.
struct StoppedOnDrop(Option<pb_serve::Server>);

impl StoppedOnDrop {
    fn addr(&self) -> std::net::SocketAddr {
        self.0.as_ref().expect("server runs until dropped").addr()
    }
}

impl Drop for StoppedOnDrop {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.join();
        }
    }
}

/// Starts a server and seeds its catalog with `specs` as `r0, r1, …`.
pub fn seeded_server(specs: &[MatSpec]) -> Result<pb_serve::Server, String> {
    let server = serve::start()?;
    let mut client = serve::Client::connect(server.addr())?;
    for (i, spec) in specs.iter().enumerate() {
        client.call_ok(&spec.gen_request(&format!("r{i}")))?;
    }
    Ok(server)
}

/// `serve-mixed` splits its timed section into periods of
/// `SLICE_PERIOD_S`: `SERVE_SHARE` of each is closed loop, the rest
/// in-process engine passes, half warm and half cold.  So both sample the
/// whole section: the host's speed drifts over seconds.
const SLICE_PERIOD_S: f64 = 1.0;
const SERVE_SHARE: f64 = 0.75;

/// `serve-mixed`: one closed-loop connection against one worker,
/// interleaved with the same read multiplies on in-process engines.
fn serve_workload(args: &Args) -> Result<Report, String> {
    let specs = inputs::operands(args.workload, args.size, args.seed);
    let (server, setup_s) = repeat_setup(|| seeded_server(&specs).map(|s| StoppedOnDrop(Some(s))))?;
    let mats: Vec<Csr<f64>> = specs.iter().map(MatSpec::generate).collect();
    let (reads, writer) = serve_oracle(&mats, args.size, args.seed);
    let products = oracle_products(args.workload, mats);

    sys::reset_peak_rss()?;
    let ticks = sys::CpuTicks::now();
    let mut engine = kernel::EngineLoop::new(&products, None);
    let period = Duration::from_secs_f64(SLICE_PERIOD_S.min(args.seconds));
    let mut slice_start = Instant::now();
    let end = slice_start + Duration::from_secs_f64(args.seconds);
    let mut client = serve::Client::connect(server.addr())?;
    let mut served = serve::ServeRun::default();
    let mut warm_first = true;
    loop {
        let serve_end = slice_start + period.mul_f64(SERVE_SHARE);
        let engine_mid = serve_end + period.mul_f64((1.0 - SERVE_SHARE) / 2.0);
        let slice_end = slice_start + period;
        let serve_s = serve_end.saturating_duration_since(Instant::now());
        served.absorb(serve::closed_loop(
            &mut client,
            &reads,
            Some(&writer),
            serve_s.as_secs_f64(),
        )?);
        // The first passes after the closed loop start with the server's
        // data in the caches, so warm and cold take turns going first.
        if warm_first {
            engine.warm_until(engine_mid);
            engine.cold_until(slice_end);
        } else {
            engine.cold_until(engine_mid);
            engine.warm_until(slice_end);
        }
        warm_first = !warm_first;
        slice_start = slice_end.max(Instant::now());
        if slice_start >= end {
            break;
        }
    }
    drop(client);
    drop(server);
    let run = engine.finish();
    let peak = sys::peak_rss_mb()?;

    let mut report = Report::new(report::END_TO_END);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak);
    engine_metrics(&mut report, &products, &run);
    report.tally.merge(served.tally);
    latency_metrics(&mut report, &served.multiply_ms);
    report.set("rps", served.requests as f64 / served.wall_s);
    report.set("store_ms_p50", sys::median(&served.store_ms));
    println!(
        "serve loop: {} requests in {:.2} s, {} stores, {} multiplies planned as {:?}",
        served.requests,
        served.wall_s,
        served.store_ms.len(),
        served.multiplies,
        served.planned
    );
    print_diagnostics(ticks, args.size);
    Ok(report)
}

fn run(args: &Args) -> Result<String, String> {
    let report = if args.trace {
        traced::run(args)?
    } else if args.workload == Workload::ServeMixed {
        serve_workload(args)?
    } else {
        kernel_workload(args)?
    };
    report.json()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pb-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Args {
        Args {
            workload,
            seed,
            seconds: 0.05,
            trace,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/self-test")),
            size: Size::Tiny,
        }
    }

    fn metric_names(line: &str) -> Vec<String> {
        let v = serde_json::from_str(line).expect("result line is JSON");
        assert_eq!(
            v.get("correct").and_then(|c| c.as_bool()),
            Some(true),
            "{line}"
        );
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0), "{line}");
        let metrics = v
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics");
        metrics.iter().map(|(name, _)| name.clone()).collect()
    }

    /// Every workload, in both modes, reports every metric of its mode with
    /// zero failures, and another seed reports the same names.
    #[test]
    fn every_workload_reports_every_metric_for_any_seed() {
        crate::one_thread();
        for workload in Workload::ALL {
            for (trace, catalogue) in [(false, report::END_TO_END), (true, report::PER_LAYER)] {
                let first = metric_names(&run(&tiny(workload, 1, trace)).expect("run"));
                let second = metric_names(&run(&tiny(workload, 2, trace)).expect("run"));
                let expected: Vec<String> = catalogue.iter().map(|(n, _)| n.to_string()).collect();
                assert_eq!(first, expected, "{workload:?} trace={trace}");
                assert_eq!(second, expected, "{workload:?} trace={trace}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload rmat-skew --seed 7 --seconds 2 --trace 1"));
        let ok = ok.expect("valid arguments");
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::RmatSkew, 7, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload er-dram --seed 1 --seconds 0 --trace 0",
            "--workload er-dram --seed 1 --seconds 1 --trace 2",
            "--workload er-dram --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
