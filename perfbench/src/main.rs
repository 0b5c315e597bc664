//! The repository's benchmark: one command, four workloads.
//!
//! ```text
//! perfbench --workload <verify|check|stm|monitor> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! With `--trace 0` it sets the workload up several times (reporting
//! the median as `setup_s`), then runs untraced passes for `--seconds`
//! and prints the end-to-end metrics. With `--trace 1` it alternates
//! untraced and traced passes, prints the per-layer metrics the
//! workload measures with each layer's self time and the tracing
//! overhead, and writes the spans to `--spans-dir`. Every verdict is
//! checked against a known answer; the last line of standard output is
//! one JSON object. `run.py` completes it to the metric list of
//! `BENCHMARK.json`.

mod answers;
mod check;
mod monitor;
mod spans;
mod stm;
mod stream;
mod util;
mod verify;

use spans::Tracer;
use std::time::{Duration, Instant};
use util::{median, peak_rss_mb, Metric, Samples, Tally};

/// A benchmark workload. Set-up happens in its constructor.
pub trait Workload {
    /// One measured pass. Records the workload's end-to-end samples and,
    /// when `tr` is on, its per-layer samples.
    fn pass(&mut self, tally: &mut Tally, tr: &mut Tracer);
    /// Traced-only work after a traced pass, outside the pass's time.
    fn probe(&mut self, _tally: &mut Tally, _tr: &mut Tracer) {}
    /// Forget the samples of the warm-up pass.
    fn clear(&mut self);
    /// Latencies of the requests the untraced passes made: one call
    /// into the layer under test (verify, check), 64 consecutive
    /// operations of one STM thread (stm) or one window from seal to
    /// verdict (monitor).
    /// Every workload reports the same end-to-end metrics, so a pass
    /// and a request mean that workload's own unit of work.
    fn requests(&self) -> &Samples;
    /// Per-layer metrics; the workload's own headline numbers among
    /// them (`verify_s`, `stm_mops.<algo>`, ...) come from the untraced
    /// passes of the traced run.
    fn per_layer(&self) -> Vec<Metric>;
}

/// Set-ups per run: at least `SETUP_MIN`, then more until
/// `SETUP_BUDGET` is spent or `SETUP_MAX` are done; `setup_s` is their
/// median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Passes run even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--spans-dir" => spans_dir = Some(value.clone().into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

fn set_up(name: &str, seed: u64, tally: &mut Tally) -> Result<Box<dyn Workload>, String> {
    let mut w: Box<dyn Workload> = match name {
        "verify" => Box::new(verify::Verify::new(seed)),
        "check" => Box::new(check::Check::new(seed)),
        "stm" => Box::new(stm::Stm::new(seed)),
        "monitor" => Box::new(monitor::MonitorWorkload::new(seed)),
        other => return Err(format!("unknown workload {other:?}")),
    };
    // The first pass runs cold (allocator, caches, lazy statics); it is
    // charged to set-up so that the measured passes are steady.
    w.pass(tally, &mut Tracer::new(false));
    w.clear();
    Ok(w)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut workload = None;
    let setup_start = Instant::now();
    let enough = |n: usize| {
        args.trace && n >= 1
            || n >= SETUP_MAX
            || n >= SETUP_MIN && setup_start.elapsed() >= SETUP_BUDGET
    };
    while !enough(setups.len()) {
        let t0 = Instant::now();
        match set_up(&args.workload, args.seed, &mut tally) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut off = Tracer::new(false);

    let metrics = if !args.trace {
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || start.elapsed() < budget {
            let t0 = Instant::now();
            w.pass(&mut tally, &mut off);
            passes.push(t0.elapsed().as_secs_f64());
        }
        vec![
            Metric::new("pass_s", median(&passes), "s"),
            Metric::new("request_p50_ms", w.requests().quantile(0.5), "ms"),
            Metric::new("request_p90_ms", w.requests().quantile(0.9), "ms"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    } else {
        let mut tr = Tracer::new(true);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while plain.len() < MIN_PASSES || start.elapsed() < budget {
            let t0 = Instant::now();
            w.pass(&mut tally, &mut off);
            plain.push(t0.elapsed().as_secs_f64());
            tr.next_pass();
            let t0 = Instant::now();
            tr.span("harness.pass", |tr| w.pass(&mut tally, tr));
            traced.push(t0.elapsed().as_secs_f64());
            tr.span("harness.probe", |tr| w.probe(&mut tally, tr));
        }
        let mut m = vec![Metric::new(
            "trace.overhead_ratio",
            median(&traced) / median(&plain),
            "ratio",
        )];
        for (layer, ns) in tr.self_ns_by_layer() {
            m.push(Metric::new(
                format!("self_ms.{layer}"),
                ns as f64 / 1e6 / traced.len() as f64,
                "ms",
            ));
        }
        m.extend(w.per_layer());
        if let Some(dir) = &args.spans_dir {
            let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| tr.write_jsonl(&path)) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
        }
        m
    };

    for note in tally.notes() {
        eprintln!("perfbench: wrong: {note}");
    }
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<40} {:>16.6} ratio ({} wrong of {} checked)",
        "wrong_share",
        util::ratio(tally.wrong, tally.attempted),
        tally.wrong,
        tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0,
        tally.attempted.max(1),
        tally.wrong,
        body.join(", ")
    );
}
