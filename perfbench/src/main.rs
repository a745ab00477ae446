//! Benchmark of the parallel min-cut workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --sweep
//! ```
//!
//! `--trace 0` times the public entry points a user calls (set-up,
//! `exact_mincut_in` on 2- and 1-thread pools, Stoer–Wagner, batched cut
//! queries) and checks every answer against an oracle. `--trace 1`
//! re-composes the pipeline from each layer's public functions and
//! times every phase, sub-build and kernel from here, outside the
//! program. `--sweep` prints the one-shot `ratio_vs_sw` size sweep.
//! The last line of standard output is one JSON result object.

mod e2e;
mod sweep;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Pool width of every measured parallel run.
pub const POOL_THREADS: usize = 2;

/// One named measurement of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: the oracle tally, the metrics, and a
/// human-readable record line (printed before the JSON).
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub record: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Count one oracle check; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; such a value is a bug here.
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len();
    assert!(k > 0, "median of an empty sample");
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of a non-empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The record line's statement of where and on what a run measured.
pub fn note_graph(rep: &mut Report, ctx: &pmc_mincut::GraphContext<'_>, lambda: u64) {
    let hw_threads = std::thread::available_parallelism().map_or(1, |v| v.get());
    rep.note("hw_threads", hw_threads);
    rep.note("pool_threads", POOL_THREADS);
    rep.note("n", ctx.n());
    rep.note("m", ctx.m());
    rep.note("lambda", lambda);
    rep.note("delta", ctx.min_degree_cut().value);
}

pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool shim never fails")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 55.0,
        trace: false,
        sweep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--sweep" {
            args.sweep = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&flag, &value)?,
            "--seconds" => args.seconds = number(&flag, &value)?,
            "--trace" => args.trace = number::<u8>(&flag, &value)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --sweep");
            return ExitCode::from(2);
        }
    };
    if args.sweep {
        sweep::run();
        return ExitCode::SUCCESS;
    }
    let Some(w) = workload::Workload::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let report = if args.trace {
        trace::run(w, args.seed)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };
    let mut record = format!(
        "# perfbench workload={} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in &report.record {
        let _ = write!(record, " {k}={v}");
    }
    println!("{record}");
    println!("{}", report.json());
    ExitCode::SUCCESS
}
