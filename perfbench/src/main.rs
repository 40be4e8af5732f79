//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <query_tpcds|metadata_zipf|ddl_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is fixed work: `--seconds` sets how many ops a timed
//! region runs (a per-workload rate times the budget), and `--seed` fixes
//! every name, key and data split, so op counts and memory compare across
//! commits. Throughput is a timed region's ops over its wall time.
//!
//! `--trace 0` runs three reps, each a fresh set-up followed by an
//! untraced timed region, and reports every end-to-end metric as the
//! median over the reps. `--trace 1` sets the workload up once and runs
//! the same timed region in twenty chunks, alternately untraced and with
//! spans around every layer call, and reports the per-layer metrics:
//! counter deltas per op over the whole region, self time per layer from
//! the traced chunks, and the tracing overhead from the throughput of
//! each untraced chunk and the traced one after it.
//!
//! Every reported time and rate is adjusted for how fast the shared host
//! ran at the time, as measured by the probe slices of [`calib`]; the raw
//! figures are printed beside them.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
//! The line before it records the seed, host cores, git revision, the
//! sample count behind each percentile and each rep's raw figures.

mod calib;
mod check;
mod counters;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use trace::Module;
use workloads::ddl_churn::{self, DdlChurn};
use workloads::metadata_zipf::{self, MetadataZipf};
use workloads::query_tpcds::{self, QueryTpcds};
use workloads::{cross_check, measure, tracing_overhead, Arm, Workload};

/// Set-ups, each followed by its timed region, per `--trace 0` run; each
/// metric is the median over them.
const REPS: usize = 3;

/// Most spans written to the trace file per run.
const MAX_SPANS_WRITTEN: usize = 1_000_000;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    meta: Vec<(&'static str, String)>,
}

impl Report {
    fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    fn meta_line(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"perfbench\": {{{}}}}}", fields.join(", "))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[String]) -> String {
    let items: Vec<String> = items.iter().map(|e| json_str(e)).collect();
    format!("[{}]", items.join(", "))
}

/// Restart the high-water mark of the resident set at the current resident
/// set, so that each rep reports its own peak. Returns whether the kernel
/// accepted; when it did not, the peak is the process's so far.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// High-water resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host CPU time stolen from this machine so far (hypervisor steal,
/// summed over CPUs), in clock ticks.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Timed region plus the cross-node check, as one outcome.
struct Outcome {
    arm: Arm,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn measured<W: Workload>(w: &W, traced: bool) -> Outcome {
    let arm = measure(w, traced);
    let (keys, mismatches) = cross_check(w);
    let mut errors = arm.errors.clone();
    errors.extend(mismatches.iter().take(5).cloned());
    Outcome {
        attempted: arm.ops + keys,
        failed: arm.failed + mismatches.len() as u64,
        arm,
        errors,
    }
}

fn run<W: Workload>(args: &Args, setup: impl Fn() -> Result<W, String>) -> Result<Report, String> {
    let mut meta: Vec<(&'static str, String)> = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cores", cores().to_string()),
        ("rev", json_str(&git_rev())),
    ];
    if args.trace {
        return run_traced(args, setup, meta);
    }
    let mut probe = calib::Probe::new();
    let mut reps = Vec::with_capacity(REPS);
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    let mut clients = 0;
    let steal0 = steal_ticks();
    let mut rss_reset = true;
    for _ in 0..REPS {
        rss_reset &= reset_peak_rss();
        probe.slices.clear();
        probe.burst(calib::SETUP_BURST);
        let t0 = Instant::now();
        let w = setup()?;
        let setup_raw_s = t0.elapsed().as_secs_f64();
        probe.burst(calib::SETUP_BURST);
        let setup_host = calib::HostSpeed::of(&probe.slices);
        let out = measured(&w, false);
        let peak_rss_mb = peak_rss_mb();
        clients = w.clients();
        drop(w);
        attempted += out.attempted;
        failed += out.failed;
        errors.extend(out.errors);
        reps.push(Rep::of(&out.arm, setup_raw_s, setup_host, peak_rss_mb));
    }
    let steal = steal_ticks().saturating_sub(steal0);
    errors.truncate(5);
    let each = |f: fn(&Rep) -> f64| format!("{:?}", reps.iter().map(f).collect::<Vec<f64>>());
    let samples: Vec<u64> = reps.iter().map(|r| r.samples).collect();
    let beyond: Vec<u64> = reps.iter().map(|r| r.beyond_p99).collect();
    meta.extend([
        ("clients", clients.to_string()),
        ("reps", REPS.to_string()),
        (
            "ops_each",
            format!("{:?}", reps.iter().map(|r| r.ops).collect::<Vec<u64>>()),
        ),
        ("p50_samples_each", format!("{samples:?}")),
        ("p99_samples_each", format!("{samples:?}")),
        ("beyond_p99_each", format!("{beyond:?}")),
        ("ops_per_s_each", each(Rep::ops_per_s)),
        ("p50_us_each", each(Rep::p50_us)),
        ("p99_us_each", each(Rep::p99_us)),
        ("setup_s_each", each(Rep::setup_s)),
        ("peak_rss_mb_each", each(|r| r.peak_rss_mb)),
        ("peak_rss_per_rep", rss_reset.to_string()),
        ("probe_slices_each", each(|r| r.host.slices as f64)),
        ("median_slice_ns_each", each(|r| r.host.median_slice_ns)),
        (
            "setup_median_slice_ns_each",
            each(|r| r.setup_host.median_slice_ns),
        ),
        ("raw_ops_per_s_each", each(|r| r.raw_ops_per_s)),
        ("raw_p50_us_each", each(|r| r.raw_p50_us)),
        ("raw_p99_us_each", each(|r| r.raw_p99_us)),
        ("raw_setup_s_each", each(|r| r.raw_setup_s)),
        ("host_steal_ticks", steal.to_string()),
        ("errors", json_list(&errors)),
    ]);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: end_to_end(&reps),
        meta,
    })
}

/// One set-up and timed region of a `--trace 0` run: the raw figures and
/// the host speed each was measured at.
#[derive(Debug, Clone, Copy)]
struct Rep {
    raw_setup_s: f64,
    setup_host: calib::HostSpeed,
    ops: u64,
    raw_ops_per_s: f64,
    raw_p50_us: f64,
    raw_p99_us: f64,
    samples: u64,
    beyond_p99: u64,
    host: calib::HostSpeed,
    /// Peak resident set from the start of the set-up to the end of the
    /// timed region and its check.
    peak_rss_mb: f64,
}

impl Rep {
    fn of(a: &Arm, raw_setup_s: f64, setup_host: calib::HostSpeed, peak_rss_mb: f64) -> Rep {
        Rep {
            raw_setup_s,
            setup_host,
            ops: a.ops,
            raw_ops_per_s: a.ops_per_s(false),
            raw_p50_us: a.latency.p50_us,
            raw_p99_us: a.latency.p99_us,
            samples: a.latency.samples as u64,
            beyond_p99: a.latency.beyond_p99 as u64,
            host: a.host,
            peak_rss_mb,
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.host.rate(self.raw_ops_per_s)
    }

    fn p50_us(&self) -> f64 {
        self.host.time(self.raw_p50_us)
    }

    fn p99_us(&self) -> f64 {
        self.host.time(self.raw_p99_us)
    }

    fn setup_s(&self) -> f64 {
        self.setup_host.time(self.raw_setup_s)
    }
}

/// The end-to-end metrics, each the median over the reps: host-adjusted
/// times and rates, and the peak resident set.
fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let med = |f: fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<f64>>());
    vec![
        metric("ops_per_s", "1/s", med(Rep::ops_per_s)),
        metric("p50_us", "us", med(Rep::p50_us)),
        metric("p99_us", "us", med(Rep::p99_us)),
        metric("peak_rss_mb", "MB", med(|r| r.peak_rss_mb)),
        metric("setup_s", "s", med(Rep::setup_s)),
    ]
}

fn run_traced<W: Workload>(
    args: &Args,
    setup: impl Fn() -> Result<W, String>,
    mut meta: Vec<(&'static str, String)>,
) -> Result<Report, String> {
    let out = measured(&setup()?, true);
    let a = &out.arm;
    let host = a.host;
    let self_time = a.self_time.clone().unwrap_or_default();
    let conserved = self_time.ops_over_tolerance == 0;
    let (attempted, failed) = (out.attempted, out.failed);
    let (untraced_rate, traced_rate) = (a.ops_per_s(false), a.ops_per_s(true));
    let mut metrics: Vec<Metric> = counters::per_layer(&a.counters, a.ops, &a.end)
        .into_iter()
        .map(|(name, unit, value)| metric(name, unit, value))
        .collect();
    metrics.extend([
        metric(
            "delta.files_per_scan",
            "count",
            counters::per_op(a.work.files, a.work.scans),
        ),
        metric("error_rate", "ratio", counters::per_op(failed, attempted)),
        metric(
            "catalog.self_us_per_op",
            "us/op",
            host.time(self_time.module_us_per_op(Module::Catalog)),
        ),
        metric(
            "delta.snapshot.self_us_per_op",
            "us/op",
            host.time(self_time.module_us_per_op(Module::DeltaSnapshot)),
        ),
        metric(
            "delta.scan.self_us_per_op",
            "us/op",
            host.time(self_time.module_us_per_op(Module::DeltaScan)),
        ),
        metric(
            "bench.self_us_per_op",
            "us/op",
            host.time(self_time.module_us_per_op(Module::Bench)),
        ),
        metric("trace.overhead", "ratio", tracing_overhead(&a.chunks)),
        metric(
            "trace.max_conservation_error",
            "ratio",
            self_time.max_conservation_error,
        ),
    ]);
    let path = write_spans(&args.workload, a);
    let mut errors = out.errors.clone();
    if !conserved {
        errors.push(format!(
            "{} ops' self times miss their op span by > 5 %",
            self_time.ops_over_tolerance
        ));
    }
    meta.extend([
        ("ops", a.ops.to_string()),
        ("probe_slices", host.slices.to_string()),
        ("median_slice_ns", host.median_slice_ns.to_string()),
        ("untraced_ops_per_s", untraced_rate.to_string()),
        ("traced_ops_per_s", traced_rate.to_string()),
        ("spans_file", json_str(&path)),
        ("errors", json_list(&errors)),
    ]);
    Ok(Report {
        correct: failed == 0 && conserved,
        attempted,
        failed,
        metrics,
        meta,
    })
}

/// Write the traced run's spans next to the benchmark's manifest, under
/// `out/`. Returns the path, or the reason nothing was written.
fn write_spans(workload: &str, arm: &Arm) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.tsv"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_tsv(&mut f, &arm.spans, MAX_SPANS_WRITTEN)?;
        std::io::Write::flush(&mut f)
    };
    match write() {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

fn dispatch(args: &Args) -> Result<Report, String> {
    let (seed, secs) = (args.seed, args.seconds);
    match args.workload.as_str() {
        "query_tpcds" => run(args, || {
            QueryTpcds::setup(seed, &query_tpcds::Params::for_budget(secs))
        }),
        "metadata_zipf" => run(args, || {
            MetadataZipf::setup(seed, &metadata_zipf::Params::for_budget(secs))
        }),
        "ddl_churn" => run(args, || {
            DdlChurn::setup(seed, &ddl_churn::Params::for_budget(secs))
        }),
        other => Err(format!(
            "unknown workload {other}; expected query_tpcds, metadata_zipf or ddl_churn"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let report = parse_args(&argv).and_then(|args| dispatch(&args));
    match report {
        Ok(r) => {
            println!("{}", r.meta_line());
            println!("{}", r.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload ddl_churn --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "ddl_churn".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
        assert!(dispatch(&parse_args(&argv("--workload nope")).unwrap()).is_err());
    }

    #[test]
    fn end_to_end_metrics_are_host_adjusted_medians_over_reps() {
        let host = |ns: f64| calib::HostSpeed {
            slices: 10,
            median_slice_ns: ns,
        };
        let rep = |raw: f64, slice_ns: f64| Rep {
            raw_setup_s: raw,
            setup_host: host(slice_ns),
            ops: 100,
            raw_ops_per_s: 1_000.0 / raw,
            raw_p50_us: raw,
            raw_p99_us: 2.0 * raw,
            samples: 100,
            beyond_p99: 1,
            host: host(slice_ns),
            peak_rss_mb: 60.0 + raw,
        };
        let r = calib::REFERENCE_SLICE_NS;
        // The second rep ran on a host twice as slow: adjusted, it reads
        // like the first. The third is an outlier the median drops.
        let reps = [rep(10.0, r), rep(20.0, 2.0 * r), rep(50.0, r)];
        let m = end_to_end(&reps);
        let names: Vec<&str> = m.iter().map(|x| x.name).collect();
        assert_eq!(
            names,
            ["ops_per_s", "p50_us", "p99_us", "peak_rss_mb", "setup_s"]
        );
        let value = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert!((value("p50_us") - 10.0).abs() < 1e-9);
        assert!((value("p99_us") - 20.0).abs() < 1e-9);
        assert!((value("ops_per_s") - 100.0).abs() < 1e-9);
        assert!((value("setup_s") - 10.0).abs() < 1e-9);
        assert_eq!(value("peak_rss_mb"), 80.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("p50_us", "us", 1.25), metric("bad", "us", f64::NAN)],
            meta: vec![("rev", json_str("a\"b"))],
        };
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}, \"bad\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
        assert_eq!(r.meta_line(), "{\"perfbench\": {\"rev\": \"a\\\"b\"}}");
    }
}
