//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stock_ingest|rule_heavy|cold_tenants> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! A run repeats whole *rounds* of one workload until `--seconds` have
//! passed. A round builds a fresh runtime (timed as set-up), ingests a
//! fixed amount of work drawn from a seed derived from `--seed` and the
//! round number, probes single-job latency, checks every output, then
//! restarts the runtime from its durable directory (timed as recovery)
//! and checks the recovered state. Each metric is the median over
//! rounds, so a run's figure does not hang on one round's scheduling
//! luck or one round's input draw. `--trace 1` alternates untraced and
//! traced rounds and prints the per-layer metrics; `--trace 0` prints the
//! end-to-end metrics. The last line of standard output is one JSON
//! object; progress and the span file's path go to standard error.

mod cold;
mod layers;
mod measure;
mod round;
mod rules;
mod rundir;
mod stock;

use measure::{median, mix, quantile, Spans};
use round::{Metrics, Round};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["stock_ingest", "rule_heavy", "cold_tenants"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                args.workload = value()?;
                if !WORKLOADS.contains(&args.workload.as_str()) {
                    return Err(format!(
                        "unknown workload {:?} ({})",
                        args.workload,
                        WORKLOADS.join(", ")
                    ));
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required ({})", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// One round of the named workload, at the full or (`--smoke`) the smoke
/// size. `traced` turns on the runtime's telemetry and the benchmark's
/// own spans and per-layer measurements.
fn run_round(
    args: &Args,
    round_seed: u64,
    traced: bool,
    dir: &std::path::Path,
    spans: &mut Spans,
) -> Result<Round, String> {
    let size = if args.smoke {
        round::Size::Smoke
    } else {
        round::Size::Full
    };
    match args.workload.as_str() {
        "stock_ingest" => stock::round(size, round_seed, traced, dir, spans),
        "rule_heavy" => rules::round(size, round_seed, traced, dir, spans),
        "cold_tenants" => cold::round(size, round_seed, traced, dir, spans),
        other => unreachable!("parse_args admits no workload {other:?}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let base = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let kind = format!(
        "{}{}{}",
        args.workload,
        if args.smoke { "-smoke" } else { "" },
        if args.trace { "-traced" } else { "" }
    );
    let result =
        rundir::make(&base.join(".run"), &kind, rundir::KEEP_BYTES).and_then(|(dir, deleted)| {
            if deleted > 0 {
                eprintln!(
                    "perfbench: deleted {:.1} MiB that earlier runs left, to stay under {} MiB",
                    deleted as f64 / (1u64 << 20) as f64,
                    rundir::KEEP_BYTES >> 20
                );
            }
            run(&args, &dir)
        });
    match result {
        Ok((metrics, attempted, failed, spans)) => {
            if let Some(spans) = spans {
                let path = base
                    .join(".out")
                    .join(format!("spans-{}.tsv", args.workload));
                match spans.write(&path) {
                    Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
                    Err(e) => eprintln!("perfbench: could not write spans: {e}"),
                }
            }
            println!("{}", round::result_json(true, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            // the run stops at its first failed operation or check
            eprintln!("perfbench: {} failed: {e}", args.workload);
            println!("{}", round::result_json(false, 1, 1, &Metrics::new()));
            ExitCode::from(1)
        }
    }
}

type RunOutput = (Metrics, u64, u64, Option<Spans>);

fn run(args: &Args, dir: &std::path::Path) -> Result<RunOutput, String> {
    let budget = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace { 4 } else { 3 };
    let mut spans = Spans::new(false);
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let start = Instant::now();
    let mut r = 0u64;
    while r < min_rounds || start.elapsed() < budget {
        // trace runs alternate untraced and traced rounds, so the two
        // sides see the same drift and the overhead ratio is fair
        let is_traced = args.trace && r % 2 == 1;
        spans.set_enabled(is_traced);
        // every round gets its own directory and none is deleted during
        // the run: freeing blocks (a `discard` mount discards them) would
        // load the following rounds' file operations with the clean-up
        let round_dir = dir.join(format!("r{r}"));
        let round = run_round(args, mix(args.seed, r), is_traced, &round_dir, &mut spans)?;
        eprintln!(
            "perfbench: round {r}{} at {:.1} s: {:.0} ev/s, {:.2} us cpu/ev, setup {:.6} s, recover {:.4} s, probe p50 {:.0} us",
            if is_traced { " (traced)" } else { "" },
            start.elapsed().as_secs_f64(),
            round.ingest_events as f64 / round.ingest_s,
            round.cpu_s * 1e6 / round.ingest_events as f64,
            round.setup_s,
            round.recover_s,
            median(&round.probes_us)
        );
        if is_traced {
            traced.push(round);
        } else {
            plain.push(round);
        }
        r += 1;
    }
    let all = plain.iter().chain(&traced);
    let attempted = all.clone().map(|r| r.jobs).sum();
    let failed = all.map(|r| r.failed).sum();
    eprintln!(
        "perfbench: {} seed {} — {} rounds in {:.1} s ({} traced)",
        args.workload,
        args.seed,
        r,
        start.elapsed().as_secs_f64(),
        traced.len()
    );
    if args.trace {
        Ok((
            layer_metrics(&plain, &traced),
            attempted,
            failed,
            Some(spans),
        ))
    } else {
        Ok((end_to_end(&plain), attempted, failed, None))
    }
}

/// The end-to-end metrics: per-round medians, and latency quantiles over
/// the probes of every round pooled.
fn end_to_end(rounds: &[Round]) -> Metrics {
    let per = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let probes: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.probes_us.iter().copied())
        .collect();
    let mut m = Metrics::new();
    m.put(
        "throughput_evps",
        per(&|r| r.ingest_events as f64 / r.ingest_s),
        "1/s",
    );
    m.put("ack_p50_us", quantile(&probes, 0.5), "us");
    m.put("recover_s", per(&|r| r.recover_s), "s");
    m.put(
        "store_bytes_per_event",
        per(&|r| r.store_bytes as f64 / r.acked_events as f64),
        "B",
    );
    m.put(
        "cpu_us_per_event",
        per(&|r| r.cpu_s * 1e6 / r.ingest_events as f64),
        "us",
    );
    m.put("peak_rss_mb", measure::peak_rss_mb(), "MiB");
    m.put("setup_s", per(&|r| r.setup_s), "s");
    eprintln!(
        "perfbench: ack p99 {:.1} us over {} probes (printed, not bounded)",
        quantile(&probes, 0.99),
        probes.len()
    );
    for (name, (value, unit)) in m.iter() {
        eprintln!("perfbench:   {name} = {value:.6} {unit}");
    }
    m
}

/// The per-layer metrics: medians over the traced rounds, plus the
/// tracing overhead against the interleaved untraced rounds.
fn layer_metrics(plain: &[Round], traced: &[Round]) -> Metrics {
    let thr = |rs: &[Round]| {
        median(
            &rs.iter()
                .map(|r| r.ingest_events as f64 / r.ingest_s)
                .collect::<Vec<_>>(),
        )
    };
    let mut m = Metrics::new();
    for (name, unit) in layers::PER_LAYER {
        let values: Vec<f64> = traced
            .iter()
            .map(|r| r.layers.get(*name).copied().unwrap_or(0.0))
            .collect();
        m.put(name, median(&values), unit);
    }
    let (base_plain, base_traced) = (thr(plain), thr(traced));
    m.put("telemetry.overhead", base_traced / base_plain, "ratio");
    m.put("telemetry.base_untraced_evps", base_plain, "1/s");
    m.put("telemetry.base_traced_evps", base_traced, "1/s");
    for (name, (value, unit)) in m.iter() {
        eprintln!("perfbench:   {name} = {value:.6} {unit}");
    }
    m
}
