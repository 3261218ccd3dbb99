//! Command-line entry point of the SD-Rtree benchmark.
//!
//! ```text
//! perfbench --workload <sim-grow|sim-query|tcp-mixed|all> [--seed N]
//!           [--seconds S] [--trace 0|1] [--second-seed]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics when untraced,
//! per-layer metrics with `--trace 1`). With more than one workload, each
//! runs in a child process of its own, so that each one's peak memory is
//! its own, and the metric names gain a `<workload>/` prefix.

use perfbench::report::{json_line, parse_result_line, peak_rss_mib, Metric};
use perfbench::speed::REFERENCE_NS;
use perfbench::workload::{Scale, Workload};
use perfbench::{run, Params};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The seed `--second-seed` runs every workload on: a claim must also hold
/// on a seed not used while the change was written.
const SECOND_SEED: u64 = 7_919;
/// Where traced runs write their spans, relative to the checkout root.
const SPAN_DIR: &str = "perfbench/out";
/// Variables that change the program being measured: tracing and metrics
/// in `sdr-core`/`sdr-net`, per-message logging, and shortened benches.
const FORBIDDEN_ENV: [&str; 4] = [
    "SDR_TRACE",
    "SDR_METRICS",
    "SDR_NET_TRACE",
    "SDR_BENCH_QUICK",
];

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <sim-grow|sim-query|tcp-mixed|all> [--seed N] \
     [--seconds S] [--trace 0|1] [--second-seed]"
        .to_string()
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = 30.0;
    let mut traced = false;
    let mut second = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?],
                });
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: expected 0 or 1")),
                }
            }
            "--second-seed" => second = true,
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if second {
        if seed.is_some() {
            return Err("--second-seed replaces --seed; give one of them".into());
        }
        workloads = Some(workloads.unwrap_or_else(|| Workload::ALL.to_vec()));
        seed = Some(SECOND_SEED);
    }
    Ok(Cli {
        workloads: workloads.ok_or_else(usage)?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds,
        traced,
    })
}

/// The first line of `cmd --version`-style output, or "unknown".
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in this process and prints its report; the last
/// line is its result.
fn run_one(workload: Workload, cli: &Cli) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = tool_output(
        &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
        &["--version"],
    );
    let commit = tool_output("git", &["rev-parse", "--short", "HEAD"]);
    let p = Params {
        workload,
        seed: cli.seed,
        rounds: workload.rounds_for(cli.seconds),
        scale: Scale::Full,
        traced: cli.traced,
    };
    println!(
        "# perfbench {} seed={} rounds={} trace={} nproc={nproc} rustc=\"{rustc}\" commit={commit}",
        workload.name(),
        p.seed,
        p.rounds,
        u8::from(p.traced),
    );
    let out = match run(&p) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench {}: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    let metrics = out.metrics();
    for m in &metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "# servers={} attempted={} errors={} mismatches={} check_failures={} setup_s={:?}",
        out.servers,
        out.tally.attempted,
        out.tally.errors,
        out.tally.mismatches,
        out.tally.check_failures,
        out.tally.setup_s
    );
    if !out.tally.reference_ns.is_empty() && !p.traced {
        let (scale, setup_scale) = (out.tally.scale(), out.tally.setup_scale());
        println!(
            "# reference task: median {:.0} ns over {} samples between the ops, {:.0} ns before \
             the set-ups; times above are at the reference speed ({:.0} ns): the measured ones \
             multiplied by {scale:.4}, setup_s by {setup_scale:.4}",
            REFERENCE_NS / scale,
            out.tally.reference_ns.len(),
            REFERENCE_NS / setup_scale,
            REFERENCE_NS,
        );
        let unscaled = out.tally.metrics(peak_rss_mib(), false);
        let times = unscaled
            .iter()
            .filter(|m| matches!(m.unit.as_str(), "s" | "us" | "1/s"));
        let line: Vec<String> = times
            .map(|m| format!("{}={:.4}", m.name, m.value))
            .collect();
        println!("# as measured: {}", line.join(" "));
    }
    for line in out.tally.tail_lines() {
        println!("# {line}");
    }
    if let (Some(layers), Some(spans)) = (&out.layers, &out.spans) {
        print!("{}", layers.render_ledger(workload));
        let path =
            PathBuf::from(SPAN_DIR).join(format!("spans-{}-seed{}.tsv", workload.name(), p.seed));
        match spans.write_tsv(&path) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let failed = out.tally.failed();
    println!(
        "{}",
        json_line(out.correct(), out.tally.attempted, failed, &metrics)
    );
    // A wrong answer or a failed run-level check is a defect anywhere; a
    // failed operation is one in the simulator, which has no other source
    // of failure.
    if !out.correct() || (failed > 0 && workload != Workload::TcpMixed) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs each workload in a child process of this program, forwards its
/// report, and prints one result line over all of them.
fn run_each(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find its own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut summary: Vec<Metric> = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut exit = ExitCode::SUCCESS;
    for &workload in &cli.workloads {
        let child = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let child = match child {
            Ok(child) => child,
            Err(e) => {
                eprintln!("perfbench {}: cannot start: {e}", workload.name());
                return ExitCode::from(1);
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().map(parse_result_line);
        for line in lines {
            println!("{line}");
        }
        let result = match result {
            Some(Ok(result)) => result,
            _ => {
                eprintln!(
                    "perfbench {}: no result ({})",
                    workload.name(),
                    child.status
                );
                return ExitCode::from(1);
            }
        };
        if !child.status.success() {
            exit = ExitCode::from(1);
        }
        correct &= result.correct;
        attempted += result.attempted;
        failed += result.failed;
        summary.extend(
            result.metrics.into_iter().map(|m| {
                Metric::owned(format!("{}/{}", workload.name(), m.name), m.value, &m.unit)
            }),
        );
    }
    println!("{}", json_line(correct, attempted, failed, &summary));
    exit
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set: it changes the program being measured"
        );
        return ExitCode::from(2);
    }
    match cli.workloads.as_slice() {
        [workload] => run_one(*workload, &cli),
        _ => run_each(&cli),
    }
}
