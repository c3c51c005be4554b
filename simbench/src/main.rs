//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs the correctness checks, then repeats the workload's timed run
//! until `--seconds` have passed. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` each untraced run is followed by a
//! profiled one and it reports the per-layer metrics, writing the
//! harness's spans to `simbench/out/`. The last line of standard output is
//! one JSON object; the exit code is 1 when a check failed, 2 on bad
//! arguments.

use simbench::layers::{layer_metrics, phase_shares};
use simbench::spans::Spans;
use simbench::stats::{keep_fastest, median, percentile};
use simbench::workload::{
    prefix_checks, retrying_regime, timed_run, Check, Parents, RunOutcome, Workload,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: simbench --workload <ipv4-linerate|mix-interference|modem-sparse|\
                     ipv4-faults-forked> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Running figures over the untraced timed runs, which all simulate the
/// same windows.
struct Repeats {
    count: usize,
    /// Each window's fastest host time over the repeats.
    fastest: Vec<f64>,
    setups: Vec<f64>,
    cycles: u64,
    cpu_secs: f64,
    wall_secs: f64,
}

impl Repeats {
    fn new(first: &RunOutcome) -> Self {
        Repeats {
            count: 1,
            fastest: first.window_secs.clone(),
            setups: first.setup_secs.clone(),
            cycles: first.work.cycles,
            cpu_secs: first.timed_secs(),
            wall_secs: first.wall_secs,
        }
    }

    fn add(&mut self, run: &RunOutcome) {
        assert!(
            keep_fastest(&mut self.fastest, &run.window_secs),
            "runs of one plan have the same windows"
        );
        self.count += 1;
        self.setups.extend(&run.setup_secs);
        self.cycles += run.work.cycles;
        self.cpu_secs += run.timed_secs();
        self.wall_secs += run.wall_secs;
    }
}

/// One `"name": {"value": v, "unit": u}` member of the result line.
fn metric_json(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let plan = w.plan();
    println!(
        "workload {}  seed {}  ({})",
        w.name(),
        args.seed,
        if w.seeded() {
            "campaign and fork seeds are derived from it"
        } else {
            "unused: the rig has no random input"
        }
    );

    let mut checks = prefix_checks(w, &plan, args.seed);
    let mut spans = Spans::new(args.trace);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut parents = Parents::default();
    let first = timed_run(w, &plan, args.seed, &mut parents, false, &mut spans);
    let mut repeats = Repeats::new(&first);
    // Every later timed run must reproduce the first run's reports. Only
    // a failure is kept, so an untraced invocation's memory (its
    // peak_rss_mb) does not grow with the number of repeats; the traced
    // one keeps its runs for the per-layer division.
    let (mut compared, mut untraced, mut traced) = (0, Vec::new(), Vec::new());
    let mut compare = |run: &RunOutcome, checks: &mut Vec<Check>| {
        compared += 1;
        if run.reports != first.reports {
            checks.push(Check {
                name: format!("timed run {compared}: final reports == run 0's"),
                passed: false,
            });
        }
    };
    loop {
        if args.trace {
            let run = timed_run(w, &plan, args.seed, &mut parents, true, &mut spans);
            compare(&run, &mut checks);
            traced.push(run);
        }
        if start.elapsed() >= budget && repeats.count + traced.len() >= 2 {
            break;
        }
        let run = timed_run(w, &plan, args.seed, &mut parents, false, &mut spans);
        compare(&run, &mut checks);
        repeats.add(&run);
        if args.trace {
            untraced.push(run);
        }
    }
    if w.seeded() {
        checks.push(retrying_regime(&first));
    }
    let failed = checks.iter().filter(|c| !c.passed).count();
    for c in &checks {
        println!(
            "check {}: {}",
            if c.passed { "ok" } else { "FAILED" },
            c.name
        );
    }
    let attempted = checks.len() + compared;
    println!(
        "{} timed runs of {} windows x {} cycles ({} parents x {} forks); {}/{attempted} \
         checks passed",
        compared + 1,
        plan.windows_per_run(),
        plan.window,
        plan.parents,
        plan.forks,
        attempted - failed,
    );

    let mut json = String::from("{");
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "simbench/out/spans-{}-seed{}.json",
            w.name(),
            args.seed
        ));
        match spans.write_chrome_trace(&path) {
            Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
        untraced.insert(0, first.clone());
        let profile = traced[0].profile.as_ref().expect("profiled run");
        println!("host phase shares of the first profiled run:");
        for (phase, share) in phase_shares(profile) {
            println!(
                "  {:<16} {}",
                phase.name(),
                share.map_or("null".into(), |s| format!("{s:.4}"))
            );
        }
        println!("per-layer metrics (value unit  = numerator / base):");
        for m in layer_metrics(&untraced, &traced) {
            let shown = m.value.map_or("null".to_owned(), |v| format!("{v:.6}"));
            println!("  {:<38} {shown:>14} {:<9} = {}", m.name, m.unit, m.basis);
            // The result line holds numbers only: an undefined ratio reads 0.
            metric_json(&mut json, m.name, m.value.unwrap_or(0.0), m.unit);
        }
    } else {
        let run_secs: f64 = repeats.fastest.iter().sum();
        let windows_ms: Vec<f64> = repeats.fastest.iter().map(|s| s * 1e3).collect();
        let p90 = percentile(&windows_ms, 0.9).expect("at least one window");
        let sim_secs = first.work.cycles as f64 / first.clock_hz;
        let e2e = [
            (
                "sim_mcps",
                plan.cycles_per_run() as f64 / run_secs / 1e6,
                "Mcycles/s",
            ),
            ("window_ms_p90", p90.value, "ms"),
            (
                "setup_s",
                median(&repeats.setups).expect("a set-up per run"),
                "s",
            ),
            ("peak_rss_mb", simbench::peak_rss_mb().unwrap_or(0.0), "MB"),
            (
                "sim_goodput_gbps",
                first.work.egress_bits / sim_secs / 1e9,
                "Gb/s",
            ),
            ("sim_p99_cycles", first.worst_p99 as f64, "cycles"),
        ];
        for (name, value, unit) in e2e {
            println!("  {name:<18} {value:>14.6} {unit}");
            metric_json(&mut json, name, value, unit);
        }
        println!(
            "  host times are this thread's CPU time; each window's is its fastest of {} \
             repeats; window_ms_p90 over {} windows, {} beyond it; setup_s is the median of \
             {} set-ups",
            repeats.count,
            p90.samples,
            p90.beyond,
            repeats.setups.len()
        );
        println!(
            "  over all repeats the timed windows ran at {:.6} Mcycles/s of CPU time and \
             {:.6} Mcycles/s of wall-clock time",
            repeats.cycles as f64 / repeats.cpu_secs / 1e6,
            repeats.cycles as f64 / repeats.wall_secs / 1e6,
        );
    }
    json.push('}');
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{json}}}",
        failed == 0,
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
