//! `perfbench`: the hotiron repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures-paper|serve-paper|serve-fast|movie-128> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the workloads read the goldens in
//! `results/` and write traces under `.bench_out/`. The last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`): the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate span-recording run with `--trace 1`. Any failed
//! correctness check makes the exit code 1. See README.md for the
//! workloads and the layer → end-to-end map.

mod alloc;
mod figures;
mod movie;
mod serve;
mod stats;
mod symbolic;
mod trace;

use hotiron_serve::json::Json;
use stats::Report;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Workload names, as cited by later changes.
const WORKLOADS: [&str; 4] = ["figures-paper", "serve-paper", "serve-fast", "movie-128"];

/// Solver pool width in every workload (noise control: one thread).
const POOL_THREADS: usize = 1;

/// The benchmark definition, at the repository root: the one list of
/// metric names and units this program prints.
const DEFINITION: &str = "BENCHMARK.json";

/// The `(name, unit)` pairs listed under `key` in the benchmark definition.
fn metric_list(definition: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    let list = definition
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{DEFINITION} has no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("bad `{key}` entry in {DEFINITION}"))
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The CPU's brand string, from CPUID (no file access needed).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let brand = [0x8000_0002u32, 0x8000_0003, 0x8000_0004].map(__cpuid);
    let bytes: Vec<u8> = brand
        .iter()
        .flat_map(|r| [r.eax, r.ebx, r.ecx, r.edx])
        .flat_map(u32::to_le_bytes)
        .filter(|&b| b != 0)
        .collect();
    String::from_utf8_lossy(&bytes).trim().to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The machine fingerprint recorded with every result: results from
/// different fingerprints are not comparable.
fn fingerprint(workload: &str) -> String {
    let cpu = cpu_model();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let simd = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    let (workers, connections) = serve::shape(workload);
    format!(
        "cpu={cpu:?} nproc={nproc} avx2_fma={simd} pool_threads={POOL_THREADS} \
         serve_workers={workers} connections={connections}"
    )
}

/// Compares `now` with the copy kept in `path` by the previous run in this
/// checkout, warning on a difference, then stores `now`.
fn remember(path: &Path, now: &str, what: &str) {
    if let Ok(before) = std::fs::read_to_string(path) {
        if before != now {
            eprintln!("perfbench: WARNING: {what} differs from the previous run in this checkout:");
            for (a, b) in before.lines().zip(now.lines()).filter(|(a, b)| a != b) {
                eprintln!("perfbench:   was `{a}`, now `{b}`");
            }
        }
    }
    let _ = std::fs::write(path, now);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let results = Path::new("results");
    let scenarios = Path::new("scenarios");
    if !results.is_dir() || !scenarios.is_dir() {
        eprintln!("perfbench: run from the repository root (needs results/ and scenarios/)");
        return ExitCode::from(2);
    }
    let lists = std::fs::read_to_string(DEFINITION)
        .map_err(|e| format!("cannot read {DEFINITION}: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("{DEFINITION}: {e}")))
        .and_then(|d| Ok((metric_list(&d, "end_to_end")?, metric_list(&d, "per_layer")?)));
    let (end_to_end, per_layer) = match lists {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    hotiron_thermal::pool::init_global(POOL_THREADS);
    if args.trace {
        trace::enable();
    }
    let out_dir = Path::new(".bench_out");
    let _ = std::fs::create_dir_all(out_dir);
    let print = fingerprint(&args.workload);
    eprintln!("perfbench: {} seed={} trace={} {print}", args.workload, args.seed, args.trace);
    remember(
        &out_dir.join(format!("fingerprint-{}.txt", args.workload)),
        &print,
        "machine fingerprint (do not compare)",
    );

    let mut report = Report::default();
    match args.workload.as_str() {
        "figures-paper" => figures::run(args.seed, args.seconds, results, &mut report),
        "serve-paper" => serve::run(serve::Tier::Paper, args.seed, args.seconds, &mut report),
        "serve-fast" => serve::run(serve::Tier::Fast, args.seed, args.seconds, &mut report),
        "movie-128" => movie::run(args.seed, args.seconds, results, &mut report),
        _ => unreachable!("validated in parse_args"),
    }
    report.put("peak_heap_mb", alloc::peak_mb(), "MB");

    let selected = if args.trace {
        // Exact counters must repeat between runs of the same code.
        let counts: String = report
            .select(&per_layer, true)
            .unwrap_or_default()
            .iter()
            .filter(|(n, _, unit)| {
                unit == "count" && !serve::TIMING_DEPENDENT.contains(&n.as_str())
            })
            .map(|(n, v, _)| format!("{n} = {v}\n"))
            .collect();
        remember(
            &out_dir.join(format!("counts-{}.txt", args.workload)),
            &counts,
            "an exact counter",
        );
        let stem = format!("trace-{}-seed{}", args.workload, args.seed);
        match trace::write(out_dir, &stem) {
            Ok(()) => eprintln!("perfbench: trace written to {}/{stem}.json", out_dir.display()),
            Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
        }
        for (traced, _) in &per_layer {
            let measured = traced.strip_prefix("traced.").and_then(|name| report.get(name));
            if let Some((v, unit)) = measured {
                report.put(traced, v, unit);
            }
        }
        report
            .check_definition(&[&end_to_end, &per_layer])
            .and_then(|()| report.select(&per_layer, true))
    } else {
        report.check_definition(&[&end_to_end]).and_then(|()| report.select(&end_to_end, false))
    };
    let metrics = match selected {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e} ({DEFINITION} and the workloads disagree)");
            return ExitCode::from(2);
        }
    };
    for why in &report.failures {
        eprintln!("perfbench: FAILED: {why}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("perfbench: {name:<40} {value:>16.6} {unit}");
    }
    println!("{}", report.result_line(&metrics));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
