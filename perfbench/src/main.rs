//! The repository benchmark: module allocation (SSA-based and
//! Chaitin–Briggs) and mixed service traffic, with per-layer traced timings.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload module_ssa --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root: the metric names and units are read from
//! `BENCHMARK.json` there.  A human-readable table goes to stderr; the last
//! line of stdout is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the `end_to_end` metrics with `--trace 0`, the
//! `per_layer` metrics with `--trace 1`).  The exit code is non-zero when
//! any output check, replay-agreement check or checker self-test fails.

mod checks;
mod module;
mod serve;
mod stats;
mod tracer;

use coalesce_stats::json::Json;
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning: later claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 7;

const MANIFEST: &str = "BENCHMARK.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// One named metric as declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
}

struct Manifest {
    workloads: Vec<String>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn read_manifest() -> Result<Manifest, String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("reading {MANIFEST}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing {MANIFEST}: {e:?}"))?;
    let list = |key: &str| -> Result<Vec<Json>, String> {
        match json.get(key) {
            Some(Json::Array(items)) => Ok(items.clone()),
            _ => Err(format!("{MANIFEST}: `{key}` must be an array")),
        }
    };
    let field = |item: &Json, key: &str| -> Result<String, String> {
        match item.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("{MANIFEST}: entry without string `{key}`")),
        }
    };
    let declared = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                })
            })
            .collect()
    };
    Ok(Manifest {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: declared("end_to_end")?,
        per_layer: declared("per_layer")?,
    })
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Units of work attempted (function allocations or requests).
    pub attempted: u64,
    /// Units that errored, were refused or failed an output check.
    pub failed: u64,
    /// Run-level check failures (replay disagreement, missing replies...).
    pub problems: Vec<String>,
    /// Every measured metric as `(name, value, unit)`, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics this workload measures in a traced run; the other
    /// declared per-layer metrics do not apply to it and are reported as 0.
    pub layers: &'static [&'static str],
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.0 != name);
        self.metrics.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| (m.1, m.2))
    }

    pub fn fail(&mut self, problem: String) {
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

/// Where a traced run writes its span log: next to the build output.
fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "perfbench/target".into(), std::path::PathBuf::from)
        .join("perfbench-traces");
    dir.join(format!("{workload}-seed{seed}.json"))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let manifest = read_manifest()?;
    if !manifest.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload `{}` (expected one of {})",
            args.workload,
            manifest.workloads.join(", ")
        ));
    }
    let (mut report, tracer) = match args.workload.as_str() {
        "module_ssa" => module::run(module::Allocator::Ssa, args.seed, args.seconds, args.trace),
        "module_chaitin" => module::run(
            module::Allocator::Chaitin,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve_mixed" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            return Err(format!(
                "workload `{other}` is declared but not implemented"
            ))
        }
    };
    report.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    report.set(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );

    for problem in checks::self_test() {
        report.fail(format!("checker self-test: {problem}"));
    }

    let declared = if args.trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut out = Vec::new();
    for d in declared {
        let value = match report.get(&d.name) {
            Some((value, unit)) if unit == d.unit => value,
            Some((_, unit)) => {
                report.fail(format!(
                    "metric {} has unit {unit}, declared {}",
                    d.name, d.unit
                ));
                continue;
            }
            None if args.trace && !report.layers.contains(&d.name.as_str()) => 0.0,
            None => {
                report.fail(format!("metric {} was not measured", d.name));
                continue;
            }
        };
        out.push((
            d.name.clone(),
            Json::object([
                ("value", Json::Float(value)),
                ("unit", Json::from(d.unit.as_str())),
            ]),
        ));
    }
    if args.trace {
        for name in report.layers {
            if !manifest.per_layer.iter().any(|d| d.name == *name) {
                report.fail(format!("per-layer metric {name} is not declared"));
            }
        }
    }

    print_table(&args, &report);
    if let Some(tracer) = tracer {
        let path = trace_path(&args.workload, args.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => eprintln!("span log: {}", path.display()),
            Err(e) => report.fail(format!("writing {}: {e}", path.display())),
        }
    }

    let correct = report.failed == 0 && report.problems.is_empty();
    for problem in &report.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failed)),
        ("metrics", Json::Object(out)),
    ]);
    println!("{}", result.to_compact_string());
    Ok(correct)
}

fn print_table(args: &Args, report: &Report) {
    eprintln!(
        "workload {} seed {} seconds {} trace {} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    eprintln!(
        "attempted {} failed {} ({} run-level problems)",
        report.attempted,
        report.failed,
        report.problems.len()
    );
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
