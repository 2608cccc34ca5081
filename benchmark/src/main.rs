//! The repo benchmark: six solver-to-server workloads, end-to-end metrics
//! measured untraced, and a traced run that fills the per-crate layer
//! ladder. See `README.md` beside this package.
//!
//! ```text
//! dft-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! dft-benchmark [--seed N] [--seconds S] [--out FILE]               all workloads, both runs each
//! dft-benchmark --compare A.json B.json                             judge B against A
//! ```

mod inputs;
mod insitu;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use inputs::{Scale, Workload, DEFAULT_SEED};
use layers::Metrics;
use report::{num, object, text, uint, Measured, Spec, WorkloadResult};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::Tracer;
use workloads::{Ctx, Detail, OpOutcome, SetupTime};

const ROOT_MANIFEST: &str = include_str!("../../Cargo.toml");
const OWN_MANIFEST: &str = include_str!("../Cargo.toml");
const REFERENCE_JSON: &str = include_str!("../reference.json");

/// Timed repetitions of the operation per 10 s of `--seconds`: the
/// workloads are sized so that three take about that long on the host the
/// benchmark was sized on. A fixed count, not a time budget, so a slow hour
/// changes the samples and never the estimator.
const REPS_PER_10_S: f64 = 3.0;
/// Set-ups timed per run (the reported `setup_s` is their median).
const SETUPS: usize = 7;
/// The traced run's FMA probe lasts this long.
const FMA_PROBE_S: f64 = 0.3;
/// `ScfProfile::coverage()` and the span coverage of the traced operation
/// must both reach this.
const MIN_COVERAGE: f64 = 0.95;

/// Where everything the benchmark writes goes: `out/` beside its manifest.
/// The harness's own tests get a directory of their own, so `cargo test`
/// never replaces the trace files of a real run.
fn out_dir() -> PathBuf {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if cfg!(test) {
        out.join(format!("test-{}", std::process::id()))
    } else {
        out
    }
}

/// Repetitions of the operation an untraced run of `seconds` makes.
fn repetitions(seconds: f64) -> usize {
    ((seconds / 10.0 * REPS_PER_10_S).round() as usize).max(REPS_PER_10_S as usize)
}

/// Remove what would silently change the solvers' behaviour between runs.
/// Both SCF drivers load `$DFT_TUNE_FILE` (default: the cwd-relative
/// `target/dft_tune.json`) at entry, and a stale file changes MC/KC/NC and
/// B_f; `DFT_GRID` reshapes every distributed solve; `DFT_SCHED_EXPLORE`
/// perturbs delivery. `DFT_SIMD` is left alone and recorded instead.
fn pin_environment(tmp: &Path) {
    std::env::set_var("DFT_TUNE_FILE", tmp.join("no-such-tune-file.json"));
    std::env::remove_var("DFT_GRID");
    std::env::remove_var("DFT_SCHED_EXPLORE");
}

/// The `[profile.release]` table of a manifest, as sorted `key = value` lines.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().replace(' ', ""))
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The header of every result: enough to tell two machines or two builds
/// apart before comparing their numbers.
fn header(seed: u64, seconds: f64) -> Value {
    let features: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter_map(|&(name, on)| on.then_some(name))
    .collect();
    object(vec![
        (
            "git_commit",
            text(&first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", text(&first_line_of("rustc", &["--version"]))),
        ("cpu_model", text(&cpu_model())),
        ("available_parallelism", uint(threads() as u64)),
        ("simd_tier", text(dft_linalg::simd::active_tier().name())),
        ("target_features", text(&features.join(","))),
        (
            "build_profile",
            text(&format!(
                "release {{{}}}{}",
                release_profile(OWN_MANIFEST).join(", "),
                if cfg!(debug_assertions) {
                    " +debug_assertions"
                } else {
                    ""
                }
            )),
        ),
        ("seed", uint(seed)),
        ("seconds", num(seconds)),
        ("reps", uint(repetitions(seconds) as u64)),
    ])
}

/// Reset the kernel's high-water mark of this process's resident set to
/// its current size, so each repetition reports its own peak. Where the
/// kernel refuses, the peaks are cumulative (and equal from then on).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (VmHWM) since the last reset, in MB.
/// One process runs one workload, so the peak is the workload's own.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(free energy, SCF iterations)` that `reference.json` pins for
/// `workload`: only at the default seed and full size.
fn reference(workload: Workload, seed: u64, scale: Scale) -> Option<(f64, usize)> {
    if seed != DEFAULT_SEED || scale != Scale::Full {
        return None;
    }
    let v: Value = serde_json::from_str(REFERENCE_JSON).expect("reference.json parses");
    let w = v.get("workloads")?.get(workload.name())?;
    Some((
        w.get("free_energy_ha")?.as_f64()?,
        w.get("scf_iterations")?.as_u64()? as usize,
    ))
}

/// What one run (one workload, traced or not) produced.
struct RunReport {
    attempted: usize,
    failures: Vec<String>,
    /// Untraced run: the end-to-end metrics with their samples.
    end_to_end: Vec<Measured>,
    /// Traced run: the layer metrics.
    per_layer: Metrics,
}

/// A scratch directory of this process that does not exist yet.
fn scratch(workload: Workload, label: &str) -> PathBuf {
    let dir = out_dir().join(format!(
        "tmp-{}-{}-{label}",
        workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Set up [`SETUPS`] times; keep the last context for the operations. Only
/// the first set-up really creates the scratch directory: making and
/// removing it every time put more file-system noise than work into the
/// sample.
fn timed_setups(workload: Workload, seed: u64, scale: Scale, label: &str) -> (Ctx, Vec<SetupTime>) {
    let tmp = scratch(workload, label);
    let mut times = Vec::with_capacity(SETUPS);
    loop {
        let (ctx, t) = workloads::setup(workload, seed, scale, &tmp);
        times.push(t);
        if times.len() == SETUPS {
            return (ctx, times);
        }
    }
}

/// Operations attempted by `ops` and the failure lines they reported.
fn tally<'a>(ops: impl IntoIterator<Item = &'a OpOutcome>) -> (usize, Vec<String>) {
    let (mut attempted, mut failures) = (0, Vec::new());
    for op in ops {
        attempted += op.attempted;
        failures.extend(op.failures.iter().cloned());
    }
    (attempted, failures)
}

/// The untraced run: the set-ups, then the operation `reps` times,
/// profiling and spans off.
fn run_end_to_end(workload: Workload, seed: u64, reps: usize, scale: Scale) -> RunReport {
    let (ctx, setups) = timed_setups(workload, seed, scale, "run");
    let mut ops: Vec<OpOutcome> = Vec::with_capacity(reps);
    let mut rss = Vec::with_capacity(reps);
    for rep in 0..reps {
        reset_peak_rss();
        ops.push(workloads::run_op(&ctx, rep, false));
        rss.push(peak_rss_mb());
    }
    let (attempted, mut failures) = tally(&ops);
    failures.extend(workloads::cross_checks(
        &ctx,
        &ops,
        reference(workload, seed, scale),
    ));
    if workload == Workload::Dist2r {
        let (serial, _) = workloads::serial_scf(&ctx, false);
        failures.extend(workloads::dist_parity(ops[0].energy, &serial));
    }
    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    let iter_ms: Vec<f64> = ops
        .iter()
        .map(|o| 1e3 * o.wall_s / o.iterations.max(1) as f64)
        .collect();
    for (i, o) in ops.iter().enumerate() {
        println!(
            "rep {i}: {:.4} s, {} SCF iterations, E = {:+.10} Ha",
            o.wall_s, o.iterations, o.energy
        );
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    RunReport {
        attempted,
        failures,
        end_to_end: vec![
            Measured::median("setup_s", "s", setups.iter().map(|t| t.total_s).collect()),
            Measured::median("wall_s", "s", walls),
            Measured::median("scf_iter_ms", "ms", iter_ms),
            Measured::median("peak_rss_mb", "MB", rss),
        ],
        per_layer: Metrics::default(),
    }
}

/// The traced run: one untraced operation for the overhead, the same
/// operation again with the crates' phase profiling on and spans around
/// it, the workload's serial solve, and the layer replay on its result.
fn run_traced(workload: Workload, seed: u64, scale: Scale) -> RunReport {
    let (ctx, setups) = timed_setups(workload, seed, scale, "trace");
    let fma_peak = layers::fma_peak_gflops(FMA_PROBE_S);
    let mut m = Metrics::default();
    m.put("machine.fma_peak_gflops", fma_peak, "GFLOPS");
    m.put("machine.threads", threads() as f64, "count");

    let untraced = workloads::run_op(&ctx, 0, false);
    let mut tr = Tracer::new();
    let (op_span, (traced, mut failures)) = tr.span("operation", |tr| {
        let (_, op) = tr.span("solve", |_| workloads::run_op(&ctx, 1, true));
        let (_, failures) = tr.span("check", |_| {
            let reference = reference(workload, seed, scale);
            workloads::cross_checks(&ctx, std::slice::from_ref(&op), reference)
        });
        (op, failures)
    });
    let (attempted, mut all_failures) = tally([&untraced, &traced]);
    all_failures.append(&mut failures);
    if untraced.energy.to_bits() != traced.energy.to_bits() && workload != Workload::ServeBurst {
        all_failures.push(format!(
            "profiling changed the result: E = {} untraced, {} traced",
            untraced.energy, traced.energy
        ));
    }

    // the plain single-threaded solve of the same problem: the operation
    // itself on the serial workloads, the baseline on the others
    let baseline;
    let (serial, serial_wall) = if let Detail::Serial(r) = &traced.detail {
        (r.as_ref(), traced.wall_s)
    } else {
        (_, baseline) = tr.span("serial-baseline", |tr| {
            tr.span("solve", |_| workloads::serial_scf(&ctx, true)).1
        });
        (&baseline.0, baseline.1)
    };
    if !serial.converged {
        all_failures.push("serial solve of the workload's problem not converged".to_string());
    }
    if workload == Workload::Dist2r {
        all_failures.extend(workloads::dist_parity(traced.energy, serial));
    }
    // `inputs::serve_scf_cfg` mirrors a private function of dft-serve: the
    // replayed solve must still be the one a cold job of structure 0 does
    if workload == Workload::ServeBurst {
        let de = (traced.energy - serial.energy.free_energy).abs();
        if de.is_nan() || de > workloads::ENERGY_TOL_HA {
            all_failures.push(format!(
                "the replayed serial solve (E = {}) is not what a cold job solves (E = {})",
                serial.energy.free_energy, traced.energy
            ));
        }
    }

    let (replay_span, ()) = tr.span("replay", |tr| {
        layers::replay(&ctx, serial, fma_peak, tr, &mut m)
    });
    let profile = serial
        .profile
        .as_ref()
        .expect("the serial solve ran with profile: true");
    insitu::core_metrics(profile, serial.iterations, &mut m);
    insitu::distributed_metrics(&traced, profile, serial_wall, &mut m);
    insitu::serve_metrics(&traced, &mut m);
    let setup_work: Vec<f64> = setups.iter().map(|t| t.work_s).collect();
    m.put("bench.setup_work_s", stats::median(&setup_work), "s");
    m.put(
        "bench.trace_overhead_frac",
        traced.wall_s / untraced.wall_s - 1.0,
        "ratio",
    );
    let span_coverage =
        trace::coverage(tr.spans(), op_span).min(trace::coverage(tr.spans(), replay_span));
    m.put("bench.span_coverage", span_coverage, "ratio");

    // closure: the phases account for the solve, the spans for the operation
    let mut coverage = profile.coverage();
    if let Some(c) = insitu::min_rank_coverage(&traced) {
        coverage = coverage.min(c);
    }
    if coverage < MIN_COVERAGE {
        all_failures.push(format!(
            "ScfProfile coverage {coverage:.4} below {MIN_COVERAGE}"
        ));
    }
    if span_coverage < MIN_COVERAGE {
        all_failures.push(format!(
            "span coverage {span_coverage:.4} below {MIN_COVERAGE}"
        ));
    }
    let trace_file = out_dir().join(format!("trace-{}.jsonl", workload.name()));
    match tr.write_jsonl(&trace_file) {
        Ok(()) => println!(
            "trace: {} spans in {}",
            tr.spans().len(),
            trace_file.display()
        ),
        Err(e) => all_failures.push(format!("cannot write {}: {e}", trace_file.display())),
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    RunReport {
        attempted,
        failures: all_failures,
        end_to_end: Vec::new(),
        per_layer: m,
    }
}

/// Six significant digits, switching to scientific notation where a
/// fixed-point column would read as zero.
fn show(v: f64) -> String {
    if v == 0.0 || (1e-3..1e7).contains(&v.abs()) {
        format!("{v:.6}")
    } else {
        format!("{v:.5e}")
    }
}

/// Print every metric by name with its unit, the failures, the samples
/// line a suite run collects (the driver's contract fixes the keys of the
/// last line, so the samples cannot ride in it), and last the one-line
/// JSON result.
fn emit(workload: Workload, report: &RunReport, spec: &Spec) -> bool {
    let mut failures = report.failures.clone();
    // the run prints exactly the metrics BENCHMARK.json declares for it
    let declared = if report.end_to_end.is_empty() {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let emitted: Vec<(&str, &str)> = report
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .chain(report.per_layer.0.iter().map(|(n, _, u)| (n.as_str(), *u)))
        .collect();
    if !declared
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .eq(emitted.iter().copied())
    {
        failures.push("the metrics printed differ from those BENCHMARK.json declares".to_string());
    }
    let failed = failures.len().min(report.attempted);
    let correct = failures.is_empty();
    for f in &failures {
        println!("FAILED {}: {f}", workload.name());
    }
    let mut metrics = Vec::new();
    for m in &report.end_to_end {
        let [q1, _, q3] = stats::quartiles(&m.samples);
        println!(
            "{:<14} {:<34} {:>14} {:<7} median, q1 {} q3 {} n {}",
            workload.name(),
            m.name,
            show(m.value),
            m.unit,
            show(q1),
            show(q3),
            m.samples.len()
        );
        metrics.push((
            m.name.as_str(),
            object(vec![("value", num(m.value)), ("unit", text(&m.unit))]),
        ));
    }
    for (name, value, unit) in &report.per_layer.0 {
        println!(
            "{:<14} {name:<34} {:>14} {unit}",
            workload.name(),
            show(*value)
        );
        metrics.push((
            name.as_str(),
            object(vec![("value", num(*value)), ("unit", text(unit))]),
        ));
    }
    if !report.end_to_end.is_empty() {
        let samples = report
            .end_to_end
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    Value::Array(m.samples.iter().map(|&x| num(x)).collect()),
                )
            })
            .collect();
        println!(
            "samples {}",
            serde_json::to_string(&object(samples)).expect("serializable")
        );
    }
    let result = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", uint(report.attempted as u64)),
        ("failed", uint(failed as u64)),
        ("metrics", object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serializable"));
    correct
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Run one child process per workload and run kind (so each workload's
/// peak RSS is its own), relay its report, and collect the result set.
fn run_suite(args: &Args, spec: &Spec) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let head = header(args.seed, args.seconds);
    println!(
        "header {}",
        serde_json::to_string(&head).expect("serializable")
    );
    let mut results = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut result = WorkloadResult {
            name: w.name().to_string(),
            correct: true,
            ..WorkloadResult::default()
        };
        for traced in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            let out = cmd
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            let parsed: Option<Value> = serde_json::from_str(last).ok();
            let Some(v) = parsed.filter(|_| out.status.success() || last.starts_with('{')) else {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                return Err(format!(
                    "{} (trace {}) printed no result",
                    w.name(),
                    traced as u8
                ));
            };
            for l in &lines {
                if let Some(samples) = l.strip_prefix("samples ") {
                    let s: Value = serde_json::from_str(samples).map_err(|e| e.to_string())?;
                    for def in &spec.end_to_end {
                        let samples: Vec<f64> = s
                            .get(&def.name)
                            .and_then(Value::as_array)
                            .ok_or_else(|| format!("{}: no samples of {}", w.name(), def.name))?
                            .iter()
                            .filter_map(Value::as_f64)
                            .collect();
                        result
                            .end_to_end
                            .push(Measured::median(&def.name, &def.unit, samples));
                    }
                } else if !l.starts_with("header ") {
                    println!("{l}");
                }
            }
            result.correct &= v.get("correct") == Some(&Value::Bool(true));
            result.attempted += v.get("attempted").and_then(Value::as_u64).unwrap_or(0);
            result.failed += v.get("failed").and_then(Value::as_u64).unwrap_or(0);
            if traced {
                for (name, mv) in v.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
                    let unit = mv.get("unit").and_then(Value::as_str).unwrap_or("");
                    let value = mv.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    result
                        .per_layer
                        .push((name.clone(), unit.to_string(), value));
                }
            }
        }
        println!(
            "{:<14} failed_frac {} / {} = {}",
            w.name(),
            result.failed,
            result.attempted,
            result.failed as f64 / result.attempted.max(1) as f64
        );
        all_correct &= result.correct;
        results.push(result);
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let body =
        serde_json::to_string_pretty(&report::result_set(head, &results)).expect("serializable");
    std::fs::write(&path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result set: {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let spec = Spec::embedded();
    let args = match parse_args(&spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dft-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if release_profile(ROOT_MANIFEST) != release_profile(OWN_MANIFEST) {
        eprintln!(
            "dft-benchmark: [profile.release] of benchmark/Cargo.toml {:?} drifted from the root's {:?}",
            release_profile(OWN_MANIFEST),
            release_profile(ROOT_MANIFEST)
        );
        return ExitCode::from(2);
    }
    if let Some((a, b)) = &args.compare {
        let load = |p: &Path| {
            std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|t| report::parse_result_set(&t))
                .map_err(|e| format!("{}: {e}", p.display()))
        };
        return match (load(a), load(b)) {
            (Ok(ra), Ok(rb)) => ExitCode::from(u8::from(!report::compare(&spec, &ra, &rb))),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("dft-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    std::fs::create_dir_all(out_dir()).expect("create the benchmark's out/ directory");
    pin_environment(&out_dir());
    let correct = match args.workload {
        Some(w) => {
            println!(
                "header {}",
                serde_json::to_string(&header(args.seed, args.seconds)).expect("serializable")
            );
            let report = if args.trace {
                run_traced(w, args.seed, Scale::Full)
            } else {
                run_end_to_end(w, args.seed, repetitions(args.seconds), Scale::Full)
            };
            emit(w, &report, &spec)
        }
        None => match run_suite(&args, &spec) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("dft-benchmark: {e}");
                return ExitCode::from(2);
            }
        },
    };
    ExitCode::from(u8::from(!correct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Once;

    /// Tests share one process: pin the environment once, before any
    /// solver thread can read it.
    fn pinned() {
        static PIN: Once = Once::new();
        PIN.call_once(|| {
            std::fs::create_dir_all(out_dir()).unwrap();
            pin_environment(&out_dir());
        });
    }

    /// Both runs of `workload` at smoke size: every declared metric is
    /// there, finite, in declared order, and nothing failed.
    fn smoke(workload: Workload) {
        pinned();
        let spec = Spec::embedded();
        let seed = 3;
        let e2e = run_end_to_end(workload, seed, 2, Scale::Smoke);
        assert_eq!(e2e.failures, Vec::<String>::new());
        assert!(e2e.attempted >= 2);
        let names: Vec<&str> = e2e.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared);
        for m in &e2e.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {}",
                m.name,
                m.value
            );
            assert!(
                m.samples.iter().all(|v| v.is_finite() && *v > 0.0),
                "{}: {:?}",
                m.name,
                m.samples
            );
        }
        assert!(emit(workload, &e2e, &spec));

        let traced = run_traced(workload, seed, Scale::Smoke);
        assert_eq!(traced.failures, Vec::<String>::new());
        let names: Vec<&str> = traced
            .per_layer
            .0
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect();
        let declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared);
        for (name, value, _) in &traced.per_layer.0 {
            assert!(value.is_finite(), "{name} = {value}");
        }
        for name in ["core.profile_coverage", "bench.span_coverage"] {
            assert!(
                traced.per_layer.get(name).unwrap() >= MIN_COVERAGE,
                "{name}"
            );
        }
        assert!(emit(workload, &traced, &spec));
        let trace_file = out_dir().join(format!("trace-{}.jsonl", workload.name()));
        let text = std::fs::read_to_string(trace_file).unwrap();
        assert!(text.lines().count() > 10);
        assert!(text
            .lines()
            .all(|l| serde_json::from_str::<Value>(l).is_ok()));
    }

    #[test]
    fn smoke_scf_wide() {
        smoke(Workload::ScfWide);
    }

    #[test]
    fn smoke_scf_poisson() {
        smoke(Workload::ScfPoisson);
    }

    #[test]
    fn smoke_scf_2k() {
        smoke(Workload::Scf2k);
    }

    #[test]
    fn smoke_dist_2r() {
        smoke(Workload::Dist2r);
    }

    #[test]
    fn smoke_relax_warm_2r() {
        smoke(Workload::RelaxWarm2r);
    }

    #[test]
    fn smoke_serve_burst() {
        smoke(Workload::ServeBurst);
    }

    #[test]
    fn release_profiles_are_mirrored() {
        let own = release_profile(OWN_MANIFEST);
        assert_eq!(own, release_profile(ROOT_MANIFEST));
        assert_eq!(own, ["codegen-units=4", "lto=\"thin\""]);
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
        let drifted =
            "[profile.release]\nlto = \"fat\" # slower build\n\n[profile.test]\nopt-level = 2\n";
        assert_eq!(release_profile(drifted), ["lto=\"fat\""]);
    }

    #[test]
    fn reference_covers_every_workload() {
        for w in Workload::ALL {
            let (e, iters) = reference(w, DEFAULT_SEED, Scale::Full)
                .unwrap_or_else(|| panic!("{} missing", w.name()));
            assert_eq!(reference(w, DEFAULT_SEED + 1, Scale::Full), None);
            assert!(e.is_finite() && e < 0.0 && iters > 0, "{}", w.name());
        }
    }

    #[test]
    fn values_print_with_their_digits() {
        assert_eq!(show(0.0), "0.000000");
        assert_eq!(show(4.767398), "4.767398");
        assert_eq!(show(2.125e-7), "2.12500e-7");
        assert_eq!(show(1.41066e8), "1.41066e8");
    }
}
