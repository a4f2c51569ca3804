//! `meibench` — the end-to-end and per-layer benchmark of the mei
//! pipeline: generate → train → eval → save → mmap-load → serve.
//!
//! ```text
//! cargo run --release --offline --manifest-path meibench/Cargo.toml -- \
//!     --workload wn18-negsamp --seed 1 --seconds 8 --trace 0
//! ```
//!
//! Workloads: `wn18-negsamp` (sampled trainer, exact serving of distinct
//! queries), `wn18rr-kvsall` (k-vs-all block-term trainer, serving of
//! queries that repeat as often as the graph asks them) and `serve-screened-250k` (int8-screened serving of a
//! 250k-entity mapped model with a hot swap). Every input derives from
//! `--seed`. `--seconds` is the length of each nominal-rate serve phase.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, the spans go to
//! `.bench_work/trace-<workload>-<seed>.json` and a self-time tree goes
//! to stderr. A traced run also needs the untraced run of the same seed
//! (for the tracing overhead and the `test_mrr` parity gate): it reuses
//! its record from `.bench_work` when present and runs it as a child
//! process otherwise.

mod host;
mod loadgen;
mod pipeline;
mod screened;
mod serve;
mod stats;
mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mei_obs::json::{self, build, JsonValue};

use crate::trace::Tracer;

/// Benchmark result type: failures are plain messages.
pub type Result<T> = std::result::Result<T, String>;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["wn18-negsamp", "wn18rr-kvsall", "serve-screened-250k"];

/// End-to-end metrics every workload reports with tracing off, with
/// their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("time_to_serve_s", "s"),
    ("serve_ready_s", "s"),
    ("serve_recall_at_10", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with tracing on, with their
/// units. A layer the workload bypasses did no work and reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("serve_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_max_qps", "qps"),
    ("train_triples_per_s", "triples/s"),
    ("eval_queries_per_s", "1/s"),
    ("test_mrr", "mrr"),
    ("serve_fail_frac", "ratio"),
    ("datagen.generate_s", "s"),
    ("kg.filter_store_s", "s"),
    ("trainer.train_s", "s"),
    ("trainer.epoch_s", "s"),
    ("trainer.first_epoch_s", "s"),
    ("trainer.valid_s", "s"),
    ("trainer.sampling_s", "s"),
    ("grads.forward_s", "s"),
    ("grads.merge_s", "s"),
    ("grads.backward_s", "s"),
    ("optim.step_s", "s"),
    ("grads.candidate_scores_per_s", "1/s"),
    ("eval.rank_s", "s"),
    ("eval.queries", "count"),
    ("eval.tie_rate", "ratio"),
    ("serialize.save_s", "s"),
    ("serialize.model_bytes", "bytes"),
    ("serialize.load_mapped_s", "s"),
    ("quant.index_build_s", "s"),
    ("quant.index_bytes", "bytes"),
    ("serve.snapshot_s", "s"),
    ("serve.start_s", "s"),
    ("serve.first_answer_s", "s"),
    ("eval.top_k_ms", "ms"),
    ("quant.screened_top_k_ms", "ms"),
    ("serve.engine_predict_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.loop_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.engine_latency_p99_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.epoll_wakes_per_req", "count"),
    ("serve.swap_s", "s"),
    ("serve.swap_critical_s", "s"),
    ("serve.swap_stall_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("serve.gen_lateness_p99_ms", "ms"),
    ("math.gemm_nt_gflops", "GFLOP/s"),
    ("math.dot_i8_gops", "GOP/s"),
    ("host.memcpy_gbps", "GB/s"),
    ("host.nproc", "count"),
    ("pipeline.unaccounted_s", "s"),
    ("bench.tracing_overhead_frac", "ratio"),
];

#[derive(Default)]
struct Record {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    layers: BTreeMap<&'static str, (f64, &'static str)>,
    notes: Vec<(String, String)>,
    failures: Vec<String>,
    gates_passed: usize,
    attempted: u64,
    failed: u64,
    test_mrr: Option<f64>,
}

/// One benchmark run: its inputs, tracer and everything it measured.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch directory for model files, inside the checkout.
    pub work_dir: PathBuf,
    rec: RefCell<Record>,
}

impl Run {
    /// Records an end-to-end metric.
    pub fn metric(&self, name: &'static str, value: f64, unit: &'static str) {
        self.rec.borrow_mut().metrics.insert(name, (value, unit));
    }

    /// Records a per-layer metric (last write wins).
    pub fn layer(&self, name: &'static str, value: f64, unit: &'static str) {
        self.rec.borrow_mut().layers.insert(name, (value, unit));
    }

    pub fn note(&self, key: &str, value: String) {
        self.rec.borrow_mut().notes.push((key.to_owned(), value));
    }

    /// Counts a correctness gate as one operation; a failed gate fails the
    /// run.
    pub fn gate(&self, name: &str, ok: bool) {
        let mut rec = self.rec.borrow_mut();
        rec.attempted += 1;
        if ok {
            rec.gates_passed += 1;
        } else {
            rec.failed += 1;
            rec.failures.push(format!("gate failed: {name}"));
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&self, attempted: usize, failed: usize) {
        let mut rec = self.rec.borrow_mut();
        rec.attempted += attempted as u64;
        rec.failed += failed as u64;
    }

    /// Marks the run incorrect without counting an operation.
    pub fn fail(&self, message: String) {
        self.rec.borrow_mut().failures.push(message);
    }

    /// Starts the window `peak_rss_mb` covers: memory the benchmark's own
    /// set-up peaked at before this call is left out.
    pub fn start_memory_window(&self) {
        if let Err(e) = host::reset_peak_rss() {
            self.fail(format!("cannot reset the peak resident set: {e}"));
        }
    }

    pub fn set_test_mrr(&self, mrr: f64) {
        self.rec.borrow_mut().test_mrr = Some(mrr);
    }

    /// `test_mrr` as hex f64 bits (0 when the workload ranks nothing).
    pub fn test_mrr_bits(&self) -> String {
        format!(
            "{:016x}",
            self.rec.borrow().test_mrr.unwrap_or(0.0).to_bits()
        )
    }

    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.rec.borrow().metrics.get(name).map(|m| m.0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 8.0f64, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("flag {flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let bench_dir = PathBuf::from(".bench_work");
    let work_dir = bench_dir.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let fingerprint = host::fingerprint();
    let probe = host::probe();
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work_dir: work_dir.clone(),
        rec: RefCell::new(Record::default()),
    };
    run.layer("math.gemm_nt_gflops", probe.gemm_nt_gflops, "GFLOP/s");
    run.layer("math.dot_i8_gops", probe.dot_i8_gops, "GOP/s");
    run.layer("host.memcpy_gbps", probe.memcpy_gbps, "GB/s");
    run.layer("host.nproc", probe.nproc as f64, "count");

    let outcome = match args.workload.as_str() {
        "wn18-negsamp" => pipeline::run_workload(&run, pipeline::Kind::NegSamp),
        "wn18rr-kvsall" => pipeline::run_workload(&run, pipeline::Kind::KvsAll),
        _ => screened::run_workload(&run),
    };
    if let Err(e) = outcome {
        run.fail(e);
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    run.metric("peak_rss_mb", host::peak_rss_mb(), "MB");

    let record_path = bench_dir.join(format!(
        "untraced-{}-{}-{}-{:016x}.json",
        args.workload,
        args.seed,
        args.seconds,
        host::fnv1a64(fingerprint.as_bytes())
    ));
    if args.trace {
        compare_with_untraced(&run, &args, &record_path);
    } else {
        let untraced = build::obj([
            (
                "time_to_serve_s",
                build::num(run.metric_value("time_to_serve_s").unwrap_or(0.0)),
            ),
            ("test_mrr_bits", build::str(run.test_mrr_bits())),
        ]);
        if let Err(e) = std::fs::write(&record_path, untraced.to_json()) {
            eprintln!("warning: cannot write {}: {e}", record_path.display());
        }
    }
    run.note("wall_s", format!("{:.3}", started.elapsed().as_secs_f64()));
    finish(run, &args, &bench_dir, &fingerprint, &probe);
}

/// Traced-run checks against the untraced run of the same workload, seed
/// and binary: the tracing overhead on `time_to_serve_s`, and the
/// `test_mrr` parity gate. The untraced record is reused when an earlier
/// run left it and produced by a child process otherwise.
fn compare_with_untraced(run: &Run, args: &Args, record_path: &Path) {
    let read = || {
        std::fs::read_to_string(record_path)
            .ok()
            .and_then(|s| json::parse(&s).ok())
    };
    let record = read().or_else(|| {
        let exe = std::env::current_exe().ok()?;
        let status = std::process::Command::new(exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .stdout(std::process::Stdio::null())
            .status()
            .ok()?;
        if !status.success() {
            run.fail(format!("untraced child run exited with {status}"));
        }
        read()
    });
    let Some(record) = record else {
        run.fail("no untraced record to compare the traced run with".to_owned());
        return;
    };
    let base = record
        .get("time_to_serve_s")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let traced = run.metric_value("time_to_serve_s").unwrap_or(0.0);
    run.note("untraced_time_to_serve_s", base.to_string());
    run.layer(
        "bench.tracing_overhead_frac",
        if base > 0.0 { traced / base - 1.0 } else { 0.0 },
        "ratio",
    );
    let same = record.get("test_mrr_bits").and_then(|v| v.as_str()) == Some(&run.test_mrr_bits());
    run.gate("traced and untraced runs give the same test_mrr bits", same);
}

/// Prints the detail line (provenance, host, notes, everything measured)
/// and then the result line, and writes the spans of a traced run.
fn finish(run: Run, args: &Args, bench_dir: &Path, fingerprint: &str, probe: &host::HostProbe) {
    let spans = run.tracer.spans();
    let rec = run.rec.into_inner();
    if args.trace {
        let path = bench_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, trace::spans_json(&spans)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
        eprint!("{}", trace::tree_report(&spans));
        let overhead = rec
            .layers
            .get("bench.tracing_overhead_frac")
            .map_or(0.0, |m| m.0);
        let gap = rec
            .layers
            .get("pipeline.unaccounted_s")
            .map_or(0.0, |m| m.0);
        eprintln!(
            "pipeline.unaccounted_s {gap:.4}  bench.tracing_overhead_frac {overhead:.4}  ({} spans)",
            spans.len()
        );
    }
    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER[..], &rec.layers)
    } else {
        (&END_TO_END[..], &rec.metrics)
    };
    let mut failures = rec.failures.clone();
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match values.get(name) {
            Some(&(v, _)) => v,
            // A layer this workload bypasses did no work.
            None if args.trace => 0.0,
            None => {
                failures.push(format!("no value for end-to-end metric {name}"));
                continue;
            }
        };
        metrics.push((
            name.to_owned(),
            build::obj([("value", build::num(value)), ("unit", build::str(unit))]),
        ));
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    let all = |m: &BTreeMap<&'static str, (f64, &'static str)>| {
        JsonValue::Obj(
            m.iter()
                .map(|(k, (v, u))| {
                    (
                        (*k).to_owned(),
                        build::obj([("value", build::num(*v)), ("unit", build::str(*u))]),
                    )
                })
                .collect(),
        )
    };
    let detail = build::obj([
        ("workload", build::str(&args.workload)),
        ("seed", build::int(args.seed as usize)),
        ("seconds", build::num(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        (
            "fingerprint",
            json::parse(fingerprint).unwrap_or(JsonValue::Null),
        ),
        (
            "host",
            build::obj([
                ("nproc", build::int(probe.nproc)),
                ("gemm_nt_gflops", build::num(probe.gemm_nt_gflops)),
                ("dot_i8_gops", build::num(probe.dot_i8_gops)),
                ("memcpy_gbps", build::num(probe.memcpy_gbps)),
            ]),
        ),
        ("gates_passed", build::int(rec.gates_passed)),
        (
            "failures",
            JsonValue::Arr(failures.iter().map(build::str).collect()),
        ),
        (
            "notes",
            JsonValue::Obj(
                rec.notes
                    .iter()
                    .map(|(k, v)| (k.clone(), build::str(v)))
                    .collect(),
            ),
        ),
        ("end_to_end", all(&rec.metrics)),
        ("per_layer", all(&rec.layers)),
    ]);
    println!("{}", detail.to_json());
    let result = build::obj([
        ("correct", JsonValue::Bool(failures.is_empty())),
        ("attempted", build::int(rec.attempted.max(1) as usize)),
        ("failed", build::int(rec.failed as usize)),
        ("metrics", JsonValue::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics, with the
    /// units, that this binary reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let entries = |key: &str, field: &str| -> Vec<String> {
            v.get(key)
                .and_then(|a| a.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(|n| n.as_str())
                        .expect(field)
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(entries("workloads", "name"), WORKLOADS);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = table.iter().map(|m| m.0).collect();
            let units: Vec<&str> = table.iter().map(|m| m.1).collect();
            assert_eq!(entries(key, "name"), names);
            assert_eq!(entries(key, "unit"), units);
        }
    }
}
