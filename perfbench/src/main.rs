//! The GenEdit serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_tenants --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Drives `genedit_serve::ServeRuntime` from one load-generator process.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer metrics from spans the benchmark records
//! around its own calls into each crate (plus the operator spans the
//! pipeline already returns). The last line of standard output is the
//! result object; the line before it states the run's context and
//! sample counts. Any correctness mismatch exits with status 1.

mod backend;
mod edits;
mod inputs;
mod run;
mod spans;
mod stats;
mod workloads;

use backend::BackendStats;
use edits::{EditLog, SmePlan, Writer};
use genedit_llm::ModelUsage;
use inputs::Stream;
use run::{Done, Reference, Replay, System, SETUP_REPEATS};
use serde_json::Value;
use spans::Recorder;
use stats::{mean, median, pct, percentile, ratio, Percentile};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Spec, EDIT_SESSIONS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(50);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let report = execute(&spec, &args);
    for m in &report.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    println!(
        "{}",
        serde_json::to_string(&report.detail).expect("infallible")
    );
    println!(
        "{}",
        serde_json::to_string(&report.result).expect("infallible")
    );
    if !report.mismatches.is_empty() {
        std::process::exit(1);
    }
}

struct Report {
    detail: Value,
    result: Value,
    mismatches: Vec<String>,
}

/// Everything the phases produced, before it is reduced to metrics.
struct Measured {
    setup_s: Vec<f64>,
    open: run::OpenLoop,
    open_sent: u64,
    sat: run::Saturation,
    untraced_capacity: Option<f64>,
    /// Warm-up and untraced requests: checked for correctness, not measured.
    unmeasured: Vec<Done>,
    edits: EditLog,
    backend: BackendStats,
    usage: ModelUsage,
    hedge: (u64, u64),
    runtime_metrics: genedit_telemetry::MetricsSnapshot,
    store_metrics: genedit_telemetry::MetricsSnapshot,
    threads_peak: u64,
    replay: Replay,
    spans: Vec<spans::SpanRec>,
}

fn execute(spec: &Spec, args: &Args) -> Report {
    let rec = Arc::new(Recorder::new(args.trace));
    // Half the set-ups before serving (the last one serves) and the rest
    // after it, so their median does not hang on one moment of the host.
    // Each instance is shut down and dropped before the next is built, so
    // no two systems are alive at once.
    let timed_set_up = || {
        let started = Instant::now();
        let sys = run::set_up(spec, args.seed, &rec);
        (sys, started.elapsed().as_secs_f64())
    };
    let retire = |sys: System| sys.runtime.shutdown();
    let early = SETUP_REPEATS.div_ceil(2);
    let mut setup_s = Vec::new();
    let mut sys: Option<System> = None;
    for _ in 0..early {
        if let Some(old) = sys.take() {
            retire(old);
        }
        let (fresh, took) = timed_set_up();
        setup_s.push(took);
        sys = Some(fresh);
    }
    let sys = sys.expect("SETUP_REPEATS is positive");

    // The SME's and the generator's own inputs; not part of set-up.
    let sme_pipeline = genedit_core::GenEditPipeline::new(Arc::clone(&sys.inputs.oracle));
    let plan = SmePlan::new(&sys.inputs, &sme_pipeline);
    let stream = Stream::new(args.seed, spec.draw.clone(), &sys.readers, &sys.inputs);

    let mut m = measure(spec, args, &sys, &plan, &stream, &rec, setup_s);
    // One serving system plus the generator's records of every request;
    // the checker's reference and the later set-ups come after.
    let peak_rss_mb = peak_rss_mb();

    let mut all: Vec<Done> = m.open.done.clone();
    all.extend(m.sat.done.iter().cloned());
    let reference = Reference::new(spec, &sys);
    let mut mismatches = run::check_fingerprints(&sys, &reference, &all);
    mismatches.extend(run::check_fingerprints(&sys, &reference, &m.unmeasured));
    mismatches.extend(edits::check_replay(&sys.store, &m.edits));
    let ex = run::ex_pct(&sys, &all);
    retire(sys);
    for _ in early..SETUP_REPEATS {
        let (late, took) = timed_set_up();
        m.setup_s.push(took);
        retire(late);
    }

    let spans_file = args.trace.then(|| {
        let path = std::path::PathBuf::from(format!(
            ".perfbench_out/spans-{}-{}.jsonl",
            spec.name, args.seed
        ));
        match spans::write_jsonl(&path, &m.spans) {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("not written: {e}"),
        }
    });

    let sent = all.len() as u64;
    let failed = all.iter().filter(|d| !d.completed).count() as u64;
    let answers = sent - failed;
    let open_lat: Vec<f64> = m
        .open
        .done
        .iter()
        .filter(|d| d.completed)
        .map(|d| d.latency_ms)
        .collect();
    // Both over the windows the p99 needs (1000 requests each).
    let window = stats::samples_needed(99.0);
    let p50 = stats::windowed(&open_lat, 50.0, window);
    let p99 = stats::windowed(&open_lat, 99.0, window);
    let edit_p50 = percentile(&m.edits.live_ms, 50.0);
    let edit_p90 = percentile(&m.edits.live_ms, 90.0);

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        layer_metrics(&m, answers)
    } else {
        let in_slo = m
            .open
            .done
            .iter()
            .filter(|d| d.completed && d.latency_ms <= spec.slo_ms)
            .count();
        vec![
            ("setup_s".into(), median(&m.setup_s), "s"),
            ("latency_p50_ms".into(), p50.value, "ms"),
            ("latency_p99_ms".into(), p99.value, "ms"),
            (
                "slo_met_pct".into(),
                pct(in_slo as f64, m.open_sent as f64),
                "%",
            ),
            ("capacity_rps".into(), m.sat.capacity_rps, "req/s"),
            (
                "completed_pct".into(),
                pct(answers as f64, sent as f64),
                "%",
            ),
            ("ex_pct".into(), ex, "%"),
            (
                "llm_calls_per_answer".into(),
                ratio(m.usage.total_calls() as f64, answers as f64),
                "calls",
            ),
            (
                "prompt_kchars_per_answer".into(),
                ratio(m.usage.total_prompt_chars() as f64 / 1e3, answers as f64),
                "kchar",
            ),
            ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
        ]
    };

    let pct_json = |p: &Percentile| {
        obj(vec![
            ("value", Value::F64(p.value)),
            ("samples", Value::U64(p.samples as u64)),
            ("beyond", Value::U64(p.beyond as u64)),
            ("supported", Value::Bool(p.supported())),
            ("needed", Value::U64(stats::samples_needed(p.pct) as u64)),
            ("windows", Value::U64(p.windows as u64)),
        ])
    };
    let detail = obj(vec![
        ("workload", Value::Str(spec.name.into())),
        ("why", Value::Str(spec.why.into())),
        ("seed", Value::U64(args.seed)),
        (
            "mode",
            Value::Str(if args.trace { "traced" } else { "untraced" }.into()),
        ),
        ("seconds", Value::U64(args.seconds)),
        ("revision", Value::Str(revision())),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "loop",
            Value::Str("open at a fixed rate, then closed at a fixed depth".into()),
        ),
        ("rate_rps", Value::F64(spec.rate_rps)),
        ("slo_ms", Value::F64(spec.slo_ms)),
        ("workers", Value::U64(spec.workers as u64)),
        ("outstanding", Value::U64(spec.outstanding as u64)),
        (
            "setup_s_runs",
            Value::Array(m.setup_s.iter().map(|s| Value::F64(*s)).collect()),
        ),
        ("open_sent", Value::U64(m.open_sent)),
        ("latency_p50", pct_json(&p50)),
        ("latency_p99", pct_json(&p99)),
        ("generator_late_max_ms", Value::F64(m.open.late_max_ms)),
        ("saturation_sent", Value::U64(m.sat.done.len() as u64)),
        ("llm_spiked_dispatches", Value::U64(m.backend.spikes)),
        ("failed_pct", Value::F64(pct(failed as f64, sent as f64))),
        (
            "failures",
            Value::Array(
                all.iter()
                    .filter(|d| !d.completed)
                    .take(5)
                    .map(|d| Value::Str(d.status.clone()))
                    .collect(),
            ),
        ),
        ("edit_live_p50", pct_json(&edit_p50)),
        ("edit_live_p90", pct_json(&edit_p90)),
        ("edits_submitted", Value::U64(m.edits.submitted)),
        ("edits_merged", Value::U64(m.edits.merged)),
        (
            "mismatches",
            Value::Array(
                mismatches
                    .iter()
                    .take(5)
                    .map(|s| Value::Str(s.clone()))
                    .collect(),
            ),
        ),
        ("spans_file", spans_file.map_or(Value::Null, Value::Str)),
    ]);
    let result = obj(vec![
        ("correct", Value::Bool(mismatches.is_empty())),
        ("attempted", Value::U64(sent.max(1))),
        ("failed", Value::U64(failed)),
        (
            "metrics",
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let v = if value.is_finite() { value } else { 0.0 };
                        (
                            name,
                            obj(vec![
                                ("value", Value::F64(v)),
                                ("unit", Value::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    Report {
        detail,
        result,
        mismatches,
    }
}

/// The timed part of a run. Untraced: 10% warm-up, 65% open loop, 25%
/// saturation. Traced: 10% warm-up, 15% untraced saturation (the
/// baseline for the tracing overhead), 60% traced open loop and 15%
/// traced saturation. Layer counters are reset after the untraced part.
fn measure(
    spec: &Spec,
    args: &Args,
    sys: &System,
    plan: &SmePlan,
    stream: &Stream,
    rec: &Arc<Recorder>,
    setup_s: Vec<f64>,
) -> Measured {
    let total = args.seconds as f64;
    let share = |f: f64| Duration::from_secs_f64(total * f);
    let (open_f, sat_f, untraced_f) = if args.trace {
        (0.60, 0.15, 0.15)
    } else {
        (0.65, 0.25, 0.0)
    };
    rec.set_enabled(false);
    let stop_sampler = AtomicBool::new(false);
    let threads_peak = AtomicU64::new(0);
    let open_sent = (spec.rate_rps * total * open_f).round() as u64;
    let mut m = std::thread::scope(|scope| {
        let warm_n = (spec.rate_rps * total * 0.10).round() as u64;
        let mut unmeasured = run::open_loop(sys, stream, 0, warm_n, spec.rate_rps, rec).done;
        let mut next = warm_n;
        let untraced_capacity = (untraced_f > 0.0).then(|| {
            let s = run::saturate(sys, stream, next, spec.outstanding, share(untraced_f), rec);
            next = s.next;
            unmeasured.extend(s.done);
            s.capacity_rps
        });

        sys.runtime.metrics().reset();
        sys.store.metrics.reset();
        sys.model.reset_usage();
        let backend0 = sys.model.inner().stats();
        let hedge0 = sys.runtime.hedge_stats();
        rec.set_enabled(args.trace);
        let sampler = args.trace.then(|| {
            scope.spawn(|| {
                while !stop_sampler.load(Ordering::SeqCst) {
                    threads_peak.fetch_max(threads_now(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        });
        let open = run::open_loop(sys, stream, next, open_sent, spec.rate_rps, rec);
        let sat = run::saturate(
            sys,
            stream,
            next + open_sent,
            spec.outstanding,
            share(sat_f),
            rec,
        );
        stop_sampler.store(true, Ordering::SeqCst);
        if let Some(s) = sampler {
            s.join().expect("sampler does not panic");
        }
        let backend = backend_delta(&backend0, &sys.model.inner().stats());
        let usage = sys.model.usage();
        let hedge1 = sys.runtime.hedge_stats();
        let runtime_metrics = sys.runtime.metrics().snapshot();
        let store_metrics = sys.store.metrics.snapshot();
        Measured {
            setup_s,
            open,
            open_sent,
            sat,
            untraced_capacity,
            unmeasured,
            edits: EditLog::default(),
            backend,
            usage,
            hedge: (hedge1.fired - hedge0.fired, hedge1.won - hedge0.won),
            runtime_metrics,
            store_metrics,
            threads_peak: 0,
            replay: Replay::default(),
            spans: Vec::new(),
        }
    });
    m.threads_peak = threads_peak.load(Ordering::Relaxed);
    // The SME edits tenants nobody reads, after the measured phases: its
    // timings are layer figures, and beside the reads it would only take
    // CPU from them.
    m.edits = Writer::new(&sys.inputs, &sys.store, &sys.sme, plan).run(EDIT_SESSIONS, rec);
    if args.trace {
        let mut served = m.open.done.clone();
        served.extend(m.sat.done.iter().cloned());
        m.replay = run::replay_layers(sys, spec, &served, rec);
        m.spans = rec.snapshot();
    }
    m
}

fn backend_delta(a: &BackendStats, b: &BackendStats) -> BackendStats {
    BackendStats {
        dispatches: b.dispatches - a.dispatches,
        sleeps: b.sleeps - a.sleeps,
        spikes: b.spikes - a.spikes,
        sleep_ns: b.sleep_ns - a.sleep_ns,
        oracle_ns: b.oracle_ns - a.oracle_ns,
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(m: &Measured, answers: u64) -> Vec<(String, f64, &'static str)> {
    let served: Vec<&Done> = m
        .open
        .done
        .iter()
        .chain(&m.sat.done)
        .filter(|d| d.completed)
        .collect();
    let generated: Vec<&Done> = served.iter().copied().filter(|d| !d.cached).collect();
    let gen_n = generated.len() as f64;
    let col = |f: fn(&Done) -> f64| served.iter().map(|d| f(d)).collect::<Vec<f64>>();
    let queue = col(|d| d.queue_ms);
    let service = col(|d| d.service_ms);
    let totals = spans::totals_by_name(&m.spans);
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let counter = |s: &genedit_telemetry::MetricsSnapshot, name: &str| {
        s.counters.get(name).copied().unwrap_or(0) as f64
    };
    let hist = |s: &genedit_telemetry::MetricsSnapshot, name: &str| s.histograms.get(name).cloned();
    let rt = &m.runtime_metrics;
    let st = &m.store_metrics;
    let hit_pct = |s, hit: &str, miss: &str| {
        let h = counter(s, hit);
        pct(h, h + counter(s, miss))
    };
    let page_in = hist(st, genedit_telemetry::names::SERVE_TENANT_PAGE_IN);
    let b = &m.backend;
    let calls = m.usage.total_calls() as f64;
    let answers = answers as f64;
    let (fired, won) = m.hedge;
    let service_sum: f64 = service.iter().sum();
    let generate_sum: f64 = served.iter().map(|d| d.generate_ms).sum();
    let page_in_sum = page_in.as_ref().map_or(0.0, |h| h.sum);
    let owned: Vec<f64> = served
        .iter()
        .map(|d| d.service_ms - d.model_wait_ms)
        .collect();
    let index_builds: Vec<f64> = m
        .spans
        .iter()
        .filter(|s| s.name == "retrieval.index_build")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();

    let mut out: Vec<(String, f64, &'static str)> = vec![
        (
            "serve.queue_wait_p50_ms".into(),
            percentile(&queue, 50.0).value,
            "ms",
        ),
        (
            "serve.queue_wait_p99_ms".into(),
            percentile(&queue, 99.0).value,
            "ms",
        ),
        (
            "serve.service_p50_ms".into(),
            percentile(&service, 50.0).value,
            "ms",
        ),
        (
            "serve.service_p99_ms".into(),
            percentile(&service, 99.0).value,
            "ms",
        ),
        (
            "serve.threads_peak".into(),
            m.threads_peak as f64,
            "threads",
        ),
        (
            "serve.generator_late_max_ms".into(),
            m.open.late_max_ms,
            "ms",
        ),
        (
            "cache.result_hit_pct".into(),
            hit_pct(rt, "serve.cache.hit", "serve.cache.miss"),
            "%",
        ),
        (
            "cache.reform_hit_pct".into(),
            hit_pct(rt, "serve.reform.hit", "serve.reform.miss"),
            "%",
        ),
        (
            "tenants.dir_hit_pct".into(),
            hit_pct(st, "serve.tenant.hit", "serve.tenant.miss"),
            "%",
        ),
        (
            "tenants.page_in_p50_ms".into(),
            page_in.as_ref().map_or(0.0, |h| h.p50),
            "ms",
        ),
        (
            "tenants.page_in_p99_ms".into(),
            page_in.as_ref().map_or(0.0, |h| h.p99),
            "ms",
        ),
        (
            "tenants.pool_hit_pct".into(),
            hit_pct(
                st,
                genedit_telemetry::names::POOL_HIT,
                genedit_telemetry::names::POOL_MISS,
            ),
            "%",
        ),
        (
            "tenants.pool_evictions_per_req".into(),
            ratio(
                counter(st, genedit_telemetry::names::POOL_EVICTIONS),
                answers,
            ),
            "count",
        ),
    ];
    for (metric, span) in [
        ("core.reformulate_ms", "operator.reformulate"),
        ("core.intent_ms", "operator.intent"),
        ("core.examples_ms", "operator.examples"),
        ("core.instructions_ms", "operator.instructions"),
        ("core.schema_linking_ms", "operator.schema_linking"),
        ("core.plan_ms", "plan.generate"),
        ("core.sql_attempt_ms", "sql.attempt"),
        ("core.generate_self_ms", "pipeline.generate"),
    ] {
        out.push((metric.into(), ratio(self_ms(span), gen_n), "ms"));
    }
    out.push((
        "core.attempts_per_answer".into(),
        mean(
            &generated
                .iter()
                .map(|d| d.attempts as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    ));
    let r = &m.replay;
    out.extend([
        ("retrieval.embed_us".to_string(), mean(&r.embed_us), "us"),
        (
            "retrieval.embed_expanded_us".into(),
            mean(&r.embed_expanded_us),
            "us",
        ),
        (
            "retrieval.top_examples_us".into(),
            mean(&r.top_examples_us),
            "us",
        ),
        (
            "retrieval.top_instructions_us".into(),
            mean(&r.top_instructions_us),
            "us",
        ),
        (
            "retrieval.top_schema_us".into(),
            mean(&r.top_schema_us),
            "us",
        ),
        (
            "retrieval.index_build_ms".into(),
            median(&index_builds),
            "ms",
        ),
        (
            "llm.oracle_ms_per_call".into(),
            ratio(b.oracle_ns as f64 / 1e6, calls),
            "ms",
        ),
        (
            "llm.backend_wait_ms_per_answer".into(),
            ratio(b.sleep_ns as f64 / 1e6, answers),
            "ms",
        ),
        (
            "llm.round_trips_per_answer".into(),
            ratio(b.dispatches as f64, answers),
            "count",
        ),
        (
            "llm.batch_size_mean".into(),
            ratio(calls, b.dispatches as f64),
            "count",
        ),
        (
            "llm.batch_wait_p99_ms".into(),
            hist(rt, "batch.coalesce_wait.ms").map_or(0.0, |h| h.p99),
            "ms",
        ),
        (
            "llm.hedge_fired_pct".into(),
            pct(fired as f64, calls - fired as f64),
            "%",
        ),
        (
            "llm.hedge_won_pct".into(),
            pct(won as f64, fired as f64),
            "%",
        ),
    ]);
    for kind in ["reformulate", "intent", "schema-linking", "plan", "sql"] {
        out.push((
            format!("llm.calls.{kind}"),
            ratio(
                m.usage.calls.get(kind).copied().unwrap_or(0) as f64,
                answers,
            ),
            "calls",
        ));
    }
    let e = &m.edits;
    out.extend([
        ("sql.parse_us".to_string(), mean(&r.parse_us), "us"),
        ("sql.execute_us".into(), mean(&r.execute_us), "us"),
        (
            "sql.validate_ms".into(),
            ratio(total_ms("sql.validate"), gen_n),
            "ms",
        ),
        (
            "sql.rows_scanned_per_query".into(),
            mean(&r.rows_scanned),
            "count",
        ),
        ("knowledge.session_ms".into(), mean(&e.session_ms), "ms"),
        (
            "knowledge.regression_ms".into(),
            mean(&e.regression_ms),
            "ms",
        ),
        ("knowledge.commit_ms".into(), mean(&e.commit_ms), "ms"),
        (
            "knowledge.edit_live_p50_ms".into(),
            percentile(&e.live_ms, 50.0).value,
            "ms",
        ),
        (
            "knowledge.edit_live_p90_ms".into(),
            percentile(&e.live_ms, 90.0).value,
            "ms",
        ),
        (
            "knowledge.wal_bytes_per_commit".into(),
            mean(&e.wal_bytes),
            "bytes",
        ),
        (
            "knowledge.merged_pct".into(),
            pct(e.merged as f64, e.submitted as f64),
            "%",
        ),
        ("owned_ms_per_answer".into(), mean(&owned), "ms"),
        (
            "unattributed_pct".into(),
            pct(service_sum - generate_sum - page_in_sum, service_sum),
            "%",
        ),
        (
            "trace.overhead_pct".into(),
            m.untraced_capacity
                .map_or(0.0, |untraced| pct(untraced - m.sat.capacity_rps, untraced)),
            "%",
        ),
    ]);
    out
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A field of `/proc/self/status`, in its own units.
fn proc_status(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:") as f64 / 1024.0
}

fn threads_now() -> u64 {
    proc_status("Threads:")
}

/// The commit the checkout was made from, when it carries git metadata.
fn revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}
