//! Set-up, the serving phases and the correctness check of one run.
//!
//! A run sets the system up several times (the median is `setup_s`),
//! then drives the last instance through an open-loop phase at the
//! workload's fixed rate and a saturation phase that keeps a fixed number
//! of requests outstanding.

use crate::backend::SimBackend;
use crate::edits::ms;
use crate::inputs::{tenants, Inputs, Stream, Tenant, TenantStore};
use crate::spans::{covered_ns, Recorder};
use crate::workloads::{Spec, SME_TENANTS};
use genedit_core::{GenEditPipeline, GenerateOptions, GenerationResult, KnowledgeIndex};
use genedit_knowledge::KnowledgeSet;
use genedit_llm::RecordingModel;
use genedit_serve::{
    QueryOutcome, QueryRequest, Rejected, ServeConfig, ServeRuntime, TenantDirectory, Ticket,
};
use genedit_telemetry::{names, Span};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The model the runtime calls: the simulated backend, with calls and
/// prompt characters counted per task kind.
pub type Model = Arc<RecordingModel<SimBackend>>;

pub type Runtime = ServeRuntime<Model>;

/// One set-up instance: inputs, seeded tenant store, warm directory and
/// a started runtime.
pub struct System {
    pub inputs: Inputs,
    pub readers: Vec<Tenant>,
    pub sme: Vec<Tenant>,
    pub store: TenantStore,
    pub directory: Arc<TenantDirectory>,
    /// In-RAM index per domain, built from the full knowledge set.
    pub domain_index: Vec<KnowledgeIndex>,
    pub model: Model,
    pub runtime: Runtime,
}

/// Generate the inputs, pre-process knowledge, seed the tenant store,
/// build indexes and start the runtime.
pub fn set_up(spec: &Spec, seed: u64, rec: &Arc<Recorder>) -> System {
    let t0 = Instant::now();
    let inputs = Inputs::build();
    let t1 = Instant::now();
    let readers = tenants("tenant-", spec.read_tenants, inputs.domains(), false);
    // The SME works through day-0 tenants that nobody reads.
    let sme = tenants("sme-", SME_TENANTS, inputs.domains(), true);
    let store = TenantStore::new();
    for t in readers.iter().chain(&sme) {
        let ks = if t.day0 {
            &inputs.day0[t.domain]
        } else {
            &inputs.full[t.domain]
        };
        store.seed(t, ks);
    }
    let t2 = Instant::now();
    let domain_index: Vec<KnowledgeIndex> = inputs
        .full
        .iter()
        .map(|ks| {
            let s = Instant::now();
            let index = KnowledgeIndex::build(ks.clone());
            rec.record("retrieval.index_build", None, 0, s, Instant::now());
            index
        })
        .collect();
    let directory = Arc::new(TenantDirectory::with_metrics(
        Arc::clone(&store.store),
        spec.dir_capacity,
        Some(Arc::clone(&store.metrics)),
    ));
    if spec.warm {
        for t in &readers {
            directory
                .index_for(&t.name)
                .expect("a freshly seeded tenant pages in");
        }
    }
    let t3 = Instant::now();
    let model = Arc::new(RecordingModel::new(SimBackend::new(
        Arc::clone(&inputs.oracle),
        spec.remote,
        seed,
        Arc::clone(rec),
    )));
    let runtime = ServeRuntime::start(
        Arc::clone(&model),
        // Every tenant is known to the directory; the global snapshot is
        // never served.
        Arc::new(KnowledgeIndex::build(KnowledgeSet::new())),
        0,
        Arc::clone(&inputs.db),
        ServeConfig {
            workers: spec.workers,
            queue_capacity: 4096,
            pipeline: spec.pipeline.clone(),
            batch: spec.batch.clone(),
            ensemble_width: spec.ensemble,
            hedge: spec.hedge.clone(),
            tenants: Some(Arc::clone(&directory)),
            ..ServeConfig::default()
        },
    );
    let t4 = Instant::now();
    if rec.enabled() {
        let root = rec.record("setup", None, 0, t0, t4);
        rec.record("setup.inputs", Some(root), 0, t0, t1);
        rec.record("setup.seed_store", Some(root), 0, t1, t2);
        rec.record("setup.indexes", Some(root), 0, t2, t3);
        rec.record("setup.runtime", Some(root), 0, t3, t4);
    }
    System {
        inputs,
        readers,
        sme,
        store,
        directory,
        domain_index,
        model,
        runtime,
    }
}

/// Semantic fingerprint of a generation, excluding the trace (span
/// timings legitimately differ). Byte-for-byte comparable.
pub fn fingerprint(r: &GenerationResult) -> String {
    format!(
        "sql={:?}|reform={:?}|intents={:?}|ex={:?}|ins={:?}|schema={:?}|errors={:?}|validated={}",
        r.sql,
        r.reformulated,
        r.intents,
        r.used_examples,
        r.used_instructions,
        r.used_schema,
        r.errors,
        r.validated
    )
}

/// The serial pipeline's answer for every (domain, task): what a
/// completed request must reproduce exactly.
pub struct Reference {
    pub fingerprint: Vec<Vec<String>>,
}

impl Reference {
    pub fn new(spec: &Spec, sys: &System) -> Reference {
        let pipeline =
            GenEditPipeline::with_config(Arc::clone(&sys.inputs.oracle), spec.pipeline.clone());
        let opts = GenerateOptions {
            ensemble_width: spec.ensemble,
            ..GenerateOptions::default()
        };
        let fingerprint = (0..sys.inputs.domains())
            .map(|d| {
                sys.inputs
                    .tasks(d)
                    .iter()
                    .map(|t| {
                        fingerprint(&pipeline.generate_with(
                            &t.question,
                            &sys.domain_index[d],
                            &sys.inputs.db,
                            &[],
                            &opts,
                        ))
                    })
                    .collect()
            })
            .collect();
        Reference { fingerprint }
    }
}

/// One finished request, reduced to what the report and checks need.
#[derive(Debug, Clone)]
pub struct Done {
    pub tenant: usize,
    pub task: usize,
    pub completed: bool,
    pub status: String,
    /// Open loop: due time to completion. Saturation: submit to completion.
    pub latency_ms: f64,
    pub queue_ms: f64,
    pub service_ms: f64,
    pub cached: bool,
    pub fingerprint: String,
    pub sql: Option<String>,
    pub attempts: usize,
    /// Union of the request's model-call intervals.
    pub model_wait_ms: f64,
    /// The pipeline's root span (0 for cache hits).
    pub generate_ms: f64,
    pub reformulated: String,
    pub intents: Vec<String>,
    pub finished_at: Instant,
}

struct Pending {
    request: u64,
    tenant: usize,
    task: usize,
    due: Instant,
    submitted: Instant,
    ticket: Result<Ticket, Rejected>,
}

fn request_for(sys: &System, stream: &Stream, i: u64) -> (usize, usize, QueryRequest) {
    let (tenant, task) = stream.at(i);
    let t = &sys.readers[tenant];
    let question = &sys.inputs.tasks(t.domain)[task].question;
    (
        tenant,
        task,
        QueryRequest::new(t.name.clone(), question.clone()),
    )
}

/// Wait for a request and reduce its outcome. Recording: one `request`
/// span from due time to completion, with `client.late`,
/// `serve.queue_wait` and `serve.service` children and the pipeline's own
/// trace re-homed to end where the service time ends.
fn finish(p: Pending, rec: &Recorder) -> Done {
    let mut done = Done {
        tenant: p.tenant,
        task: p.task,
        completed: false,
        status: String::new(),
        latency_ms: 0.0,
        queue_ms: 0.0,
        service_ms: 0.0,
        cached: false,
        fingerprint: String::new(),
        sql: None,
        attempts: 0,
        model_wait_ms: 0.0,
        generate_ms: 0.0,
        reformulated: String::new(),
        intents: Vec::new(),
        finished_at: Instant::now(),
    };
    let ticket = match p.ticket {
        Ok(t) => t,
        Err(rejected) => {
            done.status = format!("rejected: {rejected:?}");
            return done;
        }
    };
    match ticket.wait() {
        QueryOutcome::Completed {
            result,
            cached,
            queue_wait,
            service,
            ..
        } => {
            let served_at = p.submitted + queue_wait;
            let end = served_at + service;
            done.completed = true;
            done.latency_ms = ms(due_latency(p.due, p.submitted, queue_wait, service).0);
            done.queue_ms = ms(queue_wait);
            done.service_ms = ms(service);
            done.cached = cached;
            done.fingerprint = fingerprint(&result);
            done.sql = result.sql.clone();
            done.attempts = result.attempts;
            done.finished_at = end;
            // A cache hit replays the trace of the generation it copies.
            if let Some(root) = result.trace.find(names::GENERATE).filter(|_| !cached) {
                done.generate_ms = ms(root.duration);
                done.model_wait_ms = model_wait_ns(root) as f64 / 1e6;
            }
            if rec.enabled() {
                let req = rec.record("request", None, p.request, p.due, end);
                rec.record("client.late", Some(req), p.request, p.due, p.submitted);
                rec.record(
                    "serve.queue_wait",
                    Some(req),
                    p.request,
                    p.submitted,
                    served_at,
                );
                let svc = rec.record("serve.service", Some(req), p.request, served_at, end);
                if !cached {
                    let gen = Duration::from_secs_f64(done.generate_ms / 1e3);
                    let origin = rec.offset(end).saturating_sub(gen.as_nanos() as u64);
                    rec.import_trace(&result.trace, svc, p.request, origin);
                }
            }
            done.reformulated = result.reformulated;
            done.intents = result.intents;
        }
        other => done.status = format!("{other:?}"),
    }
    done
}

/// Union of the `llm.complete` intervals under a pipeline root span.
fn model_wait_ns(root: &Span) -> u64 {
    let mut all = Vec::new();
    root.walk(&mut all);
    let calls: Vec<(u64, u64)> = all
        .iter()
        .filter(|s| s.name == names::LLM_COMPLETE)
        .map(|s| {
            let start = s.start.as_nanos() as u64;
            (start, start + s.duration.as_nanos() as u64)
        })
        .collect();
    let lo = root.start.as_nanos() as u64;
    covered_ns(&calls, lo, lo + root.duration.as_nanos() as u64)
}

/// Open loop: request `i` is due at `start + i / rate` and is sent then,
/// however far behind the runtime is.
pub struct OpenLoop {
    pub done: Vec<Done>,
    /// Largest delay between a request's due time and its submission.
    pub late_max_ms: f64,
}

/// Latency of a request counted from its due time, and how late the
/// generator sent it.
pub fn due_latency(
    due: Instant,
    submitted: Instant,
    queue_wait: Duration,
    service: Duration,
) -> (Duration, Duration) {
    let late = submitted.saturating_duration_since(due);
    (late + queue_wait + service, late)
}

/// Due time of request `i` of an open loop at `rate_rps` from `start`.
pub fn due_at(start: Instant, i: u64, rate_rps: f64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate_rps)
}

pub fn open_loop(
    sys: &System,
    stream: &Stream,
    first: u64,
    count: u64,
    rate_rps: f64,
    rec: &Recorder,
) -> OpenLoop {
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Pending>();
        let collector = scope.spawn(move || rx.into_iter().map(|p| finish(p, rec)).collect());
        let start = Instant::now() + Duration::from_millis(2);
        let mut late_max = Duration::ZERO;
        for i in 0..count {
            let due = due_at(start, i, rate_rps);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (tenant, task, request) = request_for(sys, stream, first + i);
            let submitted = Instant::now();
            late_max = late_max.max(due_latency(due, submitted, Duration::ZERO, Duration::ZERO).1);
            let ticket = sys.runtime.submit(request);
            tx.send(Pending {
                request: first + i + 1,
                tenant,
                task,
                due,
                submitted,
                ticket,
            })
            .expect("collector outlives the generator");
        }
        drop(tx);
        let done = collector.join().expect("collector thread does not panic");
        OpenLoop {
            done,
            late_max_ms: ms(late_max),
        }
    })
}

/// Saturation: `outstanding` clients each keep one request in flight
/// until the phase ends; completions per second inside the phase are the
/// capacity.
pub struct Saturation {
    pub done: Vec<Done>,
    pub capacity_rps: f64,
    /// Next unused stream position.
    pub next: u64,
}

pub fn saturate(
    sys: &System,
    stream: &Stream,
    first: u64,
    outstanding: usize,
    length: Duration,
    rec: &Recorder,
) -> Saturation {
    let counter = AtomicU64::new(first);
    let start = Instant::now();
    let end = start + length;
    let done: Vec<Done> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..outstanding)
            .map(|_| {
                let counter = &counter;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        let (tenant, task, request) = request_for(sys, stream, i);
                        let submitted = Instant::now();
                        let ticket = sys.runtime.submit(request);
                        out.push(finish(
                            Pending {
                                request: i + 1,
                                tenant,
                                task,
                                due: submitted,
                                submitted,
                                ticket,
                            },
                            rec,
                        ));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread does not panic"))
            .collect()
    });
    let finished: Vec<Instant> = done
        .iter()
        .filter(|d| d.completed)
        .map(|d| d.finished_at)
        .collect();
    Saturation {
        capacity_rps: sliced_rate(&finished, start, length),
        done,
        next: counter.load(Ordering::Relaxed),
    }
}

/// Slices a saturation phase is cut into for [`sliced_rate`].
const RATE_SLICES: u32 = 5;

/// Completions per second in each of [`RATE_SLICES`] equal slices of
/// `[start, start + length]`, reported as the median over the slices: a
/// stall of the host moves one slice's rate, not the result.
pub fn sliced_rate(finished: &[Instant], start: Instant, length: Duration) -> f64 {
    let slice = length / RATE_SLICES;
    let rates: Vec<f64> = (0..RATE_SLICES)
        .map(|i| {
            let lo = start + slice * i;
            let hi = lo + slice;
            let n = finished.iter().filter(|&&t| t > lo && t <= hi).count();
            n as f64 / slice.as_secs_f64()
        })
        .collect();
    crate::stats::median(&rates)
}

/// Per-call timings of the retrieval and SQL layers, replayed after the
/// serving phases on the inputs of served answers.
#[derive(Default)]
pub struct Replay {
    pub embed_us: Vec<f64>,
    pub embed_expanded_us: Vec<f64>,
    pub top_examples_us: Vec<f64>,
    pub top_instructions_us: Vec<f64>,
    pub top_schema_us: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub execute_us: Vec<f64>,
    pub rows_scanned: Vec<f64>,
}

/// Answers whose retrieval and SQL calls are replayed.
const REPLAY_SAMPLES: usize = 300;

/// Replay the retrieval calls the pipeline makes for an answer (the
/// reformulated question, its intents, the example-expanded query) on
/// the tenant's own index, and parse and execute its SQL, timing each
/// call into the retrieval and SQL crates.
pub fn replay_layers(sys: &System, spec: &Spec, done: &[Done], rec: &Recorder) -> Replay {
    let cfg = &spec.pipeline;
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    let mut out = Replay::default();
    for d in done
        .iter()
        .filter(|d| d.completed && !d.cached)
        .take(REPLAY_SAMPLES)
    {
        let Ok((_, index)) = sys.directory.index_for(&sys.readers[d.tenant].name) else {
            continue;
        };
        let t0 = Instant::now();
        let query = index.embedder().embed(&d.reformulated);
        let t1 = Instant::now();
        let examples = index.top_examples(&query, &d.intents, cfg.example_top_k);
        let t2 = Instant::now();
        let texts: Vec<String> = examples
            .iter()
            .map(|(e, _)| format!("{} {}", e.description, e.fragment.sql))
            .collect();
        let expansions: Vec<&str> = texts.iter().map(String::as_str).collect();
        let t3 = Instant::now();
        let expanded = index
            .embedder()
            .embed_expanded(&d.reformulated, &expansions);
        let t4 = Instant::now();
        let instructions = index.top_instructions(&expanded, &d.intents, cfg.instruction_top_k);
        let t5 = Instant::now();
        let schema = index.top_schema(&expanded, cfg.schema_top_k);
        let t6 = Instant::now();
        std::hint::black_box((&instructions, &schema));
        out.embed_us.push(us(t0, t1));
        out.top_examples_us.push(us(t1, t2));
        out.embed_expanded_us.push(us(t3, t4));
        out.top_instructions_us.push(us(t4, t5));
        out.top_schema_us.push(us(t5, t6));
        let root = rec.record("replay", None, 0, t0, t6);
        if rec.enabled() {
            rec.record("retrieval.embed", Some(root), 0, t0, t1);
            rec.record("retrieval.top_examples", Some(root), 0, t1, t2);
            rec.record("retrieval.embed_expanded", Some(root), 0, t3, t4);
            rec.record("retrieval.top_instructions", Some(root), 0, t4, t5);
            rec.record("retrieval.top_schema", Some(root), 0, t5, t6);
        }
        if let Some(sql) = &d.sql {
            let t = Instant::now();
            let (result, stats) = genedit_sql::exec::execute_sql_timed(&sys.inputs.db, sql);
            std::hint::black_box(&result);
            out.parse_us.push(stats.parse.as_secs_f64() * 1e6);
            out.execute_us.push(stats.execute.as_secs_f64() * 1e6);
            out.rows_scanned.push(stats.counters.rows_scanned as f64);
            if rec.enabled() {
                rec.record("sql.parse", Some(root), 0, t, t + stats.parse);
                rec.record(
                    "sql.execute",
                    Some(root),
                    0,
                    t + stats.parse,
                    t + stats.parse + stats.execute,
                );
            }
        }
    }
    out
}

/// Correctness: fingerprints against the serial reference. The tenants
/// being read are never edited, so the knowledge a request was served
/// with is fixed.
pub fn check_fingerprints(sys: &System, reference: &Reference, done: &[Done]) -> Vec<String> {
    let mut bad = Vec::new();
    for d in done.iter().filter(|d| d.completed) {
        let domain = sys.readers[d.tenant].domain;
        if d.fingerprint != reference.fingerprint[domain][d.task] {
            bad.push(format!(
                "{} task {}: served answer differs from the serial pipeline",
                sys.readers[d.tenant].name, d.task
            ));
        }
    }
    bad
}

/// Execution accuracy of the completed answers, memoised per (task, SQL).
pub fn ex_pct(sys: &System, done: &[Done]) -> f64 {
    let mut memo: HashMap<(usize, usize, Option<String>), bool> = HashMap::new();
    let mut right = 0usize;
    let mut total = 0usize;
    for d in done.iter().filter(|d| d.completed) {
        let domain = sys.readers[d.tenant].domain;
        let ok = *memo
            .entry((domain, d.task, d.sql.clone()))
            .or_insert_with(|| {
                let task = &sys.inputs.tasks(domain)[d.task];
                genedit_bird::score_prediction(&sys.inputs.db, &task.gold_sql, d.sql.as_deref()).0
            });
        total += 1;
        right += usize::from(ok);
    }
    crate::stats::pct(right as f64, total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_moves_one_slice_not_the_capacity() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        // 100 completions per second for 5 s, except that nothing
        // completes during a 600 ms stall in the third second.
        let finished: Vec<Instant> = (1..=500u64)
            .map(|i| at(i * 10))
            .filter(|t| !(at(2200)..at(2800)).contains(t))
            .collect();
        let rate = sliced_rate(&finished, start, Duration::from_secs(5));
        assert!((rate - 100.0).abs() < 1e-9, "{rate}");
        // Completions after the phase ends do not count.
        let late: Vec<Instant> = finished
            .iter()
            .map(|t| *t + Duration::from_secs(5))
            .collect();
        assert_eq!(sliced_rate(&late, start, Duration::from_secs(5)), 0.0);
    }

    #[test]
    fn open_loop_due_times_do_not_drift_with_lateness() {
        let start = Instant::now();
        // 50 rps: request 10 is due 200 ms in, however late 0..9 were.
        assert_eq!(due_at(start, 10, 50.0) - start, Duration::from_millis(200));
        assert_eq!(due_at(start, 0, 50.0), start);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at t, sent 5 ms late, queued 3 ms and served 2 ms: 10 ms
        // from its due time, of which the generator owes 5.
        let due = Instant::now();
        let submitted = due + Duration::from_millis(5);
        let (latency, late) = due_latency(
            due,
            submitted,
            Duration::from_millis(3),
            Duration::from_millis(2),
        );
        assert_eq!(latency, Duration::from_millis(10));
        assert_eq!(late, Duration::from_millis(5));
        // Sent early (a saturation client's due time is its submit time).
        let (latency, late) = due_latency(submitted, due, Duration::ZERO, Duration::from_millis(1));
        assert_eq!((latency, late), (Duration::from_millis(1), Duration::ZERO));
    }
}
