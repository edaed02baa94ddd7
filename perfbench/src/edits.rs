//! The SME writer: feedback sessions on day-0 tenants, each followed by
//! the regression test and a durable commit at the tenant's next epoch.

use crate::inputs::{Inputs, Tenant, TenantStore};
use crate::spans::Recorder;
use genedit_core::{
    run_regression, sme, FeedbackSession, GenEditPipeline, GoldenQuery, KnowledgeIndex,
};
use genedit_knowledge::KnowledgeSet;
use genedit_llm::OracleModel;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Golden questions guarding each merge, per domain.
const GOLDEN: usize = 5;

/// What the SME can work on: per domain, the tasks that fail on day-0
/// knowledge and draw feedback, and the passing ones that guard merges.
pub struct SmePlan {
    pub targets: Vec<Vec<usize>>,
    pub golden: Vec<Vec<GoldenQuery>>,
}

impl SmePlan {
    pub fn new(inputs: &Inputs, pipeline: &GenEditPipeline<Arc<OracleModel>>) -> SmePlan {
        let mut targets = Vec::new();
        let mut golden = Vec::new();
        for d in 0..inputs.domains() {
            let index = KnowledgeIndex::build(inputs.day0[d].clone());
            let mut t = Vec::new();
            let mut g = Vec::new();
            for (i, task) in inputs.tasks(d).iter().enumerate() {
                let r = pipeline.generate(&task.question, &index, &inputs.db, &[]);
                let (ok, _) =
                    genedit_bird::score_prediction(&inputs.db, &task.gold_sql, r.sql.as_deref());
                if ok {
                    if g.len() < GOLDEN {
                        g.push(GoldenQuery {
                            question: task.question.clone(),
                            gold_sql: task.gold_sql.clone(),
                        });
                    }
                } else if sme::feedback_for(task, r.sql.as_deref()).is_some() {
                    t.push(i);
                }
            }
            targets.push(t);
            golden.push(g);
        }
        SmePlan { targets, golden }
    }
}

/// Everything the writer measured, plus the in-RAM replay of every merge.
#[derive(Default)]
pub struct EditLog {
    /// Feedback submission -> commit at the new epoch, merged sessions.
    pub live_ms: Vec<f64>,
    pub session_ms: Vec<f64>,
    pub regression_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub wal_bytes: Vec<f64>,
    /// Sessions that drew feedback and went to the regression test.
    pub submitted: u64,
    pub merged: u64,
    /// Per tenant: its day-0 set with every merged session applied.
    pub replay: HashMap<String, KnowledgeSet>,
}

/// The SME at work: per tenant, the targets still to do, and everything
/// done so far.
pub struct Writer<'a> {
    inputs: &'a Inputs,
    store: &'a TenantStore,
    tenants: &'a [Tenant],
    plan: &'a SmePlan,
    pipeline: GenEditPipeline<Arc<OracleModel>>,
    queues: Vec<VecDeque<usize>>,
    next: usize,
    pub log: EditLog,
}

impl<'a> Writer<'a> {
    pub fn new(
        inputs: &'a Inputs,
        store: &'a TenantStore,
        tenants: &'a [Tenant],
        plan: &'a SmePlan,
    ) -> Writer<'a> {
        Writer {
            inputs,
            store,
            tenants,
            plan,
            pipeline: GenEditPipeline::new(Arc::clone(&inputs.oracle)),
            queues: tenants
                .iter()
                .map(|t| plan.targets[t.domain].iter().copied().collect())
                .collect(),
            next: 0,
            log: EditLog {
                replay: tenants
                    .iter()
                    .map(|t| (t.name.clone(), inputs.day0[t.domain].clone()))
                    .collect(),
                ..EditLog::default()
            },
        }
    }

    /// Run sessions back to back, round-robin over the tenants, until
    /// `want` sessions merged or the targets run out.
    pub fn run(mut self, want: usize, rec: &Recorder) -> EditLog {
        let (inputs, store, tenants, plan) = (self.inputs, self.store, self.tenants, self.plan);
        let pipeline = &self.pipeline;
        let log = &mut self.log;
        let queues = &mut self.queues;
        while (log.merged as usize) < want {
            let Some(ti) = (0..tenants.len())
                .map(|k| (self.next + k) % tenants.len())
                .find(|&k| !queues[k].is_empty())
            else {
                break;
            };
            self.next = ti + 1;
            let task_idx = queues[ti].pop_front().expect("queue checked non-empty");
            let tenant = &tenants[ti];
            let task = &inputs.tasks(tenant.domain)[task_idx];
            let deployed = store
                .store
                .snapshot(&tenant.name)
                .and_then(|s| s.knowledge_set())
                .expect("SME tenants are seeded");
            let mut session =
                FeedbackSession::open(pipeline, &inputs.db, &deployed, task.question.clone());
            // Earlier merges may already have fixed this question.
            let Some(feedback) = sme::feedback_for(task, session.latest.sql.as_deref()) else {
                continue;
            };
            let submitted = Instant::now();
            session.submit_feedback(&feedback);
            session.stage_all();
            session.regenerate();
            if let Some(again) = sme::feedback_for(task, session.latest.sql.as_deref()) {
                session.submit_feedback(&again);
                session.stage_all();
                session.regenerate();
            }
            let staging = session.into_staged();
            let staged = Instant::now();
            let outcome = run_regression(
                pipeline,
                &inputs.db,
                &deployed,
                &staging,
                &plan.golden[tenant.domain],
            )
            .expect("staged edits apply to the view they were made against");
            let tested = Instant::now();
            log.submitted += 1;
            log.session_ms.push(ms(staged - submitted));
            log.regression_ms.push(ms(tested - staged));
            let mut end = tested;
            if outcome.passed() && !staging.is_empty() {
                let label = format!("sme {} on {}", task.task_id, tenant.name);
                let wal_before = store.wal_bytes(&tenant.name);
                store
                    .store
                    .commit(&tenant.name, staging.clone(), &label)
                    .expect("committing to an in-memory store");
                end = Instant::now();
                log.wal_bytes
                    .push(store.wal_bytes(&tenant.name).saturating_sub(wal_before) as f64);
                log.commit_ms.push(ms(end - tested));
                log.live_ms.push(ms(end - submitted));
                log.merged += 1;
                staging
                    .commit(
                        log.replay
                            .get_mut(&tenant.name)
                            .expect("replay holds every SME tenant"),
                        &label,
                    )
                    .expect("a merge that applied durably applies in RAM");
            }
            if rec.enabled() {
                let edit = rec.record("knowledge.edit", None, 0, submitted, end);
                rec.record("knowledge.session", Some(edit), 0, submitted, staged);
                rec.record("knowledge.regression", Some(edit), 0, staged, tested);
                if end > tested {
                    rec.record("knowledge.commit", Some(edit), 0, tested, end);
                }
            }
        }
        self.log
    }
}

/// Whether each SME tenant's paged-in knowledge equals its RAM replay.
pub fn check_replay(store: &TenantStore, log: &EditLog) -> Vec<String> {
    let mut bad = Vec::new();
    let mut names: Vec<&String> = log.replay.keys().collect();
    names.sort();
    for name in names {
        let paged = store.store.snapshot(name).and_then(|s| s.knowledge_set());
        match paged {
            Ok(ks) if ks.content_eq(&log.replay[name]) => {}
            Ok(_) => bad.push(format!(
                "{name}: paged-in knowledge differs from the RAM replay"
            )),
            Err(e) => bad.push(format!("{name}: page-in failed: {e}")),
        }
    }
    bad
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
