//! Inputs: the four-domain enterprise, its knowledge sets (full and
//! day-0), the tenant store, and the seeded request streams. The program
//! only ever sees what these functions generate.

use crate::backend::mix;
use genedit_bird::Workload;
use genedit_knowledge::tenants::{TenantKnowledgeStore, TenantStoreConfig};
use genedit_knowledge::{Edit, KnowledgeSet, MemFs, StagingArea, StoreConfig, StoreFs};
use genedit_llm::{OracleModel, TaskKnowledge};
use genedit_sql::catalog::Database;
use genedit_telemetry::MetricsRegistry;
use std::sync::Arc;

/// The enterprise, before any tenant exists.
pub struct Inputs {
    pub workload: Workload,
    /// The four domains' tables in one database; their names are disjoint.
    pub db: Arc<Database>,
    /// Pre-processed knowledge per domain.
    pub full: Vec<KnowledgeSet>,
    /// Day-0 knowledge per domain: the three domain terms stripped, so
    /// SME feedback has something to teach.
    pub day0: Vec<KnowledgeSet>,
    /// The oracle, with each distinct task registered once.
    pub oracle: Arc<OracleModel>,
}

/// Seed of the enterprise itself. `--seed` draws the tenants, the request
/// streams and the backend's spikes; were it to seed the databases and
/// questions too, every seed would be a different enterprise and the
/// spread between seeds would measure the data rather than the code.
pub const DATA_SEED: u64 = 42;

impl Inputs {
    pub fn build() -> Inputs {
        let workload = Workload::standard(DATA_SEED);
        let full: Vec<KnowledgeSet> = workload
            .domains
            .iter()
            .map(|b| b.build_knowledge())
            .collect();
        let day0 = workload
            .domains
            .iter()
            .zip(&full)
            .map(|(b, ks)| strip_terms(ks, &[b.spec.our_term, b.spec.ratio_term, b.spec.qoq_term]))
            .collect();
        let mut db = Database::new("enterprise");
        for b in &workload.domains {
            for table in b.db.tables() {
                db.add_table(table.clone())
                    .expect("domain table names are disjoint");
            }
        }
        let oracle = Arc::new(OracleModel::new(workload.registry()));
        Inputs {
            workload,
            db: Arc::new(db),
            full,
            day0,
            oracle,
        }
    }

    pub fn tasks(&self, domain: usize) -> &[TaskKnowledge] {
        &self.workload.domains[domain].tasks
    }

    pub fn domains(&self) -> usize {
        self.workload.domains.len()
    }
}

/// Delete every instruction and example mentioning one of `terms`, the
/// way a deployment looks before SMEs have taught it the domain jargon.
fn strip_terms(ks: &KnowledgeSet, terms: &[&str]) -> KnowledgeSet {
    let mut ks = ks.clone();
    for term in terms {
        let upper = term.to_uppercase();
        let instructions: Vec<_> = ks
            .instructions()
            .iter()
            .filter(|i| i.retrieval_text().to_uppercase().contains(&upper))
            .map(|i| i.id)
            .collect();
        for id in instructions {
            ks.apply(Edit::DeleteInstruction { id })
                .expect("deleting a listed instruction");
        }
        let examples: Vec<_> = ks
            .examples()
            .iter()
            .filter(|e| e.retrieval_text().to_uppercase().contains(&upper))
            .map(|e| e.id)
            .collect();
        for id in examples {
            ks.apply(Edit::DeleteExample { id })
                .expect("deleting a listed example");
        }
    }
    ks
}

/// One tenant: a company deployed on one domain.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub domain: usize,
    pub day0: bool,
}

/// `count` tenants dealt round-robin over the domains.
pub fn tenants(prefix: &str, count: usize, domains: usize, day0: bool) -> Vec<Tenant> {
    (0..count)
        .map(|i| Tenant {
            name: format!("{prefix}{i:03}"),
            domain: i % domains,
            day0,
        })
        .collect()
}

/// The tenant store over an in-memory filesystem, with the metrics the
/// store, its buffer pool and the tenant directory publish.
pub struct TenantStore {
    pub fs: Arc<MemFs>,
    pub store: Arc<TenantKnowledgeStore>,
    pub metrics: Arc<MetricsRegistry>,
}

/// Buffer-pool budget: well below the bytes of the 200 cold tenants, so
/// page-ins keep evicting.
pub const POOL_BUDGET: usize = 512 * 1024;

impl TenantStore {
    pub fn new() -> TenantStore {
        let fs = Arc::new(MemFs::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let store = Arc::new(TenantKnowledgeStore::new_with(
            Arc::clone(&fs) as Arc<dyn StoreFs>,
            "/kb",
            TenantStoreConfig {
                page_size: 4096,
                pool_budget_bytes: POOL_BUDGET,
                shards: 16,
                store: StoreConfig::default(),
            },
            Some(Arc::clone(&metrics)),
        ));
        TenantStore { fs, store, metrics }
    }

    /// Seed a tenant by staging its knowledge set's whole edit log and
    /// committing it as one batch.
    pub fn seed(&self, tenant: &Tenant, ks: &KnowledgeSet) {
        let mut area = StagingArea::new();
        for logged in ks.log() {
            area.stage(logged.edit.clone());
        }
        self.store
            .commit(&tenant.name, area, "seed")
            .expect("seeding an in-memory store");
    }

    /// Bytes in the tenant's write-ahead log.
    pub fn wal_bytes(&self, tenant: &str) -> u64 {
        self.fs
            .len(std::path::Path::new(&format!("/kb/{tenant}/knowledge.wal")))
            .unwrap_or(0)
    }
}

/// How a workload picks (tenant, question) pairs.
#[derive(Debug, Clone)]
pub enum Draw {
    /// Tenant and question uniform: almost every pair is new.
    Uniform,
    /// Every pair once, in a seeded order, before any repeats.
    Permutation,
}

/// A deterministic request stream: position `i` always maps to the same
/// (tenant index, task index) for a given seed.
pub struct Stream {
    seed: u64,
    draw: Draw,
    tenant_domains: Vec<usize>,
    tasks_per_domain: Vec<usize>,
    /// Permutation: all pairs in seeded order.
    pairs: Vec<(usize, usize)>,
}

impl Stream {
    pub fn new(seed: u64, draw: Draw, tenants: &[Tenant], inputs: &Inputs) -> Stream {
        let tenant_domains: Vec<usize> = tenants.iter().map(|t| t.domain).collect();
        let tasks_per_domain: Vec<usize> = (0..inputs.domains())
            .map(|d| inputs.tasks(d).len())
            .collect();
        let mut pairs = Vec::new();
        if let Draw::Permutation = draw {
            for (ti, &d) in tenant_domains.iter().enumerate() {
                for task in 0..tasks_per_domain[d] {
                    pairs.push((ti, task));
                }
            }
            pairs.sort_by_key(|&(ti, task)| mix(seed ^ mix(((ti as u64) << 20) | task as u64)));
        }
        Stream {
            seed,
            draw,
            tenant_domains,
            tasks_per_domain,
            pairs,
        }
    }

    /// The (tenant, task) pair at stream position `i`.
    pub fn at(&self, i: u64) -> (usize, usize) {
        match &self.draw {
            Draw::Permutation => self.pairs[(i % self.pairs.len() as u64) as usize],
            Draw::Uniform => {
                let h = mix(self.seed ^ mix(0x5eed_0000 + i));
                let tenant = (h % self.tenant_domains.len() as u64) as usize;
                let n = self.tasks_per_domain[self.tenant_domains[tenant]] as u64;
                (tenant, (mix(h) % n) as usize)
            }
        }
    }
}
