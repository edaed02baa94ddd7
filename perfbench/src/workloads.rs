//! The two traffic mixes. Each names the layers it loads and the ones
//! it bypasses, so that a change to one layer has a workload where it
//! should show and one where it should not.

use crate::backend::RemoteProfile;
use crate::inputs::Draw;
use genedit_core::{CandidateSelection, PipelineConfig};
use genedit_llm::{AdaptiveWindow, BatchConfig, HedgePolicy};
use std::time::Duration;

/// One workload's inputs and serving configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Tenants the read stream touches.
    pub read_tenants: usize,
    /// Indexes the tenant directory keeps resident.
    pub dir_capacity: usize,
    /// Page every read tenant in during set-up.
    pub warm: bool,
    pub draw: Draw,
    /// Open-loop arrival rate.
    pub rate_rps: f64,
    /// Latency limit for `slo_met_pct`.
    pub slo_ms: f64,
    pub workers: usize,
    /// Requests kept outstanding in the saturation phase.
    pub outstanding: usize,
    pub remote: Option<RemoteProfile>,
    pub batch: BatchConfig,
    pub hedge: HedgePolicy,
    pub ensemble: Option<usize>,
    pub pipeline: PipelineConfig,
}

/// Merged sessions the SME writer runs in a run: enough for ten samples
/// beyond the p90.
pub const EDIT_SESSIONS: usize = 111;

/// Day-0 tenants the SME works through, none of them read; each merges
/// about four sessions before its domain terms are all taught, so 64
/// supply enough sessions.
pub const SME_TENANTS: usize = 64;

pub const NAMES: [&str; 2] = ["cold_tenants", "remote_llm"];

pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        why: "",
        read_tenants: 0,
        dir_capacity: 0,
        warm: false,
        draw: Draw::Uniform,
        rate_rps: 0.0,
        slo_ms: 0.0,
        workers: 2,
        outstanding: 8,
        remote: None,
        batch: BatchConfig::disabled(),
        hedge: HedgePolicy::disabled(),
        ensemble: None,
        pipeline: PipelineConfig::default(),
    };
    Some(match name {
        "cold_tenants" => Spec {
            name: "cold_tenants",
            why: "200 tenants through a 32-slot directory, uniform questions: page-in, operators, \
                  retrieval and SQL validation dominate; caches bypassed",
            read_tenants: 200,
            dir_capacity: 32,
            draw: Draw::Uniform,
            // Three windows of 1000 open-loop requests in a 50 s run, so
            // the reported p99 is the middle of three windows' values.
            rate_rps: 100.0,
            slo_ms: 60.0,
            ..base
        },
        "remote_llm" => Spec {
            name: "remote_llm",
            why: "remote model with spikes, adaptive batching, hedging and a 3-wide ensemble: \
                  model wait, coalescing and hedge duplicates dominate; owned CPU is small",
            // 64 tenants x 33 questions: a pair comes back only after
            // 2111 others, long after the 256-entry caches dropped it.
            read_tenants: 64,
            dir_capacity: 128,
            warm: true,
            draw: Draw::Permutation,
            rate_rps: 45.0,
            slo_ms: 250.0,
            // Workers mostly wait on the model, so there are more than cores.
            workers: 16,
            outstanding: 48,
            remote: Some(RemoteProfile {
                rtt: Duration::from_millis(5),
                per_item: Duration::from_micros(250),
                spike_prob: 0.02,
                spike: Duration::from_millis(40),
            }),
            batch: BatchConfig {
                adaptive: Some(AdaptiveWindow::default()),
                ..BatchConfig::default()
            },
            hedge: HedgePolicy::default(),
            ensemble: Some(3),
            pipeline: PipelineConfig {
                candidate_selection: CandidateSelection::MajorityResult,
                ..PipelineConfig::default()
            },
        },
        _ => return None,
    })
}
