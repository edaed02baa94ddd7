//! The model backend the runtime calls: the in-process oracle, optionally
//! behind a simulated remote endpoint. A batch is one round trip of
//! `rtt + per_item * n (+ spike)`: the oracle answers every item, and one
//! sleep fills the rest of the round trip. Spikes are drawn per dispatch
//! from the seed, so the i-th dispatch of a run spikes or not independent
//! of thread timing.
//!
//! This is deliberately not `FaultInjector`: that wrapper has no
//! `complete_batch` override, so it would serialise a coalesced batch
//! item by item and charge each item a round trip. Calls and prompt
//! characters per task kind are counted by the `RecordingModel` that
//! wraps it, which forwards a batch in one call.

use crate::spans::Recorder;
use genedit_llm::{CompletionRequest, CompletionResponse, LanguageModel, ModelError, OracleModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Latency profile of the simulated remote endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteProfile {
    /// Fixed network round trip per dispatch.
    pub rtt: Duration,
    /// Added per item in the dispatch (server-side batch cost).
    pub per_item: Duration,
    /// Probability that a dispatch is hit by a latency spike.
    pub spike_prob: f64,
    /// Extra delay of a spiked dispatch.
    pub spike: Duration,
}

/// Counters accumulated by the backend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendStats {
    /// Backend round trips (one per `complete_batch` call).
    pub dispatches: u64,
    /// Sleeps taken (at most one per dispatch).
    pub sleeps: u64,
    /// Dispatches that drew a spike.
    pub spikes: u64,
    /// Simulated time slept: the round trip minus the oracle's work.
    pub sleep_ns: u64,
    /// Time inside the oracle.
    pub oracle_ns: u64,
}

/// Oracle (+ optional remote profile) with dispatch accounting.
pub struct SimBackend {
    oracle: Arc<OracleModel>,
    remote: Option<RemoteProfile>,
    seed: u64,
    next_dispatch: AtomicU64,
    stats: Mutex<BackendStats>,
    recorder: Arc<Recorder>,
}

/// splitmix64: the benchmark's one source of seeded randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform draw in [0, 1) from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl SimBackend {
    pub fn new(
        oracle: Arc<OracleModel>,
        remote: Option<RemoteProfile>,
        seed: u64,
        recorder: Arc<Recorder>,
    ) -> SimBackend {
        SimBackend {
            oracle,
            remote,
            seed,
            next_dispatch: AtomicU64::new(0),
            stats: Mutex::new(BackendStats::default()),
            recorder,
        }
    }

    pub fn stats(&self) -> BackendStats {
        self.stats
            .lock()
            .expect("stats lock is never held across a panic")
            .clone()
    }

    /// The simulated wait of dispatch number `n` carrying `items` items.
    fn wait_for(&self, n: u64, items: usize) -> (Duration, bool) {
        let Some(p) = self.remote else {
            return (Duration::ZERO, false);
        };
        let spiked = unit(mix(self.seed ^ mix(n))) < p.spike_prob;
        let mut wait = p.rtt + p.per_item * items as u32;
        if spiked {
            wait += p.spike;
        }
        (wait, spiked)
    }
}

impl LanguageModel for SimBackend {
    fn name(&self) -> &str {
        self.oracle.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        self.complete_batch(std::slice::from_ref(request))
            .pop()
            .expect("complete_batch answers every item")
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Vec<Result<CompletionResponse, ModelError>> {
        let n = self.next_dispatch.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let (wait, spiked) = self.wait_for(n, requests.len());
        let out: Vec<_> = requests.iter().map(|r| self.oracle.complete(r)).collect();
        let answered = Instant::now();
        // A remote model answers while the request is on the wire: the
        // oracle's work is part of the round trip, not added to it.
        let slept = match (started + wait).checked_duration_since(answered) {
            Some(rest) if !wait.is_zero() => {
                std::thread::sleep(rest);
                rest
            }
            _ => Duration::ZERO,
        };
        let ended = Instant::now();
        if self.recorder.enabled() {
            let id = self
                .recorder
                .record("llm.dispatch", None, 0, started, ended);
            self.recorder
                .record("llm.oracle", Some(id), 0, started, answered);
            if !slept.is_zero() {
                self.recorder
                    .record("llm.sim_wait", Some(id), 0, answered, ended);
            }
        }
        let mut s = self
            .stats
            .lock()
            .expect("stats lock is never held across a panic");
        s.dispatches += 1;
        if !slept.is_zero() {
            s.sleeps += 1;
            s.sleep_ns += slept.as_nanos() as u64;
        }
        s.spikes += u64::from(spiked);
        s.oracle_ns += (answered - started).as_nanos() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_llm::{Prompt, RecordingModel, TaskKind, TaskRegistry};

    fn backend(remote: Option<RemoteProfile>) -> SimBackend {
        SimBackend::new(
            Arc::new(OracleModel::new(TaskRegistry::new())),
            remote,
            7,
            Arc::new(Recorder::new(true)),
        )
    }

    #[test]
    fn a_batch_is_one_sleep() {
        let rtt = Duration::from_millis(30);
        // Wrapped as the runtime sees it: the accounting layer must hand
        // the batch on in one call.
        let b = RecordingModel::new(backend(Some(RemoteProfile {
            rtt,
            per_item: Duration::from_millis(1),
            spike_prob: 0.0,
            spike: Duration::from_millis(500),
        })));
        let requests: Vec<CompletionRequest> = (0..6)
            .map(|i| {
                CompletionRequest::new(Prompt::new(TaskKind::Reformulate, format!("list item {i}")))
            })
            .collect();
        let started = Instant::now();
        let out = b.complete_batch(&requests);
        let elapsed = started.elapsed();
        assert_eq!(out.len(), 6);
        let s = b.inner().stats();
        assert_eq!((s.dispatches, s.sleeps), (1, 1));
        assert_eq!(b.usage().calls["reformulate"], 6);
        // Six items cost one round trip plus six per-item increments,
        // never six round trips.
        assert!(elapsed >= rtt + Duration::from_millis(6));
        assert!(elapsed < rtt * 3, "batch took {elapsed:?}");
    }

    #[test]
    fn spikes_follow_the_dispatch_number_not_the_clock() {
        let profile = RemoteProfile {
            rtt: Duration::ZERO,
            per_item: Duration::ZERO,
            spike_prob: 0.3,
            spike: Duration::from_millis(1),
        };
        let a = backend(Some(profile));
        let b = backend(Some(profile));
        let draws_a: Vec<bool> = (0..200).map(|n| a.wait_for(n, 1).1).collect();
        let draws_b: Vec<bool> = (0..200).map(|n| b.wait_for(n, 1).1).collect();
        assert_eq!(draws_a, draws_b);
        let spiked = draws_a.iter().filter(|s| **s).count();
        assert!((30..90).contains(&spiked), "{spiked} of 200 spiked");
    }

    #[test]
    fn in_process_backend_never_sleeps() {
        let b = backend(None);
        let r = CompletionRequest::new(Prompt::new(TaskKind::Reformulate, "list teams"));
        b.complete(&r).ok();
        let s = b.stats();
        assert_eq!((s.dispatches, s.sleeps, s.sleep_ns), (1, 0, 0));
    }
}
