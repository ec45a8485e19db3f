//! The two service workloads and the loops that drive them.
//!
//! Every workload is a closed loop with one client: each
//! `Service::try_run_stream` call starts only after the previous one
//! returned, from this one process. A *cycle* is one establishment
//! (`Service::try_establish`) serving `per_establishment` decisions. The
//! inputs of every decision are unanimous and come from the run's seed,
//! so each decision's value is known in advance and checked
//! ([`crate::gate`]).

use crate::gate::{check_decision, Tally};
use crate::trace::Tracer;
use pba_core::protocol::{BaConfig, MultiValueOutcome, Service, StreamMode};
use pba_crypto::codec::{Decode, Encode};
use pba_crypto::{merkle, sha256};
use pba_net::corruption::CorruptionPlan;
use pba_srds::cache::CacheStats;
use pba_srds::snark::{SnarkSrds, SnarkSrdsConfig};
use pba_srds::Srds;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The SRDS construction a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// OWF SRDS as the repository's benches configure it
    /// (`pba_bench::bench_owf`).
    Owf,
    /// SNARK SRDS with 32 Lamport bits and an MSS tree just tall enough
    /// for one establishment's decisions.
    Snark,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// SRDS construction.
    pub scheme: SchemeKind,
    /// Parties.
    pub n: usize,
    /// Randomly corrupted parties; they stay silent.
    pub corrupt: usize,
    /// Round-engine worker threads (`BaConfig::threads`).
    pub threads: usize,
    /// Decisions one establishment serves.
    pub per_establishment: usize,
    /// How a stream schedules its instances. A pipelined stream puts
    /// all of an establishment's decisions into one `try_run_stream`
    /// call; a sequential one makes one call per decision.
    pub mode: StreamMode,
    /// Extra establishments timed before the loop, so `setup_s` is a
    /// median of several samples even when few cycles fit in a run.
    pub extra_setups: usize,
}

/// The workloads, by name. Why each exists is in `pibench/README.md`.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "owf-oneshot",
        scheme: SchemeKind::Owf,
        n: 1024,
        corrupt: 102,
        threads: 1,
        per_establishment: 1,
        mode: StreamMode::Sequential,
        extra_setups: 24,
    },
    Workload {
        name: "snark-pipeline",
        scheme: SchemeKind::Snark,
        n: 1024,
        corrupt: 0,
        threads: 2,
        per_establishment: 4,
        mode: StreamMode::Pipelined,
        extra_setups: 2,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    /// The workload's configuration. Its execution seed (setup keys,
    /// tree, corrupt set, honest randomness) is fixed, so every
    /// establishment of every run is the same deployment: OWF sortition
    /// and the random corrupt set move bytes and certificate size by
    /// ±15% from one execution seed to the next, which would swamp every
    /// bound. The run seed picks the decision inputs ([`Workload::value`]).
    pub fn config(&self) -> BaConfig {
        let exec_seed = format!("pibench/{}", self.name);
        let mut config = BaConfig::honest(self.n, exec_seed.as_bytes());
        if self.corrupt > 0 {
            config.corruption = CorruptionPlan::Random { t: self.corrupt };
        }
        config.with_threads(self.threads)
    }

    /// The unanimous one-byte input of decision `i` of cycle `cycle`.
    pub fn value(&self, seed: u64, cycle: u64, i: usize) -> Vec<u8> {
        let base = splitmix(seed) ^ splitmix((cycle << 32) | i as u64);
        vec![splitmix(base) as u8]
    }

    /// The SNARK scheme sized for one establishment's decisions: the MSS
    /// tree holds `2^⌈log₂ k⌉` one-time epoch slots.
    pub fn snark_scheme(&self) -> SnarkSrds {
        let k = self.per_establishment.max(2);
        SnarkSrds::new(SnarkSrdsConfig {
            mss_bits: 32,
            mss_height: k.next_power_of_two().trailing_zeros() as usize,
        })
    }
}

/// Counts that repeat exactly at a fixed seed: the north-star figures of
/// one fully served establishment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exact {
    /// Decisions the establishment served.
    pub decisions: usize,
    /// Largest honest party's sent + received bits over the
    /// establishment and all its decisions.
    pub max_bits_per_party: u64,
    /// Honest bytes sent by the decisions (establishment excluded).
    pub decision_bytes: u64,
    /// Clock rounds of the decisions, as the sequential schedule counts
    /// them (a pipelined stream's hidden rounds added back).
    pub rounds: u64,
    /// Rounds a pipelined stream hid inside successor committee phases.
    pub overlapped_rounds: u64,
    /// Certificate size of each decision, in settlement order.
    pub certificate_bytes: Vec<Option<usize>>,
    /// Honest bytes per Fig. 3 step label.
    pub step_bytes: BTreeMap<&'static str, u64>,
}

/// Process-wide crypto counters, read as before/after differences only:
/// their reset functions are single-threaded-entry only and would race
/// the round engine's worker pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct CryptoCounters {
    /// Digests the 8-lane SHA-256 core produced.
    pub lane_digests: u64,
    /// Digests the batch APIs handed to the scalar fallback.
    pub scalar_digests: u64,
    /// Merkle sibling-path cache hits.
    pub proof_hits: u64,
    /// Merkle sibling-path cache misses.
    pub proof_misses: u64,
}

impl CryptoCounters {
    /// Reads the counters.
    pub fn now() -> Self {
        let engine = sha256::engine_stats();
        let (proof_hits, proof_misses) = merkle::proof_cache_stats();
        CryptoCounters {
            lane_digests: engine.lane_digests,
            scalar_digests: engine.scalar_digests,
            proof_hits,
            proof_misses,
        }
    }

    /// Adds the counts between two readings.
    pub fn add_since(&mut self, before: &Self, after: &Self) {
        self.lane_digests += after.lane_digests - before.lane_digests;
        self.scalar_digests += after.scalar_digests - before.scalar_digests;
        self.proof_hits += after.proof_hits - before.proof_hits;
        self.proof_misses += after.proof_misses - before.proof_misses;
    }

    fn add(&mut self, other: &Self) {
        self.lane_digests += other.lane_digests;
        self.scalar_digests += other.scalar_digests;
        self.proof_hits += other.proof_hits;
        self.proof_misses += other.proof_misses;
    }
}

/// Layer counters accumulated over the decision calls of a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecisionCounters {
    /// Hash-engine and Merkle-cache counters.
    pub crypto: CryptoCounters,
    /// The scheme's certificate-cache counters.
    pub cache: CacheStats,
    /// Honest messages sent.
    pub msgs: u64,
}

impl DecisionCounters {
    /// Adds another set of counters to these.
    pub fn add(&mut self, other: &Self) {
        self.crypto.add(&other.crypto);
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.warm_hits += other.cache.warm_hits;
        self.msgs += other.msgs;
    }
}

/// One measured establishment and the decisions it served.
#[derive(Clone, Debug)]
pub struct Cycle {
    /// Wall time of `Service::try_establish`.
    pub setup: Duration,
    /// Wall time and instance count of each `try_run_stream` call.
    pub calls: Vec<(Duration, usize)>,
    /// Decisions that passed the gate.
    pub agreed: usize,
    /// Exact counts; `None` when the deadline cut the cycle short.
    pub exact: Option<Exact>,
    /// Largest communication-graph degree of an honest party.
    pub max_locality: u64,
    /// Layer counters over the decision calls.
    pub counters: DecisionCounters,
    /// Hash-engine and Merkle-cache counters over the establishment.
    pub setup_crypto: CryptoCounters,
}

fn within<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Times one `Service::try_establish` and drops the service.
pub fn time_setup<S>(w: &Workload, scheme: &S) -> Result<Duration, String>
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let config = w.config();
    let start = Instant::now();
    let service = Service::try_establish(scheme, &config).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    drop(service);
    Ok(elapsed)
}

/// Runs one cycle through `Service::try_run_stream`, checking every
/// decision. Decision calls stop once `deadline` passes; `None` runs the
/// whole cycle. Returns `None` when establishment failed (the decisions
/// it was to serve count as failed).
pub fn run_cycle<S>(
    w: &Workload,
    scheme: &S,
    seed: u64,
    cycle: u64,
    deadline: Option<Instant>,
    tally: &mut Tally,
    tracer: Option<&Tracer>,
) -> Option<Cycle>
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let config = w.config();
    let crypto_before = CryptoCounters::now();
    let start = Instant::now();
    let established = within(tracer, "establish", || {
        Service::try_establish(scheme, &config)
    });
    let setup = start.elapsed();
    let mut setup_crypto = CryptoCounters::default();
    setup_crypto.add_since(&crypto_before, &CryptoCounters::now());
    let mut service = match established {
        Ok(service) => service,
        Err(e) => {
            tally.record_lost(w.per_establishment, format!("establishment failed: {e}"));
            return None;
        }
    };
    let bytes_after_setup = service.report().total_bytes;
    let values: Vec<Vec<u8>> = (0..w.per_establishment)
        .map(|i| w.value(seed, cycle, i))
        .collect();
    let chunk = if w.mode == StreamMode::Pipelined {
        w.per_establishment
    } else {
        1
    };
    let mut calls = Vec::new();
    let mut agreed = 0;
    let mut rounds = 0;
    let mut overlapped_rounds = 0;
    let mut certificate_bytes = Vec::new();
    let mut counters = DecisionCounters::default();
    for batch in values.chunks(chunk) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let instances: Vec<Vec<Vec<u8>>> = batch.iter().map(|v| vec![v.clone(); w.n]).collect();
        let crypto_before = CryptoCounters::now();
        let cache_before = scheme.cache_stats().unwrap_or_default();
        let msgs_before = service.report().total_msgs;
        let call_start = Instant::now();
        let stream = within(tracer, "stream", || {
            service.try_run_stream(&instances, w.mode)
        });
        calls.push((call_start.elapsed(), batch.len()));
        counters
            .crypto
            .add_since(&crypto_before, &CryptoCounters::now());
        let cache_after = scheme.cache_stats().unwrap_or_default();
        counters.cache.hits += cache_after.hits - cache_before.hits;
        counters.cache.misses += cache_after.misses - cache_before.misses;
        counters.cache.warm_hits += cache_after.warm_hits - cache_before.warm_hits;
        counters.msgs += service.report().total_msgs - msgs_before;
        rounds += stream.total_rounds + stream.overlapped_rounds;
        overlapped_rounds += stream.overlapped_rounds;

        let tags_conserved = service.tags_conserve_totals();
        for (i, expected) in batch.iter().enumerate() {
            let verdict = match stream.instances.get(i) {
                Some(instance) => {
                    if let Ok(outcome) = &instance.result {
                        certificate_bytes.push(outcome.certificate_len);
                    }
                    check_decision(&instance.result, expected, tags_conserved)
                }
                None => Err("stream returned fewer instances than requested".into()),
            };
            agreed += usize::from(verdict.is_ok());
            tally.record(verdict);
        }
    }
    let report = service.report();
    let served: usize = calls.iter().map(|&(_, k)| k).sum();
    let exact = (served == w.per_establishment).then(|| Exact {
        decisions: served,
        max_bits_per_party: report.max_bits_per_party(),
        decision_bytes: report.total_bytes - bytes_after_setup,
        rounds,
        overlapped_rounds,
        certificate_bytes,
        step_bytes: step_bytes(service.steps().iter().map(|s| (s.label, s.total_bytes))),
    });
    Some(Cycle {
        setup,
        calls,
        agreed,
        exact,
        max_locality: report.max_locality,
        counters,
        setup_crypto,
    })
}

fn step_bytes(steps: impl Iterator<Item = (&'static str, u64)>) -> BTreeMap<&'static str, u64> {
    let mut by_label = BTreeMap::new();
    for (label, bytes) in steps {
        *by_label.entry(label).or_insert(0) += bytes;
    }
    by_label
}

/// The Fig. 3 step whose snapshot `Service` takes privately, and the
/// step-3 snapshot that absorbs its bytes when the phases are stepped one
/// at a time (see [`run_stepped_cycle`]).
const STEP_COMMITTEE: &str = "2:committee-ba+coin";
const STEP_DISSEMINATE: &str = "3:disseminate-(y,s)";

/// One establishment whose decisions were stepped phase by phase.
#[derive(Clone, Debug)]
pub struct SteppedCycle {
    /// Exact counts, comparable with the streamed cycle's.
    pub exact: Exact,
    /// Rounds the committee BA and coin phases ran.
    pub committee_rounds: u64,
}

/// Runs one cycle by calling the service's public phase methods one at a
/// time, each in its own span, in the order `Service::begin_instance`,
/// the private `agree_values` and `Service::certify_bytes` run them for a
/// sequential instance. The only step left out is the private leaf-budget
/// reservation, which does no protocol work.
///
/// `Service` takes its Fig. 3 step-2 snapshot privately, so its honest
/// bytes are measured here at the same boundary and moved out of the
/// step-3 snapshot that would otherwise absorb them.
pub fn run_stepped_cycle<S>(
    w: &Workload,
    scheme: &S,
    seed: u64,
    cycle: u64,
    tally: &mut Tally,
    tracer: &Tracer,
) -> Option<SteppedCycle>
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let config = w.config();
    let mut service = match tracer.span("establish", || Service::try_establish(scheme, &config)) {
        Ok(service) => service,
        Err(e) => {
            tally.record_lost(w.per_establishment, format!("establishment failed: {e}"));
            return None;
        }
    };
    let bytes_after_setup = service.report().total_bytes;
    let rounds_after_setup = service.net.metrics().rounds();
    let mut committee_bytes = 0;
    let mut committee_rounds = 0;
    let mut certificate_bytes = Vec::new();
    for i in 0..w.per_establishment {
        let expected = w.value(seed, cycle, i);
        let decided = tracer.span("decision", || {
            let bytes_before = service.report().total_bytes;
            if i > 0 {
                tracer.span("phase.chain_validate", || {
                    scheme.advance_cache_generation();
                    service.validate_chained_certificate();
                });
            }
            let rounds_before = service.net.metrics().rounds();
            let bits = vec![expected[0]; w.n];
            let committee = tracer.span("phase.fanin", || service.robust_committee_inputs(&bits));
            let value = vec![tracer.span("phase.committee_ba", || {
                service.try_committee_ba(&committee)
            })?];
            let coin = tracer.span("phase.coin", || service.try_committee_coin())?;
            committee_rounds += service.net.metrics().rounds() - rounds_before;
            committee_bytes += service.report().total_bytes - bytes_before;
            Ok(tracer.span("phase.certify", || service.certify_bytes(value, coin)))
        });
        let result = decided.map(|round| {
            let honest: Vec<Option<&Vec<u8>>> = service
                .honest()
                .iter()
                .map(|p| round.outputs[p.index()].as_ref())
                .collect();
            let agreement =
                honest.iter().all(Option::is_some) && honest.windows(2).all(|w| w[0] == w[1]);
            let validity = agreement && honest.first().copied().flatten() == Some(&expected);
            MultiValueOutcome {
                value: round.value,
                outputs: round.outputs,
                agreement,
                validity,
                certificate_len: round.certificate_len,
            }
        });
        if let Ok(outcome) = &result {
            certificate_bytes.push(outcome.certificate_len);
        }
        let failed = result.is_err();
        tally.record(check_decision(
            &result,
            &expected,
            service.tags_conserve_totals(),
        ));
        if failed {
            return None;
        }
    }
    let report = service.report();
    let mut steps = step_bytes(service.steps().iter().map(|s| (s.label, s.total_bytes)));
    let disseminate = steps.entry(STEP_DISSEMINATE).or_insert(0);
    *disseminate = disseminate.saturating_sub(committee_bytes);
    steps.insert(STEP_COMMITTEE, committee_bytes);
    Some(SteppedCycle {
        exact: Exact {
            decisions: w.per_establishment,
            max_bits_per_party: report.max_bits_per_party(),
            decision_bytes: report.total_bytes - bytes_after_setup,
            rounds: service.net.metrics().rounds() - rounds_after_setup,
            overlapped_rounds: 0,
            certificate_bytes,
            step_bytes: steps,
        },
        committee_rounds,
    })
}

/// Compares a stepped cycle with the streamed cycle of the same seed:
/// bits per party, bytes, rounds (hidden pipelined rounds counted) and
/// per-step bytes must match exactly.
pub fn compare_stepped(stream: &Exact, stepped: &Exact) -> Result<(), String> {
    let mut diffs = Vec::new();
    if stream.max_bits_per_party != stepped.max_bits_per_party {
        diffs.push(format!(
            "max bits/party {} vs {}",
            stream.max_bits_per_party, stepped.max_bits_per_party
        ));
    }
    if stream.decision_bytes != stepped.decision_bytes {
        diffs.push(format!(
            "decision bytes {} vs {}",
            stream.decision_bytes, stepped.decision_bytes
        ));
    }
    if stream.rounds != stepped.rounds {
        diffs.push(format!("rounds {} vs {}", stream.rounds, stepped.rounds));
    }
    if stream.step_bytes != stepped.step_bytes {
        diffs.push(format!(
            "step bytes {:?} vs {:?}",
            stream.step_bytes, stepped.step_bytes
        ));
    }
    if stream.certificate_bytes != stepped.certificate_bytes {
        diffs.push(format!(
            "certificates {:?} vs {:?}",
            stream.certificate_bytes, stepped.certificate_bytes
        ));
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "stepped run differs from the stream: {}",
            diffs.join("; ")
        ))
    }
}
