//! The balanced Byzantine agreement protocol `π_ba` (Figure 3): boosting
//! almost-everywhere agreement to full agreement with `polylog(n)` bits per
//! party, generic over the SRDS scheme.
//!
//! The protocol runs in the hybrid model of §3.1 and this implementation
//! realizes each functionality as documented in DESIGN.md:
//!
//! | Fig. 3 step | realization |
//! |---|---|
//! | setup | per-virtual-identity SRDS keys (`idmap` = tree slots) |
//! | 1 | `f_ae-comm`: tree built post-corruption + KSSV cost accounting |
//! | 2 | `f_ba` = phase-king among the supreme committee; `f_ct` = commit–echo–reveal + phase-king |
//! | 3 | metered tree dissemination of `(y, s)` |
//! | 4 | every virtual identity signs its received `(y_i, s_i)` and submits to its leaf committee |
//! | 5 | per-node: step-5b exchange (metered), step-5c range filter, `f_aggr-sig` majority aggregation |
//! | 6 | metered tree dissemination of `(y, s, σ_root)` |
//! | 7–8 | PRF-subset spread `F_s(i)` + receiver-side filter and SRDS verification |
//!
//! All communication — real envelopes or metered functionality calls — is
//! charged through [`pba_net::metrics`], which is what the Table 1 harness
//! measures. The execution is factored into a long-lived [`Service`]
//! (establishment happens once: tree, keys, CRS, peer state) and
//! per-agreement [`Instance`]s that borrow it — each instance draws one
//! slot of the establishment's one-time signing budget and the certificate
//! cache stays warm across instances. [`Service::try_run_stream`] runs
//! many instances over one establishment (sequentially or pipelined in the
//! Fast-HotStuff chaining shape), which is what the broadcast corollary
//! and the decisions/sec benchmark build on. `Session` remains as an
//! alias for the service type.

use crate::aggr::{charge_aggr_round, f_aggr_sig_uniform};
use crate::phase_king::{rounds_for, PhaseKing, PkMsg};
use crate::vss_coin::toss_coin_vss_driven;
use pba_aetree::analysis::{adaptive_targets, TreeAnalysis};
use pba_aetree::fae::{charge_establishment, constant_adversary, disseminate, honest_adversary};
use pba_aetree::params::TreeParams;
use pba_aetree::robust::{ascend, dedup_committee, robust_input_fanin, robust_input_fanin_with};
use pba_aetree::tree::Tree;
use pba_crypto::codec::{decode_from_slice, encode_to_vec, CodecError, Decode, Encode, Reader};
use pba_crypto::mss::LeafBudget;
use pba_crypto::prf::SubsetPrf;
use pba_crypto::prg::Prg;
use pba_crypto::sha256::Digest;
use pba_net::corruption::CorruptionPlan;
use pba_net::faults::StrategySpec;
use pba_net::runner::{
    run_phase_driven, run_phase_overlapped, AdvSender, Adversary, PhaseOutcome, RoundDriver,
};
use pba_net::wire::{self, step, tag};
use pba_net::{Envelope, Machine, Network, PartyId, Report, TagBreakdown, Transport, WireMsg};
use pba_srds::cache::CacheStats;
use pba_srds::traits::Srds;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

/// How the `f_ae-comm` tree is established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Establishment {
    /// Build the tree from post-corruption randomness and charge every
    /// party the documented polylog cost of the KSSV protocol
    /// ([`pba_aetree::fae::charge_establishment`]). Fast; the default.
    Charged,
    /// Run the interactive tournament election ([`crate::kssv`]) with real
    /// metered messages.
    Interactive,
}

impl Establishment {
    /// Short label for tables and seed derivation.
    pub fn label(&self) -> &'static str {
        match self {
            Establishment::Charged => "charged",
            Establishment::Interactive => "interactive",
        }
    }
}

/// How per-virtual-identity signing keys are instantiated.
///
/// Key *derivation* is a pure function of the session PRG — party `i`'s
/// `j`-th key pair always comes from `prg.child("party-keys", i).child("slot", j)`
/// — so every policy yields bit-identical verification keys, transcripts
/// and outcomes; the policies differ only in *when* (and for Sampled,
/// *whether*) the signing half is materialized in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyPolicy {
    /// Generate and hold all `n × (z + 2)` key pairs at establishment.
    /// Simple, but the MSS signing material dominates memory at large `n`
    /// (the 2^20 blocker named in ROADMAP "Million-party simulation").
    Eager,
    /// Hold no signing keys: re-derive each from the session PRG at the
    /// moment of signing. Verification keys are still derived once at
    /// establishment (the keyboard needs all of them). Bit-identical to
    /// [`KeyPolicy::Eager`] in every observable.
    Lazy,
    /// [`KeyPolicy::Lazy`], plus only parties serving on a *viable* leaf
    /// path (every committee from their leaf to the root keeps its corrupt
    /// members a strict minority) may materialize signing keys; touching
    /// any other party's keys is a structured [`KeyError`]. Signatures
    /// from non-viable leaves can never survive the redundant-path ascent,
    /// so agreement verdicts are unchanged — but per-party *metering* of
    /// doomed signers differs from Eager/Lazy, so this policy is for
    /// capacity sweeps, not for transcript-equivalence tests.
    Sampled,
}

/// Structured error for signing-key material the service cannot provide:
/// a party whose keys the [`KeyPolicy`] declined to instantiate, or an
/// instance the establishment's one-time signing capacity cannot cover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyError {
    /// The Sampled policy left this party's keys unmaterialized.
    NotInstantiated {
        /// The party whose keys were requested.
        party: PartyId,
        /// The per-party key occurrence index requested.
        key_index: usize,
    },
    /// The establishment's one-time signing budget (the MSS leaf
    /// capacity, one epoch slot per agreement instance) is spent.
    BudgetExhausted {
        /// The instance that requested a slot.
        instance: u64,
        /// The establishment's total one-time signing capacity.
        capacity: u64,
    },
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::NotInstantiated { party, key_index } => write!(
                f,
                "signing key {key_index} of party {party} is not instantiated under the Sampled key policy"
            ),
            KeyError::BudgetExhausted { instance, capacity } => write!(
                f,
                "instance {instance} exceeds the establishment's one-time signing budget of {capacity} epoch slot(s)"
            ),
        }
    }
}

impl std::error::Error for KeyError {}

/// A signing key obtained from [`Session::signing_key`]: borrowed from the
/// eager store, or freshly derived (owned) under a lazy policy.
pub enum KeyHandle<'a, S: Srds> {
    /// Borrowed from the eager key store.
    Borrowed(&'a S::SigningKey),
    /// Re-derived on demand from the session PRG.
    Owned(S::SigningKey),
}

impl<S: Srds> KeyHandle<'_, S> {
    /// The signing key.
    pub fn key(&self) -> &S::SigningKey {
        match self {
            KeyHandle::Borrowed(sk) => sk,
            KeyHandle::Owned(sk) => sk,
        }
    }
}

// Variant names only: `S::SigningKey` is secret material and need not
// (and must not) be `Debug` itself.
impl<S: Srds> std::fmt::Debug for KeyHandle<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyHandle::Borrowed(_) => f.write_str("KeyHandle::Borrowed(..)"),
            KeyHandle::Owned(_) => f.write_str("KeyHandle::Owned(..)"),
        }
    }
}

/// Per-party signing-key material, governed by [`KeyPolicy`].
enum KeyStore<S: Srds> {
    /// `keys[party][j]` = the party's `j`-th key pair.
    Eager(Vec<Vec<(S::VerificationKey, S::SigningKey)>>),
    /// No stored signing keys; re-derived from the session PRG on demand.
    /// `instantiable` (the Sampled policy) gates which parties may.
    Lazy { instantiable: Option<Vec<bool>> },
}

/// Which parties the Sampled policy lets materialize signing keys: the
/// members of every leaf committee whose full path to the root keeps
/// corrupt members a strict minority of each (deduplicated) committee.
/// Signatures originating at any other leaf lose every redundant-path
/// vote on the way up ([`pba_aetree::robust`]), so withholding those
/// parties' keys cannot change what reaches the root.
fn sampled_mask(tree: &Tree, corrupt: &BTreeSet<PartyId>) -> Vec<bool> {
    let params = tree.params();
    let mut mask = vec![false; params.n];
    for leaf in 0..params.leaf_count {
        let mut viable = true;
        let (mut level, mut node) = (0usize, leaf);
        loop {
            let committee = dedup_committee(tree.committee(level, node));
            let bad = committee.iter().filter(|p| corrupt.contains(p)).count();
            if 2 * bad >= committee.len() {
                viable = false;
                break;
            }
            if level + 1 >= params.height {
                break;
            }
            node /= params.branching;
            level += 1;
        }
        if viable {
            for &member in tree.committee(0, leaf) {
                mask[member.index()] = true;
            }
        }
    }
    mask
}

/// How corrupted parties behave during the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryProfile {
    /// Corrupted parties are silent (crash faults).
    Passive,
    /// Corrupted parties equivocate in committee protocols, push garbage
    /// during dissemination, sign divergent messages, and withhold
    /// aggregates at bad nodes.
    Byzantine,
}

/// Configuration of one `π_ba` execution.
#[derive(Clone, Debug)]
pub struct BaConfig {
    /// Number of protocol parties.
    pub n: usize,
    /// Leaf memberships per party (Def. 3.4's `z`).
    pub z: usize,
    /// How the corrupt set is chosen.
    pub corruption: CorruptionPlan,
    /// Behaviour of corrupted parties.
    pub profile: AdversaryProfile,
    /// Execution seed (drives setup, tree, and all honest randomness).
    pub seed: Vec<u8>,
    /// How the communication tree is established.
    pub establishment: Establishment,
    /// Optional fault-injection strategy for the committee sub-protocols.
    /// When set, it replaces the [`AdversaryProfile`]-derived committee
    /// adversary (the profile still governs dissemination/aggregation
    /// misbehaviour). Built deterministically from the execution seed.
    pub chaos: Option<StrategySpec>,
    /// Worker threads for the committee sub-protocol round engine
    /// (`0` and `1` both mean sequential). Larger values run honest
    /// machines on a phase-persistent work-stealing pool with
    /// cost-balanced chunks; any value — including more threads than
    /// parties — yields a bit-identical execution (see
    /// [`pba_net::run_phase_threaded`]), so this is purely a wall-clock
    /// knob.
    pub threads: usize,
    /// When signing-key material is instantiated (see [`KeyPolicy`]).
    pub key_policy: KeyPolicy,
    /// Attach the dense metrics reference as a differential shadow behind
    /// the sparse table ([`pba_net::Network::enable_metrics_shadow`]).
    /// Test-only knob: doubles metering cost and restores the dense
    /// table's O(n) memory.
    pub dense_shadow: bool,
}

impl BaConfig {
    /// An honest-run configuration.
    pub fn honest(n: usize, seed: &[u8]) -> Self {
        BaConfig {
            n,
            z: 2,
            corruption: CorruptionPlan::None,
            profile: AdversaryProfile::Passive,
            seed: seed.to_vec(),
            establishment: Establishment::Charged,
            chaos: None,
            threads: 1,
            key_policy: KeyPolicy::Eager,
            dense_shadow: false,
        }
    }

    /// A run with `t` random Byzantine corruptions.
    pub fn byzantine(n: usize, t: usize, seed: &[u8]) -> Self {
        BaConfig {
            n,
            z: 2,
            corruption: CorruptionPlan::Random { t },
            profile: AdversaryProfile::Byzantine,
            seed: seed.to_vec(),
            establishment: Establishment::Charged,
            chaos: None,
            threads: 1,
            key_policy: KeyPolicy::Eager,
            dense_shadow: false,
        }
    }

    /// Returns the configuration with the round-engine thread count set.
    /// `0` is accepted and runs the sequential engine, as does `1`; the
    /// runner caps the pool at the machine count, so over-subscription is
    /// safe too.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the configuration with the given key policy.
    pub fn with_key_policy(mut self, policy: KeyPolicy) -> Self {
        self.key_policy = policy;
        self
    }

    /// Returns the configuration with the dense metrics shadow attached
    /// (differential testing of the sparse table).
    pub fn with_dense_shadow(mut self) -> Self {
        self.dense_shadow = true;
        self
    }
}

/// The phase of `π_ba` a failure is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolPhase {
    /// Session establishment (setup, corruption, `f_ae-comm`).
    Establishment,
    /// Step 2a: `f_ba` among the supreme committee.
    CommitteeBa,
    /// Step 2b: `f_ct` among the supreme committee.
    CommitteeCoin,
    /// Steps 3–8: certification and spread.
    Certification,
}

impl fmt::Display for ProtocolPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolPhase::Establishment => "establishment",
            ProtocolPhase::CommitteeBa => "committee-ba",
            ProtocolPhase::CommitteeCoin => "committee-coin",
            ProtocolPhase::Certification => "certification",
        };
        f.write_str(s)
    }
}

/// Why a `π_ba` execution could not complete.
///
/// These conditions were previously mid-run panics; they are now
/// structured outcomes so chaos harnesses can drive the protocol past its
/// design fault bound and observe *graceful* failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The corruption plan produced `corrupt >= n/3` parties.
    CorruptionBound {
        /// Number of corrupted parties.
        corrupt: usize,
        /// Total parties.
        n: usize,
    },
    /// A sub-protocol hit its round limit without all honest machines
    /// completing.
    Timeout {
        /// The phase that timed out.
        phase: ProtocolPhase,
        /// Rounds executed before giving up.
        rounds: u64,
    },
    /// Honest committee members finished with differing values (or none).
    Disagreement {
        /// The phase that disagreed.
        phase: ProtocolPhase,
        /// Number of distinct honest output values observed.
        distinct: usize,
    },
    /// A phase ended without delivering output to every honest party,
    /// but the parties that *did* receive output all agree — a liveness
    /// loss with safety intact (e.g., a fault-injection adversary jammed
    /// certificate aggregation so `σ_root` never formed).
    Stalled {
        /// The phase that stalled.
        phase: ProtocolPhase,
        /// Honest parties that obtained an output.
        delivered: usize,
        /// Total honest parties.
        honest: usize,
    },
    /// The delivery backend failed (socket closed, exchange watchdog,
    /// replica divergence) during a phase. Only possible when a
    /// [`pba_net::transport::Transport`] is attached to the session's
    /// network.
    Transport {
        /// The phase running when the transport failed.
        phase: ProtocolPhase,
        /// The recorded transport failure.
        error: pba_net::TransportError,
    },
    /// Another instance would overdraw the establishment's one-time
    /// signing material (MSS leaf capacity). The service stays usable for
    /// inspection; agreeing again requires a fresh establishment.
    KeyBudget {
        /// The structured key error ([`KeyError::BudgetExhausted`],
        /// naming the refused instance).
        error: KeyError,
    },
}

impl ProtocolError {
    /// The phase this error is attributed to.
    pub fn phase(&self) -> ProtocolPhase {
        match self {
            ProtocolError::CorruptionBound { .. } => ProtocolPhase::Establishment,
            ProtocolError::Timeout { phase, .. } => *phase,
            ProtocolError::Disagreement { phase, .. } => *phase,
            ProtocolError::Stalled { phase, .. } => *phase,
            ProtocolError::Transport { phase, .. } => *phase,
            ProtocolError::KeyBudget { .. } => ProtocolPhase::Certification,
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::CorruptionBound { corrupt, n } => {
                write!(f, "corruption {corrupt} not below n/3 = {}", n / 3)
            }
            ProtocolError::Timeout { phase, rounds } => {
                write!(f, "{phase} hit its round limit after {rounds} rounds")
            }
            ProtocolError::Disagreement { phase, distinct } => {
                write!(f, "{phase} ended with {distinct} distinct honest values")
            }
            ProtocolError::Stalled {
                phase,
                delivered,
                honest,
            } => {
                write!(
                    f,
                    "{phase} stalled: only {delivered} of {honest} honest parties obtained output"
                )
            }
            ProtocolError::Transport { phase, error } => {
                write!(f, "{phase} aborted by transport failure: {error}")
            }
            ProtocolError::KeyBudget { error } => {
                write!(f, "certification refused: {error}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Outcome of a fallible `π_ba` execution ([`try_run_ba`]).
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The protocol ran to completion (agreement/validity flags inside may
    /// still be false — that distinction is the harness's to judge).
    Completed(BaOutcome),
    /// The protocol detected an unrecoverable condition and stopped.
    Failed {
        /// The phase that failed.
        phase: ProtocolPhase,
        /// The structured reason.
        reason: ProtocolError,
    },
}

impl RunOutcome {
    /// The completed outcome, if any.
    pub fn completed(&self) -> Option<&BaOutcome> {
        match self {
            RunOutcome::Completed(out) => Some(out),
            RunOutcome::Failed { .. } => None,
        }
    }

    /// True when the execution ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed(_))
    }
}

/// Per-step communication snapshot (honest parties only).
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step label (mirrors Fig. 3 numbering).
    pub label: &'static str,
    /// Total honest bytes sent during this step.
    pub total_bytes: u64,
    /// Maximum per-honest-party cumulative bytes after this step.
    pub max_bytes_after: u64,
}

/// Outcome of one `π_ba` execution.
#[derive(Clone, Debug)]
pub struct BaOutcome {
    /// Per-party outputs (`None` = no output; corrupt parties are `None`).
    pub outputs: Vec<Option<u8>>,
    /// Whether every honest party produced the same output.
    pub agreement: bool,
    /// The common honest output, when agreement holds.
    pub output: Option<u8>,
    /// Whether validity held (all-honest-equal inputs forced that output).
    pub validity: bool,
    /// Aggregate communication report over honest parties.
    pub report: Report,
    /// Per-step communication breakdown.
    pub steps: Vec<StepReport>,
    /// Per-(wire tag) honest byte attribution — the exact dimension behind
    /// `report`'s totals (see [`BaOutcome::tags_conserved`]).
    pub breakdown: TagBreakdown,
    /// Whether every party's per-tag marginals summed exactly to its
    /// untyped byte totals at the end of the run.
    pub tags_conserved: bool,
    /// The corrupt set used.
    pub corrupt: BTreeSet<PartyId>,
    /// Size of the final certificate in bytes.
    pub certificate_len: Option<usize>,
}

/// Outcome of one certified round within a [`Session`].
#[derive(Clone, Debug)]
pub struct RoundOutcome {
    /// The value the supreme committee agreed on.
    pub y: u8,
    /// Per-party outputs.
    pub outputs: Vec<Option<u8>>,
    /// Size of the certificate, if one was produced.
    pub certificate_len: Option<usize>,
}

/// Outcome of one certified round over an arbitrary byte value.
#[derive(Clone, Debug)]
pub struct BytesRoundOutcome {
    /// The certified value.
    pub value: Vec<u8>,
    /// Per-party received values (`None` = no verified certificate).
    pub outputs: Vec<Option<Vec<u8>>>,
    /// Size of the certificate, if one was produced.
    pub certificate_len: Option<usize>,
    /// Logical certificate checks in steps 7–8: one per honest receiver
    /// that checked a delivered certificate (its own copy or a spread
    /// one). This is the per-party compute the protocol asks for.
    pub cert_checks: usize,
    /// Physical [`Srds::verify`] calls steps 7–8 made: byte-identical
    /// copies share one verdict, so this counts distinct certificates that
    /// decode for this epoch, not receivers.
    pub cert_verifications: usize,
}

/// How [`Service::try_run_stream`] schedules consecutive instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamMode {
    /// Instances run back-to-back: instance `i` certifies and spreads
    /// before instance `i+1` starts. The first instance of a sequential
    /// stream is transcript-identical to a single-shot [`try_run_ba`] at
    /// the same `(seed, config)`.
    Sequential,
    /// Fast-HotStuff-style chaining: instance `i`'s certification
    /// (steps 3–8) is deferred into instance `i+1`'s committee phase and
    /// its rounds are absorbed by the concurrently-running committee
    /// rounds ([`pba_net::runner::run_phase_overlapped`]). Pipelining
    /// hides round latency, never bytes — every charge lands in full.
    Pipelined,
}

/// The multi-value fan-in payload: one party's ℓ-byte input ascending the
/// tree toward the supreme committee as a whole framed value
/// ([`Service::robust_committee_values`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MvInput {
    /// Instance (service epoch) the input belongs to.
    pub epoch: u64,
    /// The party's input value.
    pub value: Vec<u8>,
}

impl Encode for MvInput {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.value.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.epoch.encoded_len() + self.value.encoded_len()
    }
}

impl Decode for MvInput {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MvInput {
            epoch: u64::decode(r)?,
            value: Vec::<u8>::decode(r)?,
        })
    }
}

impl WireMsg for MvInput {
    const TAG: u8 = tag::MV_INPUT;
    const STEP: u8 = step::NONE;
}

/// Per-instance slice of a [`Service`]'s cumulative accounting: deltas of
/// the honest byte totals, the round clock, the step snapshots, and the
/// scheme's certificate-cache counters, taken between the instance's
/// open and its settlement.
#[derive(Clone, Debug)]
pub struct InstanceReport {
    /// The instance's index (the service epoch it ran as).
    pub index: u64,
    /// Honest bytes charged during the instance.
    pub total_bytes: u64,
    /// Clock rounds consumed by the instance. Under pipelining, the
    /// uncovered remainder of a predecessor's deferred certification is
    /// charged to the successor's window.
    pub rounds: u64,
    /// Rounds the instance's deferred certification ran under the overlap
    /// window (0 when not pipelined).
    pub overlapped_rounds: u64,
    /// Step snapshots recorded during the instance.
    pub steps: Vec<StepReport>,
    /// Certificate-cache counter deltas, when the scheme exposes them.
    pub cache: Option<CacheStats>,
    /// The delivery-transcript digest after the instance settled (only
    /// when a transport is attached): chained, so instance `k`'s digest
    /// commits the whole stream through instance `k`.
    pub transcript_digest: Option<Digest>,
}

/// Verdicts of one streamed instance over an ℓ-byte value.
#[derive(Clone, Debug)]
pub struct MultiValueOutcome {
    /// The value the supreme committee agreed on and certified.
    pub value: Vec<u8>,
    /// Per-party received values (`None` = no verified certificate).
    pub outputs: Vec<Option<Vec<u8>>>,
    /// Whether every honest party received the same value.
    pub agreement: bool,
    /// Whether validity held (unanimous honest inputs forced the value).
    pub validity: bool,
    /// Size of the certificate, if one was produced.
    pub certificate_len: Option<usize>,
}

/// One instance of a stream: verdicts or a structured failure, plus the
/// instance-scoped accounting slice.
#[derive(Clone, Debug)]
pub struct InstanceOutcome {
    /// The instance's index.
    pub index: u64,
    /// Verdicts, or the structured reason the instance failed.
    pub result: Result<MultiValueOutcome, ProtocolError>,
    /// The instance's accounting slice.
    pub report: InstanceReport,
}

/// Outcome of [`Service::try_run_stream`]: every instance in order, plus
/// stream-level round accounting.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// Per-instance outcomes, in execution order.
    pub instances: Vec<InstanceOutcome>,
    /// Instances whose honest parties all agreed.
    pub decisions: usize,
    /// Clock rounds the whole stream consumed (excludes establishment).
    pub total_rounds: u64,
    /// Certification rounds hidden inside successor committee phases by
    /// pipelining (0 for sequential streams).
    pub overlapped_rounds: u64,
}

/// The step-3 dissemination payload: the agreed value and coin seed,
/// bound to the session epoch (Fig. 3 step 3's `(y, s)` pair).
///
/// This is what every virtual identity signs in step 4, so the wire
/// encoding (including the `{tag, step}` header) *is* the signed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValueSeed {
    /// Session epoch (certified-round counter) — binds signatures to one
    /// execution and blocks cross-epoch replay.
    pub epoch: u64,
    /// The value the supreme committee agreed on.
    pub value: Vec<u8>,
    /// The coin seed `s` driving the PRF spread.
    pub seed: Digest,
}

impl Encode for ValueSeed {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.value.encode(buf);
        self.seed.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.epoch.encoded_len() + self.value.encoded_len() + self.seed.encoded_len()
    }
}

impl Decode for ValueSeed {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ValueSeed {
            epoch: u64::decode(r)?,
            value: Vec::<u8>::decode(r)?,
            seed: Digest::decode(r)?,
        })
    }
}

impl WireMsg for ValueSeed {
    const TAG: u8 = tag::VALUE_SEED;
    const STEP: u8 = step::DISSEMINATE;
}

/// The step-6 dissemination payload: the certified `(y, s)` plus the
/// aggregate root signature `σ_root` (Fig. 3 step 6's triple).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Session epoch the certificate was produced in.
    pub epoch: u64,
    /// The certified value.
    pub value: Vec<u8>,
    /// The coin seed `s`.
    pub seed: Digest,
    /// The scheme-encoded aggregate signature `σ_root`.
    pub sig: Vec<u8>,
}

impl Encode for Certificate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.value.encode(buf);
        self.seed.encode(buf);
        self.sig.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.epoch.encoded_len()
            + self.value.encoded_len()
            + self.seed.encoded_len()
            + self.sig.encoded_len()
    }
}

impl Decode for Certificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Certificate {
            epoch: u64::decode(r)?,
            value: Vec::<u8>::decode(r)?,
            seed: Digest::decode(r)?,
            sig: Vec::<u8>::decode(r)?,
        })
    }
}

impl WireMsg for Certificate {
    const TAG: u8 = tag::CERTIFICATE;
    const STEP: u8 = step::CERTIFY;
}

/// Byzantine strategy for the committee sub-protocols: equivocate
/// phase-king values (also disturbing the coin-toss rounds with junk).
struct CommitteeByzantine {
    corrupted: BTreeSet<PartyId>,
    committee: Vec<PartyId>,
}

impl Adversary for CommitteeByzantine {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }
    fn on_round(
        &mut self,
        round: u64,
        _rushed: &BTreeMap<PartyId, Vec<Envelope>>,
        sender: &mut AdvSender<'_>,
    ) {
        for &bad in self.corrupted.iter() {
            if !self.committee.contains(&bad) {
                continue;
            }
            for (j, &peer) in self.committee.iter().enumerate() {
                if self.corrupted.contains(&peer) {
                    continue;
                }
                // Conflicting values per peer in every sub-protocol round.
                let v = (j % 2) as u8;
                let msg = match round % 3 {
                    0 => PkMsg::Value(v),
                    1 => PkMsg::Propose(v),
                    _ => PkMsg::King(v),
                };
                sender.send_msg(bad, peer, &msg);
            }
        }
    }
}

struct SilentCommittee {
    corrupted: BTreeSet<PartyId>,
}

impl Adversary for SilentCommittee {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }
    fn on_round(&mut self, _: u64, _: &BTreeMap<PartyId, Vec<Envelope>>, _: &mut AdvSender<'_>) {}
}

/// An established `π_ba` service: everything establishment builds once —
/// SRDS setup, per-virtual-identity keys, the `f_ae-comm` tree with its
/// CSR layout, corruption state, and the metered network.
///
/// One service supports many agreement [`Instance`]s (or legacy
/// [`Service::certified_round`]s) — the amortization behind the broadcast
/// corollary (Cor. 1.2(1)) and the decisions/sec benchmark. Each instance
/// draws one slot of the establishment's one-time signing budget
/// ([`Service::budget`]); overdrawing is the structured
/// [`ProtocolError::KeyBudget`], never a silent key reuse.
pub struct Service<'a, S: Srds> {
    scheme: &'a S,
    /// The configuration the service was established with.
    pub config: BaConfig,
    params: TreeParams,
    pp: S::PublicParams,
    keys: KeyStore<S>,
    /// slot → (party index, key occurrence index)
    slot_sk: Vec<(usize, usize)>,
    keyboard: S::KeyBoard,
    tree: Tree,
    analysis: TreeAnalysis,
    corrupt: BTreeSet<PartyId>,
    honest: Vec<PartyId>,
    /// The metered network (public so harnesses can read metrics).
    pub net: Network,
    prg: Prg,
    steps: Vec<StepReport>,
    epoch: u64,
    /// One-time signing capacity, when the scheme's is bounded (MSS).
    budget: Option<LeafBudget>,
    /// The most recent instance's encoded [`Certificate`], kept for
    /// Fast-HotStuff-style chained validation by the next instance.
    last_certificate: Option<Vec<u8>>,
    /// Per-instance accounting slices, aggregated at the service level.
    instance_reports: Vec<InstanceReport>,
}

/// The pre-split name of [`Service`]: one establishment serving many
/// certified rounds. Kept as an alias so existing call sites read on.
pub type Session<'a, S> = Service<'a, S>;

impl<'a, S> Service<'a, S>
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    /// Establishes a session: SRDS setup, per-virtual-identity keys,
    /// adaptive-during-setup corruption, and the `f_ae-comm` tree.
    ///
    /// # Panics
    ///
    /// Panics if the corruption plan reaches `n/3`. Use
    /// [`Session::try_establish`] for a fallible variant.
    pub fn establish(scheme: &'a S, config: &BaConfig) -> Self {
        match Self::try_establish(scheme, config) {
            Ok(session) => session,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible establishment: returns
    /// [`ProtocolError::CorruptionBound`] instead of panicking when the
    /// corruption plan reaches `n/3`.
    pub fn try_establish(scheme: &'a S, config: &BaConfig) -> Result<Self, ProtocolError> {
        Self::try_establish_over(scheme, config, None)
    }

    /// [`Session::try_establish`] over an explicit delivery backend: when
    /// `transport` is given, it is attached to the session's network
    /// before any traffic flows, so even interactive (KSSV) establishment
    /// crosses the transport — and the delivery transcript is recorded
    /// from the very first exchange, making the whole run comparable
    /// against an in-process oracle ([`pba_net::transport`]).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptionBound`] as in [`Session::try_establish`];
    /// [`ProtocolError::Transport`] if the backend fails during interactive
    /// establishment.
    ///
    /// # Panics
    ///
    /// Panics if the config also carries timing-fault chaos — a transport
    /// and a [`pba_net::TimingModel`] are mutually exclusive.
    pub fn try_establish_over(
        scheme: &'a S,
        config: &BaConfig,
        transport: Option<Box<dyn Transport>>,
    ) -> Result<Self, ProtocolError> {
        let params = TreeParams::scaled(config.n, config.z);
        let n = config.n;
        let total_slots = params.total_slots();
        let prg = Prg::from_seed_label(&config.seed, "pi-ba");
        let mut net = Network::new(n);
        if config.dense_shadow {
            net.enable_metrics_shadow();
        }
        if let Some(transport) = transport {
            net.attach_transport(transport);
        }

        // Setup: SRDS public parameters and per-virtual-identity keys.
        // Under a lazy policy nothing is generated here: verification keys
        // are derived per slot in the idmap loop below (the same pure PRG
        // children, so bit-identical to the eager loop), and signing keys
        // are re-derived at the moment of signing.
        let pp = scheme.setup(total_slots, &mut prg.child("setup", 0));
        let keys_per_party = config.z + 2;
        #[allow(clippy::type_complexity)]
        let eager_keys: Option<Vec<Vec<(S::VerificationKey, S::SigningKey)>>> =
            match config.key_policy {
                KeyPolicy::Eager => Some(
                    (0..n)
                        .map(|i| {
                            let kprg = prg.child("party-keys", i as u64);
                            (0..keys_per_party)
                                .map(|j| {
                                    let mut slot_prg = kprg.child("slot", j as u64);
                                    scheme.keygen(&pp, &mut slot_prg)
                                })
                                .collect()
                        })
                        .collect(),
                ),
                KeyPolicy::Lazy | KeyPolicy::Sampled => None,
            };

        // Corruption: adaptive during setup (sees all public keys) — or,
        // for [`CorruptionPlan::Adaptive`], adaptive *post-setup*: the
        // adversary watches the tree being established and only then
        // spends its budget on the highest-takeover-value committees
        // ([`pba_aetree::analysis::adaptive_targets`]).
        let mut pre_corrupt: BTreeSet<PartyId> = BTreeSet::new();
        let adaptive_budget = match &config.corruption {
            CorruptionPlan::Adaptive { t } => {
                if 3 * t >= n {
                    return Err(ProtocolError::CorruptionBound { corrupt: *t, n });
                }
                Some(*t)
            }
            plan => {
                pre_corrupt = plan.materialize(n, &mut prg.child("corrupt", 0));
                if 3 * pre_corrupt.len() >= n {
                    return Err(ProtocolError::CorruptionBound {
                        corrupt: pre_corrupt.len(),
                        n,
                    });
                }
                None
            }
        };

        // Step 1: f_ae-comm — the tree, from post-corruption randomness.
        // A post-setup adaptive adversary is empty during establishment
        // (it observes honestly and corrupts only once the tree stands).
        let tree = match config.establishment {
            Establishment::Charged => {
                let mut tree_seed = config.seed.clone();
                tree_seed.extend_from_slice(b"/ae-tree");
                let tree = Tree::build(&params, &tree_seed);
                charge_establishment(&mut net, &tree);
                tree
            }
            Establishment::Interactive => {
                // Committee-level misbehaviour during the election is
                // exercised by the vss_coin/kssv adversarial tests; the
                // session-level profiles act from step 2 on.
                let mut adversary = SilentCommittee {
                    corrupted: pre_corrupt.clone(),
                };
                match crate::kssv::try_establish_interactive(
                    &mut net,
                    &params,
                    &mut adversary,
                    &mut prg.child("kssv-establish", 0),
                ) {
                    Ok(election) => election.tree,
                    Err(outcome) => {
                        // A failed group toss: a dead transport if one is
                        // attached and recorded an error, a round-budget
                        // timeout otherwise.
                        if let Some(error) = net.transport_error() {
                            return Err(ProtocolError::Transport {
                                phase: ProtocolPhase::Establishment,
                                error: error.clone(),
                            });
                        }
                        return Err(ProtocolError::Timeout {
                            phase: ProtocolPhase::Establishment,
                            rounds: outcome.rounds,
                        });
                    }
                }
            }
        };
        let corrupt = match adaptive_budget {
            Some(t) => adaptive_targets(&tree, t, &mut prg.child("adaptive-corrupt", 0)),
            None => pre_corrupt,
        };
        let honest: Vec<PartyId> = (0..n as u64)
            .map(PartyId)
            .filter(|p| !corrupt.contains(p))
            .collect();
        let analysis = TreeAnalysis::analyze(&tree, &corrupt);

        // Timing faults: if the chaos spec carries a timing axis (latency,
        // partition, churn), install the seeded delay-queue model now — the
        // tick clock starts lazily at the first committee phase, so charged
        // and interactive establishment see the same timing schedule.
        if let Some(spec) = &config.chaos {
            if let Some(model) = spec.timing_model(&corrupt, n, &prg.child("timing", 0)) {
                net.set_timing(model);
            }
        }

        // idmap: slot s ↔ owner's j-th key.
        let mut occurrence: Vec<usize> = vec![0; n];
        let mut vks: Vec<S::VerificationKey> = Vec::with_capacity(total_slots);
        let mut slot_sk: Vec<(usize, usize)> = Vec::with_capacity(total_slots);
        for s in 0..total_slots as u64 {
            let owner = tree.slot_party(s);
            let j = occurrence[owner.index()];
            occurrence[owner.index()] += 1;
            assert!(
                j < keys_per_party,
                "party {owner} needs more than {keys_per_party} keys"
            );
            let vk = match &eager_keys {
                Some(keys) => keys[owner.index()][j].0.clone(),
                None => {
                    let mut slot_prg = prg.child("party-keys", owner.0).child("slot", j as u64);
                    scheme.keygen(&pp, &mut slot_prg).0
                }
            };
            vks.push(vk);
            slot_sk.push((owner.index(), j));
        }
        let keyboard = scheme.prepare(&pp, &vks);

        let keys = match (config.key_policy, eager_keys) {
            (_, Some(keys)) => KeyStore::Eager(keys),
            (KeyPolicy::Lazy, None) => KeyStore::Lazy { instantiable: None },
            (_, None) => KeyStore::Lazy {
                instantiable: Some(sampled_mask(&tree, &corrupt)),
            },
        };

        let budget = scheme.epoch_capacity(&pp).map(LeafBudget::new);
        let mut session = Service {
            scheme,
            config: config.clone(),
            params,
            pp,
            keys,
            slot_sk,
            keyboard,
            tree,
            analysis,
            corrupt,
            honest,
            net,
            prg,
            steps: Vec::new(),
            epoch: 0,
            budget,
            last_certificate: None,
            instance_reports: Vec::new(),
        };
        session.snap("1:ae-comm-establish");
        Ok(session)
    }

    /// The supreme committee.
    pub fn supreme_committee(&self) -> Vec<PartyId> {
        self.tree.root_committee().to_vec()
    }

    /// The corrupt set.
    pub fn corrupt(&self) -> &BTreeSet<PartyId> {
        &self.corrupt
    }

    /// The honest parties.
    pub fn honest(&self) -> &[PartyId] {
        &self.honest
    }

    /// The communication tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The tree parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// The goodness analysis of the tree under the session's corrupt set.
    pub fn analysis(&self) -> &TreeAnalysis {
        &self.analysis
    }

    /// Per-step communication snapshots so far.
    pub fn steps(&self) -> &[StepReport] {
        &self.steps
    }

    /// Aggregate honest-party communication report.
    pub fn report(&self) -> Report {
        self.net.metrics().report_for(self.honest.iter().copied())
    }

    /// Per-(wire tag) honest byte attribution — the per-step dimension
    /// behind [`Session::report`]'s totals.
    pub fn breakdown(&self) -> TagBreakdown {
        self.net
            .metrics()
            .breakdown_for(self.honest.iter().copied())
    }

    /// Exact conservation of the per-tag attribution: for every party the
    /// per-tag sent/received marginals sum to the untyped byte totals.
    pub fn tags_conserve_totals(&self) -> bool {
        self.net.metrics().tags_conserve_totals()
    }

    /// The signing key for `party`'s `j`-th virtual identity, resolved
    /// under the session's [`KeyPolicy`]: borrowed from the eager store,
    /// re-derived from the session PRG (Lazy), or a structured
    /// [`KeyError`] for a party the Sampled policy left uninstantiated.
    ///
    /// Derivation is the same pure PRG child used at establishment, so a
    /// re-derived key is bit-identical to its eager counterpart.
    pub fn signing_key(&self, party: PartyId, j: usize) -> Result<KeyHandle<'_, S>, KeyError> {
        match &self.keys {
            KeyStore::Eager(keys) => Ok(KeyHandle::Borrowed(&keys[party.index()][j].1)),
            KeyStore::Lazy { instantiable } => {
                if let Some(mask) = instantiable {
                    if !mask[party.index()] {
                        return Err(KeyError::NotInstantiated {
                            party,
                            key_index: j,
                        });
                    }
                }
                let mut slot_prg = self
                    .prg
                    .child("party-keys", party.0)
                    .child("slot", j as u64);
                Ok(KeyHandle::Owned(
                    self.scheme.keygen(&self.pp, &mut slot_prg).1,
                ))
            }
        }
    }

    fn snap(&mut self, label: &'static str) {
        let total: u64 = self
            .honest
            .iter()
            .map(|&p| self.net.metrics().party(p).bytes_sent)
            .sum();
        let prior: u64 = self.steps.iter().map(|s| s.total_bytes).sum();
        self.steps.push(StepReport {
            label,
            total_bytes: total - prior,
            max_bytes_after: self.report().max_bytes_per_party,
        });
    }

    /// Round driver for the committee sub-protocols: lockstep unless the
    /// chaos spec demands a per-round delivery window wider than one tick.
    fn round_driver(&self) -> RoundDriver {
        let ticks = self
            .config
            .chaos
            .as_ref()
            .map_or(1, |spec| spec.round_budget());
        if ticks > 1 {
            RoundDriver::PartialSynchrony { ticks }
        } else {
            RoundDriver::Lockstep
        }
    }

    /// Extra machine rounds granted to committee phases so recoverable
    /// timing faults (healing partitions, rejoining churn victims) can
    /// catch up before the budget expires.
    fn round_slack(&self) -> u64 {
        let ticks = self.round_driver().ticks();
        self.config
            .chaos
            .as_ref()
            .map_or(0, |spec| spec.round_slack(ticks))
    }

    /// The session's recorded transport failure, attributed to `phase` —
    /// checked before mapping an incomplete phase to a generic timeout,
    /// so socket deaths report as what they are.
    fn transport_failure(&self, phase: ProtocolPhase) -> Option<ProtocolError> {
        self.net
            .transport_error()
            .map(|error| ProtocolError::Transport {
                phase,
                error: error.clone(),
            })
    }

    fn committee_adversary(&self, committee: &[PartyId]) -> Box<dyn Adversary> {
        if let Some(spec) = &self.config.chaos {
            return spec.build(
                self.corrupt.clone(),
                self.config.n,
                &self.prg.child("chaos", self.epoch),
            );
        }
        match self.config.profile {
            AdversaryProfile::Passive => Box::new(SilentCommittee {
                corrupted: self.corrupt.clone(),
            }),
            AdversaryProfile::Byzantine => Box::new(CommitteeByzantine {
                corrupted: self.corrupt.clone(),
                committee: committee.to_vec(),
            }),
        }
    }

    /// Step 2a: `f_ba` among the supreme committee on the given inputs.
    ///
    /// # Panics
    ///
    /// Panics if honest committee members fail to agree (impossible below
    /// the fault bound). Use [`Session::try_committee_ba`] for a fallible
    /// variant.
    pub fn committee_ba(&mut self, committee_inputs: &BTreeMap<PartyId, u8>) -> u8 {
        match self.try_committee_ba(committee_inputs) {
            Ok(y) => y,
            Err(e) => panic!("supreme committee BA failed: {e}"),
        }
    }

    /// Fallible step 2a: phase-king under the session's committee
    /// adversary, with the phase round limit surfaced as
    /// [`ProtocolError::Timeout`] and honest divergence as
    /// [`ProtocolError::Disagreement`].
    pub fn try_committee_ba(
        &mut self,
        committee_inputs: &BTreeMap<PartyId, u8>,
    ) -> Result<u8, ProtocolError> {
        let supreme = self.supreme_committee();
        let mut adversary = self.committee_adversary(&supreme);
        let mut machines: BTreeMap<PartyId, PhaseKing<u8>> = supreme
            .iter()
            .filter(|p| !self.corrupt.contains(p))
            .map(|&p| {
                let input = committee_inputs.get(&p).copied().unwrap_or(0);
                (p, PhaseKing::new(supreme.clone(), p, input))
            })
            .collect();
        let driver = self.round_driver();
        let slack = self.round_slack();
        let outcome = {
            let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
                .iter_mut()
                .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
                .collect();
            run_phase_driven(
                &mut self.net,
                &mut erased,
                adversary.as_mut(),
                rounds_for(supreme.len()) + 6 + slack,
                driver,
                self.config.threads,
            )
        };
        self.ba_phase_verdict(outcome, &machines)
    }

    /// Maps a committee-BA phase outcome to the agreed value or its
    /// structured failure (shared by the plain and chained variants).
    fn ba_phase_verdict(
        &self,
        outcome: PhaseOutcome,
        machines: &BTreeMap<PartyId, PhaseKing<u8>>,
    ) -> Result<u8, ProtocolError> {
        if !outcome.completed {
            if let Some(e) = self.transport_failure(ProtocolPhase::CommitteeBa) {
                return Err(e);
            }
            return Err(ProtocolError::Timeout {
                phase: ProtocolPhase::CommitteeBa,
                rounds: outcome.rounds,
            });
        }
        let values: BTreeSet<u8> = machines
            .values()
            .filter_map(|m| m.output().copied())
            .collect();
        if values.len() != 1 {
            return Err(ProtocolError::Disagreement {
                phase: ProtocolPhase::CommitteeBa,
                distinct: values.len(),
            });
        }
        Ok(*values.iter().next().expect("nonempty"))
    }

    /// Step 2a under the pipelined driver: while the committee machines
    /// run, each machine round's slack validates the previous instance's
    /// certificate for one more honest supreme-committee member — the
    /// Fast-HotStuff chaining shape, where validators check the parent
    /// quorum certificate while voting on the child. Validation is
    /// compute-only (an already-delivered payload is re-verified; no
    /// envelopes, no charges), so transcript and metrics are identical to
    /// [`Service::try_committee_ba`]; its observable effect is the
    /// scheme's certificate cache staying warm across instances. Members
    /// the phase's rounds did not cover validate inline afterwards.
    fn try_committee_ba_chained(
        &mut self,
        committee_inputs: &BTreeMap<PartyId, u8>,
    ) -> Result<u8, ProtocolError> {
        let supreme = self.supreme_committee();
        let mut adversary = self.committee_adversary(&supreme);
        let mut machines: BTreeMap<PartyId, PhaseKing<u8>> = supreme
            .iter()
            .filter(|p| !self.corrupt.contains(p))
            .map(|&p| {
                let input = committee_inputs.get(&p).copied().unwrap_or(0);
                (p, PhaseKing::new(supreme.clone(), p, input))
            })
            .collect();
        let driver = self.round_driver();
        let slack = self.round_slack();
        // The chained certificate, decoded once; honest members still
        // owing a validation, popped one per machine round.
        let chain: Option<(Vec<u8>, S::Signature)> =
            self.last_certificate.as_ref().and_then(|bytes| {
                let cert = wire::decode_msg::<Certificate>(bytes).ok()?;
                let sig: S::Signature = decode_from_slice(&cert.sig).ok()?;
                let signed = wire::encode_msg(&ValueSeed {
                    epoch: cert.epoch,
                    value: cert.value,
                    seed: cert.seed,
                });
                Some((signed, sig))
            });
        let mut validators: Vec<PartyId> = supreme
            .iter()
            .filter(|p| !self.corrupt.contains(p))
            .copied()
            .collect();
        let scheme = self.scheme;
        let pp = &self.pp;
        let keyboard = &self.keyboard;
        let outcome = {
            let mut erased: BTreeMap<PartyId, Box<dyn Machine + Send + '_>> = machines
                .iter_mut()
                .map(|(&id, m)| (id, Box::new(m) as Box<dyn Machine + Send + '_>))
                .collect();
            let mut background = |_net: &mut Network, _round: u64| {
                let Some((signed, sig)) = &chain else {
                    return true;
                };
                match validators.pop() {
                    Some(_member) => {
                        // Every member performs the same verification; the
                        // scheme's certificate cache collapses the repeats
                        // into warm hits.
                        let _ = scheme.verify(pp, keyboard, signed, sig);
                        validators.is_empty()
                    }
                    None => true,
                }
            };
            let (outcome, _absorbed) = run_phase_overlapped(
                &mut self.net,
                &mut erased,
                adversary.as_mut(),
                rounds_for(supreme.len()) + 6 + slack,
                driver,
                self.config.threads,
                Some(&mut background),
            );
            outcome
        };
        if let Some((signed, sig)) = &chain {
            for _member in validators.drain(..) {
                let _ = scheme.verify(pp, keyboard, signed, sig);
            }
        }
        self.ba_phase_verdict(outcome, &machines)
    }

    /// Step 2b: `f_ct` among the supreme committee.
    ///
    /// # Panics
    ///
    /// Panics if honest members fail to agree on the seed. Use
    /// [`Session::try_committee_coin`] for a fallible variant.
    pub fn committee_coin(&mut self) -> Digest {
        match self.try_committee_coin() {
            Ok(s) => s,
            Err(e) => panic!("coin tossing failed: {e}"),
        }
    }

    /// Fallible step 2b: commit–echo–reveal coin toss, with honest seed
    /// divergence surfaced as [`ProtocolError::Disagreement`].
    pub fn try_committee_coin(&mut self) -> Result<Digest, ProtocolError> {
        let supreme = self.supreme_committee();
        let mut adversary = self.committee_adversary(&supreme);
        let epoch = self.epoch;
        let driver = self.round_driver();
        let slack = self.round_slack();
        let seeds = match toss_coin_vss_driven(
            &mut self.net,
            &supreme,
            adversary.as_mut(),
            &mut self.prg.child("coin", epoch),
            driver,
            slack,
            self.config.threads,
        ) {
            Ok(seeds) => seeds,
            Err(outcome) => {
                if let Some(e) = self.transport_failure(ProtocolPhase::CommitteeCoin) {
                    return Err(e);
                }
                return Err(ProtocolError::Timeout {
                    phase: ProtocolPhase::CommitteeCoin,
                    rounds: outcome.rounds,
                });
            }
        };
        let values: BTreeSet<Digest> = seeds.values().copied().collect();
        if values.len() != 1 {
            return Err(ProtocolError::Disagreement {
                phase: ProtocolPhase::CommitteeCoin,
                distinct: values.len(),
            });
        }
        Ok(*values.iter().next().expect("nonempty"))
    }

    /// Steps 3–8 for an already-agreed `(y, s)`: certified dissemination,
    /// SRDS aggregation up the tree, certificate dissemination, and the
    /// PRF spread.
    pub fn certify_and_spread(&mut self, y: u8, s: Digest) -> RoundOutcome {
        let bytes_outcome = self.certify_bytes(vec![y], s);
        RoundOutcome {
            y,
            outputs: bytes_outcome
                .outputs
                .iter()
                .map(|o| o.as_ref().and_then(|v| v.first().copied()))
                .collect(),
            certificate_len: bytes_outcome.certificate_len,
        }
    }

    /// The byte-value core of steps 3–8, shared by bit agreement,
    /// multi-execution broadcast, and the MPC corollary: certify an
    /// arbitrary `value` the supreme committee already agreed on and
    /// deliver it to everyone. Advances the service epoch.
    pub fn certify_bytes(&mut self, value: Vec<u8>, s: Digest) -> BytesRoundOutcome {
        let epoch = self.epoch;
        let outcome = self.certify_bytes_at(epoch, value, s);
        self.epoch += 1;
        outcome
    }

    /// [`Service::certify_bytes`] pinned to an explicit epoch, without
    /// advancing the service's own: the deferred-certification path of
    /// pipelined streaming, where instance `i`'s steps 3–8 run after the
    /// epoch has already moved on to instance `i+1`. Everything in here
    /// keys off the `epoch` argument (dissemination payloads, signatures,
    /// replay filters), never off `self.epoch`.
    pub fn certify_bytes_at(&mut self, epoch: u64, value: Vec<u8>, s: Digest) -> BytesRoundOutcome {
        let n = self.config.n;
        let params = self.params;

        // ---- Step 3: disseminate (epoch, value, s). ----
        let ys_payload = wire::encode_msg(&ValueSeed {
            epoch,
            value: value.clone(),
            seed: s,
        });
        // Wire-valid but wrong content: survives the hardened decode and
        // dies at signature verification, like a real equivocation would.
        let garbage = wire::encode_msg(&ValueSeed {
            epoch,
            value: vec![0xeeu8; value.len()],
            seed: Digest::ZERO,
        });
        let mut adv: Box<pba_aetree::fae::AdversaryFn<'static>> = match self.config.profile {
            AdversaryProfile::Passive => Box::new(honest_adversary()),
            AdversaryProfile::Byzantine => Box::new(constant_adversary(garbage)),
        };
        let corrupt = self.corrupt.clone();
        let mut ys_result = disseminate(
            &mut self.net,
            &self.tree,
            &corrupt,
            &{
                let payload = ys_payload.clone();
                let corrupt = corrupt.clone();
                move |member: PartyId| (!corrupt.contains(&member)).then(|| payload.clone())
            },
            adv.as_mut(),
        );
        // Crash-recovery churn: a party offline while (y, s) travels the
        // tree receives nothing here — it also signs nothing in step 4 and
        // resyncs from the step 7–8 certificate spread once it rejoins.
        for p in self.net.offline_set() {
            ys_result.per_party[p.index()] = None;
        }
        self.snap("3:disseminate-(y,s)");

        // ---- Step 4: sign per virtual identity, submit to leaf committees. ----
        // Streaming leaf-major pass: one leaf's signatures are produced,
        // filtered, and folded into the leaf aggregate before the next
        // leaf's exist, so peak signature storage is one committee's worth
        // instead of all `total_slots` at once. Seats inside a leaf are
        // ordered (honest before corrupt, then by owner and slot) to
        // reproduce the exact aggregation input order of the party-major
        // formulation; metrics charges commute, so for them only the
        // multiset per step matters.
        let evil_payload = wire::encode_msg(&ValueSeed {
            epoch,
            value: vec![9u8; value.len().max(1)],
            seed: Digest::ZERO,
        });
        let byzantine = self.config.profile == AdversaryProfile::Byzantine;
        let signable: Vec<bool> = (0..n)
            .map(|i| {
                !corrupt.contains(&PartyId(i as u64))
                    && ys_result.per_party[i]
                        .as_ref()
                        .is_some_and(|b| wire::decode_msg::<ValueSeed>(b).is_ok())
            })
            .collect();
        let mut evil_entries: Vec<(usize, u64, S::Signature)> = Vec::new();
        let mut leaf_honest: Vec<Option<S::Signature>> = Vec::with_capacity(params.leaf_count);
        // (input_bytes, out_len) per leaf: the step-5 aggregation charges,
        // deferred so they land after the step-4 snapshot boundary exactly
        // as in the two-pass formulation.
        let mut leaf_charges: Vec<(usize, usize)> = Vec::with_capacity(params.leaf_count);
        for leaf in 0..params.leaf_count {
            let range = self.tree.leaf_range(leaf);
            let mut seats: Vec<(bool, usize, u64)> = range
                .clone()
                .map(|slot| {
                    let (owner, _) = self.slot_sk[slot as usize];
                    (corrupt.contains(&PartyId(owner as u64)), owner, slot)
                })
                .collect();
            seats.sort_unstable();
            let committee = dedup_committee(self.tree.committee(0, leaf));
            let honest_members: Vec<PartyId> = committee
                .iter()
                .filter(|p| !corrupt.contains(p))
                .copied()
                .collect();
            let mut sigs: Vec<S::Signature> = Vec::new();
            for &(is_corrupt, owner, slot) in &seats {
                let (owner_ck, j) = self.slot_sk[slot as usize];
                debug_assert_eq!(owner_ck, owner);
                let p = PartyId(owner as u64);
                if is_corrupt {
                    if !byzantine {
                        continue;
                    }
                    let Ok(handle) = self.signing_key(p, j) else {
                        continue; // Sampled policy: key never materialized
                    };
                    if let Some(sig) =
                        self.scheme
                            .sign_epoch(&self.pp, slot, handle.key(), epoch, &evil_payload)
                    {
                        evil_entries.push((owner, slot, sig.clone()));
                        sigs.push(sig);
                    }
                    continue;
                }
                if !signable[owner] {
                    continue; // isolated or malformed payload: signs nothing
                }
                let my_payload = ys_result.per_party[owner]
                    .clone()
                    .expect("signable implies payload");
                let Ok(handle) = self.signing_key(p, j) else {
                    continue; // Sampled policy: off-path vote is lost regardless
                };
                let Some(sig) =
                    self.scheme
                        .sign_epoch(&self.pp, slot, handle.key(), epoch, &my_payload)
                else {
                    continue; // sortition loser (OWF scheme)
                };
                let len = self.scheme.signature_len(&sig);
                for &r in &committee {
                    if r == p {
                        continue;
                    }
                    self.net
                        .metrics_mut()
                        .record_send_tagged(p, r, len, tag::SIG_SUBMIT);
                    self.net
                        .metrics_mut()
                        .record_receive_tagged(r, p, len, tag::SIG_SUBMIT);
                }
                sigs.push(sig);
            }
            // Step 5a for this leaf: all honest leaf members hold the same
            // majority-exchanged signature set, aggregated iff the honest
            // members form the f_aggr-sig quorum.
            let filtered: Vec<S::Signature> = sigs
                .into_iter()
                .filter(|sig| {
                    self.scheme.min_index(sig) == self.scheme.max_index(sig)
                        && range.contains(&self.scheme.min_index(sig))
                })
                .collect();
            let input_bytes: usize = filtered.iter().map(|s| self.scheme.signature_len(s)).sum();
            let agg = f_aggr_sig_uniform(
                self.scheme,
                &self.pp,
                &self.keyboard,
                &ys_payload,
                committee.len(),
                honest_members.len(),
                &filtered,
            );
            let out_len = agg
                .as_ref()
                .map(|a| self.scheme.signature_len(a))
                .unwrap_or(0);
            leaf_charges.push((input_bytes, out_len));
            leaf_honest.push(agg);
        }
        // Restore the party-major order the corrupt signing loop used to
        // produce, so the colluding aggregate below is bit-identical.
        evil_entries.sort_unstable_by_key(|&(owner, slot, _)| (owner, slot));
        let evil_sigs: Vec<S::Signature> =
            evil_entries.into_iter().map(|(_, _, sig)| sig).collect();
        self.net.bump_round();
        self.snap("4:sign-and-submit");

        // ---- Step 5: robust redundant-path aggregation up the tree. ----
        // Every node's aggregate ascends via its full committee; parents
        // vote per child over the redundant copies (DESIGN.md §4b), so a
        // node contributes as long as corrupted members stay a strict
        // minority of its distinct committee — the 1/3 goodness threshold
        // only matters for the classical analysis now.
        for (leaf, &(input_bytes, out_len)) in leaf_charges.iter().enumerate() {
            let committee = dedup_committee(self.tree.committee(0, leaf));
            let honest_members: Vec<PartyId> = committee
                .iter()
                .filter(|p| !corrupt.contains(p))
                .copied()
                .collect();
            let bytes_map: BTreeMap<PartyId, usize> =
                committee.iter().map(|&m| (m, input_bytes)).collect();
            charge_aggr_round(&mut self.net, &honest_members, &bytes_map, out_len);
        }
        // All leaves aggregated in parallel: one exchange + MPC round pair.
        self.net.bump_round();
        self.net.bump_round();

        // The colluding copy corrupted members vote for at every node: an
        // aggregate over the adversary's divergent message. It can win the
        // vote at a majority-corrupted node, but aggregate1's validation
        // drops it at the next honest combine — withholding in disguise.
        let evil_copy: Option<S::Signature> = if evil_sigs.is_empty() {
            None
        } else {
            self.scheme
                .aggregate(&self.pp, &self.keyboard, &evil_payload, &evil_sigs)
        };

        let scheme = self.scheme;
        let pp = &self.pp;
        let keyboard = &self.keyboard;
        let tree = &self.tree;
        let corrupt_ref = &corrupt;
        let payload_ref = &ys_payload;
        let outcome = ascend(
            &mut self.net,
            tree,
            corrupt_ref,
            leaf_honest,
            |net, level, node, winners| {
                let committee = dedup_committee(tree.committee(level, node));
                let honest_members: Vec<PartyId> = committee
                    .iter()
                    .filter(|p| !corrupt_ref.contains(p))
                    .copied()
                    .collect();
                let mut children_sigs: Vec<S::Signature> = Vec::new();
                for (i, child) in tree.children(level, node).enumerate() {
                    let Some(sig) = winners[i].clone() else {
                        continue;
                    };
                    let child_range = tree.node_range(level - 1, child);
                    if child_range.contains(&scheme.min_index(&sig))
                        && child_range.contains(&scheme.max_index(&sig))
                    {
                        children_sigs.push(sig);
                    }
                }
                let input_bytes: usize =
                    children_sigs.iter().map(|s| scheme.signature_len(s)).sum();
                let agg = f_aggr_sig_uniform(
                    scheme,
                    pp,
                    keyboard,
                    payload_ref,
                    committee.len(),
                    honest_members.len(),
                    &children_sigs,
                );
                let out_len = agg.as_ref().map(|a| scheme.signature_len(a)).unwrap_or(0);
                let bytes_map: BTreeMap<PartyId, usize> =
                    committee.iter().map(|&m| (m, input_bytes)).collect();
                charge_aggr_round(net, &honest_members, &bytes_map, out_len);
                agg
            },
            |_, _, _| evil_copy.clone(),
            |sig| scheme.signature_len(sig),
            tag::AGGR_SHARE,
        );
        let sigma_root = outcome.root_value;
        let certificate_len = sigma_root.as_ref().map(|s| self.scheme.signature_len(s));
        self.snap("5:tree-aggregation");

        // ---- Step 6: disseminate (value, s, σ_root). ----
        let triple_payload = sigma_root.as_ref().map(|sig| {
            wire::encode_msg(&Certificate {
                epoch,
                value: value.clone(),
                seed: s,
                sig: encode_to_vec(sig),
            })
        });
        let mut triple_result = triple_payload.as_ref().map(|payload| {
            let mut adv: Box<pba_aetree::fae::AdversaryFn<'static>> = match self.config.profile {
                AdversaryProfile::Passive => Box::new(honest_adversary()),
                AdversaryProfile::Byzantine => {
                    Box::new(constant_adversary(vec![0xbb; payload.len()]))
                }
            };
            disseminate(
                &mut self.net,
                &self.tree,
                &corrupt,
                &{
                    let payload = payload.clone();
                    let corrupt = corrupt.clone();
                    move |member: PartyId| (!corrupt.contains(&member)).then(|| payload.clone())
                },
                adv.as_mut(),
            )
        });
        // Fresh offline set: the tick advanced since step 3, so a party
        // that rejoined in between participates here normally.
        if let Some(result) = triple_result.as_mut() {
            for p in self.net.offline_set() {
                result.per_party[p.index()] = None;
            }
        }
        self.snap("6:disseminate-certificate");

        // ---- Steps 7–8: PRF spread and output. ----
        let subset_size = params.committee_size.min(n.saturating_sub(1)).max(1);
        let mut outputs: Vec<Option<Vec<u8>>> = vec![None; n];
        let scheme = self.scheme;
        let pp = &self.pp;
        let keyboard = &self.keyboard;
        let mut cert_verifications = 0;
        let mut verify_triple = |bytes: &[u8]| -> Option<Vec<u8>> {
            let cert = wire::decode_msg::<Certificate>(bytes).ok()?;
            if cert.epoch != epoch {
                return None; // cross-epoch replay
            }
            let sig: S::Signature = decode_from_slice(&cert.sig).ok()?;
            let signed = wire::encode_msg(&ValueSeed {
                epoch: cert.epoch,
                value: cert.value.clone(),
                seed: cert.seed,
            });
            cert_verifications += 1;
            scheme
                .verify(pp, keyboard, &signed, &sig)
                .then_some(cert.value)
        };
        // The verdict is a pure function of (pp, key board, epoch, bytes),
        // and only the bytes vary within this call: each distinct byte
        // string is verified once, and every receiver of a byte-identical
        // copy gets that verdict (DESIGN.md §4b). Keyed by full byte
        // equality, so the memo never answers for bytes it did not verify.
        let mut verdicts: HashMap<Rc<Vec<u8>>, Option<Vec<u8>>> = HashMap::new();
        let mut cert_checks = 0;
        let mut check = |bytes: &Rc<Vec<u8>>| -> Option<Vec<u8>> {
            cert_checks += 1;
            verdicts
                .entry(Rc::clone(bytes))
                .or_insert_with(|| verify_triple(bytes))
                .clone()
        };

        if let Some(result) = &triple_result {
            let offline = self.net.offline_set();
            for &p in &self.honest {
                if offline.contains(&p) {
                    continue; // down: cannot produce an output this epoch
                }
                if let Some(bytes) = &result.per_party[p.index()] {
                    outputs[p.index()] = check(bytes);
                }
            }
            for &p in &self.honest {
                if offline.contains(&p) {
                    continue; // down: sends nothing into the spread
                }
                let Some(bytes) = &result.per_party[p.index()] else {
                    continue;
                };
                let Ok(cert) = wire::decode_msg::<Certificate>(bytes) else {
                    continue;
                };
                let prf = SubsetPrf::new(cert.seed, n as u64, subset_size);
                for j in prf.eval(p.0) {
                    let receiver = PartyId(j);
                    self.net.metrics_mut().record_send_tagged(
                        p,
                        receiver,
                        bytes.len(),
                        tag::SPREAD,
                    );
                    if corrupt.contains(&receiver) || offline.contains(&receiver) {
                        continue; // corrupt ignores; offline expires unread
                    }
                    // Receiver-side dynamic filter (j ∈ F_s(i) holds by
                    // construction of the sender's target set; the receiver
                    // recomputes it from the message's own seed), then full
                    // SRDS verification.
                    self.net.metrics_mut().record_receive_tagged(
                        receiver,
                        p,
                        bytes.len(),
                        tag::SPREAD,
                    );
                    if outputs[receiver.index()].is_none() {
                        outputs[receiver.index()] = check(bytes);
                    }
                }
            }
            self.net.bump_round();
        }
        self.snap("7-8:prf-spread+output");
        // Retain the encoded certificate for the next instance's chained
        // validation (None when σ_root never formed — nothing to chain).
        self.last_certificate = triple_payload;

        BytesRoundOutcome {
            value,
            outputs,
            certificate_len,
            cert_checks,
            cert_verifications,
        }
    }

    /// Reserves the current epoch's one-time signing slot against the
    /// establishment's leaf budget. Schemes without a bounded epoch
    /// capacity (sortition) carry no budget and always succeed; an epoch
    /// whose slot is already reserved (an open [`Instance`], or a retry
    /// after a failed committee phase) is a no-op.
    fn reserve_epoch(&mut self) -> Result<(), ProtocolError> {
        let Some(budget) = &mut self.budget else {
            return Ok(());
        };
        if budget.consumed() > self.epoch {
            return Ok(());
        }
        match budget.reserve(1) {
            Ok(_) => Ok(()),
            Err(e) => Err(ProtocolError::KeyBudget {
                error: KeyError::BudgetExhausted {
                    instance: self.epoch,
                    capacity: e.capacity,
                },
            }),
        }
    }

    /// One full certified round: `f_ba` + `f_ct` + certify-and-spread.
    ///
    /// # Panics
    ///
    /// Panics if either committee sub-protocol fails or the signing
    /// budget is spent; use [`Session::try_certified_round`] for a
    /// fallible variant.
    pub fn certified_round(&mut self, committee_inputs: &BTreeMap<PartyId, u8>) -> RoundOutcome {
        if let Err(e) = self.reserve_epoch() {
            panic!("{e}");
        }
        let y = self.committee_ba(committee_inputs);
        let s = self.committee_coin();
        self.snap("2:committee-ba+coin");
        self.certify_and_spread(y, s)
    }

    /// Fallible certified round: any committee-phase failure — including
    /// an exhausted one-time signing budget
    /// ([`ProtocolError::KeyBudget`]) — is returned as a
    /// [`ProtocolError`] instead of panicking, leaving the session
    /// reusable (metrics intact, epoch advanced only on success).
    pub fn try_certified_round(
        &mut self,
        committee_inputs: &BTreeMap<PartyId, u8>,
    ) -> Result<RoundOutcome, ProtocolError> {
        self.reserve_epoch()?;
        let y = self.try_committee_ba(committee_inputs)?;
        let s = self.try_committee_coin()?;
        self.snap("2:committee-ba+coin");
        Ok(self.certify_and_spread(y, s))
    }

    /// Robust fan-in of every party's input for the committee
    /// sub-protocols: inputs ascend the tree over redundant committee
    /// paths ([`pba_aetree::robust::robust_input_fanin`]) and each supreme
    /// committee member adopts the value it computed over the redundant
    /// paths, falling back to its own local input when the ascent produced
    /// no strict-majority value (the safe default — a jammed fan-in never
    /// substitutes an adversarial value).
    pub fn robust_committee_inputs(&mut self, inputs: &[u8]) -> BTreeMap<PartyId, u8> {
        assert_eq!(inputs.len(), self.config.n, "one input per party");
        let corrupt_value = match self.config.profile {
            AdversaryProfile::Passive => None,
            AdversaryProfile::Byzantine => Some(0xaa),
        };
        let corrupt = self.corrupt.clone();
        let outcome =
            robust_input_fanin(&mut self.net, &self.tree, &corrupt, inputs, corrupt_value);
        let root_level = self.tree.height() - 1;
        let ascended = outcome.honest_values[root_level][0];
        self.supreme_committee()
            .iter()
            .map(|&p| (p, ascended.unwrap_or(inputs[p.index()])))
            .collect()
    }

    /// Multi-value analogue of [`Service::robust_committee_inputs`]: each
    /// party's ℓ-byte value rides the redundant-path ascent as a whole
    /// (framed as [`MvInput`], charged under [`tag::MV_INPUT`]); whole
    /// values are voted at every node, so an ascended winner is always
    /// some party's actual input, never a byte-wise chimera. Supreme
    /// committee members adopt the winner, falling back to their own
    /// input when no strict majority formed.
    pub fn robust_committee_values(&mut self, inputs: &[Vec<u8>]) -> BTreeMap<PartyId, Vec<u8>> {
        assert_eq!(inputs.len(), self.config.n, "one input value per party");
        let width = inputs.iter().map(Vec::len).max().unwrap_or(0);
        let corrupt_value = match self.config.profile {
            AdversaryProfile::Passive => None,
            AdversaryProfile::Byzantine => Some(vec![0xaa; width]),
        };
        let corrupt = self.corrupt.clone();
        let epoch = self.epoch;
        let outcome = robust_input_fanin_with(
            &mut self.net,
            &self.tree,
            &corrupt,
            inputs,
            corrupt_value,
            |v: &Vec<u8>| {
                wire::encode_msg(&MvInput {
                    epoch,
                    value: v.clone(),
                })
                .len()
            },
            tag::MV_INPUT,
        );
        let root_level = self.tree.height() - 1;
        let ascended = outcome.honest_values[root_level][0].clone();
        self.supreme_committee()
            .iter()
            .map(|&p| {
                (
                    p,
                    ascended
                        .clone()
                        .unwrap_or_else(|| inputs[p.index()].clone()),
                )
            })
            .collect()
    }

    /// Multi-value `f_ba`: the supreme committee agrees on an ℓ-byte
    /// value by per-byte composition — one phase-king instance per byte
    /// position over the same committee (byte `0` runs chained under the
    /// pipelined driver when a predecessor certificate is pending). A
    /// leader-value design would trade these rounds for validation
    /// complexity; composition keeps every byte under the same proven
    /// agreement engine.
    pub fn try_committee_ba_bytes(
        &mut self,
        committee_values: &BTreeMap<PartyId, Vec<u8>>,
        width: usize,
    ) -> Result<Vec<u8>, ProtocolError> {
        let mut value = Vec::with_capacity(width);
        for pos in 0..width {
            let byte_inputs: BTreeMap<PartyId, u8> = committee_values
                .iter()
                .map(|(&p, v)| (p, v.get(pos).copied().unwrap_or(0)))
                .collect();
            let byte = if pos == 0 {
                self.try_committee_ba_chained(&byte_inputs)?
            } else {
                self.try_committee_ba(&byte_inputs)?
            };
            value.push(byte);
        }
        Ok(value)
    }

    /// The honest parties' unanimous input value, when one exists — the
    /// reference for the validity verdict.
    fn unanimous_value(&self, inputs: &[Vec<u8>]) -> Option<Vec<u8>> {
        let honest_inputs: BTreeSet<&Vec<u8>> =
            self.honest.iter().map(|p| &inputs[p.index()]).collect();
        (honest_inputs.len() == 1)
            .then(|| (*honest_inputs.iter().next().expect("nonempty")).clone())
    }

    /// Agreement/validity/stall verdicts over one instance's outputs —
    /// the multi-value mirror of the single-shot verdict logic.
    fn judge_values(
        &self,
        unanimous_input: Option<Vec<u8>>,
        round: BytesRoundOutcome,
    ) -> Result<MultiValueOutcome, ProtocolError> {
        let honest_outputs: Vec<Option<&Vec<u8>>> = self
            .honest
            .iter()
            .map(|p| round.outputs[p.index()].as_ref())
            .collect();
        let delivered: BTreeSet<&Vec<u8>> = honest_outputs.iter().copied().flatten().collect();
        if honest_outputs.iter().any(|o| o.is_none()) && delivered.len() <= 1 {
            return Err(ProtocolError::Stalled {
                phase: ProtocolPhase::Certification,
                delivered: honest_outputs.iter().flatten().count(),
                honest: honest_outputs.len(),
            });
        }
        let agreement = honest_outputs.iter().all(|o| o.is_some())
            && honest_outputs.windows(2).all(|w| w[0] == w[1]);
        let output = if agreement {
            honest_outputs.first().copied().flatten()
        } else {
            None
        };
        let validity = match &unanimous_input {
            Some(v) => output == Some(v),
            None => true,
        };
        Ok(MultiValueOutcome {
            value: round.value,
            outputs: round.outputs,
            agreement,
            validity,
            certificate_len: round.certificate_len,
        })
    }

    /// Honest bytes sent so far (the cumulative figure step snapshots and
    /// instance baselines are deltas of).
    fn honest_bytes_sent(&self) -> u64 {
        self.honest
            .iter()
            .map(|&p| self.net.metrics().party(p).bytes_sent)
            .sum()
    }

    /// Captures the cumulative counters an instance's report will later
    /// be a delta of.
    fn instance_baseline(&self) -> InstanceBaseline {
        InstanceBaseline {
            index: self.epoch,
            bytes: self.honest_bytes_sent(),
            rounds: self.net.metrics().rounds(),
            steps_len: self.steps.len(),
            cache: self.scheme.cache_stats(),
        }
    }

    /// Settles an instance: computes its accounting slice against the
    /// baseline and records it at the service level.
    fn finish_instance(
        &mut self,
        baseline: InstanceBaseline,
        overlapped_rounds: u64,
    ) -> InstanceReport {
        let cache = match (self.scheme.cache_stats(), baseline.cache) {
            (Some(now), Some(then)) => Some(CacheStats {
                hits: now.hits - then.hits,
                misses: now.misses - then.misses,
                warm_hits: now.warm_hits - then.warm_hits,
            }),
            _ => None,
        };
        let report = InstanceReport {
            index: baseline.index,
            total_bytes: self.honest_bytes_sent() - baseline.bytes,
            rounds: self.net.metrics().rounds() - baseline.rounds,
            overlapped_rounds,
            steps: self.steps[baseline.steps_len..].to_vec(),
            cache,
            transcript_digest: self.net.transcript().and_then(|t| t.last().copied()),
        };
        self.instance_reports.push(report.clone());
        report
    }

    /// Inline chained validation of the previous instance's certificate:
    /// every honest supreme-committee member re-verifies it (the scheme's
    /// certificate cache collapses the repeats into warm hits). Used by
    /// sequentially-driven instances; the pipelined driver spreads the
    /// same validations across the successor's committee rounds instead
    /// ([`Service::try_committee_ba_chained`]). Returns the number of
    /// member-validations that accepted.
    pub fn validate_chained_certificate(&self) -> usize {
        let Some(bytes) = &self.last_certificate else {
            return 0;
        };
        let Ok(cert) = wire::decode_msg::<Certificate>(bytes) else {
            return 0;
        };
        let Ok(sig) = decode_from_slice::<S::Signature>(&cert.sig) else {
            return 0;
        };
        let signed = wire::encode_msg(&ValueSeed {
            epoch: cert.epoch,
            value: cert.value,
            seed: cert.seed,
        });
        self.supreme_committee()
            .iter()
            .filter(|p| !self.corrupt.contains(p))
            .filter(|_| self.scheme.verify(&self.pp, &self.keyboard, &signed, &sig))
            .count()
    }

    /// Opens the next agreement instance on this service: reserves one
    /// slot of the establishment's one-time signing budget (structured
    /// [`ProtocolError::KeyBudget`] when spent — never a panic, and the
    /// service stays usable for inspection), advances the scheme's
    /// certificate-cache generation, and chain-validates the previous
    /// instance's certificate.
    pub fn begin_instance(&mut self) -> Result<Instance<'_, 'a, S>, ProtocolError> {
        let baseline = self.instance_baseline();
        self.reserve_epoch()?;
        if self.epoch > 0 {
            self.scheme.advance_cache_generation();
            self.validate_chained_certificate();
        }
        Ok(Instance {
            service: self,
            baseline,
        })
    }

    /// Fan-in + committee agreement + coin for one instance's single-byte
    /// inputs; certification follows via [`Service::certify_bytes`] (or is
    /// deferred by the pipelined driver).
    fn agree_bits(
        &mut self,
        inputs: &[u8],
        chained: bool,
    ) -> Result<(Vec<u8>, Digest), ProtocolError> {
        let committee_inputs = self.robust_committee_inputs(inputs);
        let y = if chained {
            self.try_committee_ba_chained(&committee_inputs)?
        } else {
            self.try_committee_ba(&committee_inputs)?
        };
        let s = self.try_committee_coin()?;
        self.snap("2:committee-ba+coin");
        Ok((vec![y], s))
    }

    /// Fan-in + committee agreement + coin over ℓ-byte values. Width-1
    /// instances take the plain bit path (identical charges to a
    /// single-shot run); wider values fan in whole ([`MvInput`]) and
    /// agree per byte.
    fn agree_values(
        &mut self,
        inputs: &[Vec<u8>],
        chained: bool,
    ) -> Result<(Vec<u8>, Digest), ProtocolError> {
        let width = inputs.iter().map(Vec::len).max().unwrap_or(0);
        if width <= 1 {
            let bits: Vec<u8> = inputs
                .iter()
                .map(|v| v.first().copied().unwrap_or(0))
                .collect();
            return self.agree_bits(&bits, chained);
        }
        let committee_values = self.robust_committee_values(inputs);
        let value = if chained {
            self.try_committee_ba_bytes(&committee_values, width)?
        } else {
            // Sequentially-driven instances validated the chain at
            // begin_instance; run every byte under the plain engine.
            let mut value = Vec::with_capacity(width);
            for pos in 0..width {
                let byte_inputs: BTreeMap<PartyId, u8> = committee_values
                    .iter()
                    .map(|(&p, v)| (p, v.get(pos).copied().unwrap_or(0)))
                    .collect();
                value.push(self.try_committee_ba(&byte_inputs)?);
            }
            value
        };
        let s = self.try_committee_coin()?;
        self.snap("2:committee-ba+coin");
        Ok((value, s))
    }

    /// One full instance body: agree, certify, judge.
    fn run_instance_values(
        &mut self,
        inputs: &[Vec<u8>],
    ) -> Result<MultiValueOutcome, ProtocolError> {
        let (value, s) = self.agree_values(inputs, false)?;
        let round = self.certify_bytes(value, s);
        let unanimous = self.unanimous_value(inputs);
        self.judge_values(unanimous, round)
    }

    /// Replaces the committee fault-injection strategy between instances —
    /// the mid-stream chaos knob. The next instance's committee phases
    /// build their adversary from the new spec; timing-fault axes are
    /// establishment-scoped and are not re-armed here.
    pub fn set_chaos(&mut self, spec: Option<StrategySpec>) {
        self.config.chaos = spec;
    }

    /// Per-instance accounting slices recorded so far (the service-level
    /// aggregation of every settled instance's metrics).
    pub fn instance_reports(&self) -> &[InstanceReport] {
        &self.instance_reports
    }

    /// The establishment's one-time signing budget, when the scheme's
    /// epoch capacity is bounded (MSS-backed schemes; `None` for
    /// sortition).
    pub fn budget(&self) -> Option<&LeafBudget> {
        self.budget.as_ref()
    }

    /// Streams `k` agreement instances over this one establishment — the
    /// BA-as-a-service entry point behind the decisions/sec benchmark.
    /// `instances[i][p]` is party `p`'s input value for instance `i`
    /// (width 1 = bit agreement; wider values run multi-value BA).
    ///
    /// Sequential mode runs instances back-to-back via
    /// [`Service::begin_instance`]. Pipelined mode defers instance `i`'s
    /// certification (steps 3–8) into instance `i+1`'s committee phase:
    /// its rounds run under an overlap window and only the remainder the
    /// successor's committee rounds could not cover advances the clock.
    /// Charges always land in full — pipelining hides round latency,
    /// never bytes.
    ///
    /// An instance that fails leaves the stream running (its verdict is
    /// recorded and the epoch slot is retried), except
    /// [`ProtocolError::KeyBudget`], which ends the stream with the
    /// failing instance named.
    ///
    /// # Panics
    ///
    /// Panics if any instance's input slice length differs from `n`, or
    /// if pipelined mode is combined with timing-fault chaos (the overlap
    /// window and the delay queue are mutually exclusive).
    pub fn try_run_stream(
        &mut self,
        instances: &[Vec<Vec<u8>>],
        mode: StreamMode,
    ) -> StreamOutcome {
        let rounds_start = self.net.metrics().rounds();
        let mut outcomes: Vec<InstanceOutcome> = Vec::new();
        let mut overlapped_total = 0u64;
        match mode {
            StreamMode::Sequential => {
                for inputs in instances {
                    match self.begin_instance() {
                        Ok(instance) => {
                            let index = instance.index();
                            let (result, report) = instance.run_values(inputs);
                            outcomes.push(InstanceOutcome {
                                index,
                                result,
                                report,
                            });
                        }
                        Err(reason) => {
                            outcomes.push(self.refused_instance(reason));
                            break;
                        }
                    }
                }
            }
            StreamMode::Pipelined => {
                assert!(
                    self.net.timing().is_none(),
                    "pipelined streaming is mutually exclusive with timing-fault chaos"
                );
                // Instance i's agreed (value, seed) parked while its
                // certification waits for instance i+1's committee phase.
                struct Deferred {
                    index: u64,
                    value: Vec<u8>,
                    seed: Digest,
                    unanimous: Option<Vec<u8>>,
                    baseline: InstanceBaseline,
                }
                let mut pending: Option<Deferred> = None;
                for (i, inputs) in instances.iter().enumerate() {
                    // Settle the predecessor: its certification runs now,
                    // inside an overlap window. The rounds it would cost
                    // are absorbed; whatever this instance's committee
                    // phase cannot cover re-surfaces below.
                    let mut absorbed = 0u64;
                    if let Some(d) = pending.take() {
                        self.net.begin_round_overlap();
                        let round = self.certify_bytes_at(d.index, d.value, d.seed);
                        absorbed = self.net.end_round_overlap();
                        let result = self.judge_values(d.unanimous, round);
                        let report = self.finish_instance(d.baseline, absorbed);
                        outcomes.push(InstanceOutcome {
                            index: d.index,
                            result,
                            report,
                        });
                    }
                    let baseline = self.instance_baseline();
                    if let Err(reason) = self.reserve_epoch() {
                        // No successor phase will cover the absorbed
                        // rounds: they land on the clock after all.
                        for _ in 0..absorbed {
                            self.net.bump_round();
                        }
                        outcomes.push(self.refused_instance(reason));
                        break;
                    }
                    if self.epoch > 0 {
                        self.scheme.advance_cache_generation();
                    }
                    let rounds_before = self.net.metrics().rounds();
                    let agreed = self.agree_values(inputs, true);
                    // Rounds the committee phase actually ran bound how
                    // much deferred certification it can hide; the
                    // uncovered remainder advances the clock for real.
                    let covered = self.net.metrics().rounds() - rounds_before;
                    let hidden = absorbed.min(covered);
                    overlapped_total += hidden;
                    for _ in 0..absorbed.saturating_sub(covered) {
                        self.net.bump_round();
                    }
                    match agreed {
                        Ok((value, s)) => {
                            let unanimous = self.unanimous_value(inputs);
                            let index = self.epoch;
                            if i + 1 < instances.len() {
                                pending = Some(Deferred {
                                    index,
                                    value,
                                    seed: s,
                                    unanimous,
                                    baseline,
                                });
                                // The successor's committee phase keys off
                                // its own epoch while this certification
                                // is still pending.
                                self.epoch += 1;
                            } else {
                                let round = self.certify_bytes(value, s);
                                let result = self.judge_values(unanimous, round);
                                let report = self.finish_instance(baseline, 0);
                                outcomes.push(InstanceOutcome {
                                    index,
                                    result,
                                    report,
                                });
                            }
                        }
                        Err(reason) => {
                            let index = self.epoch;
                            let report = self.finish_instance(baseline, 0);
                            outcomes.push(InstanceOutcome {
                                index,
                                result: Err(reason),
                                report,
                            });
                        }
                    }
                }
                // A trailing deferred instance (the loop ended on a failed
                // successor) settles unoverlapped.
                if let Some(d) = pending.take() {
                    let round = self.certify_bytes_at(d.index, d.value, d.seed);
                    let result = self.judge_values(d.unanimous, round);
                    let report = self.finish_instance(d.baseline, 0);
                    outcomes.push(InstanceOutcome {
                        index: d.index,
                        result,
                        report,
                    });
                }
            }
        }
        let decisions = outcomes
            .iter()
            .filter(|o| o.result.as_ref().map(|m| m.agreement).unwrap_or(false))
            .count();
        StreamOutcome {
            instances: outcomes,
            decisions,
            total_rounds: self.net.metrics().rounds() - rounds_start,
            overlapped_rounds: overlapped_total,
        }
    }

    /// The zero-work outcome of an instance the signing budget refused.
    fn refused_instance(&self, reason: ProtocolError) -> InstanceOutcome {
        InstanceOutcome {
            index: self.epoch,
            result: Err(reason),
            report: InstanceReport {
                index: self.epoch,
                total_bytes: 0,
                rounds: 0,
                overlapped_rounds: 0,
                steps: Vec::new(),
                cache: None,
                transcript_digest: self.net.transcript().and_then(|t| t.last().copied()),
            },
        }
    }
}

/// Cumulative-counter snapshot an [`InstanceReport`] is a delta of.
#[derive(Clone, Copy, Debug)]
struct InstanceBaseline {
    index: u64,
    bytes: u64,
    rounds: u64,
    steps_len: usize,
    cache: Option<CacheStats>,
}

/// One agreement instance borrowing an established [`Service`]: opened by
/// [`Service::begin_instance`] (which draws the instance's one-time
/// signing slot and chains to its predecessor), consumed by one `run_*`
/// call that returns the verdicts together with the instance-scoped
/// accounting slice.
pub struct Instance<'s, 'a, S: Srds> {
    service: &'s mut Service<'a, S>,
    baseline: InstanceBaseline,
}

impl<'s, 'a, S> Instance<'s, 'a, S>
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    /// The instance's index (the service epoch it runs as).
    pub fn index(&self) -> u64 {
        self.baseline.index
    }

    /// Read access to the underlying service.
    pub fn service(&self) -> &Service<'a, S> {
        self.service
    }

    /// Runs the instance over single-byte inputs: fan-in, committee BA and
    /// coin, certification, spread — bit-compatible with the single-shot
    /// [`try_run_ba`] body — and settles it.
    pub fn run_bits(
        self,
        inputs: &[u8],
    ) -> (Result<MultiValueOutcome, ProtocolError>, InstanceReport) {
        let values: Vec<Vec<u8>> = inputs.iter().map(|&b| vec![b]).collect();
        self.run_values(&values)
    }

    /// Runs the instance over ℓ-byte values (whole-value fan-in, per-byte
    /// committee agreement, one certificate) and settles it.
    pub fn run_values(
        self,
        inputs: &[Vec<u8>],
    ) -> (Result<MultiValueOutcome, ProtocolError>, InstanceReport) {
        let Instance { service, baseline } = self;
        let result = service.run_instance_values(inputs);
        let report = service.finish_instance(baseline, 0);
        (result, report)
    }
}

/// Runs `π_ba` with the given SRDS scheme.
///
/// `inputs[i]` is party `i`'s input bit (values other than 0/1 are allowed
/// but the protocol agrees on a `u8`).
///
/// # Panics
///
/// Panics if `inputs.len() != config.n` or the configuration is internally
/// inconsistent (e.g. more corruptions than parties). Use [`try_run_ba`]
/// for a variant that reports such failures as [`RunOutcome::Failed`].
pub fn run_ba<S>(scheme: &S, config: &BaConfig, inputs: &[u8]) -> BaOutcome
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    match try_run_ba(scheme, config, inputs) {
        RunOutcome::Completed(out) => out,
        RunOutcome::Failed { phase, reason } => panic!("pi_ba failed in {phase}: {reason}"),
    }
}

/// Runs `π_ba`, reporting protocol-level failures (corruption past the
/// design bound, committee timeouts, honest divergence) as structured
/// [`RunOutcome::Failed`] values instead of panicking — the entry point
/// for fault-injection harnesses that deliberately exceed fault bounds.
///
/// # Panics
///
/// Panics only on caller errors (`inputs.len() != config.n`).
pub fn try_run_ba<S>(scheme: &S, config: &BaConfig, inputs: &[u8]) -> RunOutcome
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    assert_eq!(inputs.len(), config.n, "one input per party");
    let mut session = match Session::try_establish(scheme, config) {
        Ok(session) => session,
        Err(reason) => {
            return RunOutcome::Failed {
                phase: reason.phase(),
                reason,
            }
        }
    };
    run_established(&mut session, inputs)
}

/// One backend's view of a full `π_ba` run over a [`Transport`]: the
/// protocol outcome plus the evidence the differential oracle compares —
/// the chained per-exchange delivery transcript and the backend's socket
/// statistics.
#[derive(Clone, Debug)]
pub struct TransportRun {
    /// Protocol-level outcome (success or structured failure).
    pub outcome: RunOutcome,
    /// Chained delivery-transcript digests, one per `take_staged` batch.
    /// Entry `i` commits the entire delivery history through batch `i`,
    /// so equality of the final entries proves byte-identical delivery.
    pub transcript: Vec<Digest>,
    /// Socket-layer counters (zero for the in-process backend).
    pub stats: pba_net::SocketStats,
    /// The backend's [`Transport::kind`] label.
    pub kind: &'static str,
}

impl TransportRun {
    /// The final transcript digest — the single value two backends must
    /// agree on for their runs to be byte-identical.
    pub fn final_digest(&self) -> Option<Digest> {
        self.transcript.last().copied()
    }
}

/// Runs `π_ba` end-to-end over an explicit delivery backend and returns
/// the outcome together with the delivery transcript — the entry point
/// for differential sim-vs-socket testing. Pass
/// [`pba_net::LocalTransport`] to produce the in-process oracle run and a
/// [`pba_net::TcpTransport`] for a socket-backed replica; identical
/// `(seed, config, inputs)` must yield identical transcripts.
///
/// # Panics
///
/// Panics on caller errors (`inputs.len() != config.n`) or if the config
/// also carries timing-fault chaos (mutually exclusive with a transport).
pub fn try_run_ba_over<S>(
    scheme: &S,
    config: &BaConfig,
    inputs: &[u8],
    transport: Box<dyn Transport>,
) -> TransportRun
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    assert_eq!(inputs.len(), config.n, "one input per party");
    let mut session = match Session::try_establish_over(scheme, config, Some(transport)) {
        Ok(session) => session,
        Err(reason) => {
            return TransportRun {
                outcome: RunOutcome::Failed {
                    phase: reason.phase(),
                    reason,
                },
                transcript: Vec::new(),
                stats: pba_net::SocketStats::default(),
                kind: "failed-establishment",
            }
        }
    };
    let outcome = run_established(&mut session, inputs);
    let transcript = session
        .net
        .transcript()
        .map(|t| t.to_vec())
        .unwrap_or_default();
    let (kind, stats) = match session.net.transport() {
        Some(t) => (t.kind(), t.stats()),
        None => ("none", pba_net::SocketStats::default()),
    };
    TransportRun {
        outcome,
        transcript,
        stats,
        kind,
    }
}

/// Shared post-establishment body of [`try_run_ba`] /
/// [`try_run_ba_over`]: one certified round plus the
/// agreement/validity verdicts.
fn run_established<S>(session: &mut Session<'_, S>, inputs: &[u8]) -> RunOutcome
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    // Certification/coin fan-in rides the robust redundant paths: the
    // supreme committee's inputs arrive through the same byzantine-robust
    // routing as the certificates.
    let committee_inputs = session.robust_committee_inputs(inputs);
    let round = match session.try_certified_round(&committee_inputs) {
        Ok(round) => round,
        Err(reason) => {
            return RunOutcome::Failed {
                phase: reason.phase(),
                reason,
            }
        }
    };

    let honest_outputs: Vec<Option<u8>> = session
        .honest()
        .iter()
        .map(|p| round.outputs[p.index()])
        .collect();
    // Undelivered outputs with no conflicting delivered values are a
    // liveness stall, not a safety breach: report them as a structured
    // certification failure. Conflicting delivered values fall through to
    // `Completed` with `agreement = false` so harnesses see the safety
    // violation itself.
    let delivered: BTreeSet<u8> = honest_outputs.iter().flatten().copied().collect();
    if honest_outputs.iter().any(|o| o.is_none()) && delivered.len() <= 1 {
        let reason = ProtocolError::Stalled {
            phase: ProtocolPhase::Certification,
            delivered: honest_outputs.iter().flatten().count(),
            honest: honest_outputs.len(),
        };
        return RunOutcome::Failed {
            phase: reason.phase(),
            reason,
        };
    }
    let agreement = honest_outputs.iter().all(|o| o.is_some())
        && honest_outputs.windows(2).all(|w| w[0] == w[1]);
    let output = if agreement {
        honest_outputs.first().copied().flatten()
    } else {
        None
    };
    let unanimous_input: Option<u8> = {
        let honest_inputs: BTreeSet<u8> =
            session.honest().iter().map(|p| inputs[p.index()]).collect();
        (honest_inputs.len() == 1).then(|| *honest_inputs.iter().next().expect("nonempty"))
    };
    let validity = match unanimous_input {
        Some(b) => output == Some(b),
        None => true,
    };

    RunOutcome::Completed(BaOutcome {
        outputs: round.outputs,
        agreement,
        output,
        validity,
        report: session.report(),
        steps: session.steps().to_vec(),
        breakdown: session.breakdown(),
        tags_conserved: session.tags_conserve_totals(),
        corrupt: session.corrupt().clone(),
        certificate_len: round.certificate_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_srds::owf::OwfSrds;
    use pba_srds::snark::SnarkSrds;

    #[test]
    fn honest_run_owf_agrees() {
        let scheme = OwfSrds::with_defaults();
        let config = BaConfig::honest(96, b"ba-owf-1");
        let inputs = vec![1u8; 96];
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement, "no agreement: {:?}", out.outputs);
        assert_eq!(out.output, Some(1));
        assert!(out.validity);
        assert!(out.certificate_len.is_some());
    }

    #[test]
    fn honest_run_snark_agrees() {
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-snark-1");
        let inputs = vec![0u8; 64];
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement, "no agreement: {:?}", out.outputs);
        assert_eq!(out.output, Some(0));
        // SNARK certificates are tiny.
        assert!(out.certificate_len.unwrap() < 250);
    }

    #[test]
    fn mixed_inputs_still_agree() {
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-mixed");
        let inputs: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement);
        assert!(out.validity); // vacuous without unanimity
    }

    #[test]
    fn byzantine_corruption_owf() {
        let scheme = OwfSrds::with_defaults();
        let config = BaConfig::byzantine(128, 12, b"ba-byz-owf");
        let inputs = vec![1u8; 128];
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement, "agreement broken: {:?}", out.outputs);
        assert_eq!(out.output, Some(1), "validity broken");
    }

    #[test]
    fn byzantine_corruption_snark() {
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::byzantine(96, 9, b"ba-byz-snark");
        let inputs = vec![0u8; 96];
        let out = run_ba(&scheme, &config, &inputs);
        assert!(out.agreement, "agreement broken: {:?}", out.outputs);
        assert_eq!(out.output, Some(0));
    }

    #[test]
    fn per_party_cost_stays_balanced() {
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(128, b"ba-balance");
        let inputs = vec![1u8; 128];
        let out = run_ba(&scheme, &config, &inputs);
        let avg = out.report.total_bytes as f64 / 128.0;
        assert!(
            (out.report.max_bytes_per_party as f64) < 60.0 * avg,
            "imbalance: max {} vs avg {avg}",
            out.report.max_bytes_per_party
        );
    }

    #[test]
    fn step_reports_cover_all_steps() {
        let scheme = OwfSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-steps");
        let out = run_ba(&scheme, &config, &[1u8; 64]);
        assert_eq!(out.steps.len(), 7);
        assert!(out.steps.iter().any(|s| s.label.starts_with("5:")));
    }

    #[test]
    fn interactive_establishment_agrees() {
        let scheme = SnarkSrds::with_defaults();
        let mut config = BaConfig::byzantine(96, 9, b"ba-interactive");
        config.establishment = Establishment::Interactive;
        let out = run_ba(&scheme, &config, &[1u8; 96]);
        assert!(out.agreement, "interactive establishment broke agreement");
        assert_eq!(out.output, Some(1));
        // The election really cost something.
        assert!(out.steps[0].total_bytes > 0);
    }

    #[test]
    fn over_bound_corruption_fails_gracefully() {
        let scheme = OwfSrds::with_defaults();
        let mut config = BaConfig::byzantine(48, 16, b"ba-over-bound");
        config.corruption = CorruptionPlan::Random { t: 16 }; // 3*16 = 48
        let out = try_run_ba(&scheme, &config, &[1u8; 48]);
        match out {
            RunOutcome::Failed { phase, reason } => {
                assert_eq!(phase, ProtocolPhase::Establishment);
                assert_eq!(
                    reason,
                    ProtocolError::CorruptionBound { corrupt: 16, n: 48 }
                );
            }
            RunOutcome::Completed(_) => panic!("over-bound run completed"),
        }
    }

    #[test]
    fn try_run_matches_run_on_honest_config() {
        let scheme = OwfSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-try-honest");
        let out = try_run_ba(&scheme, &config, &[1u8; 64]);
        let completed = out.completed().expect("honest run must complete");
        assert!(completed.agreement);
        assert_eq!(completed.output, Some(1));
    }

    #[test]
    fn chaos_strategy_hook_drives_committee_adversary() {
        use pba_net::faults::StrategySpec;
        let scheme = SnarkSrds::with_defaults();
        let mut config = BaConfig::byzantine(96, 9, b"ba-chaos-hook");
        config.chaos = Some(StrategySpec::Equivocate);
        let out = try_run_ba(&scheme, &config, &[1u8; 96]);
        // Below the fault bound the protocol must still complete and agree
        // under pure equivocation.
        let completed = out.completed().expect("equivocation under bound");
        assert!(completed.agreement, "outputs: {:?}", completed.outputs);
        assert_eq!(completed.output, Some(1));
    }

    #[test]
    fn protocol_error_display_is_structured() {
        let e = ProtocolError::Timeout {
            phase: ProtocolPhase::CommitteeBa,
            rounds: 40,
        };
        assert_eq!(e.phase(), ProtocolPhase::CommitteeBa);
        assert_eq!(
            e.to_string(),
            "committee-ba hit its round limit after 40 rounds"
        );
        let d = ProtocolError::Disagreement {
            phase: ProtocolPhase::CommitteeCoin,
            distinct: 3,
        };
        assert_eq!(
            d.to_string(),
            "committee-coin ended with 3 distinct honest values"
        );
        let s = ProtocolError::Stalled {
            phase: ProtocolPhase::Certification,
            delivered: 7,
            honest: 40,
        };
        assert_eq!(s.phase(), ProtocolPhase::Certification);
        assert_eq!(
            s.to_string(),
            "certification stalled: only 7 of 40 honest parties obtained output"
        );
    }

    #[test]
    fn session_supports_multiple_rounds() {
        // Three rounds need a 3-slot one-time budget: height 2 gives 4.
        // (The default height-1 scheme would refuse round 3 with a
        // structured KeyBudget error — see the budget test below.)
        let scheme = SnarkSrds::new(pba_srds::snark::SnarkSrdsConfig {
            mss_bits: 32,
            mss_height: 2,
        });
        let config = BaConfig::honest(64, b"ba-multi");
        let mut session = Session::establish(&scheme, &config);
        let committee = session.supreme_committee();
        for round in 0..3u8 {
            let inputs: BTreeMap<PartyId, u8> = committee.iter().map(|&p| (p, round % 2)).collect();
            let out = session.certified_round(&inputs);
            assert_eq!(out.y, round % 2);
            for &p in session.honest() {
                assert_eq!(out.outputs[p.index()], Some(round % 2), "round {round}");
            }
        }
        let budget = session.budget().expect("snark scheme has a bounded budget");
        assert_eq!(budget.capacity(), 4);
        assert_eq!(budget.consumed(), 3);
    }

    #[test]
    fn exhausted_budget_is_a_structured_error_not_a_panic() {
        // Default height 1 = capacity 2: the third certified round must be
        // refused with the failing instance named, and the session must
        // remain usable for inspection.
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig::honest(64, b"ba-budget");
        let mut session = Session::establish(&scheme, &config);
        let committee = session.supreme_committee();
        let inputs: BTreeMap<PartyId, u8> = committee.iter().map(|&p| (p, 1)).collect();
        for _ in 0..2 {
            let out = session.try_certified_round(&inputs).expect("within budget");
            assert_eq!(out.y, 1);
        }
        let err = session
            .try_certified_round(&inputs)
            .expect_err("third round exceeds the capacity-2 budget");
        assert_eq!(
            err,
            ProtocolError::KeyBudget {
                error: KeyError::BudgetExhausted {
                    instance: 2,
                    capacity: 2,
                },
            }
        );
        assert_eq!(err.phase(), ProtocolPhase::Certification);
        assert!(err.to_string().contains("instance 2"), "{err}");
        assert_eq!(session.budget().map(|b| b.remaining()), Some(0));
    }
}
