//! The benchmark's own checks, at small n: the SRDS wrapper changes
//! nothing, the phase-stepped run reproduces the stream, and the gate
//! counts a wrong value as a failure.

use pba_core::protocol::{BaConfig, Service, StreamMode};
use pba_crypto::codec::{Decode, Encode};
use pba_srds::Srds;
use pibench::gate::{check_decision, Tally};
use pibench::timed::TimedSrds;
use pibench::trace::Tracer;
use pibench::workload::{compare_stepped, run_cycle, run_stepped_cycle, SchemeKind, Workload};

/// What a wrapped and a bare run must agree on.
type Observed = (
    pba_net::Report,
    Vec<(&'static str, u64, u64)>,
    Vec<Option<usize>>,
);

fn observe<S>(scheme: &S, config: &BaConfig, values: &[Vec<u8>]) -> Observed
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let mut service = Service::try_establish(scheme, config).expect("establishes");
    let instances: Vec<Vec<Vec<u8>>> = values.iter().map(|v| vec![v.clone(); config.n]).collect();
    let stream = service.try_run_stream(&instances, StreamMode::Sequential);
    let certificates = stream
        .instances
        .iter()
        .map(|i| {
            i.result
                .as_ref()
                .expect("instance completes")
                .certificate_len
        })
        .collect();
    let steps = service
        .steps()
        .iter()
        .map(|s| (s.label, s.total_bytes, s.max_bytes_after))
        .collect();
    (service.report(), steps, certificates)
}

fn small(name: &'static str, scheme: SchemeKind, mode: StreamMode) -> Workload {
    Workload {
        name,
        scheme,
        n: 64,
        corrupt: 6,
        threads: 2,
        per_establishment: if scheme == SchemeKind::Owf { 1 } else { 3 },
        mode,
        extra_setups: 0,
    }
}

#[test]
fn wrapped_run_equals_bare_run() {
    let tracer = Tracer::new();
    let config = BaConfig::byzantine(64, 6, b"wrapper-identity");
    let values = vec![vec![7u8, 1, 9], vec![2u8, 2, 2]];
    let w = small("snark", SchemeKind::Snark, StreamMode::Sequential);

    let bare = observe(&w.snark_scheme(), &config, &values);
    let timed = TimedSrds::new(w.snark_scheme(), &tracer);
    let wrapped = observe(&timed, &config, &values);
    assert_eq!(bare, wrapped);
    let stats = timed.stats();
    assert!(stats.keygen.calls > 0 && stats.sign.calls > 0);
    assert!(stats.aggregate.calls > 0 && stats.verify.calls > 0);
    assert!(!tracer.is_empty());

    let config = BaConfig::honest(64, b"wrapper-identity-owf");
    let values = vec![vec![5u8]];
    let bare = observe(&pba_bench::bench_owf(), &config, &values);
    let timed = TimedSrds::new(pba_bench::bench_owf(), &tracer);
    let wrapped = observe(&timed, &config, &values);
    assert_eq!(bare, wrapped);
    assert!(timed.stats().verify.calls > 0);
}

fn stepped_matches_stream<S>(w: &Workload, make: impl Fn() -> S)
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let stream = run_cycle(w, &make(), 42, 0, None, &mut tally, None)
        .expect("establishes")
        .exact
        .expect("cycle completes");
    let timed = TimedSrds::new(make(), &tracer);
    let stepped = run_stepped_cycle(w, &timed, 42, 0, &mut tally, &tracer).expect("establishes");
    assert_eq!(tally.failed, 0, "{:?}", tally.first_failure);
    assert_eq!(tally.attempted, 2 * w.per_establishment as u64);
    compare_stepped(&stream, &stepped.exact).expect("stepped run reproduces the stream");
    assert!(stepped.committee_rounds > 0);
    assert!(tracer.total_ms(0, "phase.certify") > 0.0);
}

#[test]
fn stepped_phases_reproduce_sequential_stream() {
    let w = small("seq", SchemeKind::Snark, StreamMode::Sequential);
    stepped_matches_stream(&w, || w.snark_scheme());
    let w = small("owf", SchemeKind::Owf, StreamMode::Sequential);
    stepped_matches_stream(&w, pba_bench::bench_owf);
}

#[test]
fn stepped_phases_reproduce_pipelined_stream() {
    let w = small("pipe", SchemeKind::Snark, StreamMode::Pipelined);
    stepped_matches_stream(&w, || w.snark_scheme());
}

#[test]
fn gate_counts_a_wrong_value_as_failed() {
    let w = small("gate", SchemeKind::Snark, StreamMode::Sequential);
    let scheme = w.snark_scheme();
    let mut service = Service::try_establish(&scheme, &w.config()).expect("establishes");
    let value = w.value(3, 0, 0);
    let stream = service.try_run_stream(&[vec![value.clone(); w.n]], StreamMode::Sequential);
    let result = &stream.instances[0].result;
    let tags = service.tags_conserve_totals();

    let mut tally = Tally::default();
    tally.record(check_decision(result, &value, tags));
    assert_eq!((tally.attempted, tally.failed), (1, 0));

    let mut wrong = value.clone();
    wrong[0] ^= 1;
    tally.record(check_decision(result, &wrong, tags));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(tally.first_failure.as_deref().unwrap().contains("differs"));
    assert_eq!(tally.failed_share(), 0.5);

    tally.record(check_decision(result, &value, false));
    assert_eq!(tally.failed, 2);

    // A failed self-check fails the run but is not a decision.
    let mut checks = Tally::default();
    checks.record(Ok(()));
    assert!(checks.passed());
    checks.fail_check("stepped run differs from the stream".into());
    assert_eq!(
        (checks.attempted, checks.failed, checks.check_failures),
        (1, 0, 1)
    );
    assert!(!checks.passed());
}
