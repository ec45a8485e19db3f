//! Runs one `pibench` workload and prints its metrics.
//!
//! ```text
//! pibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         [--commit <id>] [--trace-out <file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the bare scheme.
//! `--trace 1` is the separate traced run: a pass that alternates bare
//! and SRDS-wrapped cycles, and a pass that steps the protocol phases
//! one at a time; it prints the per-layer metrics
//! and writes its spans to `--trace-out`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. The process exits non-zero when any decision or self-check
//! failed.

use pba_core::protocol::StreamMode;
use pba_crypto::codec::{Decode, Encode};
use pba_srds::Srds;
use pibench::gate::Tally;
use pibench::timed::{SrdsStats, TimedSrds};
use pibench::trace::Tracer;
use pibench::workload::{
    compare_stepped, find, run_cycle, run_stepped_cycle, time_setup, CryptoCounters, Cycle,
    DecisionCounters, SchemeKind, Workload, WORKLOADS,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(find(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--commit" => commit = value,
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
        trace_out,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a run reports besides its metrics.
struct Outcome {
    metrics: Vec<Metric>,
    tally: Tally,
    /// Human-readable lines printed ahead of the result.
    notes: Vec<String>,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs cycles 0, 1, … until `deadline`; cycle 0 always runs in full so
/// its exact counts exist. Stops early if an establishment fails.
fn cycles_until(
    deadline: Instant,
    mut one: impl FnMut(u64, Option<Instant>) -> Option<Cycle>,
) -> Vec<Cycle> {
    let mut cycles = Vec::new();
    for c in 0.. {
        let Some(cycle) = one(c, (c > 0).then_some(deadline)) else {
            break;
        };
        cycles.push(cycle);
        if Instant::now() >= deadline {
            break;
        }
    }
    cycles
}

fn decisions_per_s(cycles: &[Cycle]) -> f64 {
    let agreed: usize = cycles.iter().map(|c| c.agreed).sum();
    let busy: Duration = cycles.iter().flat_map(|c| &c.calls).map(|&(d, _)| d).sum();
    agreed as f64 / busy.as_secs_f64()
}

fn decisions(cycles: &[Cycle]) -> usize {
    cycles.iter().flat_map(|c| &c.calls).map(|&(_, k)| k).sum()
}

/// The end-to-end run: bare scheme, no tracing.
fn run_untraced<S>(w: &Workload, args: &Args, make: impl Fn() -> S) -> Outcome
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    for _ in 0..w.extra_setups {
        match time_setup(w, &make()) {
            Ok(d) => setups.push(d.as_secs_f64()),
            Err(e) => tally.fail_check(format!("establishment failed: {e}")),
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let cycles = cycles_until(deadline, |c, d| {
        run_cycle(w, &make(), args.seed, c, d, &mut tally, None)
    });
    setups.extend(cycles.iter().map(|c| c.setup.as_secs_f64()));
    let mut latencies: Vec<f64> = cycles
        .iter()
        .flat_map(|c| &c.calls)
        .map(|&(d, k)| d.as_secs_f64() * 1e3 / k as f64)
        .collect();
    let mut notes = vec![
        format!("setup samples: {}", setups.len()),
        format!("decision_ms.p50 samples: {}", latencies.len()),
        format!(
            "cycles: {}, decisions: {}",
            cycles.len(),
            decisions(&cycles)
        ),
        format!(
            "stream call walls (ms): {:?}",
            cycles
                .iter()
                .flat_map(|c| &c.calls)
                .map(|&(d, _)| (d.as_secs_f64() * 1e3).round())
                .collect::<Vec<_>>()
        ),
    ];
    if w.mode == StreamMode::Pipelined {
        notes.push(
            "decision_ms on a pipelined stream is the stream call's wall time over its decisions"
                .into(),
        );
    }
    let setup_s = median(&mut setups);
    let decision_ms = median(&mut latencies);
    let mut metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("decisions_per_s", decisions_per_s(&cycles), "1/s"),
        metric("decision_ms.p50", decision_ms, "ms"),
    ];
    match cycles.first().and_then(|c| c.exact.as_ref()) {
        Some(exact) => {
            let k = exact.decisions as f64;
            metrics.extend([
                metric("max_bits_per_party", exact.max_bits_per_party as f64, "bit"),
                metric("rounds_per_decision", exact.rounds as f64 / k, "count"),
                metric("bytes_per_decision", exact.decision_bytes as f64 / k, "B"),
                metric(
                    "certificate_bytes",
                    exact
                        .certificate_bytes
                        .first()
                        .copied()
                        .flatten()
                        .unwrap_or(0) as f64,
                    "B",
                ),
            ]);
        }
        None => tally.fail_check("the first establishment did not serve all its decisions".into()),
    }
    metrics.push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    notes.push(format!("failed_share: {}", tally.failed_share()));
    Outcome {
        metrics,
        tally,
        notes,
    }
}

/// The traced run: a paired pass (bare and SRDS-wrapped cycles in turn)
/// and a stepped pass (wrapper, one public phase method at a time).
fn run_traced<S>(w: &Workload, args: &Args, make: impl Fn() -> S) -> Outcome
where
    S: Srds,
    S::Signature: Encode + Decode,
{
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    let share = |f: f64| start + Duration::from_secs_f64(args.seconds * f);

    // Bare and wrapped cycles alternate, the same cycle index each, and
    // swap order every pair, so host drift over the run hits both alike
    // and `tracing.overhead` compares like with like.
    let mut reference = Vec::new();
    let mut streamed = Vec::new();
    let mut srds = SrdsStats::default();
    let streamed_from = tracer.len();
    tracer.span("pass.paired", || {
        for c in 0.. {
            let bare = |tally: &mut Tally| run_cycle(w, &make(), args.seed, c, None, tally, None);
            let mut wrapped = |tally: &mut Tally| {
                let timed = TimedSrds::new(make(), &tracer);
                let cycle = run_cycle(w, &timed, args.seed, c, None, tally, Some(&tracer));
                srds.add(&timed.stats());
                cycle
            };
            let pair = if c % 2 == 0 {
                let b = bare(&mut tally);
                (b, wrapped(&mut tally))
            } else {
                let t = wrapped(&mut tally);
                (bare(&mut tally), t)
            };
            let (Some(b), Some(t)) = pair else {
                break;
            };
            reference.push(b);
            streamed.push(t);
            if Instant::now() >= share(0.625) {
                break;
            }
        }
    });

    let stepped_from = tracer.len();
    let mut stepped = Vec::new();
    let mut committee_rounds = 0;
    tracer.span("pass.stepped", || {
        for c in 0.. {
            let timed = TimedSrds::new(make(), &tracer);
            let Some(cycle) = run_stepped_cycle(w, &timed, args.seed, c, &mut tally, &tracer)
            else {
                break;
            };
            committee_rounds += cycle.committee_rounds;
            stepped.push(cycle.exact);
            if Instant::now() >= share(1.0) {
                break;
            }
        }
    });

    // Self-checks: the wrapper changes nothing at full size, and the
    // stepped phases reproduce the stream exactly.
    let exact_of = |cycles: &[Cycle], c: usize| cycles.get(c).and_then(|cy| cy.exact.clone());
    for c in 0..streamed.len() {
        match (exact_of(&reference, c), exact_of(&streamed, c)) {
            (Some(bare), Some(wrapped)) if bare == wrapped => {}
            (bare, wrapped) => tally.fail_check(format!(
                "cycle {c}: wrapped stream differs from the bare stream: {wrapped:?} vs {bare:?}"
            )),
        }
    }
    let mut compared = 0;
    for (c, exact) in stepped.iter().enumerate() {
        if let Some(stream) = exact_of(&streamed, c) {
            compared += 1;
            if let Err(e) = compare_stepped(&stream, exact) {
                tally.fail_check(format!("cycle {c}: {e}"));
            }
        }
    }
    if compared == 0 {
        tally.fail_check("no stepped cycle had a streamed counterpart to check".into());
    }

    let streamed_decisions = decisions(&streamed).max(1) as f64;
    let stepped_decisions = stepped.iter().map(|e| e.decisions).sum::<usize>().max(1) as f64;
    let establishments = streamed.len().max(1) as f64;
    let mut counters = DecisionCounters::default();
    for cycle in &streamed {
        counters.add(&cycle.counters);
    }
    let overlapped: u64 = streamed
        .iter()
        .filter_map(|c| c.exact.as_ref())
        .map(|e| e.overlapped_rounds)
        .sum();
    let overlapped_decisions: usize = streamed
        .iter()
        .filter_map(|c| c.exact.as_ref())
        .map(|e| e.decisions)
        .sum();
    let lookups = counters.cache.hits + counters.cache.misses;
    let digests = counters.crypto.lane_digests + counters.crypto.scalar_digests;
    let per = |x: u64| x as f64 / streamed_decisions;
    let phase = |name: &str| tracer.total_ms(stepped_from, name) / stepped_decisions;
    let establish_spans = tracer.total_ms(streamed_from, "establish");
    let establish_count = (streamed.len() + stepped.len()).max(1) as f64;

    let mut metrics: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| metrics.push(metric(name, value, unit));
    put("srds.verify.calls", per(srds.verify.calls), "count");
    put(
        "srds.verify_ms",
        srds.verify.ms() / streamed_decisions,
        "ms",
    );
    put("srds.verify.rejects", per(srds.verify_rejects), "count");
    put(
        "srds.keygen.calls",
        srds.keygen.calls as f64 / establishments,
        "count",
    );
    put("srds.keygen_ms", srds.keygen.ms() / establishments, "ms");
    put("srds.sign.calls", per(srds.sign.calls), "count");
    put("srds.sign_ms", srds.sign.ms() / streamed_decisions, "ms");
    put("srds.aggregate.calls", per(srds.aggregate.calls), "count");
    put(
        "srds.aggregate_ms",
        srds.aggregate.ms() / streamed_decisions,
        "ms",
    );
    put("srds.cache.hits", per(counters.cache.hits), "count");
    put("srds.cache.misses", per(counters.cache.misses), "count");
    put(
        "srds.cache.warm_hits",
        per(counters.cache.warm_hits),
        "count",
    );
    put(
        "srds.cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            counters.cache.hits as f64 / lookups as f64
        },
        "ratio",
    );
    put("protocol.certify_ms", phase("phase.certify"), "ms");
    put(
        "protocol.committee_ba_ms",
        phase("phase.committee_ba"),
        "ms",
    );
    put("protocol.coin_ms", phase("phase.coin"), "ms");
    put("protocol.fanin_ms", phase("phase.fanin"), "ms");
    put(
        "protocol.chain_validate_ms",
        phase("phase.chain_validate"),
        "ms",
    );
    put(
        "protocol.establish_ms",
        establish_spans / establish_count,
        "ms",
    );
    put(
        "protocol.uncovered_ms",
        tracer.uncovered_ms(stepped_from, "decision", "phase.") / stepped_decisions,
        "ms",
    );
    if let Some(first) = stepped.first() {
        let k = first.decisions as f64;
        for (label, bytes) in &first.step_bytes {
            // Step 1 is paid once per establishment, the others per decision.
            let per_unit = if label.starts_with("1:") { 1.0 } else { k };
            put(
                &format!("protocol.step_bytes.{}", step_name(label)),
                *bytes as f64 / per_unit,
                "B",
            );
        }
    }
    put(
        "net.committee_rounds",
        committee_rounds as f64 / stepped_decisions,
        "count",
    );
    put("net.msgs_per_decision", per(counters.msgs), "count");
    put(
        "net.max_locality",
        streamed.first().map_or(0, |c| c.max_locality) as f64,
        "count",
    );
    put(
        "net.overlapped_rounds",
        overlapped as f64 / overlapped_decisions.max(1) as f64,
        "count",
    );
    put(
        "crypto.sha256.lane_digests",
        per(counters.crypto.lane_digests),
        "count",
    );
    put(
        "crypto.sha256.scalar_digests",
        per(counters.crypto.scalar_digests),
        "count",
    );
    put(
        "crypto.sha256.occupancy",
        if digests == 0 {
            0.0
        } else {
            counters.crypto.lane_digests as f64 / digests as f64
        },
        "ratio",
    );
    let setup_digests = |f: fn(&CryptoCounters) -> u64| {
        streamed.iter().map(|c| f(&c.setup_crypto)).sum::<u64>() as f64 / establishments
    };
    put(
        "crypto.sha256.setup_lane_digests",
        setup_digests(|c| c.lane_digests),
        "count",
    );
    put(
        "crypto.sha256.setup_scalar_digests",
        setup_digests(|c| c.scalar_digests),
        "count",
    );
    put(
        "crypto.merkle.proof_cache_hits",
        per(counters.crypto.proof_hits),
        "count",
    );
    put(
        "crypto.merkle.proof_cache_misses",
        per(counters.crypto.proof_misses),
        "count",
    );
    // Over the paired cycles: wrapped against bare, same inputs.
    let untraced = decisions_per_s(&reference);
    let traced = decisions_per_s(&streamed);
    put("tracing.overhead", traced / untraced, "ratio");

    let mut notes = vec![
        format!(
            "passes: {} bare/wrapped cycle pairs ({} wrapped decisions), stepped {} cycles",
            streamed.len(),
            decisions(&streamed),
            stepped.len()
        ),
        format!("stepped cycles checked against the stream: {compared}"),
        format!("decisions_per_s untraced {untraced}, traced {traced}"),
        "crypto.sha256.* counts batch-API digests only: OWF Lamport verification hashes \
         through the scalar Sha256 path, which engine_stats does not see"
            .into(),
    ];
    if let Some(path) = &args.trace_out {
        match tracer.write_jsonl(path) {
            Ok(()) => notes.push(format!(
                "spans: {} written to {}",
                tracer.len(),
                path.display()
            )),
            Err(e) => tally.fail_check(format!("writing spans to {}: {e}", path.display())),
        }
    }
    Outcome {
        metrics,
        tally,
        notes,
    }
}

/// A Fig. 3 step label as a metric-name segment: `3:disseminate-(y,s)`
/// becomes `3_disseminate-y-s`.
fn step_name(label: &str) -> String {
    let mut name = String::new();
    for ch in label.chars() {
        match ch {
            ':' => name.push('_'),
            '(' | ')' => {}
            ',' | '+' => name.push('-'),
            c => name.push(c),
        }
    }
    name
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let outcome = match (w.scheme, args.trace) {
        (SchemeKind::Owf, false) => run_untraced(w, &args, pba_bench::bench_owf),
        (SchemeKind::Owf, true) => run_traced(w, &args, pba_bench::bench_owf),
        (SchemeKind::Snark, false) => run_untraced(w, &args, || w.snark_scheme()),
        (SchemeKind::Snark, true) => run_traced(w, &args, || w.snark_scheme()),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"stamp\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"n\":{},\"threads\":{},\
         \"nproc\":{},\"lanes\":{},\"commit\":{}}}}}",
        json_string(w.name),
        args.seed,
        u8::from(args.trace),
        w.n,
        w.threads,
        nproc,
        pba_crypto::sha256::LANES,
        json_string(&args.commit),
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<36} {:>18} {}", m.name, json_number(m.value), m.unit);
    }
    let tally = &outcome.tally;
    if let Some(reason) = &tally.first_failure {
        println!(
            "# FAILED ({} of {} decisions, {} other checks): {reason}",
            tally.failed, tally.attempted, tally.check_failures
        );
    }
    let correct = tally.passed();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
