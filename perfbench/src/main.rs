//! The federation benchmark.
//!
//! ```console
//! perfbench --workload <steady|rollout|lossy-campaign> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file>]
//! ```
//!
//! `--trace 0` builds the fleet several times (set-up), then runs the
//! workload's closed loop through `Fleet::step` — a fixed amount of work
//! that takes about `--seconds` seconds on a 2-core 2 GHz host — and prints
//! the end-to-end metrics.  `--trace 1` runs a third of that work twice —
//! once through `Fleet::step`, once through the benchmark's traced copy of
//! the round — checks both end in the same state, and prints the per-layer
//! metrics.  The last line of standard output is the JSON result; the line
//! before it starts with `info` and records the seed, the fingerprints and
//! the tail percentiles.  See `README.md` for every metric.

mod federation;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use dynar_bench::CountingAllocator;
use dynar_foundation::error::Result;

use federation::{build_fleet, build_traced};
use stats::{median, peak_rss_mb, ratio, result_line, tail, Metric};
use trace::Layer;
use workload::{
    actuators, check_outputs, fingerprint, run_schedule, setup, LayerCounts, Run, Settle, Workload,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let parsed: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(parsed > 0.0 && parsed.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    info: String,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match report {
        Ok(report) => {
            for failure in &report.failures {
                eprintln!("perfbench: check failed: {failure}");
            }
            println!("info seed={} {}", args.seed, report.info);
            println!(
                "{}",
                result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// The `--trace 0` run: the timed closed loop, split into segments that each
/// run on a freshly set-up fleet.  Host speed drifts over tens of seconds,
/// so spreading the set-ups over the run keeps `setup_s` (and `steady`'s
/// install waves) from all landing in one fast or slow stretch.
fn end_to_end(args: &Args) -> Result<Report> {
    let spec = args.workload.fleet(args.seed);
    let vehicles = spec.vins.len() as f64;
    let segments = args.workload.segments();
    let units = args.workload.segment_units(args.seconds);
    let mut run = Run::default();
    let mut setup_s = Vec::with_capacity(segments);
    let mut install_ms = Vec::with_capacity(segments);
    let mut setup_prints = Vec::with_capacity(segments);
    let mut final_prints = Vec::with_capacity(segments);
    let mut window_s = 0.0;
    for _ in 0..segments {
        let mut setup_run = Run {
            timing: true,
            ..Run::default()
        };
        let start = Instant::now();
        let mut fed = build_fleet(&spec)?;
        let mut schedule = setup(&mut fed, &mut setup_run, args.workload);
        setup_s.push(start.elapsed().as_secs_f64());
        install_ms.push(setup_run.rollout_ms[0]);
        run.attempted += setup_run.attempted;
        run.failed += setup_run.failed;
        run.failures.append(&mut setup_run.failures);
        setup_prints.push(fingerprint(&fed));

        let before = actuators(&fed);
        run.timing = true;
        let start = Instant::now();
        run_schedule(&mut fed, &mut run, &mut schedule, units);
        window_s += start.elapsed().as_secs_f64();
        run.timing = false;
        final_prints.push(fingerprint(&fed));
        check_outputs(&mut fed, &mut run, &schedule, &before);
    }
    let rss_mb = peak_rss_mb();
    for prints in [&setup_prints, &final_prints] {
        run.attempted += 1;
        if prints.iter().any(|print| *print != prints[0]) {
            run.failed += 1;
            run.failures
                .push(format!("segment fingerprints differ: {prints:x?}"));
        }
    }

    let tick = tail(&run.tick_ms);
    let rollouts = if args.workload == Workload::Steady {
        install_ms
    } else {
        std::mem::take(&mut run.rollout_ms)
    };
    let rollout = tail(&rollouts);
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric(
            "vehicle_ticks_per_s",
            run.tick_ms.len() as f64 * vehicles / window_s,
            "1/s",
        ),
        metric("tick_ms_p50", median(&run.tick_ms), "ms"),
        metric("tick_ms_tail", tick.value, "ms"),
        metric("rollout_ms_p50", median(&rollouts), "ms"),
        metric("rollout_ms_tail", rollout.value, "ms"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ];
    let info = format!(
        "workload={:?} fingerprint={:016x} setup_fingerprint={:016x} window_s={window_s:.3} \
         tick_tail=p{:.2}/n={} rollout_tail=p{:.2}/n={} ops_failed_share={}",
        args.workload,
        final_prints[0],
        setup_prints[0],
        tick.percentile,
        tick.samples,
        rollout.percentile,
        rollout.samples,
        ratio(run.failed as f64, run.attempted as f64),
    );
    Ok(Report {
        correct: run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures,
        info,
        metrics,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The `--trace 1` run: one segment of the `--trace 0` run, once through
/// `Fleet::step` and once through the traced copy of the round, fingerprints
/// compared (they also equal the `--trace 0` fingerprints for the same seed
/// and seconds), per-layer metrics from the traced pass.
fn traced(args: &Args) -> Result<Report> {
    let spec = args.workload.fleet(args.seed);
    let vehicles = spec.vins.len() as f64;
    let units = args.workload.segment_units(args.seconds);

    // The shipped round, untraced.
    let mut shipped = Run::default();
    let mut fed = build_fleet(&spec)?;
    let mut schedule = setup(&mut fed, &mut shipped, args.workload);
    let shipped_setup_print = fingerprint(&fed);
    let before = actuators(&fed);
    let rounds_before = shipped.rounds;
    let start = Instant::now();
    run_schedule(&mut fed, &mut shipped, &mut schedule, units);
    let shipped_s = start.elapsed().as_secs_f64();
    let shipped_rounds = shipped.rounds - rounds_before;
    let shipped_print = fingerprint(&fed);
    check_outputs(&mut fed, &mut shipped, &schedule, &before);
    drop(fed);

    // The traced copy.
    let mut run = Run {
        settle: Some(Settle::default()),
        ..Run::default()
    };
    let mut fed = build_traced(&spec)?;
    let mut schedule = setup(&mut fed, &mut run, args.workload);
    let traced_setup_print = fingerprint(&fed);
    if args.workload != Workload::Steady {
        // Simulated rollout metrics come from the schedule's own rollouts;
        // `steady` has none, so it keeps its set-up install wave.
        run.rollout_ticks.clear();
        run.settle = Some(Settle::default());
    }
    let before = actuators(&fed);
    let counts_before = LayerCounts::read(&fed);
    run.start_fused(&fed);
    run.start_journal(&fed);
    fed.reset_counters();
    let polled_before = run.settle.as_ref().map_or(0.0, |s| s.poll_seconds);
    trace::reset();
    trace::enable(true);
    let start = Instant::now();
    run_schedule(&mut fed, &mut run, &mut schedule, units);
    let traced_wall_s = start.elapsed().as_secs_f64();
    trace::enable(false);
    let totals = trace::totals();
    let counters = fed.counters();
    let counts = LayerCounts::read(&fed);
    let fused = run.finish_fused(&fed);
    let journal_written = run.journal.map_or(0, |(written, _)| written);
    let settle = run.settle.take().unwrap_or_default();
    let traced_print = fingerprint(&fed);
    check_outputs(&mut fed, &mut run, &schedule, &before);
    drop(fed);

    if let Some(path) = &args.trace_out {
        write_span_log(path)?;
    }

    run.attempted += 2;
    if traced_setup_print != shipped_setup_print {
        run.failed += 1;
        run.failures.push(format!(
            "set-up fingerprint: traced {traced_setup_print:016x}, shipped {shipped_setup_print:016x}"
        ));
    }
    if traced_print != shipped_print {
        run.failed += 1;
        run.failures.push(format!(
            "schedule fingerprint: traced {traced_print:016x}, shipped {shipped_print:016x}"
        ));
    }

    let rounds = counters.rounds as f64;
    let per_round = |ns: u64| ratio(ns as f64, rounds);
    let self_ns = |layer: Layer| per_round(totals.self_ns(layer));
    let round_ns = totals.total_ns(Layer::Round);
    let operator_ns = totals.total_ns(Layer::ServerOperator);
    let host_ns = (round_ns + operator_ns) as f64;
    let share = |layers: &[Layer]| {
        ratio(
            layers.iter().map(|l| totals.self_ns(*l)).sum::<u64>() as f64,
            host_ns,
        )
    };
    let in_round_self: u64 = Layer::ALL
        .iter()
        .filter(|layer| **layer != Layer::ServerOperator)
        .map(|layer| totals.self_ns(*layer))
        .sum();
    let pushed = (counts.ledger.installs_pushed + counts.ledger.uninstalls_pushed)
        - (counts_before.ledger.installs_pushed + counts_before.ledger.uninstalls_pushed);
    let retransmissions = counts.ledger.retransmissions - counts_before.ledger.retransmissions;
    let delta = |after: u64, before: u64| per_round(after - before);
    let shipped_vps = shipped_rounds as f64 * vehicles / shipped_s;
    let traced_vps = rounds * vehicles / (traced_wall_s - (settle.poll_seconds - polled_before));
    let settle_samples: Vec<f64> = settle.samples.iter().map(|t| *t as f64).collect();
    let settle_tail = tail(&settle_samples);
    let rollout_ticks: Vec<f64> = run.rollout_ticks.iter().map(|t| *t as f64).collect();
    let attempted = shipped.attempted + run.attempted;
    let failed = shipped.failed + run.failed;

    let metrics = vec![
        metric("sim.round.ns", per_round(round_ns), "ns"),
        metric("sim.round.self_ns", self_ns(Layer::Round), "ns"),
        metric("sim.round.allocs", per_round(counters.allocations), "count"),
        metric("vehicle.step.ns", self_ns(Layer::VehicleStep), "ns"),
        metric(
            "vehicle.comstack.ns",
            self_ns(Layer::Comstack) + self_ns(Layer::ComstackMgmt),
            "ns",
        ),
        metric(
            "vehicle.comstack.mgmt_ns",
            self_ns(Layer::ComstackMgmt),
            "ns",
        ),
        metric("bus.step.ns", self_ns(Layer::BusStep), "ns"),
        metric(
            "bus.frames",
            delta(counts.bus_frames, counts_before.bus_frames),
            "count",
        ),
        metric(
            "ecu.step.self_ns",
            self_ns(Layer::EcuEcm) + self_ns(Layer::EcuWorker),
            "ns",
        ),
        metric("ecu.ecm.self_ns", self_ns(Layer::EcuEcm), "ns"),
        metric("ecu.worker.self_ns", self_ns(Layer::EcuWorker), "ns"),
        metric(
            "os.dispatches",
            delta(counts.os_dispatches, counts_before.os_dispatches),
            "count",
        ),
        metric(
            "rte.network_routes",
            delta(counts.rte_network_routes, counts_before.rte_network_routes),
            "count",
        ),
        metric(
            "rte.network_deliveries",
            delta(
                counts.rte_network_deliveries,
                counts_before.rte_network_deliveries,
            ),
            "count",
        ),
        metric("ecm.gateway.ns", self_ns(Layer::EcmGateway), "ns"),
        metric(
            "core.pirte.ns",
            self_ns(Layer::PirteExec) + self_ns(Layer::PirteInstall),
            "ns",
        ),
        metric("core.pirte.install_ns", self_ns(Layer::PirteInstall), "ns"),
        metric(
            "core.pirte.installs",
            (counts.pirte_installs - counts_before.pirte_installs) as f64,
            "count",
        ),
        metric("swc.sensor.ns", self_ns(Layer::Sensor), "ns"),
        metric(
            "vm.instructions",
            delta(counts.vm_instructions, counts_before.vm_instructions),
            "count",
        ),
        metric(
            "vm.slots",
            delta(counts.vm_slots, counts_before.vm_slots),
            "count",
        ),
        metric("vm.fused", per_round(fused), "count"),
        metric("server.operator.ns", per_round(operator_ns), "ns"),
        metric(
            "server.operator.calls",
            totals.calls(Layer::ServerOperator) as f64,
            "count",
        ),
        metric(
            "server.process_uplink.ns",
            self_ns(Layer::ServerUplink),
            "ns",
        ),
        metric(
            "server.process_uplink.calls",
            totals.calls(Layer::ServerUplink) as f64,
            "count",
        ),
        metric(
            "server.process_uplink.errors",
            counters.uplink_errors as f64,
            "count",
        ),
        metric(
            "server.poll_downlink_dirty.ns",
            self_ns(Layer::ServerPoll),
            "ns",
        ),
        metric(
            "server.poll_downlink_dirty.visits",
            counters.poll_visits as f64,
            "count",
        ),
        metric("server.tick.ns", self_ns(Layer::ServerTick), "ns"),
        metric("ledger.retransmissions", retransmissions as f64, "count"),
        metric(
            "server.step_campaigns.ns",
            self_ns(Layer::ServerCampaigns),
            "ns",
        ),
        metric(
            "server.step_campaigns.events",
            counters.campaign_events as f64,
            "count",
        ),
        metric(
            "server.journal.bytes_per_op",
            ratio(journal_written as f64, pushed as f64),
            "B/op",
        ),
        metric(
            "server.mark_offline.calls",
            counters.mark_offline_calls as f64,
            "count",
        ),
        metric("fes.send.ns", self_ns(Layer::FesSend), "ns"),
        metric("fes.step.ns", self_ns(Layer::FesStep), "ns"),
        metric("fes.drain.ns", self_ns(Layer::FesDrain), "ns"),
        metric(
            "fes.sent",
            (counts.fes_sent - counts_before.fes_sent) as f64,
            "count",
        ),
        metric(
            "fes.lost",
            (counts.fes_lost - counts_before.fes_lost) as f64,
            "count",
        ),
        metric("fes.in_flight_max", counters.in_flight_max as f64, "count"),
        metric(
            "share.in_vehicle",
            share(&[
                Layer::VehicleStep,
                Layer::Comstack,
                Layer::ComstackMgmt,
                Layer::BusStep,
                Layer::EcuEcm,
                Layer::EcuWorker,
                Layer::EcmGateway,
                Layer::PirteExec,
                Layer::PirteInstall,
                Layer::Sensor,
            ]),
            "ratio",
        ),
        metric(
            "share.management",
            share(&[
                Layer::ServerTick,
                Layer::ServerPoll,
                Layer::ServerMarkOffline,
                Layer::ServerUplink,
                Layer::ServerCampaigns,
                Layer::ServerOperator,
                Layer::FesSend,
                Layer::FesStep,
                Layer::FesDrain,
                Layer::ComstackMgmt,
                Layer::EcmGateway,
                Layer::PirteInstall,
            ]),
            "ratio",
        ),
        metric(
            "trace.self_sum_error",
            ratio(
                (in_round_self as f64 - round_ns as f64).abs(),
                round_ns as f64,
            ),
            "ratio",
        ),
        metric("trace.overhead", ratio(traced_vps, shipped_vps), "ratio"),
        metric("rollout_ticks_p50", median(&rollout_ticks), "ticks"),
        metric("vehicle_settle_ticks_tail", settle_tail.value, "ticks"),
        metric(
            "retransmits_per_op",
            ratio(retransmissions as f64, pushed as f64),
            "ratio",
        ),
        metric(
            "ops_failed_share",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ];
    let info = format!(
        "workload={:?} fingerprint={traced_print:016x} setup_fingerprint={traced_setup_print:016x} \
         rounds={} untraced_vehicle_ticks_per_s={shipped_vps:.0} traced_vehicle_ticks_per_s={traced_vps:.0} \
         settle_tail=p{:.2}/n={}",
        args.workload, counters.rounds, settle_tail.percentile, settle_tail.samples,
    );
    let mut failures = shipped.failures;
    failures.append(&mut run.failures);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        failures,
        info,
        metrics,
    })
}

fn write_span_log(path: &str) -> Result<()> {
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace::write_log(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(())
}
