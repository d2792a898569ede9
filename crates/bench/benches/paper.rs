//! Criterion benchmarks regenerating the paper's figures and the
//! characterization experiments listed in DESIGN.md / EXPERIMENTS.md.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dynar_core::context::{InstallationContext, LinkTarget, PortInitContext, PortLinkContext};
use dynar_core::message::InstallationPackage;
use dynar_core::pirte::Pirte;
use dynar_core::plugin::PluginPortDirection;
use dynar_core::swc::PluginSwcConfig;
use dynar_core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar_foundation::ids::{AppId, EcuId, PluginId, PluginPortId, SwcId, VirtualPortId};
use dynar_foundation::value::Value;
use dynar_rte::component::SwcDescriptor;
use dynar_rte::port::{PortDirection, PortSpec};
use dynar_rte::rte::Rte;
use dynar_server::baseline::ReflashBaseline;
use dynar_server::campaign::{CampaignId, CampaignSpec, HealthGate, VehicleSelector, WavePlan};
use dynar_server::server::TrustedServer;
use dynar_sim::scenario::fleet::{FleetScenario, FleetScenarioConfig};
use dynar_sim::scenario::remote_car::{remote_control_app, RemoteCarScenario};
use dynar_vm::assembler::assemble;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

/// F3 — the Figure 3 signal chain: phone command to actuator, end to end.
fn fig3_signal_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_signal_chain");
    let mut scenario = RemoteCarScenario::build().expect("scenario builds");
    scenario.install_app().expect("installation completes");
    group.bench_function("drive_10_ticks", |b| {
        b.iter(|| scenario.drive(10).expect("drive"));
    });
    group.finish();
}

/// E1 — deployment: dynamic plug-in installation planning vs. the classical
/// full-ECU re-flash baseline.
fn e1_deployment(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_deployment");
    let server = scenario_server_with_apps(0);
    let vehicle = dynar_foundation::ids::VehicleId::new("VIN-MODEL-CAR-1");
    group.bench_function("plan_remote_control_app", |b| {
        b.iter(|| {
            server
                .plan_deployment(&vehicle, &AppId::new("remote-control"))
                .expect("plan succeeds")
        });
    });
    group.bench_function("baseline_reflash_model", |b| {
        let baseline = ReflashBaseline::default();
        b.iter(|| baseline.deployment_ticks(2));
    });
    group.finish();
}

fn bench_hw() -> dynar_server::model::HwConf {
    dynar_server::model::HwConf::new()
        .with_ecu(EcuId::new(1), 512)
        .with_ecu(EcuId::new(2), 512)
}

fn bench_system() -> dynar_server::model::SystemSwConf {
    use dynar_server::model::{PluginSwcDecl, SystemSwConf, VirtualPortDecl, VirtualPortKindDecl};
    SystemSwConf::new("model-car")
        .with_swc(PluginSwcDecl {
            ecu: EcuId::new(1),
            swc_name: "ecm-swc".into(),
            is_ecm: true,
            virtual_ports: vec![VirtualPortDecl {
                id: VirtualPortId::new(0),
                name: "PluginData".into(),
                kind: VirtualPortKindDecl::TypeII {
                    peer: EcuId::new(2),
                },
            }],
        })
        .with_swc(PluginSwcDecl {
            ecu: EcuId::new(2),
            swc_name: "plugin-swc-2".into(),
            is_ecm: false,
            virtual_ports: vec![
                VirtualPortDecl {
                    id: VirtualPortId::new(3),
                    name: "PluginDataIn".into(),
                    kind: VirtualPortKindDecl::TypeII {
                        peer: EcuId::new(1),
                    },
                },
                VirtualPortDecl {
                    id: VirtualPortId::new(4),
                    name: "WheelsReq".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
                VirtualPortDecl {
                    id: VirtualPortId::new(5),
                    name: "SpeedReq".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
                VirtualPortDecl {
                    id: VirtualPortId::new(6),
                    name: "SpeedProv".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
            ],
        })
}

/// E2 — PIRTE mediation overhead: plug-in port → virtual port → SW-C port
/// versus a direct RTE local route.
fn e2_mediation_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_mediation_overhead");

    // Baseline: a direct RTE route between two built-in SW-Cs.
    let mut rte = Rte::new();
    let producer = SwcId::new(EcuId::new(0), 0);
    let consumer = SwcId::new(EcuId::new(0), 1);
    rte.register_component(
        producer,
        &SwcDescriptor::new("producer")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided)),
    )
    .unwrap();
    rte.register_component(
        consumer,
        &SwcDescriptor::new("consumer")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required)),
    )
    .unwrap();
    let out = rte.port_id(producer, "out").unwrap();
    let inp = rte.port_id(consumer, "in").unwrap();
    rte.connect(out, inp).unwrap();
    group.bench_function("direct_rte_route", |b| {
        b.iter(|| {
            rte.write_port(out, Value::F64(3.5)).unwrap();
            rte.take_port(inp).unwrap()
        });
    });

    // PIRTE-mediated: value enters a type III virtual port, a plug-in
    // forwards it, and it leaves through another type III virtual port.
    let config = PluginSwcConfig::new("plugin-swc")
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(0),
            "In",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "swc_in",
        ))
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(1),
            "Out",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "swc_out",
        ));
    let mut pirte = Pirte::new(EcuId::new(1), config);
    let binary = assemble(
        "fwd",
        "loop:\n take_port 0\n write_port 1\n yield\n jump loop",
    )
    .unwrap()
    .to_bytes();
    let context = InstallationContext::new(
        PortInitContext::new()
            .with_port("in", PluginPortId::new(0), PluginPortDirection::Required)
            .with_port("out", PluginPortId::new(1), PluginPortDirection::Provided),
        PortLinkContext::new()
            .with_link(
                PluginPortId::new(0),
                LinkTarget::VirtualPort(VirtualPortId::new(0)),
            )
            .with_link(
                PluginPortId::new(1),
                LinkTarget::VirtualPort(VirtualPortId::new(1)),
            ),
    );
    pirte
        .install(InstallationPackage::new(
            PluginId::new("fwd"),
            AppId::new("bench"),
            binary,
            context,
        ))
        .unwrap();
    group.bench_function("pirte_mediated_route", |b| {
        b.iter(|| {
            pirte.dispatch_swc_input("swc_in", Value::F64(3.5)).unwrap();
            pirte.run_plugins();
            pirte.drain_outbox()
        });
    });
    group.finish();
}

/// E3 — trusted-server scalability: compatibility check plus context
/// generation as the installed catalogue grows.
fn e3_server_scalability(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_server_scalability");
    for apps in [1usize, 16, 64] {
        let server = scenario_server_with_apps(apps);
        let vehicle = dynar_foundation::ids::VehicleId::new("VIN-MODEL-CAR-1");
        group.bench_with_input(
            BenchmarkId::new("plan_with_catalogue", apps),
            &apps,
            |b, _| {
                b.iter(|| {
                    server
                        .plan_deployment(&vehicle, &AppId::new("remote-control"))
                        .expect("plan succeeds")
                });
            },
        );
    }
    group.finish();
}

fn scenario_server_with_apps(extra_apps: usize) -> TrustedServer {
    let mut server = TrustedServer::new();
    let user = dynar_foundation::ids::UserId::new("alice");
    let vehicle = dynar_foundation::ids::VehicleId::new("VIN-MODEL-CAR-1");
    server.create_user(user.clone()).unwrap();
    server
        .register_vehicle(vehicle.clone(), bench_hw(), bench_system())
        .unwrap();
    server.bind_vehicle(&user, &vehicle).unwrap();
    server.upload_app(remote_control_app().unwrap()).unwrap();
    for index in 0..extra_apps {
        let mut app = remote_control_app().unwrap();
        app.id = AppId::new(format!("filler-{index}"));
        server.upload_app(app).unwrap();
    }
    server
}

/// E6 — ablation: any number of plug-in ports multiplexed over one type II
/// SW-C port pair (the paper's design) vs. the routing work growing with the
/// number of ports.
fn e6_port_multiplexing(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_port_multiplexing");
    for ports in [1u32, 16, 64] {
        let mut pirte = multiplexing_pirte(ports);
        group.bench_with_input(
            BenchmarkId::new("dispatch_type_ii", ports),
            &ports,
            |b, &ports| {
                let mut next = 0u32;
                b.iter(|| {
                    let recipient = next % ports;
                    next = next.wrapping_add(1);
                    pirte
                        .dispatch_swc_input(
                            "s_in",
                            Value::List(vec![Value::I64(i64::from(recipient)), Value::I64(7)]),
                        )
                        .unwrap();
                });
            },
        );
    }
    group.finish();
}

fn multiplexing_pirte(ports: u32) -> Pirte {
    let config = PluginSwcConfig::new("mux").with_virtual_port(VirtualPortSpec::new(
        VirtualPortId::new(0),
        "In",
        PortKind::TypeII,
        PortDataDirection::ToPlugins,
        "s_in",
    ));
    let mut pirte = Pirte::new(EcuId::new(1), config);
    let binary = assemble("sink", "yield\nhalt").unwrap().to_bytes();
    let mut pic = PortInitContext::new();
    for port in 0..ports {
        pic = pic.with_port(
            format!("p{port}"),
            PluginPortId::new(port),
            PluginPortDirection::Required,
        );
    }
    let context = InstallationContext::new(pic, PortLinkContext::new());
    pirte
        .install(InstallationPackage::new(
            PluginId::new("sink"),
            AppId::new("bench"),
            binary,
            context,
        ))
        .unwrap();
    pirte
}

/// F-scale — fleet tick throughput: one batched scheduler round across N
/// four-ECU vehicles with live signal chains (the hot path of every
/// federated-scale experiment).
fn bench_fleet_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("bench_fleet_tick");
    // 500 vehicles (2000 ECUs) was the "towards thousands of vehicles"
    // datapoint; 10000 is past it.  The tick must stay linear in fleet
    // size, which only holds while the steady-state transport and server
    // paths stay O(1) per vehicle (O(active) downlink sweep) and
    // allocation-free.  `DYNAR_BENCH_100K=1` adds the 100k-vehicle
    // datapoint (fleet construction alone takes minutes, so it stays
    // opt-in).
    let mut sizes = vec![10usize, 50, 100, 500, 10_000];
    if std::env::var_os("DYNAR_BENCH_100K").is_some() {
        sizes.push(100_000);
    }
    for vehicles in sizes {
        let mut scenario = FleetScenario::build(vehicles).expect("fleet builds");
        let wave = if vehicles >= 500 { 50 } else { 10 };
        scenario
            .install_telemetry(wave)
            .expect("install waves complete");
        group.bench_with_input(BenchmarkId::new("tick", vehicles), &vehicles, |b, _| {
            b.iter(|| scenario.fleet.step().expect("fleet step"));
        });
        // Durability overhead, measured back-to-back with its serial twin:
        // the same 50-vehicle steady-state tick with the write-ahead journal
        // enabled (compaction every 256 records), so the price of durability
        // is a datapoint next to `tick/50` rather than a guess.
        // scripts/bench_compare.sh gates the gap between the two — adjacency
        // matters, because minutes of drift between the measurement windows
        // on a noisy runner would swamp the single-digit true overhead.
        if vehicles == 50 {
            let mut scenario = FleetScenario::build(50).expect("fleet builds");
            scenario.fleet.server.enable_journal(256);
            scenario
                .install_telemetry(10)
                .expect("install waves complete");
            group.bench_function("tick_with_journal/50", |b| {
                b.iter(|| scenario.fleet.step().expect("fleet step"));
            });
        }
        // Campaign-plane overhead, measured the same way: the identical
        // 50-vehicle steady-state tick while a rollout campaign is held
        // mid-wave by an unreachable soak gate — the whole fleet exposed,
        // every install acknowledged, the health gate re-evaluated on every
        // round.  scripts/bench_compare.sh gates the gap against `tick/50`
        // (BENCH_CAMPAIGN_OVERHEAD_PCT), so the price of orchestration is a
        // datapoint, not a guess.
        if vehicles == 50 {
            let mut scenario = FleetScenario::build(50).expect("fleet builds");
            scenario
                .install_telemetry(10)
                .expect("install waves complete");
            let user = scenario.user.clone();
            let spec = CampaignSpec {
                id: CampaignId::new("bench-rollout"),
                app: AppId::new(dynar_sim::scenario::fleet::APP_TELEMETRY_V2),
                replaces: Some(AppId::new(dynar_sim::scenario::fleet::APP_TELEMETRY)),
                selector: VehicleSelector::All,
                plan: WavePlan {
                    canary: 50,
                    ramp_percent: Vec::new(),
                },
                gate: HealthGate {
                    min_soak_ticks: u64::MAX,
                    pause_failed: 0,
                    abort_failed: 0,
                },
            };
            scenario
                .fleet
                .server
                .create_campaign(&user, spec)
                .expect("campaign creates");
            scenario.fleet.run(120).expect("update wave converges");
            group.bench_function("campaign_tick/50", |b| {
                b.iter(|| scenario.fleet.step().expect("fleet step"));
            });
        }
    }
    // The same steady-state 8-lane round `tick` measures, kept under the
    // `par_tick` names the pinned benchmark list and the snapshot checks
    // carry (they were the sharded-server rows; the server has one vehicle
    // table now).  scripts/bench_compare.sh reports the ratio to `tick` at
    // equal fleet size as BENCH_PAR_SPEEDUP: ~1x by construction.
    {
        let par_sizes: &[usize] = if std::env::var_os("DYNAR_BENCH_100K").is_some() {
            &[500, 10_000, 100_000]
        } else {
            &[500, 10_000]
        };
        for &vehicles in par_sizes {
            let mut scenario = FleetScenario::build(vehicles).expect("fleet builds");
            scenario
                .install_telemetry(50)
                .expect("install waves complete");
            group.bench_with_input(BenchmarkId::new("par_tick", vehicles), &vehicles, |b, _| {
                b.iter(|| scenario.fleet.step().expect("fleet step"));
            });
        }
    }
    // Lossy hub: the same tick over a transport losing 5 % of all
    // federation messages, so the reliability plane's retransmission
    // overhead (dedup window, deadline heap, requeues) shows up in the perf
    // trajectory next to the lossless datapoints.
    for vehicles in [50usize, 500] {
        use dynar_fes::transport::TransportConfig;
        let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
            vehicles,
            transport: TransportConfig {
                latency_ticks: 1,
                loss_probability: 0.05,
                seed: 0xBE7C,
            },
            ..FleetScenarioConfig::default()
        })
        .expect("lossy fleet builds");
        let user = scenario.user.clone();
        let app = dynar_foundation::ids::AppId::new(dynar_sim::scenario::fleet::APP_TELEMETRY);
        let targets = scenario.fleet.vehicle_ids().to_vec();
        scenario
            .fleet
            .deploy_wave(&user, &app, &targets)
            .expect("deploy wave");
        let horizon = scenario.fleet.server.retry_horizon_ticks() + 120;
        scenario
            .fleet
            .run(horizon)
            .expect("lossy install converges");
        group.bench_with_input(
            BenchmarkId::new("lossy_tick", vehicles),
            &vehicles,
            |b, _| {
                b.iter(|| scenario.fleet.step().expect("fleet step"));
            },
        );
    }
    // End to end: build a 50-vehicle fleet, run the staged install wave and
    // drive 1000 ticks of mixed management + signal-chain load.
    group.bench_function("install_wave_plus_1000_ticks/50", |b| {
        b.iter(|| {
            let mut scenario = FleetScenario::build(50).expect("fleet builds");
            scenario
                .install_telemetry(10)
                .expect("install waves complete");
            scenario.fleet.run(1000).expect("fleet run");
            scenario.fleet.stats().ticks
        });
    });
    group.finish();
}

/// E-VM — the two execution planes side by side on the dominant plug-in
/// workload shapes: arithmetic accumulation, port forwarding and
/// pending-guard branching.  One iteration is one full scheduling slot (the
/// default 10 000-instruction budget), so the numbers are pure dispatch +
/// execute cost.  scripts/bench_compare.sh pins the interpreter datapoints
/// as the regression baseline and reports `BENCH_VM_SPEEDUP` for the
/// compiled plane next to them; scripts/bench_snapshot.sh refuses snapshots
/// that miss the compiled datapoint.
fn bench_vm(c: &mut Criterion) {
    use dynar_vm::{Budget, CompiledVm, PortHost, Vm};

    /// All host calls answer without allocating, so the loop body stays on
    /// the VM itself.
    struct BenchHost {
        writes: u64,
    }
    impl PortHost for BenchHost {
        fn read_port(&mut self, _slot: u32) -> dynar_foundation::error::Result<Value> {
            Ok(Value::I64(1))
        }
        fn take_port(&mut self, _slot: u32) -> dynar_foundation::error::Result<Value> {
            Ok(Value::I64(1))
        }
        fn write_port(&mut self, _slot: u32, _value: Value) -> dynar_foundation::error::Result<()> {
            self.writes += 1;
            Ok(())
        }
        fn pending(&mut self, _slot: u32) -> dynar_foundation::error::Result<usize> {
            Ok(1)
        }
        fn log(&mut self, _message: &str) {}
    }

    let workloads = [
        (
            "arith",
            r#"
                push_int 0
                store 0
            loop:
                load 0
                push_int 1
                add
                store 0
                jump loop
            "#,
        ),
        (
            "ports",
            r#"
            loop:
                take_port 0
                store 0
                load 0
                write_port 1
                jump loop
            "#,
        ),
        (
            "branch",
            r#"
            loop:
                port_pending 0
                push_int 0
                gt
                jump_if_false idle
                take_port 0
                pop
                jump loop
            idle:
                jump loop
            "#,
        ),
    ];

    let mut group = c.benchmark_group("bench_vm");
    for (name, source) in workloads {
        let program = assemble(name, source).expect("workload assembles");
        let mut host = BenchHost { writes: 0 };

        let mut interp = Vm::new(program.clone(), Budget::default());
        group.bench_function(format!("interpreter_{name}"), |b| {
            b.iter(|| interp.run_slot(&mut host).expect("interpreter slot"));
        });

        let mut compiled =
            CompiledVm::compile(program, Budget::default()).expect("workload compiles");
        group.bench_function(format!("compiled_{name}"), |b| {
            b.iter(|| compiled.run_slot(&mut host).expect("compiled slot"));
        });
        // A compiled datapoint without live superinstructions measures the
        // wrong thing — fail the run rather than record it.
        assert!(
            compiled.fusion_counters().total() > 0,
            "superinstructions must fire in the {name} workload"
        );
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    fig3_signal_chain(c);
    e1_deployment(c);
    e2_mediation_overhead(c);
    e3_server_scalability(c);
    e6_port_multiplexing(c);
    bench_vm(c);
    bench_fleet_tick(c);
}

criterion_group! {
    name = paper;
    config = quick();
    targets = benches
}
criterion_main!(paper);
