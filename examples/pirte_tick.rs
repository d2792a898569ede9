//! Where a quiet vehicle tick goes: the PIRTE pass and the per-vehicle
//! curve.
//!
//! 1. **Quiet worker pass, executed against replayed.**  50 and 2 000
//!    worker PIRTEs, each hosting the fleet's telemetry v1 plug-in, get a
//!    sensor value on one pass in `SENSOR_PERIOD` and run one pass per
//!    tick: dispatch, `run_plugins`, drain.  Two identical populations run
//!    the same traffic, interleaved; one forgets its remembered idle slots
//!    before every pass (`Pirte::forget_idle_slots`), so its quiet slots
//!    execute, and the other replays them.  Prints the time per quiet pass
//!    and its allocations, the time per data pass (a replaying population
//!    meets the data slot's code and ports colder), and asserts that both
//!    populations end with identical stats and fusion counters.
//! 2. **The one-thread per-vehicle-tick curve** at 50, 200, 1 000 and
//!    2 000 fleet vehicles: every vehicle steps on the calling thread, and
//!    the time per vehicle-tick is printed next to the live heap bytes per
//!    vehicle.
//!
//! ```console
//! $ cargo run --release --example pirte_tick
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dynar::core::message::InstallationPackage;
use dynar::core::pirte::{Pirte, SwcOutput};
use dynar::core::swc::PluginSwcConfig;
use dynar::core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar::foundation::ids::{EcuId, UserId, VehicleId, VirtualPortId};
use dynar::foundation::value::Value;
use dynar::server::TrustedServer;
use dynar::sim::scenario::fleet::{
    fleet_hw, fleet_system, telemetry_app, FleetScenario, APP_TELEMETRY, GAIN_V1, SENSOR_PERIOD,
};

/// The system allocator, counting allocations and live bytes.
struct LiveHeap;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to `System` with the caller's arguments;
// the wrapper only updates two counters and never touches the memory.
unsafe impl GlobalAlloc for LiveHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LiveHeap = LiveHeap;

const WORKERS: u16 = 3;
/// Passes per population and size: a multiple of `SENSOR_PERIOD`.
const PASSES: u64 = 400;
/// Timed ticks per fleet size: a multiple of `SENSOR_PERIOD`.
const FLEET_TICKS: u64 = 64;

/// The worker plug-in SW-C of the fleet scenario.
fn worker_config() -> PluginSwcConfig {
    PluginSwcConfig::new("worker-swc-2")
        .with_type_i_ports("mgmt_in", "mgmt_out")
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(0),
            "SensorIn",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "sensor_in",
        ))
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(1),
            "ActOut",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "act_out",
        ))
}

/// The telemetry v1 package the server plans for the first worker ECU of a
/// fresh vehicle.
fn telemetry_package() -> InstallationPackage {
    let mut server = TrustedServer::new();
    let user = UserId::new("ops");
    let vin = VehicleId::new("VIN-0");
    server.create_user(user.clone()).unwrap();
    let app = telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap();
    server.upload_app(app.clone()).unwrap();
    server
        .register_vehicle(vin.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))
        .unwrap();
    server.bind_vehicle(&user, &vin).unwrap();
    server
        .plan_deployment(&vin, &app.id)
        .unwrap()
        .into_iter()
        .find(|(ecu, _)| *ecu == EcuId::new(2))
        .expect("a package for the first worker")
        .1
}

/// One worker pass on every PIRTE: a sensor value on data ticks, one slot
/// per plug-in, the outbox drained.  Returns the nanoseconds per PIRTE and
/// the allocations.
fn pass(
    pirtes: &mut [Pirte],
    tick: u64,
    forget: bool,
    out: &mut Vec<(SwcOutput, Value)>,
) -> (f64, u64) {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for pirte in pirtes.iter_mut() {
        if forget {
            pirte.forget_idle_slots();
        }
        if tick.is_multiple_of(SENSOR_PERIOD) {
            pirte
                .dispatch_swc_input("sensor_in", Value::I64(tick as i64))
                .unwrap();
        }
        pirte.run_plugins();
        pirte.drain_outbox_into(out);
        out.clear();
    }
    let nanos = start.elapsed().as_secs_f64() * 1e9 / pirtes.len() as f64;
    (nanos, ALLOCATIONS.load(Ordering::Relaxed) - allocations)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn quiet_passes(package: &InstallationPackage, count: usize) {
    let population = || -> Vec<Pirte> {
        (0..count)
            .map(|_| {
                let mut pirte = Pirte::new(EcuId::new(2), worker_config());
                pirte.install(package.clone()).unwrap();
                pirte
            })
            .collect()
    };
    let (mut executed, mut replayed) = (population(), population());
    let mut out = Vec::new();
    // Per population, executed first: quiet passes and data passes.
    let mut quiet_ns = [Vec::new(), Vec::new()];
    let mut data_ns = [Vec::new(), Vec::new()];
    let mut quiet_allocations = 0;
    for tick in 0..PASSES {
        // Alternate which population goes first.
        let order = if tick % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for forget in order {
            let pirtes = if forget { &mut executed } else { &mut replayed };
            let (nanos, allocations) = pass(pirtes, tick, forget, &mut out);
            let population = usize::from(!forget);
            if tick < SENSOR_PERIOD {
                // Warm-up: the first passes install nothing to replay yet.
            } else if tick.is_multiple_of(SENSOR_PERIOD) {
                data_ns[population].push(nanos);
            } else {
                quiet_allocations += allocations;
                quiet_ns[population].push(nanos);
            }
        }
    }
    for (a, b) in executed.iter().zip(&replayed) {
        assert_eq!(a.stats(), b.stats(), "replay changed the PIRTE stats");
        assert_eq!(a.fusion_counters(), b.fusion_counters());
        assert_eq!(a.replayed_slots(), 0);
    }
    let slots = replayed[0].stats().slots_granted;
    let replays = replayed[0].replayed_slots();
    let [quiet_executed, quiet_replayed] = quiet_ns.map(median);
    let [data_executed, data_replayed] = data_ns.map(median);
    println!(
        "  {count:>5} PIRTEs  quiet: executed {quiet_executed:>6.1} ns  replayed \
         {quiet_replayed:>6.1} ns (x{:.2}), {quiet_allocations} allocations  \
         data: {data_executed:>6.1} ns / {data_replayed:>6.1} ns  \
         replayed {replays}/{slots} slots",
        quiet_replayed / quiet_executed,
    );
}

fn vehicle_curve(vehicles: usize) {
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut scenario = FleetScenario::build(vehicles).expect("fleet builds");
    scenario
        .install_telemetry(vehicles)
        .expect("telemetry installs");
    scenario
        .fleet
        .run(2 * SENSOR_PERIOD)
        .expect("fleet settles");
    let bytes = (LIVE_BYTES.load(Ordering::Relaxed) - live_before) as f64 / vehicles as f64;
    let ids = scenario.fleet.vehicle_ids().to_vec();
    let start = Instant::now();
    for _ in 0..FLEET_TICKS {
        for id in &ids {
            let vehicle = scenario.fleet.vehicle_mut(id).expect("a fleet vehicle");
            vehicle.step().expect("vehicle steps");
        }
    }
    let per_tick = start.elapsed().as_secs_f64() * 1e6 / (FLEET_TICKS as f64 * vehicles as f64);
    println!(
        "  {vehicles:>5} vehicles  {per_tick:>5.2} µs per vehicle-tick  {bytes:>7.0} B per vehicle"
    );
}

fn main() {
    let package = telemetry_package();
    println!("quiet worker pass, median over {PASSES} passes per population:");
    for count in [50, 2000] {
        quiet_passes(&package, count);
    }
    println!("one thread, {FLEET_TICKS} ticks of every vehicle:");
    for vehicles in [50, 200, 1000, 2000] {
        vehicle_curve(vehicles);
    }
}
