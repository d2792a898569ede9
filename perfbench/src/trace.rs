//! In-memory span tracer for the traced run.
//!
//! Spans are opened with [`span`] and closed when the returned guard drops.
//! Each closed span adds its duration minus the time covered by its child
//! spans to its layer's *self time*, so the self times of every layer nested
//! inside a round add up to the round's own duration exactly.  The first
//! [`SPAN_LOG_CAPACITY`] spans are also kept verbatim and written out at the
//! end of the run.
//!
//! Tracing is off unless [`enable`] was called; a disabled span costs one
//! thread-local flag check.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// How many individual spans are kept for the span log.
pub const SPAN_LOG_CAPACITY: usize = 200_000;

/// The layers spans are attributed to, named by the module they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One federation round (`sim.fleet` round driver).
    Round,
    /// `TrustedServer::tick`: the reliability sweep.
    ServerTick,
    /// `TrustedServer::poll_downlink_dirty`, minus the sends it drives.
    ServerPoll,
    /// `TrustedServer::mark_offline`.
    ServerMarkOffline,
    /// `TrustedServer::process_uplink`.
    ServerUplink,
    /// `TrustedServer::step_campaigns`.
    ServerCampaigns,
    /// Operator calls: `deploy`, `uninstall`, `create_campaign`.
    ServerOperator,
    /// Transport `send` of one downlink.
    FesSend,
    /// Transport `step`.
    FesStep,
    /// Transport `drain_into` of the server mailbox.
    FesDrain,
    /// One vehicle step, minus its children.
    VehicleStep,
    /// Codec, segmenting and reassembly of the sensor signal.
    Comstack,
    /// Codec, segmenting and reassembly of management traffic.
    ComstackMgmt,
    /// In-vehicle bus `step`.
    BusStep,
    /// The ECM ECU's step (kernel dispatch and RTE routing), minus behaviours.
    EcuEcm,
    /// A worker ECU's step (kernel dispatch and RTE routing), minus behaviours.
    EcuWorker,
    /// The ECM gateway behaviour.
    EcmGateway,
    /// A plug-in SW-C pass that only ran the PIRTE and its VM.
    PirteExec,
    /// A plug-in SW-C pass that installed or uninstalled a plug-in.
    PirteInstall,
    /// The speed-sensor SW-C.
    Sensor,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 20;

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Round,
        Layer::ServerTick,
        Layer::ServerPoll,
        Layer::ServerMarkOffline,
        Layer::ServerUplink,
        Layer::ServerCampaigns,
        Layer::ServerOperator,
        Layer::FesSend,
        Layer::FesStep,
        Layer::FesDrain,
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
    ];

    /// The span name written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "sim.round",
            Layer::ServerTick => "server.tick",
            Layer::ServerPoll => "server.poll_downlink_dirty",
            Layer::ServerMarkOffline => "server.mark_offline",
            Layer::ServerUplink => "server.process_uplink",
            Layer::ServerCampaigns => "server.step_campaigns",
            Layer::ServerOperator => "server.operator",
            Layer::FesSend => "fes.send",
            Layer::FesStep => "fes.step",
            Layer::FesDrain => "fes.drain",
            Layer::VehicleStep => "vehicle.step",
            Layer::Comstack => "vehicle.comstack.signal",
            Layer::ComstackMgmt => "vehicle.comstack.mgmt",
            Layer::BusStep => "bus.step",
            Layer::EcuEcm => "ecu.ecm.step",
            Layer::EcuWorker => "ecu.worker.step",
            Layer::EcmGateway => "ecm.gateway",
            Layer::PirteExec => "core.pirte.exec",
            Layer::PirteInstall => "core.pirte.install",
            Layer::Sensor => "swc.sensor",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated per-layer totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Self time per layer, in nanoseconds.
    pub self_ns: [u64; LAYERS],
    /// Inclusive time per layer, in nanoseconds.
    pub total_ns: [u64; LAYERS],
    /// Closed spans per layer.
    pub calls: [u64; LAYERS],
}

impl Totals {
    /// Self time of one layer.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Inclusive time of one layer.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer.index()]
    }

    /// Closed spans of one layer.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    id: u32,
    start: Instant,
    child_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    id: u32,
    parent: u32,
    round: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    totals: Totals,
    next_id: u32,
    round: u32,
    log: Vec<SpanRecord>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            stack: Vec::new(),
            totals: Totals::default(),
            next_id: 0,
            round: 0,
            log: Vec::new(),
        }
    }

    fn enter(&mut self, layer: Layer) {
        if layer == Layer::Round {
            self.round += 1;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open {
            layer,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn exit(&mut self, relabel: Option<Layer>) {
        let end = Instant::now();
        let open = self.stack.pop().expect("span guards close in LIFO order");
        let layer = relabel.unwrap_or(open.layer);
        let duration = u64::try_from(end.duration_since(open.start).as_nanos()).unwrap_or(u64::MAX);
        let index = layer.index();
        self.totals.self_ns[index] += duration.saturating_sub(open.child_ns);
        self.totals.total_ns[index] += duration;
        self.totals.calls[index] += 1;
        let parent = match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += duration;
                parent.id
            }
            None => u32::MAX,
        };
        if self.log.len() < SPAN_LOG_CAPACITY {
            let since = |at: Instant| {
                u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
            };
            self.log.push(SpanRecord {
                id: open.id,
                parent,
                round: self.round,
                layer,
                start_ns: since(open.start),
                end_ns: since(end),
            });
        }
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// An open span; closes when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    active: bool,
    relabel: Option<Layer>,
}

impl Guard {
    /// Attributes the span to `layer` instead of the layer it was opened
    /// with (decided once the timed call has shown what it did).
    pub fn relabel(&mut self, layer: Layer) {
        self.relabel = Some(layer);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.active {
            let relabel = self.relabel;
            TRACER.with(|tracer| tracer.borrow_mut().exit(relabel));
        }
    }
}

/// Opens a span of `layer` (a no-op guard while tracing is off).
pub fn span(layer: Layer) -> Guard {
    let active = TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        if tracer.enabled {
            tracer.enter(layer);
            true
        } else {
            false
        }
    });
    Guard {
        active,
        relabel: None,
    }
}

/// `true` while tracing is on.
pub fn enabled() -> bool {
    TRACER.with(|tracer| tracer.borrow().enabled)
}

/// Turns tracing on or off.  Turning it on reserves the span log.
pub fn enable(on: bool) {
    TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        if on && tracer.log.capacity() == 0 {
            tracer.log.reserve_exact(SPAN_LOG_CAPACITY);
        }
        tracer.enabled = on;
    });
}

/// Clears the totals and the span log (the log keeps its capacity).
pub fn reset() {
    TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        assert!(tracer.stack.is_empty(), "reset with spans open");
        tracer.totals = Totals::default();
        tracer.log.clear();
        tracer.round = 0;
        tracer.next_id = 0;
        tracer.epoch = Instant::now();
    });
}

/// The totals accumulated since the last [`reset`].
pub fn totals() -> Totals {
    TRACER.with(|tracer| tracer.borrow().totals)
}

/// Writes the span log as tab-separated lines:
/// `id parent round name start_ns end_ns` (`parent` is `-` for a root span).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_log(out: &mut impl Write) -> std::io::Result<()> {
    TRACER.with(|tracer| {
        let tracer = tracer.borrow();
        writeln!(out, "id\tparent\tround\tname\tstart_ns\tend_ns")?;
        for span in &tracer.log {
            let parent = if span.parent == u32::MAX {
                "-".to_owned()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.id,
                parent,
                span.round,
                span.layer.name(),
                span.start_ns,
                span.end_ns
            )?;
        }
        Ok(())
    })
}
