//! The per-ECU RTE engine: port registry, local routing and network mapping.
//!
//! # Routing planes
//!
//! The RTE keeps its wiring in two representations:
//!
//! * The **slow plane** — `connections`, `tx_mapping`, `rx_mapping` — is the
//!   declarative source of truth, keyed by the strongly typed [`PortId`] /
//!   [`CanId`] spaces.  It changes only on reconfiguration: component
//!   registration, (dis)connect and (un)mapping calls.
//! * The **fast plane** — flat `Vec`s indexed by dense port [`Slot`]s — is
//!   compiled from the slow plane whenever it changes.  Every per-signal
//!   operation (`write_port`, `deliver_inbound`, `take_port`) resolves its
//!   port to a slot without hashing and then walks plain vectors.
//!
//! # Dense port slots
//!
//! Ports are never removed and one component's ports are registered
//! together, so each component owns the contiguous slot range
//! `base..base + count` of the port table.  Components live in a `Vec` in
//! registration order; a [`PortId`] resolves by indexing that `Vec` with its
//! SW-C's local index, checking the entry's id, and adding the port index to
//! the entry's base.  Every ECU built through `Ecu::add_component` numbers
//! its components in registration order, so this is the only path the
//! per-tick traffic takes.  Components registered under an id that does not
//! match their position (a foreign ECU id, a sparse local index) are listed
//! in a small side map consulted only when the indexed check misses.
//! Inbound frame ids resolve by binary search over the sorted mapped ids.
//!
//! Values are delivered by reference and cloned exactly once, at the receiving
//! buffer boundary; the last receiver of a write takes the value by move.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use dynar_bus::frame::CanId;
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{PortId, SwcId};
use dynar_foundation::intern::Slot;
use dynar_foundation::value::Value;

use crate::component::SwcDescriptor;
use crate::port::{check_connectable, PortBuffer, PortDirection, PortSpec};

/// Counters describing the signal traffic through one RTE instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RteStats {
    /// Writes issued by component behaviours.
    pub writes: u64,
    /// Signals routed to a local required port.
    pub local_routes: u64,
    /// Signals queued for transmission on the in-vehicle network.
    pub network_routes: u64,
    /// Writes on ports with neither a local connection nor a network mapping.
    pub unconnected_writes: u64,
    /// Values delivered from the network into required ports.
    pub network_deliveries: u64,
    /// Values dropped because a queued port overflowed.
    pub queue_overflows: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PortRuntime {
    id: PortId,
    direction: PortDirection,
    /// A relay port's routed writes leave no copy in `buffer`.
    relay: bool,
    buffer: PortBuffer,
}

/// One registered SW-C and its slice of the dense port table.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ComponentPorts {
    swc: SwcId,
    /// Slot of the component's first port; its ports occupy
    /// `base..base + descriptor.ports().len()`.
    base: u32,
    descriptor: SwcDescriptor,
}

/// The RTE instance of one ECU.
///
/// The RTE knows every SW-C registered on its ECU, owns the runtime buffers of
/// their ports, routes written values to locally connected ports and queues
/// values bound for other ECUs as `(frame id, value)` pairs for the
/// communication stack to pick up.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Rte {
    /// Registered components in registration order (see the module docs).
    components: Vec<ComponentPorts>,
    /// Components whose local index is not their position in `components`
    /// (foreign ECU ids, sparse local indices) -> their position.  Empty on
    /// every ECU that numbers its components in registration order.
    misplaced: HashMap<SwcId, u32>,
    // --- Slow plane: the declarative wiring -----------------------------
    /// provided port -> locally connected required ports.
    connections: HashMap<PortId, Vec<PortId>>,
    /// provided port -> frame id used to transmit its signal off-ECU.
    tx_mapping: HashMap<PortId, CanId>,
    /// frame id -> required ports fed by that signal on this ECU.
    rx_mapping: HashMap<CanId, Vec<PortId>>,
    // --- Fast plane: compiled, densely indexed route tables -------------
    /// Port runtimes, indexed by port slot.
    ports: Vec<PortRuntime>,
    /// provider slot -> requirer slots (compiled from `connections`).
    local_routes: Vec<Vec<Slot>>,
    /// provider slot -> outbound frame (compiled from `tx_mapping`).
    tx_routes: Vec<Option<CanId>>,
    /// Mapped inbound frame ids, sorted; a frame's position indexes
    /// `rx_routes`.
    rx_frames: Vec<CanId>,
    /// frame position -> requirer slots (compiled from `rx_mapping`).
    rx_routes: Vec<Vec<Slot>>,
    // --- Runtime queues --------------------------------------------------
    /// values queued for the communication stack.
    outbound: Vec<(CanId, Value)>,
    /// slots of the required ports that received new data since the last
    /// drain.
    data_received: Vec<Slot>,
    stats: RteStats,
}

impl Rte {
    /// Creates an empty RTE instance.
    pub fn new() -> Self {
        Rte::default()
    }

    /// Signal-traffic statistics accumulated so far.
    pub fn stats(&self) -> RteStats {
        self.stats
    }

    /// Registers a component's ports under the given SW-C instance id.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the instance id is already
    /// registered and [`DynarError::InvalidConfiguration`] if the descriptor
    /// fails validation.
    pub fn register_component(&mut self, swc: SwcId, descriptor: &SwcDescriptor) -> Result<()> {
        if self.position_of(swc).is_some() {
            return Err(DynarError::duplicate("software component", swc));
        }
        descriptor.validate()?;
        if descriptor.ports().len() > usize::from(u16::MAX) {
            return Err(DynarError::invalid_config(format!(
                "component {} declares more ports than a port id can number",
                descriptor.name()
            )));
        }
        let position = self.components.len();
        if usize::from(swc.local_index()) != position {
            let position = u32::try_from(position).expect("component table overflow");
            self.misplaced.insert(swc, position);
        }
        let base = u32::try_from(self.ports.len()).expect("port table overflow");
        for (index, spec) in descriptor.ports().iter().enumerate() {
            self.ports.push(PortRuntime {
                id: PortId::new(swc, index as u16),
                direction: spec.direction(),
                relay: spec.is_relay(),
                buffer: PortBuffer::for_interface(spec.interface()),
            });
            self.local_routes.push(Vec::new());
            self.tx_routes.push(None);
        }
        self.components.push(ComponentPorts {
            swc,
            base,
            descriptor: descriptor.clone(),
        });
        Ok(())
    }

    /// Position of a component in `components`: an indexed check on the
    /// SW-C's local index, the side map only for misplaced ids.
    fn position_of(&self, swc: SwcId) -> Option<usize> {
        let guess = usize::from(swc.local_index());
        match self.components.get(guess) {
            Some(entry) if entry.swc == swc => Some(guess),
            _ => self.misplaced.get(&swc).map(|&position| position as usize),
        }
    }

    fn component(&self, swc: SwcId) -> Option<&ComponentPorts> {
        self.position_of(swc)
            .map(|position| &self.components[position])
    }

    /// The descriptor a SW-C instance was registered with.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown instance.
    pub fn descriptor(&self, swc: SwcId) -> Result<&SwcDescriptor> {
        self.component(swc)
            .map(|entry| &entry.descriptor)
            .ok_or_else(|| DynarError::not_found("software component", swc))
    }

    /// All SW-C instances registered on this RTE.
    pub fn component_ids(&self) -> Vec<SwcId> {
        let mut ids: Vec<SwcId> = self.components.iter().map(|entry| entry.swc).collect();
        ids.sort();
        ids
    }

    /// Resolves a port by SW-C instance and port name.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the SW-C or port is unknown.
    pub fn port_id(&self, swc: SwcId, name: &str) -> Result<PortId> {
        self.component(swc)
            .and_then(|entry| {
                entry
                    .descriptor
                    .ports()
                    .iter()
                    .position(|spec| spec.name() == name)
            })
            .map(|index| PortId::new(swc, index as u16))
            .ok_or_else(|| DynarError::not_found("port", format!("{swc}:{name}")))
    }

    /// The dense slot of a port: its component's base plus the port index.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn port_slot(&self, port: PortId) -> Result<Slot> {
        match self.component(port.swc()) {
            Some(entry) if usize::from(port.index()) < entry.descriptor.ports().len() => {
                Ok(Slot::from_raw(entry.base + u32::from(port.index())))
            }
            _ => Err(DynarError::not_found("port", port)),
        }
    }

    /// The static spec of a port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn port_spec(&self, port: PortId) -> Result<&PortSpec> {
        self.component(port.swc())
            .and_then(|entry| entry.descriptor.ports().get(usize::from(port.index())))
            .ok_or_else(|| DynarError::not_found("port", port))
    }

    /// Connects a provided port to a required port on the same ECU
    /// (an assembly connector).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown ports and
    /// [`DynarError::InvalidConfiguration`] for incompatible port pairs.
    pub fn connect(&mut self, provider: PortId, requirer: PortId) -> Result<()> {
        let provider_spec = self.port_spec(provider)?;
        let requirer_spec = self.port_spec(requirer)?;
        check_connectable(provider_spec, requirer_spec)?;
        self.connections.entry(provider).or_default().push(requirer);
        self.rebuild_routes();
        Ok(())
    }

    /// Removes an assembly connector previously created by [`Rte::connect`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the connector does not exist.
    pub fn disconnect(&mut self, provider: PortId, requirer: PortId) -> Result<()> {
        let requirers = self
            .connections
            .get_mut(&provider)
            .ok_or_else(|| DynarError::not_found("connection", provider))?;
        let position = requirers
            .iter()
            .position(|r| *r == requirer)
            .ok_or_else(|| DynarError::not_found("connection", requirer))?;
        requirers.remove(position);
        if requirers.is_empty() {
            self.connections.remove(&provider);
        }
        self.rebuild_routes();
        Ok(())
    }

    /// Maps a provided port onto a network frame id for off-ECU transmission.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] if the port is not provided.
    pub fn map_signal_out(&mut self, provider: PortId, frame: CanId) -> Result<()> {
        let spec = self.port_spec(provider)?;
        if spec.direction() != PortDirection::Provided {
            return Err(DynarError::PortDirection {
                port: provider.to_string(),
                expected: "provided",
            });
        }
        self.tx_mapping.insert(provider, frame);
        self.rebuild_routes();
        Ok(())
    }

    /// Removes the outbound network mapping of a provided port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the port has no outbound mapping.
    pub fn unmap_signal_out(&mut self, provider: PortId) -> Result<CanId> {
        let frame = self
            .tx_mapping
            .remove(&provider)
            .ok_or_else(|| DynarError::not_found("signal mapping", provider))?;
        self.rebuild_routes();
        Ok(frame)
    }

    /// Maps an incoming network frame id onto a required port of this ECU.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] if the port is not required.
    pub fn map_signal_in(&mut self, frame: CanId, requirer: PortId) -> Result<()> {
        let spec = self.port_spec(requirer)?;
        if spec.direction() != PortDirection::Required {
            return Err(DynarError::PortDirection {
                port: requirer.to_string(),
                expected: "required",
            });
        }
        self.rx_mapping.entry(frame).or_default().push(requirer);
        self.rebuild_routes();
        Ok(())
    }

    /// Removes the inbound mapping from `frame` onto `requirer`.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the mapping does not exist.
    pub fn unmap_signal_in(&mut self, frame: CanId, requirer: PortId) -> Result<()> {
        let requirers = self
            .rx_mapping
            .get_mut(&frame)
            .ok_or_else(|| DynarError::not_found("signal mapping", frame))?;
        let position = requirers
            .iter()
            .position(|r| *r == requirer)
            .ok_or_else(|| DynarError::not_found("signal mapping", requirer))?;
        requirers.remove(position);
        if requirers.is_empty() {
            self.rx_mapping.remove(&frame);
        }
        self.rebuild_routes();
        Ok(())
    }

    /// Writes a value on a provided port, routing it to every locally
    /// connected required port and/or onto the network mapping.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] when the port is not provided.
    pub fn write_port(&mut self, provider: PortId, value: Value) -> Result<()> {
        let slot = self.port_slot(provider)?;
        let runtime = &mut self.ports[slot.index()];
        if runtime.direction != PortDirection::Provided {
            return Err(DynarError::PortDirection {
                port: provider.to_string(),
                expected: "provided",
            });
        }
        self.stats.writes += 1;

        let receivers = self.local_routes[slot.index()].len();
        let has_tx = self.tx_routes[slot.index()].is_some();
        // The provider's own buffer keeps the last written value so that
        // diagnostics (and tests) can observe what a component last produced
        // — by move when the write goes nowhere else.  A relay port's routed
        // writes move on without leaving a copy behind.
        if receivers == 0 && !has_tx {
            runtime.buffer.push(value);
            self.stats.unconnected_writes += 1;
            return Ok(());
        }
        if !runtime.relay {
            runtime.buffer.push(value.clone());
        }
        for index in 0..receivers {
            let requirer = self.local_routes[slot.index()][index];
            let last = index + 1 == receivers && !has_tx;
            if last {
                // The final receiver takes the value by move.
                Self::deliver_into(
                    &mut self.ports[requirer.index()],
                    requirer,
                    &mut self.data_received,
                    &mut self.stats,
                    value,
                );
                self.stats.local_routes += 1;
                return Ok(());
            }
            Self::deliver_into(
                &mut self.ports[requirer.index()],
                requirer,
                &mut self.data_received,
                &mut self.stats,
                value.clone(),
            );
            self.stats.local_routes += 1;
        }
        if let Some(frame) = self.tx_routes[slot.index()] {
            self.outbound.push((frame, value));
            self.stats.network_routes += 1;
        }
        Ok(())
    }

    /// Reads (without consuming) the current value of a port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn read_port(&self, port: PortId) -> Result<Value> {
        Ok(self.ports[self.port_slot(port)?.index()].buffer.peek())
    }

    /// Reads (without consuming) the current value of a port identified by
    /// SW-C instance and port name.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the SW-C or port is unknown.
    pub fn read_port_by_name(&self, swc: SwcId, name: &str) -> Result<Value> {
        let id = self.port_id(swc, name)?;
        self.read_port(id)
    }

    /// Consumes the next value available on a required port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] for a provided port.
    pub fn take_port(&mut self, port: PortId) -> Result<Option<Value>> {
        let slot = self.port_slot(port)?;
        let runtime = &mut self.ports[slot.index()];
        if runtime.direction != PortDirection::Required {
            return Err(DynarError::PortDirection {
                port: port.to_string(),
                expected: "required",
            });
        }
        Ok(runtime.buffer.take())
    }

    /// Number of values waiting on a port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn pending_on(&self, port: PortId) -> Result<usize> {
        Ok(self.ports[self.port_slot(port)?.index()].buffer.pending())
    }

    /// Returns `true` if `frame` is mapped inbound to at least one port (a
    /// binary search over the compiled receive table).
    pub fn maps_inbound(&self, frame: CanId) -> bool {
        self.rx_frames.binary_search(&frame).is_ok()
    }

    /// Delivers a value arriving from the in-vehicle network for `frame`.
    ///
    /// Unknown frame ids are silently ignored, mirroring a CAN controller
    /// whose acceptance filter admitted a frame no PDU is mapped to.
    pub fn deliver_inbound(&mut self, frame: CanId, value: Value) {
        let Ok(position) = self.rx_frames.binary_search(&frame) else {
            return;
        };
        let receivers = self.rx_routes[position].len();
        for index in 0..receivers {
            let requirer = self.rx_routes[position][index];
            if index + 1 == receivers {
                Self::deliver_into(
                    &mut self.ports[requirer.index()],
                    requirer,
                    &mut self.data_received,
                    &mut self.stats,
                    value,
                );
                self.stats.network_deliveries += 1;
                return;
            }
            Self::deliver_into(
                &mut self.ports[requirer.index()],
                requirer,
                &mut self.data_received,
                &mut self.stats,
                value.clone(),
            );
            self.stats.network_deliveries += 1;
        }
    }

    /// Drains the values queued for off-ECU transmission.
    pub fn drain_outbound(&mut self) -> Vec<(CanId, Value)> {
        std::mem::take(&mut self.outbound)
    }

    /// Drains the values queued for off-ECU transmission into a caller-owned
    /// buffer.  When `into` is empty the buffers are swapped, so a caller
    /// that reuses its buffer across ticks keeps both allocations warm and
    /// the per-tick drain allocation-free.
    pub fn drain_outbound_into(&mut self, into: &mut Vec<(CanId, Value)>) {
        dynar_foundation::buffers::drain_swap(&mut self.outbound, into);
    }

    /// Drains the list of required ports that received data since the last
    /// call (used by the ECU to fire data-received triggers).
    pub fn drain_data_received(&mut self) -> Vec<PortId> {
        let mut ports = Vec::with_capacity(self.data_received.len());
        self.drain_data_received_into(&mut ports);
        ports
    }

    /// Drains the data-received port list into a caller-owned buffer,
    /// appending in notification order — the reusable-buffer variant of
    /// [`Rte::drain_data_received`].
    pub fn drain_data_received_into(&mut self, into: &mut Vec<PortId>) {
        let ports = &self.ports;
        into.extend(
            self.data_received
                .drain(..)
                .map(|slot| ports[slot.index()].id),
        );
    }

    /// Drains the dense slots of the ports that received data (swap when
    /// `into` is empty, append otherwise) — what the ECU's trigger table is
    /// indexed by, so the per-tick trigger scan resolves nothing.
    pub(crate) fn drain_data_received_slots_into(&mut self, into: &mut Vec<Slot>) {
        dynar_foundation::buffers::drain_swap(&mut self.data_received, into);
    }

    /// Recompiles the fast plane from the slow plane.  Called on every
    /// reconfiguration; signal traffic never triggers it.
    fn rebuild_routes(&mut self) {
        let width = self.ports.len();
        let mut local_routes = vec![Vec::new(); width];
        let mut tx_routes = vec![None; width];
        let mut rx_frames: Vec<CanId> = self.rx_mapping.keys().copied().collect();
        rx_frames.sort_unstable();
        let slots_of = |requirers: &[PortId]| -> Vec<Slot> {
            requirers
                .iter()
                .filter_map(|r| self.port_slot(*r).ok())
                .collect()
        };
        for (provider, requirers) in &self.connections {
            if let Ok(provider_slot) = self.port_slot(*provider) {
                local_routes[provider_slot.index()] = slots_of(requirers);
            }
        }
        for (provider, frame) in &self.tx_mapping {
            if let Ok(provider_slot) = self.port_slot(*provider) {
                tx_routes[provider_slot.index()] = Some(*frame);
            }
        }
        let rx_routes = rx_frames
            .iter()
            .map(|frame| slots_of(&self.rx_mapping[frame]))
            .collect();
        self.local_routes = local_routes;
        self.tx_routes = tx_routes;
        self.rx_frames = rx_frames;
        self.rx_routes = rx_routes;
    }

    /// Checks that the compiled fast plane matches what a fresh compile of
    /// the slow plane would produce, and that the dense port table agrees
    /// with the registered components (used by the equivalence and property
    /// test suites; always `true` unless the rebuild discipline is broken).
    pub fn verify_compiled_routes(&self) -> bool {
        self.verify_port_table()
            && self.verify_local_routes()
            && self.verify_tx_routes()
            && self.verify_rx_routes()
    }

    /// Every registered component resolves to its own entry, its ports
    /// occupy exactly `base..base + count` in order, and the side map lists
    /// exactly the components whose local index is not their position.
    fn verify_port_table(&self) -> bool {
        let mut next_base = 0u32;
        for (position, entry) in self.components.iter().enumerate() {
            if self.position_of(entry.swc) != Some(position) || entry.base != next_base {
                return false;
            }
            let misplaced = usize::from(entry.swc.local_index()) != position;
            if self.misplaced.contains_key(&entry.swc) != misplaced {
                return false;
            }
            for (index, spec) in entry.descriptor.ports().iter().enumerate() {
                let id = PortId::new(entry.swc, index as u16);
                let slot = Slot::from_raw(entry.base + index as u32);
                let runtime = &self.ports[slot.index()];
                if self.port_slot(id).ok() != Some(slot)
                    || runtime.id != id
                    || runtime.direction != spec.direction()
                    || self.port_id(entry.swc, spec.name()).ok() != Some(id)
                {
                    return false;
                }
            }
            next_base += entry.descriptor.ports().len() as u32;
        }
        next_base as usize == self.ports.len()
            && self.local_routes.len() == self.ports.len()
            && self.tx_routes.len() == self.ports.len()
    }

    fn verify_local_routes(&self) -> bool {
        for (provider, requirers) in &self.connections {
            let Ok(provider_slot) = self.port_slot(*provider) else {
                return false;
            };
            let expected: Vec<Slot> = requirers
                .iter()
                .filter_map(|r| self.port_slot(*r).ok())
                .collect();
            if self.local_routes[provider_slot.index()] != expected {
                return false;
            }
        }
        let live_local: usize = self.local_routes.iter().map(Vec::len).sum();
        let declared_local: usize = self.connections.values().map(Vec::len).sum();
        live_local == declared_local
    }

    fn verify_tx_routes(&self) -> bool {
        for (provider, frame) in &self.tx_mapping {
            let Ok(provider_slot) = self.port_slot(*provider) else {
                return false;
            };
            if self.tx_routes[provider_slot.index()] != Some(*frame) {
                return false;
            }
        }
        self.tx_routes.iter().flatten().count() == self.tx_mapping.len()
    }

    fn verify_rx_routes(&self) -> bool {
        // No stale frame entries: exactly the mapped frames, sorted.
        if self.rx_frames.len() != self.rx_mapping.len()
            || !self.rx_frames.windows(2).all(|pair| pair[0] < pair[1])
        {
            return false;
        }
        for (frame, requirers) in &self.rx_mapping {
            let Ok(position) = self.rx_frames.binary_search(frame) else {
                return false;
            };
            let expected: Vec<Slot> = requirers
                .iter()
                .filter_map(|r| self.port_slot(*r).ok())
                .collect();
            if self.rx_routes[position] != expected {
                return false;
            }
        }
        self.rx_routes.len() == self.rx_frames.len()
    }

    /// Pushes `value` into a receiving port's buffer: the single clone of the
    /// delivery path happens at this boundary (or not at all, when the caller
    /// moves the value in).
    fn deliver_into(
        runtime: &mut PortRuntime,
        slot: Slot,
        data_received: &mut Vec<Slot>,
        stats: &mut RteStats,
        value: Value,
    ) {
        let before = runtime.buffer.overflows();
        runtime.buffer.push(value);
        if runtime.buffer.overflows() > before {
            stats.queue_overflows += 1;
        }
        data_received.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::SwcDescriptor;
    use crate::port::PortSpec;
    use dynar_foundation::ids::EcuId;

    fn swc(local: u16) -> SwcId {
        SwcId::new(EcuId::new(0), local)
    }

    fn simple_pair() -> (Rte, PortId, PortId) {
        let mut rte = Rte::new();
        let producer = SwcDescriptor::new("producer")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        let consumer = SwcDescriptor::new("consumer").with_port(PortSpec::queued(
            "in",
            PortDirection::Required,
            4,
        ));
        rte.register_component(swc(0), &producer).unwrap();
        rte.register_component(swc(1), &consumer).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let inp = rte.port_id(swc(1), "in").unwrap();
        rte.connect(out, inp).unwrap();
        (rte, out, inp)
    }

    #[test]
    fn local_routing_delivers_values() {
        let (mut rte, out, inp) = simple_pair();
        rte.write_port(out, Value::I64(3)).unwrap();
        assert_eq!(rte.take_port(inp).unwrap(), Some(Value::I64(3)));
        assert_eq!(rte.stats().local_routes, 1);
        assert_eq!(rte.drain_data_received(), vec![inp]);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c");
        rte.register_component(swc(0), &desc).unwrap();
        assert!(rte.register_component(swc(0), &desc).is_err());
    }

    #[test]
    fn write_on_required_port_is_rejected() {
        let (mut rte, _out, inp) = simple_pair();
        let err = rte.write_port(inp, Value::I64(1)).unwrap_err();
        assert!(matches!(err, DynarError::PortDirection { .. }));
    }

    #[test]
    fn take_on_provided_port_is_rejected() {
        let (mut rte, out, _inp) = simple_pair();
        assert!(matches!(
            rte.take_port(out).unwrap_err(),
            DynarError::PortDirection { .. }
        ));
    }

    #[test]
    fn unconnected_writes_are_counted_not_errors() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &desc).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        rte.write_port(out, Value::I64(1)).unwrap();
        assert_eq!(rte.stats().unconnected_writes, 1);
        assert_eq!(rte.read_port(out).unwrap(), Value::I64(1));
    }

    #[test]
    fn network_mapping_queues_outbound_values() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &desc).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let frame = CanId::new(0x101).unwrap();
        rte.map_signal_out(out, frame).unwrap();
        rte.write_port(out, Value::F64(1.5)).unwrap();
        assert_eq!(rte.drain_outbound(), vec![(frame, Value::F64(1.5))]);
        assert_eq!(rte.stats().network_routes, 1);
    }

    #[test]
    fn inbound_frames_reach_mapped_ports() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required));
        rte.register_component(swc(0), &desc).unwrap();
        let inp = rte.port_id(swc(0), "in").unwrap();
        let frame = CanId::new(0x42).unwrap();
        rte.map_signal_in(frame, inp).unwrap();
        rte.deliver_inbound(frame, Value::I64(9));
        rte.deliver_inbound(CanId::new(0x99).unwrap(), Value::I64(1));
        assert_eq!(rte.read_port(inp).unwrap(), Value::I64(9));
        assert_eq!(rte.stats().network_deliveries, 1);
    }

    #[test]
    fn mapping_direction_checks() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required))
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &desc).unwrap();
        let inp = rte.port_id(swc(0), "in").unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let frame = CanId::new(1).unwrap();
        assert!(rte.map_signal_out(inp, frame).is_err());
        assert!(rte.map_signal_in(frame, out).is_err());
    }

    #[test]
    fn queue_overflow_is_counted() {
        let mut rte = Rte::new();
        let producer = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        let consumer =
            SwcDescriptor::new("c").with_port(PortSpec::queued("in", PortDirection::Required, 1));
        rte.register_component(swc(0), &producer).unwrap();
        rte.register_component(swc(1), &consumer).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let inp = rte.port_id(swc(1), "in").unwrap();
        rte.connect(out, inp).unwrap();
        rte.write_port(out, Value::I64(1)).unwrap();
        rte.write_port(out, Value::I64(2)).unwrap();
        assert_eq!(rte.stats().queue_overflows, 1);
        assert_eq!(rte.take_port(inp).unwrap(), Some(Value::I64(2)));
    }

    #[test]
    fn one_provider_fans_out_to_many_requirers() {
        let mut rte = Rte::new();
        let producer = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &producer).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let mut ins = Vec::new();
        for i in 1..=3 {
            let consumer = SwcDescriptor::new(format!("c{i}"))
                .with_port(PortSpec::sender_receiver("in", PortDirection::Required));
            rte.register_component(swc(i), &consumer).unwrap();
            let inp = rte.port_id(swc(i), "in").unwrap();
            rte.connect(out, inp).unwrap();
            ins.push(inp);
        }
        rte.write_port(out, Value::Text("hello".into())).unwrap();
        for inp in ins {
            assert_eq!(rte.read_port(inp).unwrap(), Value::Text("hello".into()));
        }
        assert_eq!(rte.stats().local_routes, 3);
    }

    #[test]
    fn component_ids_are_sorted() {
        let (rte, _, _) = simple_pair();
        assert_eq!(rte.component_ids(), vec![swc(0), swc(1)]);
        assert!(rte.descriptor(swc(0)).is_ok());
        assert!(rte.descriptor(swc(9)).is_err());
    }

    #[test]
    fn disconnect_removes_the_route() {
        let (mut rte, out, inp) = simple_pair();
        rte.disconnect(out, inp).unwrap();
        rte.write_port(out, Value::I64(5)).unwrap();
        assert_eq!(rte.take_port(inp).unwrap(), None);
        assert_eq!(rte.stats().unconnected_writes, 1);
        assert!(rte.disconnect(out, inp).is_err(), "already disconnected");
        assert!(rte.verify_compiled_routes());
    }

    #[test]
    fn unmap_signal_out_stops_network_routing() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &desc).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let frame = CanId::new(0x101).unwrap();
        rte.map_signal_out(out, frame).unwrap();
        assert_eq!(rte.unmap_signal_out(out).unwrap(), frame);
        rte.write_port(out, Value::I64(1)).unwrap();
        assert!(rte.drain_outbound().is_empty());
        assert!(rte.unmap_signal_out(out).is_err());
        assert!(rte.verify_compiled_routes());
    }

    #[test]
    fn unmap_signal_in_stops_inbound_delivery() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required));
        rte.register_component(swc(0), &desc).unwrap();
        let inp = rte.port_id(swc(0), "in").unwrap();
        let frame = CanId::new(0x42).unwrap();
        rte.map_signal_in(frame, inp).unwrap();
        rte.unmap_signal_in(frame, inp).unwrap();
        rte.deliver_inbound(frame, Value::I64(9));
        assert_eq!(rte.stats().network_deliveries, 0);
        assert!(rte.unmap_signal_in(frame, inp).is_err());
        assert!(rte.verify_compiled_routes());
    }

    #[test]
    fn map_unmap_churn_leaves_no_stale_frame_slots() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required));
        rte.register_component(swc(0), &desc).unwrap();
        let inp = rte.port_id(swc(0), "in").unwrap();
        // Map and unmap a fresh frame id per cycle: freed slots must be
        // reused, not accumulated.
        for round in 0..100u32 {
            let frame = CanId::new(0x100 + round).unwrap();
            rte.map_signal_in(frame, inp).unwrap();
            assert!(rte.verify_compiled_routes());
            rte.unmap_signal_in(frame, inp).unwrap();
            assert!(rte.verify_compiled_routes());
        }
        assert!(
            rte.rx_frames.is_empty() && rte.rx_routes.is_empty(),
            "100 map/unmap cycles leave no frame entry behind"
        );
    }

    #[test]
    fn reconnect_cycles_leave_no_stale_routes() {
        let (mut rte, out, inp) = simple_pair();
        for _ in 0..50 {
            rte.disconnect(out, inp).unwrap();
            rte.connect(out, inp).unwrap();
        }
        assert!(rte.verify_compiled_routes());
        rte.write_port(out, Value::I64(7)).unwrap();
        assert_eq!(
            rte.take_port(inp).unwrap(),
            Some(Value::I64(7)),
            "exactly one delivery after 50 reconnect cycles"
        );
        assert_eq!(rte.pending_on(inp).unwrap(), 0);
    }

    #[test]
    fn port_slots_are_dense_and_stable() {
        let (rte, out, inp) = simple_pair();
        let out_slot = rte.port_slot(out).unwrap();
        let inp_slot = rte.port_slot(inp).unwrap();
        assert_ne!(out_slot, inp_slot);
        assert!(out_slot.index() < 2 && inp_slot.index() < 2);
        assert!(rte.port_slot(PortId::new(swc(9), 0)).is_err());
    }
}
