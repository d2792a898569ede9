//! Vehicles: ECUs on an in-vehicle bus, with the communication stack
//! between them.  A vehicle federates with the trusted server as a member
//! of a [`crate::fleet::Fleet`].

use dynar_bus::network::{Bus, BusConfig};
use dynar_foundation::codec;
use dynar_foundation::error::Result;
use dynar_foundation::ids::EcuId;
use dynar_foundation::intern::Interner;
use dynar_foundation::time::{Clock, Tick};
use dynar_rte::com_mapping::{Reassembler, Segmenter};
use dynar_rte::ecu::Ecu;

/// One vehicle: a set of ECUs connected by an in-vehicle bus, with the
/// communication stack (codec + segmentation) between them.
#[derive(Debug)]
pub struct Vehicle {
    ecus: Vec<Ecu>,
    /// ECU id -> dense slot; slots index `ecus` and `reassemblers`.
    ecu_slots: Interner<EcuId>,
    bus: Bus,
    segmenter: Segmenter,
    reassemblers: Vec<Reassembler>,
    /// Reused per-tick buffers (outbound signals, one signal's encoding and
    /// its frames), so a steady-state vehicle tick does not allocate on the
    /// comms path.
    outbound_scratch: Vec<(dynar_bus::frame::CanId, dynar_foundation::value::Value)>,
    encode_scratch: Vec<u8>,
    frames_scratch: Vec<dynar_bus::frame::Frame>,
    /// Received frames the comstack rejected: malformed segments and
    /// payloads the value codec could not decode, on ids the receiver maps.
    comstack_errors: u64,
    clock: Clock,
}

impl Vehicle {
    /// Creates a vehicle from its ECUs and a bus configuration, attaching
    /// every ECU to the bus.
    pub fn new(ecus: Vec<Ecu>, bus_config: BusConfig) -> Self {
        let mut bus = Bus::new(bus_config);
        let mut ecu_slots = Interner::new();
        let mut reassemblers = Vec::with_capacity(ecus.len());
        for ecu in &ecus {
            bus.attach(ecu.id());
            let slot = ecu_slots.intern(ecu.id());
            debug_assert_eq!(slot.index(), reassemblers.len(), "ECU ids are unique");
            reassemblers.push(Reassembler::new());
        }
        Vehicle {
            ecus,
            ecu_slots,
            bus,
            segmenter: Segmenter::new(),
            reassemblers,
            outbound_scratch: Vec::new(),
            encode_scratch: Vec::new(),
            frames_scratch: Vec::new(),
            comstack_errors: 0,
            clock: Clock::new(),
        }
    }

    /// The ECUs of the vehicle.
    pub fn ecus(&self) -> &[Ecu] {
        &self.ecus
    }

    /// Mutable access to an ECU by id (O(1) through the interned index).
    pub fn ecu_mut(&mut self, id: EcuId) -> Option<&mut Ecu> {
        let slot = self.ecu_slots.get(&id)?;
        Some(&mut self.ecus[slot.index()])
    }

    /// Read access to an ECU by id (O(1) through the interned index).
    pub fn ecu(&self, id: EcuId) -> Option<&Ecu> {
        let slot = self.ecu_slots.get(&id)?;
        Some(&self.ecus[slot.index()])
    }

    /// The in-vehicle bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable access to the in-vehicle bus (fault injection: frames sent
    /// here bypass the ECUs' comstack).
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// Received frames the comstack rejected so far: segments with a
    /// malformed segmentation header and reassembled payloads the value
    /// codec could not decode.  Each is dropped and counted here.  Frames on
    /// ids the receiving ECU does not map are skipped unread, so they are
    /// never counted.
    pub fn comstack_errors(&self) -> u64 {
        self.comstack_errors
    }

    /// Subscribes every ECU to every id in `frame_ids`: a CAN controller
    /// with an open acceptance filter.  The bus then delivers each frame to
    /// every ECU but its sender, and [`BusStats`] count each of those
    /// deliveries; the comstack in [`Vehicle::step`] decides relevance,
    /// skipping before reassembly every frame whose id the receiving ECU's
    /// RTE does not map inbound ([`Ecu::maps_inbound`]).
    ///
    /// [`BusStats`]: dynar_bus::network::BusStats
    pub fn open_acceptance_filters(&mut self, frame_ids: &[dynar_bus::frame::CanId]) {
        let ecu_ids: Vec<EcuId> = self.ecus.iter().map(Ecu::id).collect();
        for ecu in ecu_ids {
            for id in frame_ids {
                self.bus.subscribe(ecu, *id);
            }
        }
    }

    /// Current simulated time of the vehicle.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// Advances the vehicle by one tick: drains ECU outbound signals onto the
    /// bus (segmenting large payloads), steps the bus, reassembles and
    /// delivers inbound signals, then steps every ECU.
    ///
    /// The comstack allocates nothing once warm: each signal is encoded
    /// into one reused buffer and segmented into reused scratch (frames
    /// hold their payload inline), and a receiving ECU reassembles and
    /// decodes only the frame ids its RTE maps inbound — a frame its open
    /// acceptance filter admitted for another ECU is skipped before
    /// reassembly, and is not a comstack error.
    ///
    /// # Errors
    ///
    /// Propagates ECU step errors.
    pub fn step(&mut self) -> Result<()> {
        let now = self.clock.step();

        // Outbound: SW-C signals onto the bus (drained through a reused
        // buffer — quiet ECUs cost nothing).
        for index in 0..self.ecus.len() {
            let sender = self.ecus[index].id();
            debug_assert!(self.outbound_scratch.is_empty());
            self.ecus[index].drain_outbound_into(&mut self.outbound_scratch);
            for (frame_id, value) in self.outbound_scratch.drain(..) {
                self.encode_scratch.clear();
                codec::encode_into(&value, &mut self.encode_scratch);
                self.segmenter.segment_into(
                    frame_id,
                    &self.encode_scratch,
                    &mut self.frames_scratch,
                )?;
                for frame in self.frames_scratch.drain(..) {
                    self.bus.send(sender, frame, now)?;
                }
            }
        }

        self.bus.step(now);

        // Inbound: reassemble and deliver what the receiver maps, straight
        // out of each ECU's bus mailbox.
        for (index, ecu) in self.ecus.iter_mut().enumerate() {
            let reassembler = &mut self.reassemblers[index];
            for frame in self.bus.drain_received(ecu.id()) {
                if !ecu.maps_inbound(frame.id()) {
                    continue;
                }
                let decoded = match reassembler.accept(frame) {
                    Ok(Some((frame_id, payload))) => {
                        codec::decode_value(payload).map(|value| Some((frame_id, value)))
                    }
                    Ok(None) => Ok(None),
                    Err(err) => Err(err),
                };
                match decoded {
                    Ok(Some((frame_id, value))) => ecu.deliver_inbound(frame_id, value),
                    Ok(None) => {}
                    Err(_) => self.comstack_errors += 1,
                }
            }
        }

        for ecu in &mut self.ecus {
            ecu.step()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynar_bus::frame::{CanId, Frame};
    use dynar_foundation::value::Value;
    use dynar_rte::component::{ComponentBehavior, RteContext, SwcDescriptor};
    use dynar_rte::port::{PortDirection, PortSpec};

    struct Passive;

    impl ComponentBehavior for Passive {
        fn on_runnable(&mut self, _runnable: &str, _ctx: &mut RteContext<'_>) -> Result<()> {
            Ok(())
        }
    }

    /// ECU 2 maps `mapped`; ECU 3 maps nothing.  Every ECU subscribes to
    /// both ids.
    fn vehicle(mapped: CanId, unmapped: CanId) -> Vehicle {
        let mut receiver = Ecu::new(EcuId::new(2));
        let swc = receiver
            .add_component(
                SwcDescriptor::new("sink").with_port(PortSpec::queued(
                    "in",
                    PortDirection::Required,
                    8,
                )),
                Box::new(Passive),
            )
            .unwrap();
        receiver.map_signal_in(mapped, swc, "in").unwrap();
        let ecus = vec![Ecu::new(EcuId::new(1)), receiver, Ecu::new(EcuId::new(3))];
        let mut vehicle = Vehicle::new(ecus, BusConfig::default());
        vehicle.open_acceptance_filters(&[mapped, unmapped]);
        vehicle
    }

    #[test]
    fn frames_on_unmapped_ids_are_neither_reassembled_nor_counted() {
        let mapped = CanId::new(0x10).unwrap();
        let unmapped = CanId::new(0x11).unwrap();
        let mut vehicle = vehicle(mapped, unmapped);
        assert!(vehicle.ecu(EcuId::new(2)).unwrap().maps_inbound(mapped));
        assert!(!vehicle.ecu(EcuId::new(3)).unwrap().maps_inbound(mapped));

        // A frame too short for the segmentation header is a comstack error
        // wherever it is reassembled: on the unmapped id nobody reads it,
        // on the mapped id ECU 2 does (and ECU 3 skips it).
        let garbage = Frame::new(unmapped, vec![1, 2, 3]).unwrap();
        vehicle
            .bus_mut()
            .send(EcuId::new(1), garbage, Tick::ZERO)
            .unwrap();
        for _ in 0..3 {
            vehicle.step().unwrap();
        }
        assert_eq!(vehicle.bus().stats().delivered, 2, "filters stay open");
        assert_eq!(vehicle.comstack_errors(), 0);

        let garbage = Frame::new(mapped, vec![1, 2, 3]).unwrap();
        let now = vehicle.now();
        vehicle.bus_mut().send(EcuId::new(1), garbage, now).unwrap();
        for _ in 0..3 {
            vehicle.step().unwrap();
        }
        assert_eq!(vehicle.bus().stats().delivered, 4);
        assert_eq!(vehicle.comstack_errors(), 1, "only ECU 2 reassembled it");

        // A well-formed signal on the mapped id still arrives.
        let mut segmenter = Segmenter::new();
        let now = vehicle.now();
        for frame in segmenter
            .segment(mapped, &codec::encode_value(&Value::I64(9)))
            .unwrap()
        {
            vehicle.bus_mut().send(EcuId::new(1), frame, now).unwrap();
        }
        for _ in 0..3 {
            vehicle.step().unwrap();
        }
        let ecu = vehicle.ecu(EcuId::new(2)).unwrap();
        let swc = ecu.component_by_name("sink").unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(swc, "in").unwrap(),
            Value::I64(9)
        );
        assert_eq!(vehicle.comstack_errors(), 1);
    }
}
