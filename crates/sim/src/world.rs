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
    /// Reused per-tick drain buffers (outbound signals, received frames), so
    /// a steady-state vehicle tick does not allocate on the comms path.
    outbound_scratch: Vec<(dynar_bus::frame::CanId, dynar_foundation::value::Value)>,
    frames_scratch: Vec<dynar_bus::frame::Frame>,
    /// Received frames the comstack rejected: malformed segments and
    /// payloads the value codec could not decode.
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
    /// codec could not decode.  Each is dropped and counted here.
    pub fn comstack_errors(&self) -> u64 {
        self.comstack_errors
    }

    /// Subscribes every ECU except the sender to the frame ids it transmits,
    /// based on the signal mappings configured on the ECUs.  Called once
    /// after wiring; here it simply subscribes every ECU to every frame id,
    /// letting the per-ECU RTE mapping filter relevance (a CAN controller
    /// with an open acceptance filter).
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
                let payload = codec::encode_value(&value);
                for frame in self.segmenter.segment(frame_id, &payload)? {
                    self.bus.send(sender, frame, now)?;
                }
            }
        }

        self.bus.step(now);

        // Inbound: reassemble and deliver.
        for index in 0..self.ecus.len() {
            let receiver = self.ecus[index].id();
            debug_assert!(self.frames_scratch.is_empty());
            self.bus.receive_into(receiver, &mut self.frames_scratch);
            let reassembler = &mut self.reassemblers[index];
            for frame in self.frames_scratch.drain(..) {
                let decoded = match reassembler.accept(&frame) {
                    Ok(Some((frame_id, payload))) => {
                        codec::decode_value(&payload).map(|value| Some((frame_id, value)))
                    }
                    Ok(None) => Ok(None),
                    Err(err) => Err(err),
                };
                match decoded {
                    Ok(Some((frame_id, value))) => {
                        self.ecus[index].deliver_inbound(frame_id, value);
                    }
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
