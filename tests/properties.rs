//! Property-based tests over the wire formats and id-assignment invariants.
//!
//! All blocks run under an explicit, fixed-seed [`ProptestConfig`] so every
//! CI run generates exactly the same cases: a failure here reproduces
//! identically on any machine.

use dynar::bus::frame::{CanId, Frame, MAX_PAYLOAD};
use dynar::core::context::{
    ExternalConnectionContext, InstallationContext, LinkTarget, PortInitContext, PortLinkContext,
};
use dynar::core::message::{Ack, AckStatus, InstallationPackage, ManagementMessage};
use dynar::core::plugin::PluginPortDirection;
use dynar::ecm::protocol::{decode_downlink, decode_uplink, encode_downlink, encode_uplink};
use dynar::foundation::codec::{decode_value, decode_with, encode_into, encode_value, Reader};
use dynar::foundation::error::DynarError;
use dynar::foundation::ids::{AppId, EcuId, PluginId, PluginPortId, VirtualPortId};
use dynar::foundation::value::Value;
use dynar::rte::com_mapping::{Reassembler, Segmenter};
use dynar::server::campaign::{
    Campaign, CampaignCounters, CampaignId, CampaignSpec, CampaignStatus, HealthGate,
    VehicleSelector, WavePlan,
};
use dynar::vm::assembler::{assemble, disassemble};
use dynar::vm::isa::Instruction;
use dynar::vm::program::Program;
use dynar::vm::{Budget, CompiledProgram, CompiledVm, PortHost, ShadowVm, Vm};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Void),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<f64>()
            .prop_filter("NaN compares unequal", |f| !f.is_nan())
            .prop_map(Value::F64),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::Text),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

fn plugin_id_strategy() -> impl Strategy<Value = PluginId> {
    "[a-zA-Z][a-zA-Z0-9_-]{0,11}".prop_map(PluginId::new)
}

fn ack_strategy() -> impl Strategy<Value = Ack> {
    (
        plugin_id_strategy(),
        "[a-z][a-z0-9-]{0,11}",
        0u16..64,
        prop_oneof![
            Just(AckStatus::Installed),
            Just(AckStatus::Uninstalled),
            Just(AckStatus::Started),
            Just(AckStatus::Stopped),
            "[ -~]{0,32}".prop_map(AckStatus::Failed),
        ],
    )
        .prop_map(|(plugin, app, ecu, status)| Ack {
            plugin,
            app: AppId::new(app),
            ecu: EcuId::new(ecu),
            status,
        })
}

/// Every non-`Install` management message the ECM protocol can carry.
fn management_message_strategy() -> impl Strategy<Value = ManagementMessage> {
    prop_oneof![
        plugin_id_strategy().prop_map(|plugin| ManagementMessage::Uninstall { plugin }),
        plugin_id_strategy().prop_map(|plugin| ManagementMessage::Stop { plugin }),
        plugin_id_strategy().prop_map(|plugin| ManagementMessage::Start { plugin }),
        (0u32..64, value_strategy()).prop_map(|(port, payload)| ManagementMessage::ExternalData {
            port: PluginPortId::new(port),
            payload,
        }),
        ("[A-Za-z]{1,10}", value_strategy()).prop_map(|(message_id, payload)| {
            ManagementMessage::OutboundData {
                message_id,
                payload,
            }
        }),
        ack_strategy().prop_map(ManagementMessage::Ack),
        proptest::strategy::Just(ManagementMessage::StateReportRequest),
        (
            0u32..16,
            proptest::collection::vec((plugin_id_strategy(), "[a-z]{1,8}", 1u16..8), 0..4,),
        )
            .prop_map(|(boot_epoch, plugins)| ManagementMessage::StateReport {
                boot_epoch,
                plugins: plugins
                    .into_iter()
                    .map(|(plugin, app, ecu)| (plugin, AppId::new(app), EcuId::new(ecu)))
                    .collect(),
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every management message survives the server → ECM downlink encoding,
    /// and the recipient ECU address, sequence id, boot epoch and server
    /// incarnation survive with it.
    #[test]
    fn downlink_round_trips(
        target in 0u16..64,
        seq in 0u64..1_000_000,
        boot_epoch in 0u32..1_000,
        incarnation in 0u32..1_000,
        message in management_message_strategy(),
    ) {
        let bytes = encode_downlink(EcuId::new(target), seq, boot_epoch, incarnation, &message);
        let envelope = decode_downlink(&bytes).unwrap();
        prop_assert_eq!(envelope.target, EcuId::new(target));
        prop_assert_eq!(envelope.seq, seq);
        prop_assert_eq!(envelope.boot_epoch, boot_epoch);
        prop_assert_eq!(envelope.incarnation, incarnation);
        prop_assert_eq!(envelope.message, message);
    }

    /// Installation packages (opaque binary plus PIC/PLC context) survive the
    /// downlink too — the variant the paper's §3.1.3 example shows.
    #[test]
    fn downlink_install_round_trips(
        target in 0u16..16,
        binary in proptest::collection::vec(any::<u8>(), 0..256),
        ports in proptest::collection::vec(0u32..32, 1..6),
    ) {
        let mut pic = PortInitContext::new();
        let mut plc = PortLinkContext::new();
        let mut seen = std::collections::HashSet::new();
        for (index, id) in ports.iter().enumerate() {
            if !seen.insert(*id) {
                continue;
            }
            pic = pic.with_port(
                format!("p{index}"),
                PluginPortId::new(*id),
                PluginPortDirection::Required,
            );
            plc = plc.with_link(PluginPortId::new(*id), LinkTarget::Direct);
        }
        let package = InstallationPackage::new(
            PluginId::new("prop-plugin"),
            AppId::new("prop-app"),
            binary,
            InstallationContext::new(pic, plc),
        );
        let message = ManagementMessage::Install(package);
        let bytes = encode_downlink(EcuId::new(target), 7, 2, 3, &message);
        let envelope = decode_downlink(&bytes).unwrap();
        prop_assert_eq!(envelope.target, EcuId::new(target));
        prop_assert_eq!(envelope.seq, 7);
        prop_assert_eq!(envelope.boot_epoch, 2);
        prop_assert_eq!(envelope.incarnation, 3);
        prop_assert_eq!(envelope.message, message);
    }

    /// Every acknowledgement survives the vehicle → server uplink encoding.
    #[test]
    fn uplink_round_trips(message in management_message_strategy()) {
        let bytes = encode_uplink(&message);
        prop_assert_eq!(decode_uplink(&bytes).unwrap(), message);
    }

    /// Any in-range identifier and payload make a frame that reports exactly
    /// what was framed.
    #[test]
    fn can_framing_round_trips(
        id in 0u32..=CanId::MAX,
        payload in proptest::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD),
    ) {
        let can_id = CanId::new(id).unwrap();
        let frame = Frame::new(can_id, payload.clone()).unwrap();
        prop_assert_eq!(frame.id(), can_id);
        prop_assert_eq!(frame.id().raw(), id);
        prop_assert_eq!(frame.dlc(), payload.len());
        prop_assert_eq!(frame.payload(), payload.as_slice());
        prop_assert_eq!(frame.into_payload(), payload);
    }

    /// Out-of-range identifiers and oversized payloads are rejected with the
    /// typed configuration error, never a panic.
    #[test]
    fn can_framing_rejects_invalid_inputs(
        id_overflow in 1u32..=0x7FFF_FFFF - CanId::MAX,
        oversize in 1usize..64,
    ) {
        prop_assert!(matches!(
            CanId::new(CanId::MAX + id_overflow),
            Err(DynarError::InvalidConfiguration(_))
        ));
        let id = CanId::new(0x100).unwrap();
        prop_assert!(matches!(
            Frame::new(id, vec![0; MAX_PAYLOAD + oversize]),
            Err(DynarError::InvalidConfiguration(_))
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any value survives the shared codec unchanged.
    #[test]
    fn codec_round_trips(value in value_strategy()) {
        let encoded = encode_value(&value);
        prop_assert_eq!(decode_value(&encoded).unwrap(), value);
    }

    /// Any payload survives segmentation and reassembly, regardless of size.
    #[test]
    fn segmentation_round_trips(payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let id = dynar::bus::frame::CanId::new(0x123).unwrap();
        let mut segmenter = Segmenter::new();
        let mut reassembler = Reassembler::new();
        let mut result = None;
        for frame in segmenter.segment(id, &payload).unwrap() {
            result = reassembler
                .accept(&frame)
                .unwrap()
                .map(|(id, bytes)| (id, bytes.to_vec()));
        }
        prop_assert_eq!(result, Some((id, payload)));
    }

    /// Messages on several frame ids survive reassembly when each
    /// message's chunks arrive shuffled, the ids' streams interleave and
    /// chunks are lost: every message whose chunks all arrive comes back
    /// exactly once, byte for byte and on its own id; no other message
    /// does; and every partly received message that a later message on its
    /// id interrupts is counted in `incomplete_dropped`.
    #[test]
    fn reassembly_survives_shuffled_lost_and_interleaved_chunks(
        streams in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 1..5),
            1..4,
        ),
        seed in any::<u64>(),
        loss_tenths in 0u8..4,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut segmenter = Segmenter::new();
        let mut queues = Vec::new();
        let mut expected = Vec::new();
        let mut expected_dropped = 0u64;
        for (stream, messages) in streams.iter().enumerate() {
            let id = CanId::new(0x100 + stream as u32).unwrap();
            let mut queue = std::collections::VecDeque::new();
            let mut complete = Vec::new();
            // Per message: were some, but not all, of its chunks delivered?
            let mut partial = Vec::new();
            for payload in messages {
                let mut frames: Vec<Frame> = segmenter
                    .segment(id, payload)
                    .unwrap()
                    .into_iter()
                    .filter(|_| !rng.gen_bool(f64::from(loss_tenths) / 10.0))
                    .collect();
                let total = payload.len().div_ceil(dynar::rte::com_mapping::SEGMENT_DATA).max(1);
                if frames.len() == total {
                    complete.push(payload.clone());
                }
                partial.push(!frames.is_empty() && frames.len() < total);
                for i in (1..frames.len()).rev() {
                    let j = rng.gen_range_u64(0, i as u64 + 1) as usize;
                    frames.swap(i, j);
                }
                queue.push_back(frames);
            }
            // A partly received message is dropped once a chunk of any
            // later message on its id arrives.
            for (index, &was_partial) in partial.iter().enumerate() {
                let interrupted = queue.iter().skip(index + 1).any(|frames| !frames.is_empty());
                if was_partial && interrupted {
                    expected_dropped += 1;
                }
            }
            queues.push((id, queue.into_iter().flatten().collect::<std::collections::VecDeque<_>>()));
            expected.push(complete);
        }

        let mut reassembler = Reassembler::new();
        let mut received = vec![Vec::new(); queues.len()];
        while queues.iter().any(|(_, frames)| !frames.is_empty()) {
            let live: Vec<usize> = (0..queues.len()).filter(|&i| !queues[i].1.is_empty()).collect();
            let pick = live[rng.gen_range_u64(0, live.len() as u64) as usize];
            let frame = queues[pick].1.pop_front().unwrap();
            if let Some((id, payload)) = reassembler.accept(&frame).unwrap() {
                prop_assert_eq!(id, queues[pick].0);
                received[pick].push(payload.to_vec());
            }
        }
        prop_assert_eq!(received, expected);
        prop_assert_eq!(reassembler.incomplete_dropped, expected_dropped);
    }

    /// Installation contexts survive their wire encoding, for any mix of
    /// direct, virtual-port, remote and external links.
    #[test]
    fn context_round_trips(
        ports in proptest::collection::vec((0u32..64, any::<bool>()), 1..12),
        virtual_ids in proptest::collection::vec(0u16..16, 0..12),
        with_ecc in any::<bool>(),
    ) {
        let mut pic = PortInitContext::new();
        let mut seen = std::collections::HashSet::new();
        let mut port_ids = Vec::new();
        for (index, (id, provided)) in ports.iter().enumerate() {
            if !seen.insert(*id) {
                continue;
            }
            let direction = if *provided {
                PluginPortDirection::Provided
            } else {
                PluginPortDirection::Required
            };
            pic = pic.with_port(format!("port{index}"), PluginPortId::new(*id), direction);
            port_ids.push(PluginPortId::new(*id));
        }
        let mut plc = PortLinkContext::new();
        for (index, port) in port_ids.iter().enumerate() {
            let target = match virtual_ids.get(index) {
                None => LinkTarget::Direct,
                Some(v) if index % 2 == 0 => LinkTarget::VirtualPort(VirtualPortId::new(*v)),
                Some(v) => LinkTarget::RemotePluginPort {
                    via: VirtualPortId::new(*v),
                    remote: PluginPortId::new(u32::from(*v) + 100),
                },
            };
            plc = plc.with_link(*port, target);
        }
        let mut context = InstallationContext::new(pic, plc);
        if with_ecc {
            let mut ecc = ExternalConnectionContext::new();
            for (index, port) in port_ids.iter().enumerate() {
                ecc = ecc.with_route(
                    "device",
                    format!("msg{index}"),
                    EcuId::new(index as u16),
                    *port,
                );
            }
            context = context.with_ecc(ecc);
        }
        prop_assert!(context.validate().is_ok());
        let decoded = InstallationContext::from_bytes(&context.to_bytes()).unwrap();
        prop_assert_eq!(decoded, context);
    }

    /// Plug-in binaries survive the portable binary format, whatever the
    /// (valid) program text.
    #[test]
    fn assembled_programs_round_trip(
        constants in proptest::collection::vec(-1000i64..1000, 1..8),
        port in 0u32..16,
    ) {
        let mut source = String::new();
        for value in &constants {
            source.push_str(&format!("push_int {value}\n"));
        }
        source.push_str(&format!("write_port {port}\nhalt\n"));
        let program = assemble("generated", &source).unwrap();
        let decoded = dynar::vm::program::Program::from_bytes(&program.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &program);
        prop_assert!(!disassemble(&decoded).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The transport hub's conservation invariant (`sent == delivered + lost
    /// + dropped + in_flight`) and per-link FIFO order hold under arbitrary
    /// interleavings of register/send/step/receive operations mixed with
    /// fault injection (loss, jitter, partitions) — the stats ledger of the
    /// federation reliability plane can never leak a message.
    #[test]
    fn transport_conservation_and_fifo_under_random_interleavings(
        ops in proptest::collection::vec(
            (0u8..6, 0usize..5, 0usize..5, 1u64..6),
            1..160,
        ),
        seed in 0u64..1024,
    ) {
        use dynar::fes::transport::{LinkFault, Transport, TransportConfig, TransportHub};
        use dynar::foundation::time::Tick;
        use std::collections::HashMap;

        let names = ["e0", "e1", "e2", "e3", "e4"];
        let mut hub = TransportHub::new(TransportConfig {
            latency_ticks: 1,
            loss_probability: 0.15,
            seed,
        });
        hub.register(names[0]);
        hub.register(names[1]);

        let mut now = 0u64;
        // Per directed link: the next payload counter and the highest
        // counter observed at the receiver (FIFO ⇒ strictly increasing).
        let mut next_seq: HashMap<(usize, usize), u64> = HashMap::new();
        let mut last_seen: HashMap<(String, String), u64> = HashMap::new();

        for (op, a, b, k) in ops {
            match op {
                0 => hub.register(names[a]),
                1 => {
                    let (from, to) = (names[a], names[b]);
                    if hub.is_registered(from) && hub.is_registered(to) {
                        let seq = next_seq.entry((a, b)).or_insert(0);
                        *seq += 1;
                        hub.send(from, to, seq.to_be_bytes().to_vec()).unwrap();
                    } else {
                        prop_assert!(hub.send(from, to, vec![]).is_err());
                    }
                }
                2 => {
                    now += k;
                    hub.step(Tick::new(now));
                }
                3 => {
                    for (sender, payload) in hub.drain(names[a]) {
                        let seq = u64::from_be_bytes(payload.as_slice().try_into().unwrap());
                        let key = (sender.as_ref().to_owned(), names[a].to_owned());
                        let last = last_seen.get(&key).copied().unwrap_or(0);
                        prop_assert!(
                            seq > last,
                            "link {:?} delivered {seq} after {last}", key
                        );
                        last_seen.insert(key, seq);
                    }
                }
                4 => hub.set_link_fault(names[a], names[b], LinkFault::jittery(k)),
                _ => hub.partition(names[a], names[b], Tick::new(now + k)),
            }
            prop_assert!(hub.stats().is_conserved(), "after op {op}: {:?}", hub.stats());
        }

        // Drain: past every partition heal tick and jittered latency, the
        // ledger closes with nothing in flight.
        now += 64;
        hub.step(Tick::new(now));
        let stats = hub.stats();
        prop_assert_eq!(stats.in_flight, 0);
        prop_assert_eq!(stats.sent, stats.delivered + stats.lost + stats.dropped);
    }
}

fn vehicle_id_strategy() -> impl Strategy<Value = dynar::foundation::ids::VehicleId> {
    "[A-Z][A-Z0-9-]{1,11}".prop_map(dynar::foundation::ids::VehicleId::new)
}

fn campaign_spec_strategy() -> impl Strategy<Value = CampaignSpec> {
    let selector = prop_oneof![
        Just(VehicleSelector::All),
        "[a-z][a-z0-9-]{0,11}".prop_map(VehicleSelector::Model),
        proptest::collection::vec(vehicle_id_strategy(), 0..5).prop_map(VehicleSelector::Vehicles),
    ];
    (
        "[a-z][a-z0-9-]{0,11}",
        "[a-z][a-z0-9-]{0,11}",
        prop_oneof![Just(None), "[a-z][a-z0-9-]{0,11}".prop_map(Some),],
        selector,
        (0usize..20, proptest::collection::vec(1u32..=100, 0..5)),
        (0u64..1000, 0u64..20, 0u64..20),
    )
        .prop_map(|(id, app, replaces, selector, plan, gate)| CampaignSpec {
            id: CampaignId::new(id),
            app: AppId::new(app),
            replaces: replaces.map(AppId::new),
            selector,
            plan: WavePlan {
                canary: plan.0,
                ramp_percent: plan.1,
            },
            gate: HealthGate {
                min_soak_ticks: gate.0,
                pause_failed: gate.1,
                abort_failed: gate.2,
            },
        })
}

fn campaign_strategy() -> impl Strategy<Value = Campaign> {
    (
        campaign_spec_strategy(),
        (
            "[a-z]{1,8}",
            proptest::collection::vec(vehicle_id_strategy(), 0..6),
        ),
        (0usize..6, 0u64..5000),
        prop_oneof![
            Just(CampaignStatus::Running),
            Just(CampaignStatus::Paused),
            Just(CampaignStatus::Aborted),
            Just(CampaignStatus::Complete),
        ],
        proptest::collection::vec(
            (
                vehicle_id_strategy(),
                proptest::collection::vec("[a-z]{1,6}".prop_map(AppId::new), 0..4),
            ),
            0..4,
        ),
        (0u64..100, 0u64..100, 0u64..100, 0u64..100),
    )
        .prop_map(
            |(spec, (user, targets), (wave, wave_started), status, last_good, counters)| Campaign {
                id: spec.id,
                user: dynar::foundation::ids::UserId::new(user),
                app: spec.app,
                replaces: spec.replaces,
                selector: spec.selector,
                targets,
                plan: spec.plan,
                gate: spec.gate,
                status,
                wave,
                wave_started: dynar::foundation::time::Tick::new(wave_started),
                last_good: last_good
                    .into_iter()
                    .map(|(vehicle, apps)| (vehicle, apps.into_iter().collect()))
                    .collect(),
                counters: CampaignCounters {
                    exposed: counters.0,
                    succeeded: counters.1,
                    failed: counters.2,
                    rolled_back: counters.3,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every campaign structure — any selector shape, wave plan, gate,
    /// lifecycle status, last-good map and counter state — survives its
    /// canonical streamed encoding: the bytes the journal's create record
    /// and the durability snapshot carry.
    #[test]
    fn campaign_codecs_round_trip(
        spec in campaign_spec_strategy(),
        campaign in campaign_strategy(),
    ) {
        prop_assert_eq!(round_trip(&spec, CampaignSpec::encode_into, CampaignSpec::decode), spec);
        prop_assert_eq!(round_trip(&campaign, Campaign::encode_into, Campaign::decode), campaign);
    }

    /// Well-formed journal frames carrying the campaign record tags (20–25)
    /// with arbitrary payloads drive `TrustedServer::replay` through every
    /// campaign decode-and-apply arm: a typed error or a (vacuous) success,
    /// never a panic — decision records naming unknown campaigns included.
    #[test]
    fn campaign_journal_frames_never_panic_on_arbitrary_payloads(
        records in proptest::collection::vec(
            (20i64..=25, value_strategy(), any::<bool>()),
            1..8,
        ),
    ) {
        use dynar::foundation::codec::encode_value;
        use dynar::foundation::journal::append_frame;
        use dynar::server::TrustedServer;

        let mut journal = Vec::new();
        for (tag, payload, wrap) in records {
            // Sometimes the canonical `[tag, payload]` list shape with an
            // adversarial payload, sometimes a bare value under the tag.
            let record = if wrap {
                Value::List(vec![Value::I64(tag), payload])
            } else {
                Value::List(vec![Value::I64(tag), Value::List(vec![payload])])
            };
            append_frame(&mut journal, &encode_value(&record));
        }
        let _ = TrustedServer::replay(&journal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every byte-level decoder in the stack — the shared value codec, the
    /// ECM wire envelopes, the installation context, the journal frame
    /// reader and the journal replay itself — returns a typed error on
    /// arbitrary (truncated, corrupted, adversarial) input.  None of them
    /// may panic: they all sit on recovery or ingress paths where the input
    /// is untrusted by definition.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        use dynar::core::message::DownlinkEnvelope;
        use dynar::foundation::journal::FrameReader;
        use dynar::server::TrustedServer;
        use dynar::vm::program::Program;

        let _ = decode_value(&bytes);
        let _ = decode_downlink(&bytes);
        let _ = decode_uplink(&bytes);
        let _ = DownlinkEnvelope::from_bytes(&bytes);
        let _ = ManagementMessage::from_bytes(&bytes);
        let _ = InstallationContext::from_bytes(&bytes);
        let _ = Program::from_bytes(&bytes);
        let _ = TrustedServer::replay(&bytes);
        let mut reader = FrameReader::new(&bytes);
        while let Ok(Some(_)) = reader.next_frame() {}
    }

    /// The streamed decoders of the durability plane (model descriptions,
    /// the ledger, campaigns) read the encoding of an arbitrary value tree
    /// with typed errors only — and whatever one accepts survives its own
    /// encoding: `decode(encode(x)) == x`.
    #[test]
    fn durability_value_decoders_never_panic(value in value_strategy()) {
        use dynar::server::{AppDefinition, HwConf, Ledger, SystemSwConf};

        let bytes = encode_value(&value);
        accepted_round_trips(&bytes, HwConf::encode_into, HwConf::decode);
        accepted_round_trips(&bytes, SystemSwConf::encode_into, SystemSwConf::decode);
        accepted_round_trips(&bytes, AppDefinition::encode_into, AppDefinition::decode);
        // The ledger is the one durable type encoded through its value form.
        accepted_round_trips(
            &bytes,
            |ledger: &Ledger, out| encode_into(&ledger.to_value(), out),
            Ledger::decode,
        );
        accepted_round_trips(&bytes, CampaignSpec::encode_into, CampaignSpec::decode);
        accepted_round_trips(&bytes, Campaign::encode_into, Campaign::decode);
    }
}

/// Encodes `x` with `encode` and reads it back with `decode`: the path a
/// durable type takes through a journal frame.
fn round_trip<T>(
    x: &T,
    encode: fn(&T, &mut Vec<u8>),
    decode: fn(&mut Reader<'_>) -> Result<T, DynarError>,
) -> T {
    let mut bytes = Vec::new();
    encode(x, &mut bytes);
    decode_with(&bytes, decode).expect("an encoding decodes")
}

/// `decode` reads `bytes` to a typed error or to a value that survives its
/// own encoding.
fn accepted_round_trips<T: PartialEq + std::fmt::Debug>(
    bytes: &[u8],
    encode: fn(&T, &mut Vec<u8>),
    decode: fn(&mut Reader<'_>) -> Result<T, DynarError>,
) {
    match decode_with(bytes, decode) {
        Ok(accepted) => assert_eq!(round_trip(&accepted, encode, decode), accepted),
        Err(error) => assert!(
            matches!(error, DynarError::ProtocolViolation(_)),
            "{error:?}"
        ),
    }
}

/// A list nested 100 000 deep is a `ProtocolViolation` for every reader of
/// untrusted bytes — the value codec, the external device decoder and
/// journal replay — on a default (2 MiB) test thread, where a decoder that
/// recursed once per level would overflow its stack.
#[test]
fn deeply_nested_lists_are_protocol_violations() {
    use dynar::fes::device::decode_device_message;
    use dynar::foundation::codec::encode_list_header;
    use dynar::foundation::journal::append_frame;
    use dynar::server::TrustedServer;

    let mut nested = Vec::new();
    for _ in 0..100_000 {
        encode_list_header(1, &mut nested);
    }
    nested.extend_from_slice(&encode_value(&Value::Void));
    let mut journal = Vec::new();
    append_frame(&mut journal, &nested);
    for result in [
        decode_value(&nested).map(drop),
        decode_device_message(&nested).map(drop),
        TrustedServer::replay(&journal).map(drop),
    ] {
        assert!(
            matches!(result, Err(DynarError::ProtocolViolation(_))),
            "{result:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Streamed snapshot properties.
// ---------------------------------------------------------------------------

/// One operator, vehicle or clock input to a generated journaling server.
/// Vehicle indices and plug-in indices are taken modulo what exists; the
/// `bool` picks the v2 app over v1.
#[derive(Debug, Clone)]
enum ServerOp {
    Deploy(usize, bool),
    Uninstall(usize, bool),
    SetDesired(usize, bool),
    ClearDesired(usize, bool),
    Reconcile(usize),
    Ack(usize, bool, usize, bool),
    StateReport(usize, u32),
    Poll(usize),
    Tick(u64),
    Offline(usize),
    Online(usize, u32),
    Restore(usize),
    Campaign(usize, bool),
    StepCampaigns,
}

fn server_op_strategy() -> impl Strategy<Value = ServerOp> {
    let vehicle = 0usize..8;
    prop_oneof![
        (vehicle.clone(), any::<bool>()).prop_map(|(v, b)| ServerOp::Deploy(v, b)),
        (vehicle.clone(), any::<bool>()).prop_map(|(v, b)| ServerOp::Uninstall(v, b)),
        (vehicle.clone(), any::<bool>()).prop_map(|(v, b)| ServerOp::SetDesired(v, b)),
        (vehicle.clone(), any::<bool>()).prop_map(|(v, b)| ServerOp::ClearDesired(v, b)),
        vehicle.clone().prop_map(ServerOp::Reconcile),
        (vehicle.clone(), any::<bool>(), 0usize..4, any::<bool>())
            .prop_map(|(v, b, p, ok)| ServerOp::Ack(v, b, p, ok)),
        (vehicle.clone(), 0u32..3).prop_map(|(v, e)| ServerOp::StateReport(v, e)),
        vehicle.clone().prop_map(ServerOp::Poll),
        (1u64..40).prop_map(ServerOp::Tick),
        vehicle.clone().prop_map(ServerOp::Offline),
        (vehicle.clone(), 0u32..3).prop_map(|(v, e)| ServerOp::Online(v, e)),
        vehicle.clone().prop_map(ServerOp::Restore),
        (0usize..4, any::<bool>()).prop_map(|(c, abort)| ServerOp::Campaign(c, abort)),
        Just(ServerOp::StepCampaigns),
    ]
}

/// Builds a journaling server (compacting every `interval` records) with
/// `vehicles` fleet vehicles and both telemetry apps, then applies `ops`.
/// Rejected calls are part of the workload: they are journaled and replay
/// to the same rejection.
fn generated_server(
    vehicles: usize,
    interval: u32,
    ops: &[ServerOp],
) -> dynar::server::TrustedServer {
    use dynar::foundation::ids::{UserId, VehicleId};
    use dynar::foundation::time::Tick;
    use dynar::server::{AppDefinition, TrustedServer};
    use dynar::sim::scenario::fleet::{
        fleet_hw, fleet_system, telemetry_app, APP_TELEMETRY, APP_TELEMETRY_V2, GAIN_V1, GAIN_V2,
    };

    const WORKERS: u16 = 2;
    let mut server = TrustedServer::new();
    server.enable_journal(interval);
    let user = UserId::new("ops");
    server.create_user(user.clone()).unwrap();
    let apps: [AppDefinition; 2] = [
        telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap(),
        telemetry_app(APP_TELEMETRY_V2, "2", GAIN_V2, WORKERS).unwrap(),
    ];
    for app in &apps {
        server.upload_app(app.clone()).unwrap();
    }
    let vins: Vec<VehicleId> = (0..vehicles)
        .map(|i| VehicleId::new(format!("VIN-{i:03}")))
        .collect();
    for vin in &vins {
        server
            .register_vehicle(vin.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))
            .unwrap();
        server.bind_vehicle(&user, vin).unwrap();
    }
    let mut now = 0u64;
    let mut campaigns = 0usize;
    for op in ops {
        match op {
            ServerOp::Deploy(v, b) => {
                let _ = server.deploy(&user, &vins[v % vehicles], &apps[usize::from(*b)].id);
            }
            ServerOp::Uninstall(v, b) => {
                let _ = server.uninstall(&user, &vins[v % vehicles], &apps[usize::from(*b)].id);
            }
            ServerOp::SetDesired(v, b) => {
                let _ = server.set_desired(&user, &vins[v % vehicles], &apps[usize::from(*b)].id);
            }
            ServerOp::ClearDesired(v, b) => {
                let _ = server.clear_desired(&user, &vins[v % vehicles], &apps[usize::from(*b)].id);
            }
            ServerOp::Reconcile(v) => {
                let _ = server.reconcile(&vins[v % vehicles]);
            }
            ServerOp::Ack(v, b, p, ok) => {
                let app = &apps[usize::from(*b)];
                let placement = &app.sw_confs[0].placements[p % app.plugins.len()];
                let ack = ManagementMessage::Ack(Ack {
                    plugin: placement.plugin.clone(),
                    app: app.id.clone(),
                    ecu: placement.ecu,
                    status: if *ok {
                        AckStatus::Installed
                    } else {
                        AckStatus::Failed("generated failure".into())
                    },
                });
                let _ = server.process_uplink(&vins[v % vehicles], &ack.to_bytes());
            }
            ServerOp::StateReport(v, epoch) => {
                let report = ManagementMessage::StateReport {
                    boot_epoch: *epoch,
                    plugins: Vec::new(),
                };
                let _ = server.process_uplink(&vins[v % vehicles], &report.to_bytes());
            }
            ServerOp::Poll(v) => {
                let _ = server.poll_downlink(&vins[v % vehicles]);
            }
            ServerOp::Tick(delta) => {
                now += delta;
                let _ = server.tick(Tick::new(now));
            }
            ServerOp::Offline(v) => server.mark_offline(&vins[v % vehicles]),
            ServerOp::Online(v, epoch) => {
                let _ = server.mark_online(&vins[v % vehicles], *epoch);
            }
            ServerOp::Restore(v) => {
                let _ = server.restore(&vins[v % vehicles], EcuId::new(2));
            }
            ServerOp::Campaign(canary, abort) => {
                campaigns += 1;
                let spec = CampaignSpec {
                    id: CampaignId::new(format!("rollout-{campaigns}")),
                    app: apps[1].id.clone(),
                    replaces: Some(apps[0].id.clone()),
                    selector: VehicleSelector::All,
                    plan: WavePlan {
                        canary: *canary,
                        ramp_percent: vec![50, 100],
                    },
                    gate: HealthGate {
                        min_soak_ticks: 2,
                        pause_failed: 1,
                        abort_failed: if *abort { 1 } else { 3 },
                    },
                };
                let _ = server.create_campaign(&user, spec);
            }
            ServerOp::StepCampaigns => {
                let _ = server.step_campaigns();
            }
        }
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For generated journaling servers, the streamed snapshot is a
    /// canonical encoding: its value form re-encodes to the same bytes and
    /// a server rebuilt from it alone snapshots to the same bytes.  And the
    /// journal — compacted mid-run, every `interval` records, each
    /// compaction frame streamed in place — replays to a server
    /// byte-identical to the live one, both as the ops left it (the
    /// transport-path calls append without the compaction check) and after
    /// the end of a round compacted it.
    #[test]
    fn streamed_snapshots_and_compacted_journals_are_byte_identical(
        vehicles in 1usize..6,
        interval in 1u32..8,
        ops in proptest::collection::vec(server_op_strategy(), 0..48),
    ) {
        use dynar::foundation::journal::{append_frame, FrameReader};
        use dynar::server::TrustedServer;

        let mut server = generated_server(vehicles, interval, &ops);
        let live = server.snapshot_bytes();
        let state = decode_value(&live).unwrap();
        prop_assert_eq!(encode_value(&state), live.clone());

        let mut snapshot_only = Vec::new();
        append_frame(
            &mut snapshot_only,
            &encode_value(&Value::List(vec![Value::I64(0), state])),
        );
        prop_assert_eq!(TrustedServer::replay(&snapshot_only).unwrap().snapshot_bytes(), live.clone());

        let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
        prop_assert_eq!(replayed.snapshot_bytes(), live.clone());
        prop_assert_eq!(replayed.ledger(), server.ledger());

        server.end_round();
        let journal = server.journal_bytes().unwrap();
        let mut frames = FrameReader::new(journal);
        let mut records = 0usize;
        while frames.next_frame().unwrap().is_some() {
            records += 1;
        }
        prop_assert!(records <= interval as usize + 1, "the journal compacted ({records} frames)");
        let replayed = TrustedServer::replay(journal).unwrap();
        prop_assert_eq!(replayed.snapshot_bytes(), live);
        prop_assert_eq!(replayed.ledger(), server.ledger());
    }

    /// Every frame of a generated journal — the snapshot and each record —
    /// truncated, or with one bit flipped, and framed again so its checksum
    /// passes: both replay entry points return a server or a
    /// `ProtocolViolation`, never a panic or another error kind.  The
    /// checksum proves such a frame was written intact, so its malformed
    /// contents are a typed error, not a torn tail.
    #[test]
    fn malformed_journal_frames_are_protocol_violations(
        vehicles in 1usize..4,
        interval in 1u32..8,
        ops in proptest::collection::vec(server_op_strategy(), 0..32),
        at in any::<u32>(),
        bit in 0u8..8,
    ) {
        use dynar::foundation::journal::{append_frame, FrameReader};
        use dynar::server::TrustedServer;

        let mut server = generated_server(vehicles, interval, &ops);
        // A restart's first record: it decodes every queued and outstanding
        // downlink again, so a damaged one must not reach it.
        server.begin_incarnation();
        let mut frames = Vec::new();
        let mut reader = FrameReader::new(server.journal_bytes().unwrap());
        while let Some(frame) = reader.next_frame().unwrap() {
            frames.push(frame.to_vec());
        }
        for damaged in 0..frames.len() {
            let payload = &frames[damaged];
            let at = at as usize % payload.len();
            let mut flipped = payload.clone();
            flipped[at] ^= 1 << bit;
            for bad in [payload[..at].to_vec(), flipped] {
                let mut journal = Vec::new();
                for (index, frame) in frames.iter().enumerate() {
                    append_frame(&mut journal, if index == damaged { &bad } else { frame });
                }
                for result in [
                    TrustedServer::replay(&journal).map(drop),
                    TrustedServer::replay_recover(&journal).map(drop),
                ] {
                    prop_assert!(
                        matches!(result, Ok(()) | Err(DynarError::ProtocolViolation(_))),
                        "frame {} of {}: {:?}", damaged, frames.len(), result
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled execution plane properties.
// ---------------------------------------------------------------------------

/// A deterministic three-slot port host for the dual-plane runs.
struct VmHost {
    slots: Vec<Vec<Value>>,
    written: Vec<(u32, Value)>,
    logs: Vec<String>,
}

impl VmHost {
    fn new(slot_count: usize) -> Self {
        VmHost {
            slots: vec![Vec::new(); slot_count],
            written: Vec::new(),
            logs: Vec::new(),
        }
    }

    fn slot(&mut self, slot: u32) -> dynar::foundation::error::Result<&mut Vec<Value>> {
        self.slots
            .get_mut(slot as usize)
            .ok_or_else(|| DynarError::not_found("port slot", slot))
    }
}

impl PortHost for VmHost {
    fn read_port(&mut self, slot: u32) -> dynar::foundation::error::Result<Value> {
        Ok(self.slot(slot)?.first().cloned().unwrap_or_default())
    }
    fn take_port(&mut self, slot: u32) -> dynar::foundation::error::Result<Value> {
        let queue = self.slot(slot)?;
        Ok(if queue.is_empty() {
            Value::Void
        } else {
            queue.remove(0)
        })
    }
    fn write_port(&mut self, slot: u32, value: Value) -> dynar::foundation::error::Result<()> {
        self.slot(slot)?;
        self.written.push((slot, value));
        Ok(())
    }
    fn pending(&mut self, slot: u32) -> dynar::foundation::error::Result<usize> {
        Ok(self.slot(slot)?.len())
    }
    fn log(&mut self, message: &str) {
        self.logs.push(message.to_owned());
    }
}

/// Maps an arbitrary `(selector, operand)` pair onto an instruction with the
/// operand used *unclamped* — jump targets and constant references may be
/// wildly out of range.
fn raw_instruction(sel: u8, operand: u64) -> Instruction {
    match sel % 36 {
        0 => Instruction::Nop,
        1 => Instruction::PushConst(operand as u16),
        2 => Instruction::PushInt(operand as i64),
        3 => Instruction::Dup,
        4 => Instruction::Pop,
        5 => Instruction::Swap,
        6 => Instruction::Load(operand as u8),
        7 => Instruction::Store(operand as u8),
        8 => Instruction::Add,
        9 => Instruction::Sub,
        10 => Instruction::Mul,
        11 => Instruction::Div,
        12 => Instruction::Rem,
        13 => Instruction::Neg,
        14 => Instruction::Eq,
        15 => Instruction::Ne,
        16 => Instruction::Lt,
        17 => Instruction::Le,
        18 => Instruction::Gt,
        19 => Instruction::Ge,
        20 => Instruction::And,
        21 => Instruction::Or,
        22 => Instruction::Not,
        23 => Instruction::Jump(operand as u16),
        24 => Instruction::JumpIfFalse(operand as u16),
        25 => Instruction::JumpIfTrue(operand as u16),
        26 => Instruction::ReadPort(operand as u32),
        27 => Instruction::TakePort(operand as u32),
        28 => Instruction::WritePort(operand as u32),
        29 => Instruction::PortPending(operand as u32),
        30 => Instruction::MakeList(operand as u8),
        31 => Instruction::ListGet,
        32 => Instruction::ListLen,
        33 => Instruction::Log,
        34 => Instruction::Yield,
        _ => Instruction::Halt,
    }
}

/// Like [`raw_instruction`] but with every static reference reduced into
/// range, so [`Program::validate`] (and therefore compilation) succeeds.
/// Ports reduce modulo 4 while the host only has 3 slots — the missing-port
/// host-fault path stays reachable.
fn valid_instruction(sel: u8, operand: u64, len: usize, pool: usize) -> Instruction {
    match raw_instruction(sel, operand) {
        Instruction::Jump(_) => Instruction::Jump((operand % len as u64) as u16),
        Instruction::JumpIfFalse(_) => Instruction::JumpIfFalse((operand % len as u64) as u16),
        Instruction::JumpIfTrue(_) => Instruction::JumpIfTrue((operand % len as u64) as u16),
        Instruction::PushConst(_) => Instruction::PushConst((operand % pool as u64) as u16),
        Instruction::Load(_) => Instruction::Load((operand % 6) as u8),
        Instruction::Store(_) => Instruction::Store((operand % 6) as u8),
        Instruction::ReadPort(_) => Instruction::ReadPort((operand % 4) as u32),
        Instruction::TakePort(_) => Instruction::TakePort((operand % 4) as u32),
        Instruction::WritePort(_) => Instruction::WritePort((operand % 4) as u32),
        Instruction::PortPending(_) => Instruction::PortPending((operand % 4) as u32),
        other => other,
    }
}

/// Bitwise value identity: separates `NaN == NaN` (identical computation on
/// both planes) from genuine divergence, which `PartialEq` on floats cannot.
fn values_bitwise_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::List(xs), Value::List(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys.iter())
                    .all(|(x, y)| values_bitwise_identical(x, y))
        }
        _ => a == b,
    }
}

fn slices_bitwise_identical(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| values_bitwise_identical(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Install-time compilation is total: any instruction sequence — in or
    /// out of range references, any constant pool — either compiles or is
    /// rejected with the typed configuration error.  Never a panic, and the
    /// compiled form always stays 1:1 with the source code section.
    #[test]
    fn compiling_arbitrary_programs_never_panics(
        raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..48),
        constants in proptest::collection::vec(value_strategy(), 0..4),
    ) {
        let mut program = Program::new("arb");
        for constant in constants {
            program = program.with_constant(constant);
        }
        let program =
            program.with_code(raw.into_iter().map(|(sel, op)| raw_instruction(sel, op)).collect());
        match CompiledProgram::compile(program.clone()) {
            Ok(compiled) => {
                prop_assert!(program.validate().is_ok());
                prop_assert_eq!(compiled.op_count(), program.code().len());
            }
            Err(DynarError::InvalidConfiguration(_)) => {
                prop_assert!(program.validate().is_err());
            }
            Err(other) => {
                prop_assert!(false, "unexpected compile error variant: {:?}", other);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The two execution planes are observably identical on generated
    /// programs under generated port traffic: per-slot reports and faults,
    /// final status, stacks, locals, memory accounting, fuel use, port
    /// writes and log streams all match — with a [`ShadowVm`] running the
    /// same traffic in lock-step as a third witness.
    #[test]
    fn random_programs_execute_identically_on_both_planes(
        raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..40),
        traffic in proptest::collection::vec((0u32..3, value_strategy()), 0..12),
        slot_limit in 3u64..48,
    ) {
        let len = raw.len();
        let code: Vec<Instruction> = raw
            .into_iter()
            .map(|(sel, op)| valid_instruction(sel, op, len, 3))
            .collect();
        let program = Program::new("gen")
            .with_constant(Value::I64(9))
            .with_constant(Value::Text("probe".into()))
            .with_constant(Value::Bool(true))
            .with_code(code);
        prop_assert!(program.validate().is_ok());
        let budget = Budget::new(slot_limit)
            .with_max_stack(6)
            .with_max_memory_bytes(256)
            .with_locals(4);

        let mut interp = Vm::new(program.clone(), budget);
        let mut fast = CompiledVm::compile(program.clone(), budget).unwrap();
        let mut shadow = ShadowVm::new(program, budget).unwrap();
        let mut host_i = VmHost::new(3);
        let mut host_f = VmHost::new(3);
        let mut host_s = VmHost::new(3);

        let per_slot = traffic.len() / 3 + 1;
        let mut queued = traffic.iter();
        for _ in 0..3 {
            for _ in 0..per_slot {
                if let Some((slot, value)) = queued.next() {
                    host_i.slots[*slot as usize].push(value.clone());
                    host_f.slots[*slot as usize].push(value.clone());
                    host_s.slots[*slot as usize].push(value.clone());
                }
            }
            let reference = interp.run_slot(&mut host_i);
            let compiled = fast.run_slot(&mut host_f);
            // ShadowVm panics internally on any divergence between its own
            // two planes; its report must also match the standalone runs.
            let shadowed = shadow.run_slot(&mut host_s);
            prop_assert_eq!(&reference, &compiled, "slot outcome diverged");
            prop_assert_eq!(&reference, &shadowed, "shadow outcome diverged");
            if reference.is_err() {
                break;
            }
        }

        prop_assert_eq!(interp.status(), fast.status());
        prop_assert_eq!(interp.total_instructions(), fast.total_instructions());
        prop_assert_eq!(interp.used_bytes(), fast.used_bytes());
        prop_assert!(
            slices_bitwise_identical(interp.stack(), fast.stack()),
            "stacks diverged: {:?} vs {:?}", interp.stack(), fast.stack()
        );
        prop_assert!(
            slices_bitwise_identical(interp.locals(), fast.locals()),
            "locals diverged: {:?} vs {:?}", interp.locals(), fast.locals()
        );
        prop_assert_eq!(&host_i.logs, &host_f.logs);
        prop_assert_eq!(host_i.written.len(), host_f.written.len());
        for ((slot_i, value_i), (slot_f, value_f)) in host_i.written.iter().zip(&host_f.written) {
            prop_assert_eq!(slot_i, slot_f);
            prop_assert!(
                values_bitwise_identical(value_i, value_f),
                "written values diverged: {:?} vs {:?}", value_i, value_f
            );
        }
    }
}
