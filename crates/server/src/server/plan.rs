//! The deployment plan: the compatibility and dependency checks of
//! Figure 2, the PIC/PLC/ECC context generation that turns an application
//! into one installation package per target ECU, and the two immutable,
//! shared values the vehicle records point at — an application's plan on
//! one vehicle ([`InstalledApp`]) and a vehicle's configuration
//! ([`VehicleConf`]).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use dynar_core::context::{
    ExternalConnectionContext, InstallationContext, LinkTarget, PortInitContext, PortLinkContext,
};
use dynar_core::message::InstallationPackage;
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, PluginPortId, VehicleId};
use dynar_foundation::payload::Payload;

use super::{TrustedServer, VehicleRecord};
use crate::model::{
    AppDefinition, ConnectionDecl, HwConf, Placement, SwConf, SystemSwConf, VirtualPortKindDecl,
};

/// One application's deployment plan on one vehicle: where each
/// installation package goes and the packages' snapshot encoding.  The
/// pending operation holds it, and then the installed record.  It is built
/// once, by the push path or by a snapshot decode, and never changed, so it
/// is shared behind an [`Arc`].  The packages are encoded once, at
/// construction, and not kept as values: a compaction copies the plan's
/// bytes, and each pushed envelope copies its package's install message out
/// of them.
#[derive(Debug)]
pub(super) struct InstalledApp {
    /// One entry per package, in package order.
    pub(super) packages: Vec<PlannedPackage>,
    /// The snapshot encoding, `[[[plugin, ECU]…], [[ECU, install]…]]`.
    pub(super) bytes: Payload,
}

/// Where one package of a plan goes, and where its install message lies in
/// the plan's bytes: the bytes
/// [`InstallationPackage::encode_install_into`] writes.
#[derive(Debug)]
pub(super) struct PlannedPackage {
    pub(super) plugin: PluginId,
    pub(super) ecu: EcuId,
    pub(super) install: Range<usize>,
}

impl InstalledApp {
    /// Builds the plan from its packages, encoding each exactly once.
    pub(super) fn new(packages: Vec<(EcuId, InstallationPackage)>) -> Arc<Self> {
        let mut planned = Vec::with_capacity(packages.len());
        let bytes = Payload::encode_with(|out| Self::encode(packages, out, &mut planned));
        Arc::new(InstalledApp {
            packages: planned,
            bytes,
        })
    }

    /// The deployed plug-ins with their ECUs, in package order.
    pub(super) fn plugins(&self) -> impl Iterator<Item = (&PluginId, EcuId)> {
        self.packages
            .iter()
            .map(|package| (&package.plugin, package.ecu))
    }

    /// `true` if one of the packages installs `plugin`.
    pub(super) fn deploys(&self, plugin: &PluginId) -> bool {
        self.plugins().any(|(deployed, _)| deployed == plugin)
    }

    /// The encoded install message of package `index`.
    pub(super) fn install_message(&self, index: usize) -> &[u8] {
        &self.bytes[self.packages[index].install.clone()]
    }
}

/// A vehicle's hardware and system software configuration, with its
/// snapshot encoding (`hw`, then `system`) computed once.  The vehicles of
/// one model share one, interned by value in the server's [`ConfTable`].
#[derive(Debug)]
pub(super) struct VehicleConf {
    pub(super) hw: HwConf,
    pub(super) system: SystemSwConf,
    pub(super) bytes: Box<[u8]>,
}

/// The distinct vehicle configurations of one server: one shared
/// [`VehicleConf`] per distinct encoding, keyed by it.  A derived view, not
/// part of the snapshot: registering and decoding vehicles fill it.
#[derive(Debug, Default)]
pub(super) struct ConfTable {
    pub(super) confs: HashMap<Box<[u8]>, Arc<VehicleConf>>,
    /// Reused encoding space for the lookup key.
    scratch: Vec<u8>,
}

impl ConfTable {
    /// The shared configuration equal to `hw` and `system`, added if it is
    /// new.
    pub(super) fn intern(&mut self, hw: HwConf, system: SystemSwConf) -> Arc<VehicleConf> {
        self.scratch.clear();
        VehicleConf::encode(&hw, &system, &mut self.scratch);
        if let Some(conf) = self.confs.get(self.scratch.as_slice()) {
            return Arc::clone(conf);
        }
        let bytes: Box<[u8]> = self.scratch.as_slice().into();
        let conf = Arc::new(VehicleConf {
            hw,
            system,
            bytes: bytes.clone(),
        });
        self.confs.insert(bytes, Arc::clone(&conf));
        conf
    }
}

impl TrustedServer {
    /// Runs the compatibility and dependency checks and generates the
    /// installation packages (PIC/PLC/ECC included) for deploying `app` on
    /// `vehicle`, without pushing anything.
    ///
    /// # Errors
    ///
    /// Returns the deployment rejection the web portal would present to the
    /// user: [`DynarError::Incompatible`], [`DynarError::MissingDependency`]
    /// or [`DynarError::PluginConflict`]; or [`DynarError::NotFound`] for
    /// unknown entities.
    pub fn plan_deployment(
        &self,
        vehicle: &VehicleId,
        app: &AppId,
    ) -> Result<Vec<(EcuId, InstallationPackage)>> {
        let record = self
            .vehicles
            .get(vehicle)
            .ok_or_else(|| DynarError::not_found("vehicle", vehicle))?;
        Self::plan_for_record(record, &self.ctx.apps, app)
    }

    /// [`TrustedServer::plan_deployment`] against an already-resolved vehicle
    /// record (shared with the push path).
    pub(super) fn plan_for_record(
        record: &VehicleRecord,
        apps: &HashMap<AppId, AppDefinition>,
        app: &AppId,
    ) -> Result<Vec<(EcuId, InstallationPackage)>> {
        let definition = apps
            .get(app)
            .ok_or_else(|| DynarError::not_found("app", app))?;

        // Vehicle model must have a matching SW conf.
        let system = &record.conf.system;
        let conf = definition.sw_conf_for(&system.model).ok_or_else(|| {
            DynarError::Incompatible(format!(
                "no deployment description for vehicle model {}",
                system.model
            ))
        })?;

        // Hardware and system software prerequisites.
        for placement in &conf.placements {
            let hw = record.conf.hw.ecu(placement.ecu).ok_or_else(|| {
                DynarError::Incompatible(format!(
                    "vehicle has no ECU {} required by plug-in {}",
                    placement.ecu, placement.plugin
                ))
            })?;
            if hw.memory_kb < conf.min_memory_kb {
                return Err(DynarError::Incompatible(format!(
                    "ECU {} offers {} KiB, {} KiB required",
                    placement.ecu, hw.memory_kb, conf.min_memory_kb
                )));
            }
            if system.swc_on(placement.ecu).is_none() {
                return Err(DynarError::Incompatible(format!(
                    "ECU {} has no plug-in SW-C",
                    placement.ecu
                )));
            }
        }

        // Dependencies and conflicts against the installed-app records.
        for required in &definition.requires {
            if !record.installed.contains_key(required) {
                return Err(DynarError::MissingDependency {
                    plugin: app.name().to_owned(),
                    requires: required.name().to_owned(),
                });
            }
        }
        for conflicting in &definition.conflicts {
            if record.installed.contains_key(conflicting) {
                return Err(DynarError::PluginConflict {
                    plugin: app.name().to_owned(),
                    conflicts_with: conflicting.name().to_owned(),
                });
            }
        }
        if record.installed.contains_key(app) || record.pending.contains_key(app) {
            return Err(DynarError::duplicate("installed app", app));
        }

        Self::generate_packages(record, definition, conf)
    }

    fn generate_packages(
        record: &VehicleRecord,
        definition: &AppDefinition,
        conf: &SwConf,
    ) -> Result<Vec<(EcuId, InstallationPackage)>> {
        // SW-C-scope unique plug-in port ids per target ECU, continuing after
        // the ids already handed out to previously installed plug-ins on
        // that ECU.  A placement's ports take consecutive ids from a base —
        // the ECU's next free id plus the ports of the placements before it
        // on the same ECU — so a port's id is that base plus its index in
        // the artifact, and no assignment table is built.  A plug-in placed
        // twice, or a name declared twice, resolves to its last placement
        // and port.
        for placement in &conf.placements {
            definition
                .plugin(&placement.plugin)
                .ok_or_else(|| DynarError::not_found("plug-in", &placement.plugin))?;
        }
        let port_count = |placement: &Placement| {
            definition
                .plugin(&placement.plugin)
                .map_or(0, |artifact| artifact.ports.len() as u32)
        };
        let base_of = |index: usize| {
            let ecu = conf.placements[index].ecu;
            let first = record.next_port_id.get(&ecu).copied().unwrap_or(0);
            conf.placements[..index]
                .iter()
                .filter(|earlier| earlier.ecu == ecu)
                .map(port_count)
                .fold(first, |next, ports| next + ports)
        };
        let id_of = |plugin: &PluginId, port: &str| {
            let placement = conf.placements.iter().rposition(|p| &p.plugin == plugin)?;
            let index = definition
                .plugin(plugin)?
                .ports
                .iter()
                .rposition(|p| p.name == port)?;
            Some(PluginPortId::new(base_of(placement) + index as u32))
        };

        // Second pass: build PIC, PLC and ECC per plug-in.
        let mut packages = Vec::new();
        for placement in &conf.placements {
            let artifact = definition
                .plugin(&placement.plugin)
                .expect("validated in the first pass");
            let swc = record
                .conf
                .system
                .swc_on(placement.ecu)
                .expect("checked during the compatibility pass");

            let mut pic = PortInitContext::new();
            for port in &artifact.ports {
                let id = id_of(&placement.plugin, &port.name).expect("the plug-in is placed");
                pic = pic.with_port(&port.name, id, port.direction);
            }

            let mut plc = PortLinkContext::new();
            let mut ecc = ExternalConnectionContext::new();
            let mut has_ecc = false;
            for connection in conf
                .connections
                .iter()
                .filter(|c| c.plugin == placement.plugin)
            {
                let port_id = id_of(&placement.plugin, &connection.port).ok_or_else(|| {
                    DynarError::Incompatible(format!(
                        "plug-in {} has no port named {}",
                        placement.plugin, connection.port
                    ))
                })?;
                match &connection.target {
                    ConnectionDecl::Direct => {
                        plc = plc.with_link(port_id, LinkTarget::Direct);
                    }
                    ConnectionDecl::VirtualPort { name } => {
                        let decl = swc
                            .virtual_ports
                            .iter()
                            .find(|v| &v.name == name)
                            .ok_or_else(|| {
                                DynarError::Incompatible(format!(
                                    "SW-C {} exposes no virtual port named {name}",
                                    swc.swc_name
                                ))
                            })?;
                        plc = plc.with_link(port_id, LinkTarget::VirtualPort(decl.id));
                    }
                    ConnectionDecl::RemotePlugin { plugin, port } => {
                        let remote_id = id_of(plugin, port).ok_or_else(|| {
                            DynarError::Incompatible(format!(
                                "remote plug-in {plugin} has no port named {port}"
                            ))
                        })?;
                        let remote_ecu = conf.placement_of(plugin).ok_or_else(|| {
                            DynarError::Incompatible(format!("plug-in {plugin} is not placed"))
                        })?;
                        if remote_ecu == placement.ecu {
                            // Same SW-C: the PIRTE links the two plug-in ports
                            // directly, no virtual port involved.
                            plc = plc.with_link(port_id, LinkTarget::Direct);
                        } else {
                            let via = swc
                                .virtual_ports
                                .iter()
                                .find(|v| {
                                    matches!(v.kind, VirtualPortKindDecl::TypeII { peer } if peer == remote_ecu)
                                })
                                .ok_or_else(|| {
                                    DynarError::Incompatible(format!(
                                        "SW-C {} has no type II port towards {remote_ecu}",
                                        swc.swc_name
                                    ))
                                })?;
                            plc = plc.with_link(
                                port_id,
                                LinkTarget::RemotePluginPort {
                                    via: via.id,
                                    remote: remote_id,
                                },
                            );
                        }
                    }
                    ConnectionDecl::External {
                        endpoint,
                        message_id,
                    } => {
                        plc = plc.with_link(port_id, LinkTarget::Direct);
                        ecc = ecc.with_route(endpoint, message_id, placement.ecu, port_id);
                        has_ecc = true;
                    }
                }
            }

            let mut context = InstallationContext::new(pic, plc);
            if has_ecc {
                context = context.with_ecc(ecc);
            }
            context.validate()?;
            packages.push((
                placement.ecu,
                InstallationPackage::new(
                    placement.plugin.clone(),
                    definition.id.clone(),
                    artifact.binary.clone(),
                    context,
                ),
            ));
        }
        Ok(packages)
    }
}
