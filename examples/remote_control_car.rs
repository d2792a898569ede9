//! The paper's Section 4 demonstrator (Figure 3): a smart phone remotely
//! controls a two-ECU model car through the dynamically installed COM and OP
//! plug-ins.
//!
//! Run with `cargo run --example remote_control_car`.

use dynar::foundation::error::DynarError;
use dynar::sim::scenario::remote_car::RemoteCarScenario;

fn main() -> Result<(), DynarError> {
    let mut scenario = RemoteCarScenario::build()?;
    println!("vehicle registered with the trusted server; deploying the remote-control app ...");
    scenario.install_app()?;
    println!(
        "ECU1 (ECM) plug-ins: {:?}",
        scenario.ecm_pirte().lock().plugin_states()
    );
    println!(
        "ECU2 plug-ins:       {:?}",
        scenario.pirte2().lock().plugin_states()
    );

    let report = scenario.drive(500)?;
    println!("drive report after 500 ticks:");
    println!("  commands sent by the phone : {}", report.commands_sent);
    println!(
        "  commands applied by the car: {}",
        report.commands_delivered
    );
    println!(
        "  final speed                : {:.1} m/s",
        report.final_speed
    );
    println!(
        "  final wheel angle          : {:.1} deg",
        report.final_wheel_angle
    );
    println!("  odometer                   : {:.2} m", report.odometer);
    // The signal chain is live end to end: phone commands reach the
    // chassis actuators through the installed plug-ins and the car moves.
    assert!(report.commands_delivered > 0, "no command reached the car");
    assert!(report.odometer > 0.0, "the car never moved");
    Ok(())
}
