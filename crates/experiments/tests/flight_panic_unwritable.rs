//! The panic hook's dump path must be infallible: pointing `--flight-out`
//! into an unwritable (nonexistent) directory and panicking must produce a
//! normal recoverable unwind — a write failure on the post-mortem path can
//! never escalate into a double-panic abort. The fact that `catch_unwind`
//! returns at all *is* the assertion: an abort would kill the test binary.

use dex_experiments::telemetry::RunOptions;
use dex_telemetry::FlightKind;

// Panic hooks are process-global; this binary's single test owns them
// (separate test binary = separate process from flight_panic.rs).
#[test]
fn panic_with_unwritable_flight_out_unwinds_instead_of_aborting() {
    let bad_dir = std::env::temp_dir().join(format!(
        "dex-flight-unwritable-{}/no/such/dir",
        std::process::id()
    ));
    let bad_path = bad_dir.join("FLIGHT.json");
    assert!(!bad_dir.exists(), "the dump directory must not exist");

    // End-to-end through the same option plumbing the experiment bins use.
    let args = vec![format!("--flight-out={}", bad_path.display())];
    let options = RunOptions::parse(&args).expect("the flight path parses");
    assert_eq!(options.flight.as_deref(), Some(bad_path.as_path()));

    dex_telemetry::enable();
    dex_telemetry::reset();
    dex_telemetry::set_flight_path(options.flight.clone());
    dex_experiments::telemetry::install_flight_panic_hook();

    dex_telemetry::flight(
        FlightKind::FaultInjected,
        "mod.doomed",
        "pre-panic history".to_string(),
        1,
    );

    let unwound = std::panic::catch_unwind(|| {
        panic!("crash with nowhere to dump");
    });
    assert!(
        unwound.is_err(),
        "the panic must unwind normally despite the failed dump"
    );

    // Nothing was written, and the sticky incident flag stayed clear, so a
    // later dump to a good path still lands (with the panic event in it).
    assert!(!bad_path.exists());
    let good_dir =
        std::env::temp_dir().join(format!("dex-flight-recovered-{}", std::process::id()));
    std::fs::create_dir_all(&good_dir).unwrap();
    let good_path = good_dir.join("FLIGHT.json");
    dex_telemetry::set_flight_path(Some(good_path.clone()));
    assert!(
        dex_telemetry::dump_flight_fallback("run end"),
        "a failed incident dump must not block the run-end fallback"
    );
    dex_telemetry::disable();

    let dump = dex_telemetry::FlightDump::from_json(&std::fs::read_to_string(&good_path).unwrap())
        .unwrap();
    assert_eq!(dump.reason, "run end");
    assert!(
        dump.events
            .iter()
            .any(|e| matches!(e.kind, FlightKind::Panic)
                && e.detail.contains("crash with nowhere to dump")),
        "the panic event survives in the ring for the recovered dump"
    );
    std::fs::remove_dir_all(&good_dir).ok();
}
