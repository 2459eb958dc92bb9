//! Concurrency guarantees of the metrics registry: counters hammered from
//! scoped threads (as `dexd`'s callers hit them, each request on its own
//! thread) must not lose a single increment, and first-touch interning
//! races must resolve to one shared atomic per name.

use std::sync::Mutex;

/// The registry is process-global and the harness runs tests on parallel
/// threads, so tests that reset or assert absolute values serialize here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn counters_survive_scoped_thread_hammering() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dex_telemetry::enable();
    dex_telemetry::reset();

    const THREADS: usize = 8;
    const INCREMENTS: usize = 10_000;

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..INCREMENTS {
                    // Shared counter: every thread races on one atomic.
                    dex_telemetry::counter_add("hammer.shared", 1);
                    // Per-thread counter: exercises the interning write path
                    // concurrently with other threads' read path.
                    dex_telemetry::counter_add(&format!("hammer.thread.{t}"), 1);
                    // Histograms share the same shard machinery.
                    if i % 100 == 0 {
                        dex_telemetry::observe_ns("hammer.hist", (i as u64 + 1) * 10);
                    }
                }
            });
        }
    });

    assert_eq!(
        dex_telemetry::counter_value("hammer.shared"),
        (THREADS * INCREMENTS) as u64,
        "no increment may be lost"
    );
    for t in 0..THREADS {
        assert_eq!(
            dex_telemetry::counter_value(&format!("hammer.thread.{t}")),
            INCREMENTS as u64
        );
    }
    let report = dex_telemetry::collect("hammer");
    assert_eq!(
        report.histograms["hammer.hist"].count,
        (THREADS * INCREMENTS / 100) as u64
    );
    dex_telemetry::disable();
}

#[test]
fn same_name_interns_to_one_counter_under_races() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dex_telemetry::enable();
    dex_telemetry::reset();

    const THREADS: usize = 16;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                // All threads race to create the same fresh name.
                dex_telemetry::counter_add("intern.race", 1);
            });
        }
    });
    assert_eq!(dex_telemetry::counter_value("intern.race"), THREADS as u64);
    dex_telemetry::disable();
}
