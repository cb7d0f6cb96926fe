//! Disabled-mode macros must be no-ops: no registry entries, no span
//! profile entries.
//!
//! This lives in its own integration-test binary because it flips the
//! process-wide runtime switch; sharing a binary with tests that assert
//! recorded counts would race.

#[test]
fn runtime_disabled_macros_create_no_registry_entries() {
    udm_observe::set_enabled(false);
    udm_observe::counter_add!("disabled_counter_total", 7);
    udm_observe::counter_inc!("disabled_inc_total");
    udm_observe::gauge_set!("disabled_gauge", 3.5);
    udm_observe::histogram_observe!("disabled_hist", 0.25);
    {
        udm_observe::span!("disabled_span");
    }
    let snapshot = udm_observe::Snapshot::capture();
    assert!(
        snapshot.is_empty(),
        "disabled macros leaked registry entries: {snapshot:?}"
    );

    // Re-enabling records again (when the feature is compiled in).
    udm_observe::set_enabled(true);
    udm_observe::counter_add!("reenabled_counter_total", 2);
    let snapshot = udm_observe::Snapshot::capture();
    if cfg!(feature = "enabled") {
        assert_eq!(snapshot.counters.len(), 1);
        assert_eq!(snapshot.counters[0].name, "reenabled_counter_total");
        assert_eq!(snapshot.counters[0].value, 2);
    } else {
        assert!(snapshot.is_empty());
    }
}
