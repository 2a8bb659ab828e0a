//! The watchdog's validation on the synthetic flash crowd: a video goes viral
//! mid-trace, the burst's fills churn the working set, and the
//! `efficiency-drop` and `redirect-spike` rules must fire in the
//! expected windows — pinned against the golden alert log so any drift
//! in the window plane, the detector semantics or the stock rules shows
//! up as a reviewable diff.

use vcdn_bench::scenario::{run_flash_crowd, FlashCrowdSpec};
use vcdn_obs::Severity;

const GOLDEN: &str = include_str!("../goldens/flash_crowd_alerts.txt");

#[test]
fn flash_crowd_fires_the_expected_rules_in_the_expected_windows() {
    let run = run_flash_crowd(2);
    let spec = FlashCrowdSpec::default();
    let first_burst_window = ((spec.days * 24) as f64 * spec.start_frac) as u64;
    let last_burst_window = first_burst_window + spec.burst_hours - 1;

    // Both drift rules fire, critical, inside the burst (the `for 2`
    // debounce places them one window after the first breach).
    for rule in ["efficiency-drop", "redirect-spike"] {
        let alert = run
            .bundle
            .alerts
            .iter()
            .find(|a| a.rule == rule)
            .unwrap_or_else(|| panic!("{rule} never fired:\n{}", run.alert_log));
        assert_eq!(alert.severity, Severity::Critical, "{rule}");
        assert!(
            (first_burst_window..=last_burst_window).contains(&alert.window),
            "{rule} fired at window {}, burst spans {first_burst_window}..={last_burst_window}",
            alert.window
        );
        // A drift alert carries the pre-incident baseline, so the drop
        // is legible straight from the event.
        assert!(
            alert.baseline.is_finite() && alert.observed.is_finite(),
            "{rule}: degenerate baseline/observed"
        );
    }

    // The whole rendered log matches the pinned golden byte-for-byte.
    assert_eq!(
        run.alert_log, GOLDEN,
        "alert log drifted from crates/bench/goldens/flash_crowd_alerts.txt \
         (re-pin with obs watch --write-golden only if the change is intended)"
    );
}

#[test]
fn flash_crowd_windows_show_the_incident() {
    let run = run_flash_crowd(1);
    let spec = FlashCrowdSpec::default();
    let first_burst_window = ((spec.days * 24) as f64 * spec.start_frac) as usize;
    let windows = &run.bundle.windows;
    assert_eq!(windows.len(), (spec.days * 24) as usize);

    // Pre-burst steady state is healthy; the burst window collapses it.
    let pre: f64 = windows[first_burst_window - 4..first_burst_window]
        .iter()
        .map(|w| w.efficiency)
        .sum::<f64>()
        / 4.0;
    let hit = &windows[first_burst_window];
    assert!(
        pre - hit.efficiency > 0.3,
        "burst window efficiency {} not far below pre-burst {pre}",
        hit.efficiency
    );
    assert!(
        hit.redirect_rate > 0.2,
        "burst window redirect rate {} too low",
        hit.redirect_rate
    );
    // The churn is visible: the viral fills evicted the working set.
    assert!(hit.evicted_chunks > 500, "evictions {}", hit.evicted_chunks);
}
