//! Black-box coverage of the nim-obs public API: ring overflow
//! accounting, JSON escaping of event labels, epoch-sampler alignment,
//! and latency-histogram quantile edge cases.

use nim_obs::{Category, CategoryMask, EventData, LatencyHistogram, Obs, ObsConfig};

#[test]
fn ring_wrap_keeps_newest_and_counts_dropped() {
    let obs = Obs::new(ObsConfig {
        trace: true,
        trace_capacity: 4,
        mask: CategoryMask::ALL,
        ..ObsConfig::default()
    });
    for cycle in 0..10u64 {
        obs.set_now(cycle);
        obs.emit(Category::Memory, || EventData::MemRequest { line: cycle });
    }
    assert_eq!(obs.event_count(), 4);
    assert_eq!(obs.dropped_events(), 6);

    let mut buf = Vec::new();
    obs.export_trace(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    // Only the newest window survives, in order, and the summary
    // reports the evictions.
    assert!(!text.contains("\"line\":5"));
    assert!(text.contains("\"line\":6"));
    assert!(text.contains("\"line\":9"));
    assert!(text.contains("\"dropped\":6"));
    let pos6 = text.find("\"line\":6").unwrap();
    let pos9 = text.find("\"line\":9").unwrap();
    assert!(pos6 < pos9, "events export oldest-first");
}

#[test]
fn event_labels_are_json_escaped() {
    let obs = Obs::new(ObsConfig {
        trace: true,
        ..ObsConfig::default()
    });
    obs.emit(Category::Meta, || EventData::Note {
        label: "a \"quoted\" label\nwith\tcontrol \u{01} chars \\ and backslash".to_string(),
    });
    let mut buf = Vec::new();
    obs.export_trace(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains(r#"\"quoted\""#));
    assert!(text.contains(r"\n"));
    assert!(text.contains(r"\t"));
    assert!(text.contains(r"\u0001"));
    assert!(text.contains(r"\\ and backslash"));
    // No raw control bytes may survive into the output.
    assert!(text.bytes().all(|b| b == b'\n' || b >= 0x20));
}

#[test]
fn epoch_sampler_aligns_after_gaps() {
    let obs = Obs::new(ObsConfig {
        sample_every: 1000,
        ..ObsConfig::default()
    });
    assert!(!obs.sample_due(0), "cycle 0 is not an epoch boundary");
    assert!(!obs.sample_due(999));
    assert!(obs.sample_due(1000));
    let names = ["a".to_string()];
    obs.record_sample_cols(1000, &names, &[1.0]);
    assert!(!obs.sample_due(1999));
    assert!(obs.sample_due(2000));

    // A caller that misses epochs 2..=7 takes one snapshot late and the
    // next boundary realigns to the grid.
    obs.record_sample_cols(7321, &names, &[2.0]);
    assert!(!obs.sample_due(7999));
    assert!(obs.sample_due(8000));

    let mut buf = Vec::new();
    obs.export_metrics(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("\"every\":1000"));
    assert!(text.contains("[1000,"));
    assert!(text.contains("[7321,"));
}

#[test]
fn quantile_upper_bound_edge_cases() {
    // Empty histogram: no data, quantile is 0.
    let empty = LatencyHistogram::default();
    assert_eq!(empty.quantile_upper_bound(0.0), 0);
    assert_eq!(empty.quantile_upper_bound(0.5), 0);
    assert_eq!(empty.quantile_upper_bound(1.0), 0);

    // Single bucket: every quantile reports that bucket's upper edge.
    let mut single = LatencyHistogram::default();
    for _ in 0..100 {
        single.record(10); // bucket 3 = [8, 16)
    }
    assert_eq!(single.quantile_upper_bound(0.01), 16);
    assert_eq!(single.quantile_upper_bound(0.5), 16);
    assert_eq!(single.quantile_upper_bound(1.0), 16);

    // Out-of-range quantiles clamp instead of panicking: above 1 acts
    // like 1; below 0 acts like 0, whose target of zero samples is met
    // by the very first bucket's upper edge.
    assert_eq!(single.quantile_upper_bound(-1.0), 2);
    assert_eq!(single.quantile_upper_bound(2.0), 16);

    // Overflow bucket: samples >= 65536 cycles land in bucket 15 and
    // report the 1<<16 ceiling.
    let mut over = LatencyHistogram::default();
    over.record(65_536);
    over.record(u64::MAX);
    assert_eq!(over.buckets()[15], 2);
    assert_eq!(over.quantile_upper_bound(1.0), 1 << 16);

    // A single sample of zero still counts (bucket 0).
    let mut zero = LatencyHistogram::default();
    zero.record(0);
    assert_eq!(zero.count(), 1);
    assert_eq!(zero.quantile_upper_bound(1.0), 2);
}

#[test]
fn metrics_export_combines_final_and_epochs() {
    let obs = Obs::new(ObsConfig {
        sample_every: 50,
        ..ObsConfig::default()
    });
    obs.counter_add("l2/hits/0/1", 12);
    obs.gauge_set("pillar/0/occupancy", 0.25);
    obs.histogram_record("noc/latency", 33);
    let names = ["pillar/0/occupancy".to_string()];
    obs.record_sample_cols(50, &names, &[0.25]);
    obs.record_sample_cols(100, &names, &[0.5]);

    let mut buf = Vec::new();
    obs.export_metrics(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("\"l2/hits/0/1\":12"));
    assert!(text.contains("\"pillar/0/occupancy\":0.25"));
    assert!(text.contains("\"noc/latency\""));
    assert!(text.contains("\"rows\":["));
    assert!(text.contains("\"cycles_per_sec\":"));
}
