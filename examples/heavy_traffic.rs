//! Heavy-traffic trace replay: millions of requests through the
//! fleet controller on the 128-device fat-tree, comparing the
//! pre-refactor measurement plane (one simulator event per request,
//! full row log) against the streaming one (batched per-interval
//! draws, O(1) aggregates, bounded row ring).
//!
//! Both modes replay the same google/etc/dynamo-grounded load with the
//! same random draws, so their telemetry is bit-identical — the run
//! asserts it — and the comparison isolates the measurement-plane cost:
//! sim-throughput (simulated requests per wall-clock second) and the
//! retained-row memory proxy.
//!
//! Run with: `cargo run --release --example heavy_traffic`

use std::time::Instant;

use inc_bench::heavy::{HeavyReport, HeavyTrafficRig, ReplayMode};
use inc_sim::Nanos;

const SEED: u64 = 20260809;
const TENANTS: usize = 8;
const INTERVALS: u64 = 1_200; // 2 minutes of 100 ms intervals

fn measure(rig: &HeavyTrafficRig, mode: ReplayMode) -> (HeavyReport, f64) {
    let start = Instant::now();
    let report = rig.run(mode, INTERVALS);
    let elapsed = start.elapsed().as_secs_f64();
    let rps = report.requests as f64 / elapsed;
    (report, rps)
}

fn main() {
    let rig = HeavyTrafficRig::new(TENANTS, SEED);
    println!(
        "heavy-traffic replay: {} tenants on fat_tree(8, 16), {} intervals of {}",
        TENANTS,
        INTERVALS,
        rig.interval()
    );

    let (base, base_rps) = measure(&rig, ReplayMode::PerEventRows);
    let (stream, stream_rps) = measure(&rig, ReplayMode::StreamingBatched);

    // The refactor contract: identical telemetry, cheaper machinery.
    assert_eq!(base.requests, stream.requests, "modes diverged");
    assert_eq!(
        base.timeline.energy_j.to_bits(),
        stream.timeline.energy_j.to_bits(),
        "energy diverged"
    );
    assert_eq!(
        base.timeline.shifts, stream.timeline.shifts,
        "decisions diverged"
    );
    let span_to = rig.interval().mul(INTERVALS + 1);
    for (full, recent) in base.timeline.per_app.iter().zip(&stream.timeline.per_app) {
        assert_eq!(
            full.mean_power_w(Nanos::ZERO, span_to).unwrap().to_bits(),
            recent.mean_power_w(Nanos::ZERO, span_to).unwrap().to_bits(),
        );
    }

    let speedup = stream_rps / base_rps;
    let sim_secs = rig.interval().mul(INTERVALS).as_secs_f64();
    println!(
        "\n{:>20} {:>14} {:>16} {:>14} {:>12}",
        "mode", "requests", "sim-req/s (wall)", "events", "row bytes"
    );
    for (name, report, rps) in [
        ("per-event + rows", &base, base_rps),
        ("streaming batched", &stream, stream_rps),
    ] {
        println!(
            "{:>20} {:>14} {:>16.0} {:>14} {:>12}",
            name,
            report.requests,
            rps,
            report.events_processed,
            report.retained_row_bytes()
        );
    }
    println!(
        "\n{:.1} M simulated requests over {:.0} simulated seconds; streaming \
         mode replays {:.1}x more traffic per wall-clock second and retains \
         {} rows instead of {}",
        base.requests as f64 / 1e6,
        sim_secs,
        speedup,
        stream.retained_rows,
        base.retained_rows,
    );

    inc_bench::emit_metrics(
        "heavy_traffic",
        &[
            ("requests", base.requests as f64),
            ("sim_requests_per_s_per_event", base_rps),
            ("sim_requests_per_s_streaming", stream_rps),
            ("speedup", speedup),
            ("events_processed_per_event", base.events_processed as f64),
            ("events_processed_streaming", stream.events_processed as f64),
            (
                "retained_row_bytes_per_event",
                base.retained_row_bytes() as f64,
            ),
            (
                "retained_row_bytes_streaming",
                stream.retained_row_bytes() as f64,
            ),
            ("energy_j", stream.timeline.energy_j),
        ],
    );
}
