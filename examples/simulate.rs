//! Deterministic simulation of a whole streaming topology under a
//! seeded fault schedule.
//!
//! One broadcast source, a perfect-link mirror receiver, and three
//! fault-addressable receivers (recovery, ARQ, and plain roles) run on
//! a single virtual clock while the schedule injects latency, loss and
//! corruption bursts, partitions, transport deaths with reconnects,
//! encode stalls and panics, and consumer stalls. Invariants — byte
//! conservation, delivered-frame integrity against the mirror,
//! refresh-answered, no starvation — are checked after every step, and
//! the same seed always replays the exact same trace (the example runs
//! the schedule twice and proves it).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example simulate [seed]
//! ```

use pcc::sim::{run, FaultSchedule, SimConfig};

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42u64);
    let schedule = FaultSchedule::generate(seed, 12, 3);

    println!("=== schedule (seed {seed}) ===");
    print!("{}", schedule.to_text());

    let config = SimConfig::default();
    let report = run(&schedule, &config);

    println!("\n=== trace ===");
    for line in &report.trace {
        println!("  {line}");
    }

    println!("\n=== result ===");
    println!("{}", report.summary());
    print!("{}", report.serve);
    for (r, stats) in report.receivers.iter().enumerate() {
        let mut export = String::new();
        stats.write_counters(&format!("rx{r}."), &mut export).expect("writing to a String");
        print!("{export}");
    }

    // Replay identity: the same schedule must reproduce the run exactly.
    let replay = run(&schedule, &config);
    assert_eq!(report, replay, "same seed must replay the identical report");
    println!("\nreplay: identical trace ({} lines) and counters — deterministic", report.trace.len());
}
