//! Foreground interference from a policy-admitted restore storm.
//!
//! A 16-rank checkpoint job writes 1 GiB while an 8-rank reader streams
//! 512 MiB whose working set was fully evicted to the capacity tier: every
//! read must wait for a policy-admitted `TrafficClass::Restore` transfer
//! of equal size. The experiment compares foreground:restore weights of 1:1
//! and 8:1 against the all-resident baseline — before PR 4, stage-in
//! bypassed the engine entirely, so this interference was unbounded.
//!
//! Run with `cargo run --release -p themis-bench --bin restore_interference`.
//! The machine-readable report and its regression gate come from
//! `sched_scaling --json`.

use themis_bench::experiments::run_restore;
use themis_core::entity::JobId;

fn main() {
    println!("policy-admitted restore storm: foreground slowdown vs foreground:restore weight");
    println!("(1 GiB checkpoint vs 512 MiB fully-evicted read stream, one server)\n");

    let baseline = run_restore(8, 0.0);
    let baseline_secs = baseline.job_finish_ns[&JobId(1)] as f64 / 1e9;
    println!(
        "  {:<34} checkpoint time {baseline_secs:>7.3} s",
        "no restores (reads all hit)"
    );
    for weight in [1u32, 8] {
        let storm = run_restore(weight, 1.0);
        let secs = storm.job_finish_ns[&JobId(1)] as f64 / 1e9;
        let slowdown = (secs / baseline_secs - 1.0) * 100.0;
        let reader_secs = storm.job_finish_ns[&JobId(2)] as f64 / 1e9;
        println!(
            "    fg:restore {weight}:1  checkpoint time {secs:>7.3} s  \
             (+{slowdown:>5.1}% vs baseline)  restored {:>4} MiB  \
             reader done at {reader_secs:>7.3} s  reader p99 {:>7.2} ms",
            storm.restored_bytes >> 20,
            storm.tenant_latency(JobId(2)).p99_ns as f64 / 1e6,
        );
    }
    println!(
        "\n  At 8:1 the checkpointer keeps ≥ 8/9 of its no-restore throughput while\n  \
         the reader is deliberately gated to restore bandwidth; at 1:1 the storm\n  \
         legitimately takes half the device. Before stage-in was policy-admitted,\n  \
         the same storm dispatched raw on the DeviceTimeline and was unbounded."
    );
}
