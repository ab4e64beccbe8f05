//! Foreground interference from durability-replication traffic — the
//! `TrafficClass::Replicate` lane the durability policy wakes up.
//!
//! A 16-rank premium checkpoint job writes 1 GiB acked `local_plus_one` —
//! every byte owes an asynchronous replica — while the replicate pipeline
//! also pays down a 4 GiB boot debt of copies owed by previous runs. Each
//! copy is a checksum-verified read off the burst tier followed by a write
//! onto the replica tier, admitted as policy-arbitrated
//! `TrafficClass::Replicate` requests. The experiment compares
//! foreground:replicate weights of 1:1 and 8:1 against the
//! replication-disabled baseline — durability, like drain, restore, scrub
//! and rebalance before it, must be bounded by its policy weight rather
//! than stealing device time.
//!
//! Run with `cargo run --release -p themis-bench --bin replicate_interference`.
//! The machine-readable report and its regression gate come from
//! `sched_scaling --json`.

use themis_bench::experiments::run_replicate;
use themis_core::entity::JobId;

fn main() {
    println!("durability replication: foreground slowdown vs foreground:replicate weight");
    println!(
        "(1 GiB premium checkpoint acked local_plus_one vs the pay-down of a 4 GiB\n\
         boot debt, each copy read checksum-verified off the burst tier and written\n\
         onto the replica tier, one server)\n"
    );

    let baseline = run_replicate(8, false);
    let baseline_secs = baseline.job_finish_ns[&JobId(1)] as f64 / 1e9;
    println!(
        "  {:<36} checkpoint time {baseline_secs:>7.3} s",
        "replication disabled"
    );
    let table = |run: &themis_sim::SimResult, weight: u32| {
        let secs = run.job_finish_ns[&JobId(1)] as f64 / 1e9;
        let slowdown = (secs / baseline_secs - 1.0) * 100.0;
        println!(
            "    fg:replicate {weight}:1  checkpoint time {secs:>7.3} s  \
             (+{slowdown:>5.1}% vs baseline)  replicated {:>4} MiB  \
             lag zero at {:>7.3} s",
            run.replicated_bytes >> 20,
            run.sim_end_ns as f64 / 1e9,
        );
    };
    let even = run_replicate(1, true);
    table(&even, 1);
    let weighted = run_replicate(8, true);
    table(&weighted, 8);
    println!(
        "\n  At 8:1 the checkpointer keeps ≥ 8/9 of its replication-disabled throughput\n  \
         while the whole durability debt — this run's local_plus_one writes plus the\n  \
         boot backlog — still lands on the replica tier before the run quiesces.\n  \
         Replication is policy, not mechanism: the same two-level WFQ bounds it, and\n  \
         a write's durability class only decides which bytes owe a copy."
    );
}
