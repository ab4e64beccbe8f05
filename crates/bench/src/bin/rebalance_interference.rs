//! Foreground interference from shard-migration traffic — the
//! `TrafficClass::Rebalance` lane a mid-run reshard wakes up.
//!
//! A 16-rank premium checkpoint job writes 1 GiB while the rebalance
//! pipeline migrates a 4 GiB backlog of extents whose range changed owner
//! when the shard map split — each chunk a checksum-verified read off the
//! old holder followed by a write onto the new replica set, admitted as
//! policy-arbitrated `TrafficClass::Rebalance` requests. The reshard fires
//! at t=0, so the migration competes for the entire checkpoint window (the
//! worst-case phase alignment). The experiment compares
//! foreground:rebalance weights of 1:1 and 8:1 against the
//! rebalance-disabled baseline — resharding, like drain, restore and scrub
//! before it, must be bounded by its policy weight rather than stealing
//! device time.
//!
//! Run with `cargo run --release -p themis-bench --bin rebalance_interference`.
//! The machine-readable report and its regression gate come from
//! `sched_scaling --json`.

use themis_bench::experiments::run_rebalance;
use themis_core::entity::JobId;
use themis_stage::TrafficClass;

fn main() {
    println!("shard migration: foreground slowdown vs foreground:rebalance weight");
    println!(
        "(1 GiB premium checkpoint vs the migration of a 4 GiB resharded backlog,\n\
         each chunk read off its old holder and rewritten onto the new replica set,\n\
         reshard at t=0, one server)\n"
    );

    let baseline = run_rebalance(8, false);
    let baseline_secs = baseline.job_finish_ns[&JobId(1)] as f64 / 1e9;
    println!(
        "  {:<36} checkpoint time {baseline_secs:>7.3} s",
        "rebalancing disabled"
    );
    let table = |run: &themis_sim::SimResult, weight: u32| {
        let secs = run.job_finish_ns[&JobId(1)] as f64 / 1e9;
        let slowdown = (secs / baseline_secs - 1.0) * 100.0;
        println!(
            "    fg:rebalance {weight}:1  checkpoint time {secs:>7.3} s  \
             (+{slowdown:>5.1}% vs baseline)  migrated {:>4} MiB  \
             pass done at {:>7.3} s",
            run.class(TrafficClass::Rebalance).landed >> 20,
            run.sim_end_ns as f64 / 1e9,
        );
    };
    let even = run_rebalance(1, true);
    table(&even, 1);
    let weighted = run_rebalance(8, true);
    table(&weighted, 8);
    println!(
        "\n  At 8:1 the checkpointer keeps ≥ 8/9 of its rebalance-disabled throughput\n  \
         while the whole backlog still lands on its new replica set before the run\n  \
         quiesces. Rebalance is the last reserved class: synthesized from tier state\n  \
         like scrub, bounded by the same two-level WFQ, no new mechanism."
    );
}
