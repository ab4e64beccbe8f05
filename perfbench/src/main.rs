//! Live end-to-end benchmark of a threaded ThemisIO deployment.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_ops --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One server thread serves one driver thread. The run sets the deployment
//! up several times (the median is `setup_s`), drives the workload's closed
//! loop for `--seconds`, checks every reply's bytes, and prints a table of
//! metrics followed by one JSON line. With `--trace 0` the JSON holds the
//! end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
//! traced run (see `README.md`). The process exits non-zero when any output
//! was wrong.

mod gen;
mod layers;
mod live;
mod procfs;
mod stats;
mod trace;
mod workload;

use live::{Checker, Counts, Data, Timing, Window};
use std::path::Path;
use std::time::{Duration, Instant};
use themis_core::shares::compute_shares;
use themis_telemetry::{MetricValue, MetricsSnapshot};
use workload::{Name, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed-loop time before each timed window, not measured.
const WARMUP: Duration = Duration::from_millis(500);
/// Passes of `fair_large`'s read-back; `read_p50_us` is their median.
const READ_BACK_PASSES: usize = 12;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::new(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        );
        std::process::exit(2);
    };
    let correct = run(&spec, &args);
    std::process::exit(if correct { 0 } else { 1 });
}

/// One metric as printed: name, value, unit, and a note for the table.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// Median latency in µs: the median over `groups` (a window's one-second
/// slices, or the read-back passes) of each group's own median.
fn median_latency(name: &'static str, groups: &[&[u64]]) -> Metric {
    let medians: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| p50(g) / 1e3)
        .collect();
    let n: usize = groups.iter().map(|g| g.len()).sum();
    if medians.is_empty() {
        return Metric {
            note: "no samples".into(),
            ..metric(name, 0.0, "us")
        };
    }
    Metric {
        note: format!("median of {} medians, n={n}", medians.len()),
        ..metric(name, stats::median(&medians), "us")
    }
}

/// A tail latency in µs over all samples, noted with the sample count and
/// the highest percentile the sample supports.
fn tail_latency(name: &'static str, sorted_ns: &[u64], pct: f64) -> Metric {
    if sorted_ns.is_empty() {
        return Metric {
            note: "no samples".into(),
            ..metric(name, 0.0, "us")
        };
    }
    let note = match stats::supported_tail(sorted_ns) {
        Some(t) => format!(
            "n={}, highest supported p{} = {:.1} us",
            t.n,
            t.pct,
            t.value as f64 / 1e3
        ),
        None => format!(
            "n={}, no percentile has 10 samples beyond it",
            sorted_ns.len()
        ),
    };
    Metric {
        note,
        ..metric(name, stats::percentile(sorted_ns, pct) as f64 / 1e3, "us")
    }
}

fn p50(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::percentile(sorted, 50.0) as f64
    }
}

/// Median over a window's slices of a per-slice rate.
fn slice_rate(w: &Window, per_slice: impl Fn(&live::Slice) -> f64) -> f64 {
    let rates: Vec<f64> = w
        .slices
        .iter()
        .map(|s| per_slice(s) / live::SLICE.as_secs_f64())
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        stats::median(&rates)
    }
}

fn run(spec: &Spec, args: &Args) -> bool {
    let mut chk = Checker::new(spec, gen::Pattern::new(args.seed));
    let t = Instant::now();
    let rig = live::setup(spec, chk.pattern());
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let epoch = Instant::now();
    let mut counts = Counts::default();
    let snap0 = rig.control.metrics_snapshot(0).expect("metrics snapshot");
    let drain0 = rig.control.drain_status(0).ok();
    let mut streams = spec.streams();
    let seconds = Duration::from_secs(args.seconds);
    // A traced run measures an untraced half and a traced half, so the
    // difference between the two is the tracing overhead.
    let halves = if args.trace {
        vec![(seconds / 2, false), (seconds / 2, true)]
    } else {
        vec![(seconds, false)]
    };
    let mut windows: Vec<Window> = Vec::new();
    for (length, trace) in halves {
        let timing = Timing {
            warmup: WARMUP,
            length: Some(length),
            trace,
        };
        windows.push(match &rig.data {
            Data::Raw(conn) => live::run_raw(
                spec,
                conn,
                &mut chk,
                &mut counts,
                &mut streams,
                timing,
                epoch,
            ),
            Data::Posix(client) => live::run_posix(
                spec,
                client,
                &mut chk,
                &mut counts,
                &mut streams[0],
                timing,
                epoch,
            ),
        });
    }
    let read_back: Vec<Window> = match &rig.data {
        Data::Raw(conn) if spec.name == Name::FairLarge => (0..READ_BACK_PASSES)
            .map(|_| {
                let timing = Timing {
                    warmup: Duration::ZERO,
                    length: None,
                    trace: false,
                };
                live::run_raw(
                    spec,
                    conn,
                    &mut chk,
                    &mut counts,
                    &mut spec.read_back_streams(),
                    timing,
                    epoch,
                )
            })
            .collect(),
        _ => Vec::new(),
    };
    let t = Instant::now();
    let snap1 = rig.control.metrics_snapshot(0).expect("metrics snapshot");
    let snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    let drain1 = rig.control.drain_status(0).ok();
    let replicate = rig.control.replicate_status(0).ok();
    let rss_mib = procfs::rss_mib();

    // Final state: every block holds its last acknowledged version.
    let bad_blocks = match &rig.data {
        Data::Posix(client) => chk.verify_all(spec, |f, off| {
            client
                .read_at(&format!("/fs{}", spec.path(f)), off, spec.block_len)
                .ok()
        }),
        Data::Raw(_) => chk.verify_all(spec, |f, off| {
            rig.dep
                .fs()
                .read_at(&spec.path(f), off, spec.block_len)
                .ok()
        }),
    };
    counts.mismatches += bad_blocks;
    drop(rig);
    // The remaining set-ups come after the window, so the memory they leave
    // in the allocator does not show in `rss_mib`.
    for _ in 1..SETUPS {
        let t = Instant::now();
        let rig = live::setup(spec, chk.pattern());
        setup_s.push(t.elapsed().as_secs_f64());
        drop(rig);
    }

    let w = &windows[0];
    // `fair_large` writes only; its reads are the read-back passes.
    let (read_groups, reads): (Vec<&[u64]>, Vec<u64>) = if read_back.is_empty() {
        (
            w.slices.iter().map(|s| s.read_ns.as_slice()).collect(),
            w.read_ns.clone(),
        )
    } else {
        let mut all: Vec<u64> = read_back
            .iter()
            .flat_map(|r| r.read_ns.iter().copied())
            .collect();
        all.sort_unstable();
        (
            read_back.iter().map(|r| r.read_ns.as_slice()).collect(),
            all,
        )
    };
    let write_groups: Vec<&[u64]> = w.slices.iter().map(|s| s.write_ns.as_slice()).collect();
    // Share fidelity per one-second slice, so a second in which the host
    // stalled the driver (and a job ran dry) does not set the result.
    let (fidelity, fidelity_note) = if spec.name == Name::FairLarge {
        let shares = compute_shares(&spec.policy, &spec.tenants);
        let targets: Vec<f64> = spec.tenants.iter().map(|m| shares.share(m.job)).collect();
        let per_slice: Vec<f64> = w
            .slices
            .iter()
            .map(|s| stats::share_fidelity(&targets, &s.tenant_bytes))
            .collect();
        let whole = stats::share_fidelity(&targets, &w.tenant_bytes);
        let note = format!(
            "median of {} one-second values; whole window {whole:.4}, bytes per job {:?}",
            per_slice.len(),
            w.tenant_bytes
        );
        let value = if per_slice.is_empty() {
            whole
        } else {
            stats::median(&per_slice)
        };
        (value, note)
    } else {
        // No two jobs hold a backlog against each other: nothing to split.
        (
            1.0,
            "fewer than two backlogged jobs: exact by construction".to_string(),
        )
    };
    let end_to_end = vec![
        Metric {
            note: format!(
                "median of {} one-second rates; {} ops in {:.1} s",
                w.slices.len(),
                w.ops,
                w.seconds
            ),
            ..metric("ops_per_s", slice_rate(w, |s| s.ops as f64), "ops/s")
        },
        metric(
            "mib_per_s",
            slice_rate(w, |s| s.bytes as f64 / (1 << 20) as f64),
            "MiB/s",
        ),
        median_latency("read_p50_us", &read_groups),
        median_latency("write_p50_us", &write_groups),
        Metric {
            note: fidelity_note,
            ..metric("share_fidelity", fidelity, "ratio")
        },
        Metric {
            note: format!("median of {setup_s:.3?}"),
            ..metric("setup_s", stats::median(&setup_s), "s")
        },
        metric("rss_mib", rss_mib, "MiB"),
    ];
    // Printed with the end-to-end metrics but not in the JSON: see README.
    let extra = vec![
        tail_latency("read_p99_us", &reads, 99.0),
        tail_latency("write_p99_us", &w.write_ns, 99.0),
        Metric {
            note: format!("n={}", w.flush_ns.len()),
            ..metric("flush_p50_ms", p50(&w.flush_ns) / 1e6, "ms")
        },
        Metric {
            note: format!(
                "{} errors, {} timeouts, {} mismatches of {} attempted",
                counts.errors, counts.timeouts, counts.mismatches, counts.attempted
            ),
            ..metric(
                "error_rate",
                counts.failed() as f64 / counts.attempted.max(1) as f64,
                "ratio",
            )
        },
    ];

    let reported = if args.trace {
        let mut spans: Vec<trace::Span> = windows
            .iter()
            .flat_map(|w| w.spans.iter().cloned())
            .collect();
        let replay = layers::replay(spec, args.seed, epoch, &mut spans, &mut counts);
        let tr = trace::write_tsv(
            &Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}.tsv", args.workload)),
            &spans,
        );
        if let Err(e) = tr {
            eprintln!("perfbench: could not write spans: {e}");
        }
        per_layer(
            spec,
            &windows,
            &replay,
            &snap0,
            &snap1,
            snapshot_ms,
            drain0,
            drain1,
            replicate,
        )
    } else {
        end_to_end
    };
    let correct = counts.failed() == 0;

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let printed = if args.trace {
        reported.iter().collect::<Vec<_>>()
    } else {
        reported.iter().chain(&extra).collect()
    };
    for m in printed {
        println!(
            "  {:<28} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let body: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.attempted.max(1),
        counts.failed(),
        body.join(", ")
    );
    correct
}

/// A finite JSON number; a non-finite value (which no correct run
/// produces) is written as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Count-weighted median of per-tenant histogram medians, over tenants
/// whose histogram `name` gained samples between the two snapshots, and the
/// summed growth of the histograms' `sum`s.
fn tenant_histograms(s0: &MetricsSnapshot, s1: &MetricsSnapshot, name: &str) -> (f64, u64) {
    let before: std::collections::HashMap<(u32, u64), (u64, u64)> = s0
        .points
        .iter()
        .filter(|p| p.lane == "foreground" && p.tenant != 0 && p.name == name)
        .filter_map(|p| match &p.value {
            MetricValue::Histogram(h) => Some(((p.server, p.tenant), (h.count, h.sum))),
            _ => None,
        })
        .collect();
    let mut medians = Vec::new();
    let mut sum = 0;
    for p in s1
        .points
        .iter()
        .filter(|p| p.lane == "foreground" && p.tenant != 0 && p.name == name)
    {
        if let MetricValue::Histogram(h) = &p.value {
            let (c0, s0) = before.get(&(p.server, p.tenant)).copied().unwrap_or((0, 0));
            if h.count > c0 {
                medians.push((h.p50, h.count - c0));
                sum += h.sum - s0;
            }
        }
    }
    medians.sort_unstable();
    let total: u64 = medians.iter().map(|m| m.1).sum();
    let mut seen = 0;
    let median = medians
        .iter()
        .find(|m| {
            seen += m.1;
            seen * 2 >= total
        })
        .map_or(0.0, |m| m.0 as f64);
    (median, sum)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    spec: &Spec,
    windows: &[Window],
    replay: &layers::Replay,
    snap0: &MetricsSnapshot,
    snap1: &MetricsSnapshot,
    snapshot_ms: f64,
    drain0: Option<themis_stage::DrainStatus>,
    drain1: Option<themis_stage::DrainStatus>,
    replicate: Option<themis_stage::ReplicateStatus>,
) -> Vec<Metric> {
    let (untraced, traced) = (&windows[0], &windows[1]);
    let live_p50_us = p50(&untraced.all_ns) / 1e3;
    let interval_s = snap1.taken_ns.saturating_sub(snap0.taken_ns) as f64 / 1e9;
    let (queue_p50_ns, _) = tenant_histograms(snap0, snap1, "queue_delay_ns");
    let (_, service_ns) = tenant_histograms(snap0, snap1, "service_ns");
    let workers = spec.server_config().device.workers as f64;
    let counter =
        |s: &MetricsSnapshot, lane: &str, name: &str| s.lane_counter_sum(lane, name) as f64;
    let hits =
        counter(snap1, "fs", "residency_hit_ops") - counter(snap0, "fs", "residency_hit_ops");
    let misses =
        counter(snap1, "fs", "residency_miss_ops") - counter(snap0, "fs", "residency_miss_ops");
    let park = snap1.histogram(0, 0, "foreground", "park_ns");
    let (drained_mib_s, restored_ops_s) = match (drain0, drain1) {
        (Some(a), Some(b)) => (
            (b.drained_bytes - a.drained_bytes) as f64 / (1 << 20) as f64 / interval_s,
            (b.restored_ops - a.restored_ops) as f64 / interval_s,
        ),
        _ => (0.0, 0.0),
    };
    // Layer self times along the blocking path of one request: the client
    // call (POSIX path only), the transport round trip and the core's
    // submit + poll. What they leave of the live p50 is unexplained.
    let client_us = if spec.name == Name::StagedSpill {
        replay.client_call_us
    } else {
        0.0
    };
    let explained_us = client_us + replay.net_rtt_us + replay.core_op_us;
    let resubmit_p99 = if untraced.resubmit_ns.is_empty() {
        0.0
    } else {
        stats::percentile(&untraced.resubmit_ns, 99.0) as f64 / 1e3
    };
    vec![
        metric("client.call_us", replay.client_call_us, "us"),
        metric("net.rtt_us", replay.net_rtt_us, "us"),
        Metric {
            note: format!("live p50 {live_p50_us:.2} us minus net.rtt_us and core.op_us"),
            ..metric(
                "runtime.residual_us",
                live_p50_us - replay.net_rtt_us - replay.core_op_us,
                "us",
            )
        },
        metric("core.submit_us", replay.core_submit_us, "us"),
        metric("core.poll_us", replay.core_poll_us, "us"),
        metric("core.op_us", replay.core_op_us, "us"),
        metric("sched.admit_ns", replay.sched_admit_ns, "ns"),
        metric("sched.select_ns", replay.sched_select_ns, "ns"),
        metric("sched.complete_ns", replay.sched_complete_ns, "ns"),
        Metric {
            note: format!("{} tenants", spec.tenants.len()),
            ..metric("sched.register_us", replay.sched_register_us, "us")
        },
        Metric {
            note: format!("{} KiB", replay.fs_len >> 10),
            ..metric("fs.read_at_us", replay.fs_read_us, "us")
        },
        Metric {
            note: format!("{} KiB", replay.fs_len >> 10),
            ..metric("fs.write_at_us", replay.fs_write_us, "us")
        },
        metric("fs.copy_gib_s", replay.fs_copy_gib_s, "GiB/s"),
        Metric {
            note: format!("{workers} workers over {interval_s:.2} s"),
            ..metric(
                "device.util",
                service_ns as f64 / (workers * interval_s * 1e9),
                "ratio",
            )
        },
        metric("device.queue_delay_p50_us", queue_p50_ns / 1e3, "us"),
        metric("stage.drained_mib_s", drained_mib_s, "MiB/s"),
        metric("stage.restored_ops_s", restored_ops_s, "1/s"),
        Metric {
            note: format!("{hits} hits, {misses} misses"),
            ..metric(
                "stage.residency_hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
                "ratio",
            )
        },
        Metric {
            note: format!("n={}", park.count),
            ..metric("stage.park_p50_us", park.p50 as f64 / 1e3, "us")
        },
        metric(
            "stage.replicate_lag_mib",
            replicate.map_or(0.0, |r| r.lag_bytes as f64 / (1 << 20) as f64),
            "MiB",
        ),
        Metric {
            note: format!("n={}", untraced.flush_ns.len()),
            ..metric("stage.flush_p50_ms", p50(&untraced.flush_ns) / 1e6, "ms")
        },
        metric("telemetry.snapshot_ms", snapshot_ms, "ms"),
        metric("telemetry.points", snap1.points.len() as f64, "count"),
        Metric {
            note: format!("n={}", untraced.resubmit_ns.len()),
            ..metric("driver.resubmit_us", resubmit_p99, "us")
        },
        Metric {
            note: format!(
                "{:.2} s of {:.2} s",
                untraced.driver_cpu_s, untraced.seconds
            ),
            ..metric(
                "driver.cpu_frac",
                untraced.driver_cpu_s / untraced.seconds,
                "ratio",
            )
        },
        Metric {
            note: format!("explained {explained_us:.2} us of live p50 {live_p50_us:.2} us"),
            ..metric(
                "ledger.unexplained_frac",
                1.0 - explained_us / live_p50_us,
                "ratio",
            )
        },
        Metric {
            note: format!("traced p50 {:.2} us", p50(&traced.all_ns) / 1e3),
            ..metric(
                "trace.overhead_us",
                (p50(&traced.all_ns) - p50(&untraced.all_ns)) / 1e3,
                "us",
            )
        },
    ]
}
