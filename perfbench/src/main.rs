//! The repository benchmark: three workloads, each checked for correct
//! output, measured end to end and, in a separate traced run, per layer.
//!
//! ```text
//! perfbench --workload kd-dense-flat|bvh-sparse-cached|serve-cold-warm
//!           --seed N --seconds S --trace 0|1 --work-dir DIR [--repro PATH]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). The spans recorded along the way are
//! written to `DIR/spans-<workload>-<seed>-<trace>.json` at exit. The
//! exit code is 0 only when every correctness gate passed.

mod render;
mod serve;
mod spans;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports untraced, with units.
/// Keep in step with `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every workload reports traced, with units. A
/// workload that bypasses a layer reports 0 for it. Keep in step with
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ipc", "instr/cycle"),
    ("simd_efficiency", "fraction"),
    ("sim_mrays_per_s", "Mrays/s"),
    ("error_rate", "fraction"),
    ("cold_jobs_per_s", "jobs/s"),
    ("warm_p50_ms", "ms"),
    ("warm_p99_ms", "ms"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("sim.launch_ms", "ms"),
    ("sim.run_self_s", "s"),
    ("sim.slice_ms_p50", "ms"),
    ("sim.slice_ms_p99", "ms"),
    ("sim.slices", "count"),
    ("sim.ns_per_warp_issue", "ns"),
    ("sim.ns_per_sm_cycle", "ns"),
    ("sim.warp_issues", "count"),
    ("sim.thread_instructions", "count"),
    ("sim.busy_sm_frac", "fraction"),
    ("sim.skipped_cycle_frac", "fraction"),
    ("sim.skip_events", "count"),
    ("sim.telemetry_report_ms", "ms"),
    ("dmk.threads_spawned", "count"),
    ("dmk.warps_formed", "count"),
    ("dmk.partial_warps_forced", "count"),
    ("dmk.forced_thread_frac", "fraction"),
    ("dmk.max_fifo_depth", "count"),
    ("dmk.spawn_stall_cycles", "count"),
    ("mem.global_bytes", "bytes"),
    ("mem.spawn_bytes", "bytes"),
    ("mem.bank_conflict_passes", "count"),
    ("mem.dram_busy_frac", "fraction"),
    ("mem.l1_hit_rate", "fraction"),
    ("mem.mshr_merges", "count"),
    ("mem.mshr_stall_frac", "fraction"),
    ("mem.l2_hit_rate", "fraction"),
    ("mem.icnt_conflicts", "count"),
    ("raytrace.scene_ms", "ms"),
    ("raytrace.kdtree_build_ms", "ms"),
    ("raytrace.bvh_build_ms", "ms"),
    ("raytrace.host_ref_ms", "ms"),
    ("rt_kernels.rays_ms", "ms"),
    ("rt_kernels.upload_ms", "ms"),
    ("rt_kernels.program_ms", "ms"),
    ("rt_kernels.read_results_ms", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p99", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.status_ms_p99", "ms"),
    ("serve.fetch_ms_p50", "ms"),
    ("serve.fetch_ms_p99", "ms"),
    ("serve.status_polls_per_job", "polls/job"),
    ("serve.cold_job_ms_p50", "ms"),
    ("serve.sheds", "count"),
    ("serve.resubmits", "count"),
    ("serve.boot_ms", "ms"),
];

/// Measured metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records one value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Every metric of `schema`, in order, with its unit; 0 for one the
    /// workload did not record.
    fn to_json(&self, schema: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in schema.iter().enumerate() {
            let value = self
                .0
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| if v.is_finite() { v } else { 0.0 });
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// End-to-end metrics (reported untraced).
    pub e2e: Metrics,
    /// Per-layer metrics (reported traced).
    pub layers: Metrics,
    /// The spans recorded during the run.
    pub rec: spans::Recorder,
}

/// Peak resident set (VmHWM) of process `pid`, in MB; 0 if unreadable.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    vm_hwm_mb("self")
}

/// A splitmix64 stream seeded by the workload seed.
pub fn seed_rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    repro: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_work"),
        repro: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = value.into(),
            "--repro" => args.repro = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "kd-dense-flat" => render::run(render::Kind::Kd, args.seed, args.seconds, args.trace),
        "bvh-sparse-cached" => render::run(render::Kind::Bvh, args.seed, args.seconds, args.trace),
        "serve-cold-warm" => match &args.repro {
            Some(repro) => serve::run(repro, &args.work_dir, args.seed, args.seconds, args.trace),
            None => Err("serve-cold-warm needs --repro".to_string()),
        },
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let spans_path = args.work_dir.join(format!(
        "spans-{}-{}-{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&args.work_dir)
        .and_then(|()| std::fs::write(&spans_path, outcome.rec.to_json()))
    {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }
    let metrics = if args.trace {
        outcome.layers.to_json(PER_LAYER)
    } else {
        outcome.e2e.to_json(END_TO_END)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct, outcome.attempted, outcome.failed, metrics
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric name a workload records is in a schema, and the
    /// schemas name exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn schemas_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let workloads = ["kd-dense-flat", "bvh-sparse-cached", "serve-cold-warm"];
        let schema: Vec<&str> = workloads
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n))
            .collect();
        assert_eq!(declared, schema);
        for sources in [include_str!("render.rs"), include_str!("serve.rs")] {
            for put in sources.split(".put(\"").skip(1) {
                let name = put.split('"').next().expect("quoted name");
                assert!(
                    END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
                    "{name} is not in a schema"
                );
            }
        }
    }

    #[test]
    fn missing_metrics_report_zero() {
        let mut m = Metrics::default();
        m.put("run_s", 1.5);
        assert_eq!(
            m.to_json(&[("setup_s", "s"), ("run_s", "s")]),
            "{\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}, \"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
    }
}
