//! The two render workloads: a dense kd-tree frame on flat memory and a
//! sparse BVH path-traced frame on the cached memory hierarchy.

use crate::spans::{median, ms, percentile, tail_percentile, Recorder};
use crate::{peak_rss_mb, seed_rng, Metrics, Outcome};
use experiments::{config_for, gpu_for, parallelism, telemetry_spec, Variant};
use raytrace::scenes::{self, Scene, SceneScale};
use raytrace::{Bvh, KdTree, Ray, Vec3};
use rt_kernels::layout::DeviceScene;
use rt_kernels::pt_layout::PtDeviceScene;
use rt_kernels::pt_render::{exact_mismatches, host_path_trace, image_hash};
use rt_kernels::render::build_rays;
use rt_kernels::{pt_ukernel, ukernel};
use simt_isa::codec::{fnv1a64, Encoder};
use simt_isa::Space;
use simt_mem::MemConfig;
use simt_sim::{Gpu, Launch, RunOutcome, RunSummary};
use std::time::{Duration, Instant};

/// Which render workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `kd-dense-flat`: the fig-7 configuration.
    Kd,
    /// `bvh-sparse-cached`: the BVH path tracer on L1/L2.
    Bvh,
}

/// kd image edge and steady window: `repro fig7 --scale paper`.
const KD_EDGE: u32 = 256;
const KD_WINDOW: u64 = 300_000;
/// BVH image edge at paper scale (a quarter of the kd edge).
const BVH_EDGE: u32 = 64;
/// The BVH frame runs to completion within this budget.
const BVH_BUDGET: u64 = 4_000_000_000;
/// Threads per block of both launches (paper: two warps).
const THREADS_PER_BLOCK: u32 = 64;
/// Simulated cycles per `Gpu::run` call in the traced (sliced) run. Both
/// windows of the kd frame are whole multiples, and each frame yields
/// more than 1000 slices, enough for a p99.
const SLICE_CYCLES: u64 = 500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// What `repro fig7 --scale paper` prints for the Dynamic variant at the
/// canonical viewpoint (seed 0): rays completed and rounded IPC.
const FIG7_RAYS: u64 = 24_718;
const FIG7_IPC: f64 = 713.0;
/// Largest jitter, in scene units, applied to the camera position and
/// look-at target for seeds other than 0 (the room is 30 × 5 × 20).
const VIEW_JITTER: f32 = 0.05;

/// Host-side inputs kept for the oracle.
enum Host {
    Kd {
        tree: KdTree,
        rays: Vec<Ray>,
        dev: DeviceScene,
    },
    Bvh {
        bvh: Bvh,
        rays: Vec<Ray>,
        dev: PtDeviceScene,
    },
}

/// A launched frame.
struct Frame {
    gpu: Gpu,
    host: Host,
}

/// The scene at the seed's viewpoint: seed 0 is the paper's camera.
fn scene_for(seed: u64) -> Scene {
    let mut scene = scenes::conference(SceneScale::Full);
    if seed != 0 {
        let mut rng = seed_rng(seed);
        let mut jitter = |v: Vec3| {
            let mut d = || (rng() as f32 / u64::MAX as f32 * 2.0 - 1.0) * VIEW_JITTER;
            Vec3::new(v.x + d(), v.y + d(), v.z + d())
        };
        scene.view.origin = jitter(scene.view.origin);
        scene.view.target = jitter(scene.view.target);
    }
    scene
}

/// The machine: the Dynamic variant at the library's default phase-A
/// parallelism and the experiment runners' default telemetry, on flat
/// memory (kd) or the L1/L2 hierarchy with empty caches (bvh).
fn machine(kind: Kind) -> Gpu {
    match kind {
        Kind::Kd => gpu_for(Variant::Dynamic),
        Kind::Bvh => {
            let mut cfg = config_for(Variant::Dynamic);
            cfg.mem = MemConfig::fx5800_cached();
            Gpu::builder(cfg)
                .parallelism(parallelism())
                .telemetry(telemetry_spec())
                .build()
        }
    }
}

/// Scene generation through accepted launch, inside a `setup` span.
fn setup(kind: Kind, seed: u64, rec: &mut Recorder) -> Result<Frame, String> {
    rec.time("setup", |rec| {
        let scene = rec.time("raytrace.scene", |_| scene_for(seed));
        let (mut gpu, host, program) = match kind {
            Kind::Kd => {
                let tree = rec.time("raytrace.kdtree_build", |_| KdTree::build(&scene.triangles));
                let rays = rec.time("rt_kernels.rays", |_| build_rays(&scene, KD_EDGE, KD_EDGE));
                let mut gpu = rec.time("sim.build", |_| machine(kind));
                let dev = rec.time("rt_kernels.upload", |_| {
                    DeviceScene::upload(&tree, &rays, gpu.mem_mut())
                });
                let program = rec.time("rt_kernels.program", |_| ukernel::program());
                (gpu, Host::Kd { tree, rays, dev }, program)
            }
            Kind::Bvh => {
                let bvh = rec.time("raytrace.bvh_build", |_| Bvh::build(&scene.triangles));
                let rays = rec.time("rt_kernels.rays", |_| {
                    build_rays(&scene, BVH_EDGE, BVH_EDGE)
                });
                let mut gpu = rec.time("sim.build", |_| machine(kind));
                let dev = rec.time("rt_kernels.upload", |_| {
                    PtDeviceScene::upload(&bvh, &rays, gpu.mem_mut())
                });
                let program = rec.time("rt_kernels.program", |_| pt_ukernel::program());
                (gpu, Host::Bvh { bvh, rays, dev }, program)
            }
        };
        let num_threads = match &host {
            Host::Kd { dev, .. } => dev.num_rays,
            Host::Bvh { dev, .. } => dev.num_rays,
        };
        rec.time("sim.launch", |_| {
            gpu.launch(Launch {
                program,
                entry: "main".into(),
                num_threads,
                threads_per_block: THREADS_PER_BLOCK,
            })
        })
        .map_err(|e| format!("launch rejected: {e:?}"))?;
        Ok(Frame { gpu, host })
    })
}

/// What one simulated frame produced.
struct Ran {
    summary: RunSummary,
    /// Host wall time inside `Gpu::run`.
    run: Duration,
    /// Rays completed at the end of the kd warm-up window.
    warm_rays: u64,
    warm_cycle: u64,
}

/// One `Gpu::run` call, failing on a fault or deadlock.
fn run_once(gpu: &mut Gpu, cycles: u64) -> Result<RunSummary, String> {
    let summary = gpu
        .run(cycles)
        .map_err(|e| format!("simulation fault: {e:?}"))?;
    match summary.outcome {
        RunOutcome::Completed | RunOutcome::CycleLimit => Ok(summary),
        ref other => Err(format!("run stopped: {other:?}")),
    }
}

/// Runs `cycles` simulated cycles (or to completion), either in one
/// `sim.run_window` call or, when `sliced`, in [`SLICE_CYCLES`] calls each
/// inside a `sim.run` span.
fn advance(
    gpu: &mut Gpu,
    cycles: u64,
    sliced: bool,
    rec: &mut Recorder,
) -> Result<(RunSummary, Duration), String> {
    let target = gpu.now().saturating_add(cycles);
    let mut spent = Duration::ZERO;
    loop {
        let slice = if sliced {
            SLICE_CYCLES.min(target - gpu.now())
        } else {
            target - gpu.now()
        };
        let span = if sliced { "sim.run" } else { "sim.run_window" };
        let start = Instant::now();
        let summary = rec.time(span, |_| run_once(gpu, slice))?;
        spent += start.elapsed();
        if summary.outcome == RunOutcome::Completed || gpu.now() >= target {
            return Ok((summary, spent));
        }
    }
}

/// Simulates the frame: kd runs the warm-up and steady windows, bvh runs
/// to completion.
fn simulate(kind: Kind, gpu: &mut Gpu, sliced: bool, rec: &mut Recorder) -> Result<Ran, String> {
    rec.time("run", |rec| match kind {
        Kind::Kd => {
            let (_, warm) = advance(gpu, KD_WINDOW, sliced, rec)?;
            let (warm_rays, warm_cycle) = (gpu.stats().lineages_completed, gpu.now());
            let (summary, steady) = advance(gpu, KD_WINDOW, sliced, rec)?;
            Ok(Ran {
                summary,
                run: warm + steady,
                warm_rays,
                warm_cycle,
            })
        }
        Kind::Bvh => {
            let (summary, run) = advance(gpu, BVH_BUDGET, sliced, rec)?;
            if summary.outcome != RunOutcome::Completed {
                return Err(format!("bvh frame did not complete in {BVH_BUDGET} cycles"));
            }
            Ok(Ran {
                summary,
                run,
                warm_rays: 0,
                warm_cycle: 0,
            })
        }
    })
}

/// The checked results of one frame, with the layer counters read off
/// the machine after it.
struct Checked {
    ran: Ran,
    /// Results compared against the host oracle (kd: device-written
    /// hits; bvh: pixels).
    checked: u64,
    mismatches: u64,
    /// Hash of the device image.
    image: u64,
    fingerprint: u64,
    num_sms: u64,
    warp_size: u32,
    clock_ghz: f64,
    skipped_cycles: u64,
    skip_events: u64,
    /// Mean DRAM-module busy cycles.
    dram_busy: f64,
    l1: Option<(u64, u64, u64, u64)>,
    l2: Option<(u64, u64)>,
    icnt_conflicts: u64,
}

/// Reads the frame back, checks it against the host oracle, and hashes
/// the simulated result: cycles, thread instructions, warp issues, rays,
/// divergence buckets and image.
fn check(frame: Frame, ran: Ran, rec: &mut Recorder) -> Checked {
    let Frame { gpu, host, .. } = frame;
    let report = rec.time("sim.telemetry_report", |_| gpu.telemetry_report());
    let mut buckets: Vec<u64> = Vec::new();
    for window in report.divergence.windows() {
        buckets.resize(buckets.len().max(window.len()), 0);
        for (b, n) in window.iter().enumerate() {
            buckets[b] += n;
        }
    }
    let (checked, mismatches, image) = match host {
        Host::Kd { tree, rays, dev } => {
            let device = rec.time("rt_kernels.read_results", |_| dev.read_results(gpu.mem()));
            rec.time("raytrace.host_ref", |_| {
                let mut hits = 0u64;
                let mut wrong = 0u64;
                let mut enc = Encoder::new();
                for (ray, hit) in rays.iter().zip(&device) {
                    match hit {
                        Some(d) => {
                            hits += 1;
                            let agrees = tree
                                .intersect(ray)
                                .is_some_and(|h| (h.t - d.t).abs() / h.t.abs().max(1.0) < 1e-3);
                            wrong += u64::from(!agrees);
                            enc.put_u32(d.t.to_bits());
                            enc.put_u32(d.tri);
                        }
                        None => enc.put_u32(rt_kernels::MISS),
                    }
                }
                (hits, wrong, fnv1a64(&enc.into_bytes()))
            })
        }
        Host::Bvh { bvh, rays, dev } => {
            let device = rec.time("rt_kernels.read_results", |_| dev.read_results(gpu.mem()));
            let host = rec.time("raytrace.host_ref", |_| host_path_trace(&bvh, &rays));
            let wrong = exact_mismatches(&host, &device) as u64;
            (device.len() as u64, wrong, image_hash(&device))
        }
    };
    let s = &ran.summary.stats;
    let mut enc = Encoder::new();
    enc.put_u64(s.cycles);
    enc.put_u64(s.thread_instructions);
    enc.put_u64(s.warp_issues);
    enc.put_u64(s.lineages_completed);
    enc.put_u64_slice(&buckets);
    enc.put_u64(image);
    let busy = gpu.mem().module_busy();
    Checked {
        checked,
        mismatches,
        image,
        fingerprint: fnv1a64(&enc.into_bytes()),
        num_sms: gpu.config().num_sms as u64,
        warp_size: gpu.config().warp_size,
        clock_ghz: gpu.config().clock_ghz,
        skipped_cycles: gpu.skipped_cycles(),
        skip_events: gpu.skip_events(),
        dram_busy: busy.iter().sum::<f64>() / busy.len().max(1) as f64,
        l1: gpu.l1_stats(),
        l2: gpu.mem().l2_stats(),
        icnt_conflicts: gpu.mem().icnt_conflicts(),
        ran,
    }
}

/// One frame: set up, simulate, check.
fn frame(kind: Kind, seed: u64, sliced: bool, rec: &mut Recorder) -> Result<Checked, String> {
    let mut frame = setup(kind, seed, rec)?;
    let ran = simulate(kind, &mut frame.gpu, sliced, rec)?;
    Ok(check(frame, ran, rec))
}

/// Runs a render workload. Untraced: whole frames until `seconds` of
/// `Gpu::run` time accumulate. Traced: one untraced and one sliced frame,
/// whose fingerprints must agree.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut rec = Recorder::default();
    let mut frames: Vec<Checked> = Vec::new();
    // Peak memory of one frame: later frames and set-ups reuse freed
    // heap in seed- and timing-dependent ways.
    let mut rss_mb = 0.0;
    loop {
        let run_total: f64 = frames.iter().map(|f| f.ran.run.as_secs_f64()).sum();
        let enough = if trace {
            frames.len() == 2
        } else {
            !frames.is_empty() && run_total >= seconds
        };
        if enough {
            break;
        }
        let sliced = trace && frames.len() == 1;
        frames.push(frame(kind, seed, sliced, &mut rec)?);
        if frames.len() == 1 {
            rss_mb = peak_rss_mb();
        }
    }
    while rec.durations("setup").len() < SETUPS {
        setup(kind, seed, &mut rec)?;
    }
    Ok(summarize(kind, seed, trace, rec, &frames, rss_mb))
}

/// `part / whole`, 0 when `whole` is 0.
fn frac(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Median duration, in milliseconds, of the spans named `name`.
fn median_ms(rec: &Recorder, name: &str) -> f64 {
    let d: Vec<f64> = rec.durations(name).into_iter().map(ms).collect();
    median(&d)
}

fn summarize(
    kind: Kind,
    seed: u64,
    trace: bool,
    rec: Recorder,
    frames: &[Checked],
    rss_mb: f64,
) -> Outcome {
    let setup_s = median_ms(&rec, "setup") / 1e3;
    let base = &frames[0];
    let stats = &base.ran.summary.stats;
    let mut errors = Vec::new();
    let checked: u64 = frames.iter().map(|f| f.checked).sum();
    let failed: u64 = frames.iter().map(|f| f.mismatches).sum();
    if failed > 0 {
        errors.push(format!(
            "{failed} of {checked} results disagree with the host oracle"
        ));
    }
    if kind == Kind::Kd && base.checked == 0 {
        errors.push("the kd frame wrote no hits".to_string());
    }
    if frames.iter().any(|f| f.fingerprint != base.fingerprint) {
        errors.push(format!(
            "simulated fingerprints differ between frames: {:?}",
            frames
                .iter()
                .map(|f| format!("{:016x}", f.fingerprint))
                .collect::<Vec<_>>()
        ));
    }
    let ipc = stats.ipc();
    if kind == Kind::Kd
        && seed == 0
        && (stats.lineages_completed != FIG7_RAYS || ipc.round() != FIG7_IPC)
    {
        errors.push(format!(
            "seed 0 does not reproduce fig 7 (Dynamic): {} rays, IPC {ipc:.1}; expected {FIG7_RAYS} rays, IPC {FIG7_IPC}",
            stats.lineages_completed
        ));
    }
    let (rays, cycles) = match kind {
        Kind::Kd => (
            stats.lineages_completed - base.ran.warm_rays,
            stats.cycles - base.ran.warm_cycle,
        ),
        Kind::Bvh => (stats.lineages_completed, stats.cycles),
    };
    let mrays = frac(rays as f64, cycles as f64 / (base.clock_ghz * 1e9)) / 1e6;
    let efficiency = stats.simt_efficiency(base.warp_size);
    let error_rate = frac(failed as f64, checked as f64);
    let run_s = if trace {
        base.ran.run.as_secs_f64()
    } else {
        let runs: Vec<f64> = frames.iter().map(|f| f.ran.run.as_secs_f64()).collect();
        median(&runs)
    };
    let name = match kind {
        Kind::Kd => "kd-dense-flat",
        Kind::Bvh => "bvh-sparse-cached",
    };
    println!(
        "{name}: seed {seed}, {} frame(s), fingerprint {:016x}, {} cycles, {} rays",
        frames.len(),
        base.fingerprint,
        stats.cycles,
        stats.lineages_completed
    );
    println!(
        "{name}: setup_s {:.4} s, run_s {run_s:.4} s, peak_rss_mb {:.1} MB, \
         sim_mrays_per_s {mrays:.4} Mrays/s, ipc {ipc:.2}, simd_efficiency {efficiency:.4}, \
         error_rate {error_rate} ({failed} of {checked})",
        setup_s, rss_mb
    );
    if kind == Kind::Bvh {
        println!("{name}: image hash {:016x}", base.image);
    }
    if kind == Kind::Kd {
        println!("{name}: paper Fig. 7 IPC is 615 (model unvalidated against hardware); simulated IPC {ipc:.1}");
    }

    let mut e2e = Metrics::default();
    e2e.put("setup_s", setup_s);
    e2e.put("run_s", run_s);
    e2e.put("peak_rss_mb", rss_mb);

    let mut layers = Metrics::default();
    layers.put("ipc", ipc);
    layers.put("simd_efficiency", efficiency);
    layers.put("sim_mrays_per_s", mrays);
    layers.put("error_rate", error_rate);
    if trace {
        let traced = &frames[1];
        let ts = &traced.ran.summary.stats;
        let slices: Vec<f64> = rec.durations("sim.run").into_iter().map(ms).collect();
        let p99 = match tail_percentile(slices.len()) {
            Some(p) if p >= 99.0 => percentile(&slices, 99.0),
            _ => {
                errors.push(format!("{} slices are too few for a p99", slices.len()));
                0.0
            }
        };
        let run_self = rec.self_total("sim.run").as_secs_f64();
        let sm_cycles = (ts.cycles * traced.num_sms) as f64;
        layers.put("trace.run_s", traced.ran.run.as_secs_f64());
        layers.put("trace.overhead_s", traced.ran.run.as_secs_f64() - run_s);
        layers.put("sim.launch_ms", median_ms(&rec, "sim.launch"));
        layers.put("sim.run_self_s", run_self);
        layers.put("sim.slice_ms_p50", percentile(&slices, 50.0));
        layers.put("sim.slice_ms_p99", p99);
        layers.put("sim.slices", slices.len() as f64);
        layers.put(
            "sim.ns_per_warp_issue",
            frac(run_self * 1e9, ts.warp_issues as f64),
        );
        layers.put("sim.ns_per_sm_cycle", frac(run_self * 1e9, sm_cycles));
        layers.put("sim.warp_issues", ts.warp_issues as f64);
        layers.put("sim.thread_instructions", ts.thread_instructions as f64);
        layers.put(
            "sim.busy_sm_frac",
            1.0 - frac(ts.idle_sm_cycles as f64, sm_cycles),
        );
        layers.put(
            "sim.skipped_cycle_frac",
            frac(traced.skipped_cycles as f64, ts.cycles as f64),
        );
        layers.put("sim.skip_events", traced.skip_events as f64);
        layers.put(
            "sim.telemetry_report_ms",
            median_ms(&rec, "sim.telemetry_report"),
        );

        let dmk = &traced.ran.summary.dmk;
        layers.put("dmk.threads_spawned", dmk.threads_spawned as f64);
        layers.put("dmk.warps_formed", dmk.warps_completed as f64);
        layers.put("dmk.partial_warps_forced", dmk.partial_warps_forced as f64);
        layers.put(
            "dmk.forced_thread_frac",
            frac(
                dmk.partial_threads_forced as f64,
                dmk.threads_spawned as f64,
            ),
        );
        layers.put("dmk.max_fifo_depth", dmk.max_fifo_depth as f64);
        layers.put("dmk.spawn_stall_cycles", ts.spawn_stall_cycles as f64);

        let traffic = &traced.ran.summary.traffic;
        let conflicts: u64 = Space::ALL
            .iter()
            .map(|&s| traffic.space(s).bank_conflict_passes)
            .sum();
        let (l1_hits, l1_misses, merges, stalls) = traced.l1.unwrap_or_default();
        let l1_accesses = (l1_hits + l1_misses) as f64;
        let (l2_hits, l2_misses) = traced.l2.unwrap_or_default();
        layers.put(
            "mem.global_bytes",
            traffic.space(Space::Global).total_bytes() as f64,
        );
        layers.put(
            "mem.spawn_bytes",
            traffic.space(Space::Spawn).total_bytes() as f64,
        );
        layers.put("mem.bank_conflict_passes", conflicts as f64);
        layers.put(
            "mem.dram_busy_frac",
            frac(traced.dram_busy, ts.cycles as f64),
        );
        layers.put("mem.l1_hit_rate", frac(l1_hits as f64, l1_accesses));
        layers.put("mem.mshr_merges", merges as f64);
        layers.put("mem.mshr_stall_frac", frac(stalls as f64, l1_accesses));
        layers.put(
            "mem.l2_hit_rate",
            frac(l2_hits as f64, (l2_hits + l2_misses) as f64),
        );
        layers.put("mem.icnt_conflicts", traced.icnt_conflicts as f64);

        layers.put("raytrace.scene_ms", median_ms(&rec, "raytrace.scene"));
        layers.put(
            "raytrace.kdtree_build_ms",
            median_ms(&rec, "raytrace.kdtree_build"),
        );
        layers.put(
            "raytrace.bvh_build_ms",
            median_ms(&rec, "raytrace.bvh_build"),
        );
        layers.put("raytrace.host_ref_ms", median_ms(&rec, "raytrace.host_ref"));
        layers.put("rt_kernels.rays_ms", median_ms(&rec, "rt_kernels.rays"));
        layers.put("rt_kernels.upload_ms", median_ms(&rec, "rt_kernels.upload"));
        layers.put(
            "rt_kernels.program_ms",
            median_ms(&rec, "rt_kernels.program"),
        );
        layers.put(
            "rt_kernels.read_results_ms",
            median_ms(&rec, "rt_kernels.read_results"),
        );
    }
    for e in &errors {
        eprintln!("{name}: GATE FAILED: {e}");
    }
    Outcome {
        correct: errors.is_empty(),
        attempted: checked.max(1),
        failed,
        e2e,
        layers,
        rec,
    }
}
