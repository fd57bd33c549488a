//! Snapshot size guard: shared and spawn memory are encoded sparsely, so
//! a freshly launched machine's snapshot is dominated by the scene and
//! ray data it was given, not by on-chip scratchpad capacity.

use dmk_core::DmkConfig;
use raytrace::scenes::{self, SceneScale};
use rt_kernels::render::RenderSetup;
use simt_sim::{Gpu, GpuConfig, TelemetrySpec};

#[test]
fn fresh_fig7_snapshot_is_not_dominated_by_onchip_capacity() {
    // The test-scale dynamic fig-7 machine, just after its launch was
    // accepted: conference scene at `SceneScale::Tiny`, 16×16 primary
    // rays, the μ-kernel at 32 threads per block, windowed metrics on.
    let mut gpu = Gpu::builder(GpuConfig::fx5800_dmk(DmkConfig::paper()))
        .telemetry(TelemetrySpec::metrics())
        .build();
    let scene = scenes::conference(SceneScale::Tiny);
    RenderSetup::upload(&mut gpu, &scene, 16, 16).launch_ukernel(&mut gpu, 32);
    let len = gpu.checkpoint().expect("checkpoints").to_bytes().len();

    let onchip: usize = gpu
        .sms()
        .iter()
        .map(|sm| {
            let spawn = sm.spawn_mem().expect("dynamic machine").capacity_bytes();
            (sm.shared_mem().capacity_bytes() + spawn) as usize
        })
        .sum();
    // A raw capacity dump alone would be `onchip` bytes (3.7 MB); the
    // sparse snapshot is about 0.35 MB, nearly all scene, rays and kd-tree.
    assert!(
        len < onchip / 4,
        "snapshot of {len} bytes is not small against the {onchip} bytes of on-chip capacity"
    );
}
