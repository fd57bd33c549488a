//! End-to-end tests of the background snapshot writer behind
//! `--checkpoint-dir`: the deterministic kill hook still leaves exactly
//! the Nth snapshot on disk, a finished run leaves no snapshot or temp
//! file behind, and a checkpoint directory that cannot be written only
//! costs warnings, never the job or its bytes.

use experiments::{gpu_for, run_fingerprint, Scale, Variant};
use raytrace::scenes;
use rt_kernels::render::RenderSetup;
use simt_isa::codec::Encoder;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// The cadence every run here checkpoints at (the campaign default).
const EVERY: u64 = 2000;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("snapshot-writer-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn repro(args: &[&str]) -> Output {
    Command::new(REPRO)
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// `repro fig7 --scale test` stdout with no checkpointing at all.
fn plain_fig7() -> &'static [u8] {
    static PLAIN: OnceLock<Vec<u8>> = OnceLock::new();
    PLAIN.get_or_init(|| {
        let out = repro(&["fig7", "--scale", "test"]);
        assert!(out.status.success(), "plain fig7 run succeeds");
        out.stdout
    })
}

/// Checkpointed `repro fig7 --scale test` into `dir`, plus `extra` flags.
fn checkpointed_fig7(dir: &Path, extra: &[&str]) -> Output {
    let every = EVERY.to_string();
    let mut args = vec![
        "fig7",
        "--scale",
        "test",
        "--checkpoint-every",
        &every,
        "--checkpoint-dir",
        dir.to_str().expect("utf-8 path"),
    ];
    args.extend_from_slice(extra);
    repro(&args)
}

/// File names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// The `n`th snapshot (1-based) fig7's first job takes, computed
/// in-process by an uninterrupted run: the phase-entry snapshot at
/// cycle 0, then one per `EVERY`-cycle slice. The meta section is the
/// runner's phase-0 bookkeeping (fingerprint, phase, cycle target, and
/// the not-yet-taken warm-up mark).
fn nth_snapshot_in_process(n: u64) -> Vec<u8> {
    let scale = Scale::test();
    let variant = Variant::Dynamic;
    let scene = scenes::conference(scale.scene);
    let mut gpu = gpu_for(variant);
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    setup.launch_ukernel(&mut gpu, scale.threads_per_block);
    let mut meta = Encoder::new();
    meta.put_u64(run_fingerprint(scene.name, variant, scale));
    meta.put_u32(0);
    meta.put_u64(gpu.now() + scale.cycles);
    meta.put_u64(0);
    meta.put_u64(0);
    for _ in 1..n {
        gpu.run(EVERY).expect("fault-free slice");
    }
    assert!(gpu.now() < scale.cycles, "the nth snapshot is mid-phase");
    let mut snap = gpu.checkpoint().expect("snapshot encodes");
    snap.set_meta(meta.into_bytes());
    snap.to_bytes()
}

#[test]
fn kill_hook_leaves_exactly_the_nth_snapshot() {
    for n in [1u64, 3] {
        let dir = temp_dir(&format!("kill{n}"));
        let out = checkpointed_fig7(&dir, &["--kill-after-checkpoints", &n.to_string()]);
        assert_eq!(
            out.status.code(),
            Some(42),
            "kill hook exits 42 after {n} write(s); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            listing(&dir),
            ["conference-Dynamic-16.ckpt"],
            "one complete snapshot, no temp file"
        );
        let on_disk = std::fs::read(dir.join("conference-Dynamic-16.ckpt")).expect("readable");
        assert!(
            on_disk == nth_snapshot_in_process(n),
            "the file a kill after {n} write(s) leaves is byte-identical to the \
             {n}th snapshot of an uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn completed_run_leaves_no_snapshot_files() {
    let dir = temp_dir("complete");
    let out = checkpointed_fig7(&dir, &[]);
    assert!(out.status.success(), "checkpointed fig7 completes");
    assert_eq!(
        out.stdout,
        plain_fig7(),
        "checkpointing never changes bytes"
    );
    assert_eq!(
        listing(&dir),
        Vec::<String>::new(),
        "every queued write is flushed before its job's snapshot is cleared"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_checkpoint_dir_only_warns() {
    let dir = temp_dir("unwritable");
    // A regular file where the checkpoint directory's parent should be:
    // creating the directory fails even with root privileges.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let out = checkpointed_fig7(&blocker.join("ckpt"), &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "job completes; stderr: {stderr}");
    assert_eq!(out.stdout, plain_fig7(), "and its output is unchanged");
    assert!(
        stderr.contains("warning: conference-Dynamic-16: cannot create"),
        "the lost checkpoint is reported: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
