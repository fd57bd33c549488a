//! Job fingerprints are result-cache keys, journal ids and public job
//! ids, so they must never move by accident: a change would orphan every
//! cached result and every journaled request. This pins the value of
//! every registry job name at `test` and `quick` scale, in both output
//! modes. Change a pinned value only together with a deliberate change
//! to a job's inputs.

use experiments::campaign::job_fingerprint;
use experiments::runner::Scale;

/// `(job name, [test text, test json, quick text, quick json])`.
#[rustfmt::skip]
const PINNED: &[(&str, [u64; 4])] = &[
    ("table1", [0x001ab35127651fd6, 0x7103db0b3e1c0ba5, 0x6f646a56554f77e0, 0x9bd47770ae224ffb]),
    ("table2", [0x62af2c28972ebb59, 0xf4aefd666bfefb2a, 0x02da189829f2fc2f, 0xca7b586e5f7835a4]),
    ("table3", [0xaa793558610d4ed8, 0xe590b37a8c5862b7, 0x3a91ea80772f5d32, 0x5c914a7c709b4645]),
    ("table4", [0xdf50a83e92e59dd3, 0xcfb2e0b9dbd78de4, 0x6e24374d9e2ac0d1, 0x8b9184e6ce9a64fe]),
    ("fig2", [0xd5ede61cbc39102d, 0xde13e1dcb0715abe, 0x19afa28a42de9103, 0x0830d83963c12088]),
    ("fig3", [0xb08285294592dd5c, 0x5018dbd9b770078b, 0x1007104e48fd5956, 0xe709186c40d112e9]),
    ("fig7", [0xe2edb34d1425b998, 0x62409a4c9674ff77, 0xa6b385873900f972, 0x1ac23392c7b85885]),
    ("fig8", [0xfcdcd0dfe94646db, 0xddc648a01c1cb2ac, 0xdf5c40d788587dd9, 0x1a5fa42dc4093f86]),
    ("fig9", [0xe402588416e4e7f2, 0x1c63733a2c1f2f41, 0x3ab8e0abf69823ac, 0x4ea1aa2224f09a77]),
    ("fig10", [0x155e37f5b8e5f1af, 0x216bb2dfe8a48fd0, 0x4dd1a101b101a97d, 0x9fdd80c7c866af8a]),
    ("ablation", [0x61229ada162fdde7, 0xf1773a252a2e5108, 0x2cfc2730524c3dd5, 0xe2651b803e8a87c2]),
    ("shadow", [0xb502bb9e802ad07b, 0xd9ca4d8e491b344c, 0x23861e160fcad4b9, 0x44c7e11d19a69266]),
    ("bvh", [0x345dd0dfdcdff0ca, 0xe8457c2b01406283, 0xa2665c0a968d4244, 0xd8fa716f6eca3a71]),
    ("bvh@pdom-warp", [0x1868ff0772f25235, 0x8eb5b90ba85f845c, 0x64e4f9b5712d00fb, 0xffa41090f6a1c526]),
    ("bvh@dynamic", [0x03a371421fb398f3, 0xc321b4324e51cd3a, 0xba8f057fe07695e1, 0x13268f62d8b9fef4]),
    ("microdiv", [0x191188343a347bf4, 0xf0569af1b7b4d651, 0x79c7fe33ac745bfc, 0xb019787879fb7125]),
    ("microdiv@pdom-warp", [0x3b67d69f1b2bccd7, 0xf06fd55280e294ea, 0x944a02c723331c63, 0xcabac194ccdb49da]),
    ("microdiv@dynamic", [0x02d2ae118b8af959, 0xd33a0e00b133c67c, 0xe8b3455d9efaea8d, 0xe26a8e3d375705a4]),
    ("cacheabl", [0x67af3e5bc20e4c81, 0x96ee1c270ec23c08, 0xe2a12ccd518e41e3, 0x5f5d108d9a5a6f4e]),
];

#[test]
fn every_registry_job_fingerprint_is_pinned() {
    let mut names = Vec::new();
    for w in experiments::workload::all() {
        names.push(w.id().to_string());
        names.extend(
            w.variants()
                .iter()
                .map(|v| format!("{}@{}", w.id(), v.wire_name())),
        );
    }
    let pinned: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names, pinned,
        "registry job names changed; pin the new ones"
    );

    for (name, want) in PINNED {
        let got = [
            job_fingerprint(name, Scale::test(), false),
            job_fingerprint(name, Scale::test(), true),
            job_fingerprint(name, Scale::quick(), false),
            job_fingerprint(name, Scale::quick(), true),
        ];
        assert_eq!(&got, want, "{name}: fingerprint moved");
    }
}
