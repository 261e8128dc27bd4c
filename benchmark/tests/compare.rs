//! `mvml-benchmark compare`, as `run.sh --sets K` calls it: interleaved
//! sets agree when every end-to-end metric stays within its bound, and the
//! command exits non-zero otherwise.

use std::path::{Path, PathBuf};
use std::process::Command;

fn write_set(dir: &Path, rss_mb: f64) {
    std::fs::create_dir_all(dir).expect("create set dir");
    let lines = format!(
        "# a comment line\n\
         check dspn-sweep every-solve-matches-reference ok\n\
         metric dspn-sweep throughput 50.0 ops/s\n\
         metric dspn-sweep p50_ms 17.5 ms\n\
         metric dspn-sweep setup_s 0.02 s\n\
         metric dspn-sweep rss_mb {rss_mb} MiB\n\
         metric dspn-sweep dspn.error_rate 0 fraction\n\
         {{\"correct\": true}}\n"
    );
    std::fs::write(dir.join("dspn-sweep.txt"), lines).expect("write set");
}

fn compare(sets: &[PathBuf]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mvml-benchmark"))
        .arg("compare")
        .args(sets)
        .output()
        .expect("run mvml-benchmark compare");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn sets_within_their_bounds_pass_and_a_drifted_set_fails() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare-sets");
    let _ = std::fs::remove_dir_all(&root);
    let bound = mvml_benchmark::spec()
        .end_to_end
        .iter()
        .find(|m| m.name == "rss_mb")
        .map(|m| m.bound)
        .expect("rss_mb is an end-to-end metric");
    let (a, b, c) = (root.join("a"), root.join("b"), root.join("c"));
    write_set(&a, 5.0);
    write_set(&b, 5.0 * (1.0 + bound / 2.0));
    write_set(&c, 5.0 * (1.0 + 2.0 * bound));

    let (ok, table) = compare(&[a.clone(), b.clone()]);
    assert!(ok, "sets within the bound must agree:\n{table}");
    assert!(table.contains("sets agree"));

    let (ok, table) = compare(&[a.clone(), b, c]);
    assert!(!ok, "a set beyond the bound must fail:\n{table}");
    assert!(table.contains("EXCEEDS"));

    let (ok, _) = compare(&[a]);
    assert!(!ok, "one set is a usage error");
}
