//! End-to-end smoke tests for the `knnshap` CLI: `synth` a tiny dataset to
//! CSV, `value` it back through the exact pipeline, and check that the
//! emitted Shapley values are non-empty and finite. Everything runs through
//! `knnshap_cli::run` (the same code path as `main`), no subprocess needed.

use std::path::PathBuf;

/// Unique-ish temp paths per test so parallel test threads don't collide.
fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("knnshap_smoke_{}_{}", std::process::id(), name));
    p
}

struct TempFiles(Vec<PathBuf>);

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[test]
fn synth_then_value_produces_finite_shapley_values() {
    let train = temp_path("train.csv");
    let test = temp_path("test.csv");
    let values = temp_path("values.csv");
    let _cleanup = TempFiles(vec![train.clone(), test.clone(), values.clone()]);

    let synth_report = knnshap_cli::run([
        "synth",
        "--kind",
        "blobs",
        "--n",
        "60",
        "--dim",
        "4",
        "--classes",
        "2",
        "--seed",
        "5",
        "--out",
        train.to_str().unwrap(),
        "--queries",
        "8",
        "--queries-out",
        test.to_str().unwrap(),
    ])
    .expect("synth should succeed");
    assert!(!synth_report.trim().is_empty());
    assert!(train.exists(), "train CSV written");
    assert!(test.exists(), "test CSV written");

    let value_report = knnshap_cli::run([
        "value",
        "--train",
        train.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--k",
        "3",
        "--method",
        "exact",
        "--out",
        values.to_str().unwrap(),
    ])
    .expect("value should succeed");
    assert!(!value_report.trim().is_empty());

    // The CSV side effect holds one finite value per training point, and the
    // efficiency axiom keeps them inside [-1, 1] for a 0/1-utility game.
    let csv = std::fs::read_to_string(&values).expect("values CSV written");
    let mut n_rows = 0usize;
    let mut sum = 0.0f64;
    for line in csv.lines().skip(1) {
        let value: f64 = line
            .rsplit(',')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("non-numeric value in '{line}': {e}"));
        assert!(value.is_finite(), "non-finite Shapley value: {value}");
        assert!(value.abs() <= 1.0 + 1e-9, "implausible magnitude: {value}");
        sum += value;
        n_rows += 1;
    }
    assert_eq!(n_rows, 60, "one Shapley value per training point");
    // Efficiency: values sum to v(N) − v(∅) ∈ [−1, 1], and for a dataset
    // where KNN beats the empty predictor the sum is strictly positive.
    assert!(
        sum.is_finite() && sum.abs() <= 1.0 + 1e-9,
        "efficiency violated: {sum}"
    );
}

#[test]
fn value_reports_summary_on_stdout_path() {
    let train = temp_path("t2_train.csv");
    let test = temp_path("t2_test.csv");
    let _cleanup = TempFiles(vec![train.clone(), test.clone()]);

    knnshap_cli::run([
        "synth",
        "--kind",
        "blobs",
        "--n",
        "30",
        "--dim",
        "3",
        "--classes",
        "3",
        "--seed",
        "11",
        "--out",
        train.to_str().unwrap(),
        "--queries",
        "5",
        "--queries-out",
        test.to_str().unwrap(),
    ])
    .expect("synth should succeed");

    let report = knnshap_cli::run([
        "value",
        "--train",
        train.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--k",
        "1",
        "--method",
        "truncated",
        "--eps",
        "0.1",
    ])
    .expect("value (truncated) should succeed");
    assert!(!report.trim().is_empty(), "empty report");
}

#[test]
fn bad_flags_are_rejected_not_ignored() {
    let err = knnshap_cli::run(["synth", "--frobnicate", "yes", "--out", "/dev/null"])
        .expect_err("unknown flag must error");
    assert!(err.to_string().contains("frobnicate"), "got: {err}");
}

#[test]
fn sharded_value_round_trip_is_byte_identical() {
    // The full operator workflow from docs/sharding.md, end to end through
    // the public CLI: synth → unsharded value → `--shards 3` → per-process
    // shard/merge — every route must produce the same bytes.
    let train = temp_path("sh_train.csv");
    let test = temp_path("sh_test.csv");
    let direct = temp_path("sh_direct.csv");
    let inproc = temp_path("sh_inproc.csv");
    let merged = temp_path("sh_merged.csv");
    let shards: Vec<_> = (0..3)
        .map(|i| temp_path(&format!("sh_{i}.shard")))
        .collect();
    let mut cleanup = vec![
        train.clone(),
        test.clone(),
        direct.clone(),
        inproc.clone(),
        merged.clone(),
    ];
    cleanup.extend(shards.iter().cloned());
    let _cleanup = TempFiles(cleanup);

    knnshap_cli::run([
        "synth",
        "--kind",
        "blobs",
        "--n",
        "50",
        "--dim",
        "4",
        "--classes",
        "2",
        "--seed",
        "3",
        "--out",
        train.to_str().unwrap(),
        "--queries",
        "7",
        "--queries-out",
        test.to_str().unwrap(),
    ])
    .expect("synth should succeed");
    let base = |out: &std::path::Path| -> Vec<String> {
        vec![
            "value".into(),
            "--train".into(),
            train.to_str().unwrap().into(),
            "--test".into(),
            test.to_str().unwrap().into(),
            "--k".into(),
            "3".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ]
    };

    let direct_report = knnshap_cli::run(base(&direct)).expect("unsharded value");
    let mut sharded_args = base(&inproc);
    sharded_args.extend(["--shards".into(), "3".into()]);
    let sharded_report = knnshap_cli::run(sharded_args).expect("value --shards 3");

    // `value --shards 3` is indistinguishable from the unsharded run:
    // same report text, byte-identical CSV (full-precision round-trip
    // formatting makes CSV equality bitwise Shapley equality).
    assert_eq!(
        direct_report.replace(direct.to_str().unwrap(), "X"),
        sharded_report.replace(inproc.to_str().unwrap(), "X"),
        "reports differ only in the --out path"
    );
    assert_eq!(
        std::fs::read(&direct).unwrap(),
        std::fs::read(&inproc).unwrap(),
        "value --shards 3 CSV must match unsharded CSV byte for byte"
    );

    // Multi-process style: one `shard` invocation per shard file, then `merge`.
    for (i, p) in shards.iter().enumerate() {
        knnshap_cli::run([
            "shard",
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--k",
            "3",
            "--shard-index",
            &i.to_string(),
            "--shard-count",
            "3",
            "--out",
            p.to_str().unwrap(),
        ])
        .expect("shard should succeed");
    }
    let inputs = shards
        .iter()
        .map(|p| p.to_str().unwrap())
        .collect::<Vec<_>>()
        .join(",");
    knnshap_cli::run([
        "merge",
        "--train",
        train.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--k",
        "3",
        "--inputs",
        &inputs,
        "--out",
        merged.to_str().unwrap(),
    ])
    .expect("merge should succeed");
    assert_eq!(
        std::fs::read(&direct).unwrap(),
        std::fs::read(&merged).unwrap(),
        "shard/merge CSV must match unsharded CSV byte for byte"
    );
}

#[test]
fn value_refuses_k_zero_before_loading_data() {
    // The data paths do not exist: the refusal must come first, as an
    // argument error with exit 1 — not a panic (exit 101) and not an I/O error.
    let missing = temp_path("k0_missing.csv");
    for method in ["exact", "mc-improved"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_knnshap"))
            .args(["value", "--train", missing.to_str().unwrap()])
            .args(["--test", missing.to_str().unwrap()])
            .args(["--k", "0", "--method", method])
            .output()
            .expect("spawn knnshap");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{method}: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some("error: --k 0: expected a positive integer"),
            "{method}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{method}: {stderr}");
    }
}
