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

#[test]
fn every_k_taking_subcommand_refuses_k_zero_before_loading_data() {
    // Same contract as `value` above, one process per subcommand: exit 1
    // with the one argument-error line, never a panic (exit 101), and the
    // data paths do not exist, so the refusal precedes any read.
    let missing = temp_path("k0_every_missing.csv");
    let missing = missing.to_str().unwrap();
    let socket = temp_path("k0_every.sock");
    let cases: [(&str, &[&str]); 5] = [
        ("audit", &[]),
        ("contrast", &[]),
        ("shard", &["--shard-index", "0", "--shard-count", "2"]),
        ("merge", &["--inputs", missing]),
        ("serve", &["--socket", socket.to_str().unwrap()]),
    ];
    for (cmd, extra) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_knnshap"))
            .args([cmd, "--train", missing, "--test", missing, "--k", "0"])
            .args(extra)
            .output()
            .expect("spawn knnshap");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some("error: --k 0: expected a positive integer"),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

/// Synthesizes a small train/test pair and poisons test row 1 with a NaN
/// feature; returns the paths (cleaned up with the returned guard).
fn nan_pair(tag: &str) -> (PathBuf, PathBuf, TempFiles) {
    let train = temp_path(&format!("{tag}_train.csv"));
    let test = temp_path(&format!("{tag}_test.csv"));
    knnshap_cli::run([
        "synth",
        "--kind",
        "blobs",
        "--n",
        "30",
        "--dim",
        "3",
        "--classes",
        "2",
        "--seed",
        "4",
        "--out",
        train.to_str().unwrap(),
        "--queries",
        "5",
        "--queries-out",
        test.to_str().unwrap(),
    ])
    .expect("synth");
    let text = std::fs::read_to_string(&test).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let rest = lines[1].split_once(',').unwrap().1.to_string();
    lines[1] = format!("NaN,{rest}");
    std::fs::write(&test, lines.join("\n") + "\n").unwrap();
    let guard = TempFiles(vec![train.clone(), test.clone()]);
    (train, test, guard)
}

#[test]
fn sharded_paths_refuse_non_finite_features() {
    // Every sharded entry runs the estimator's input checks: exit 1 with the
    // unsharded run's message, never a panic (exit 101) deep in a distance sort,
    // and never a plan whose workers would respawn into that panic.
    let (train, test, _guard) = nan_pair("nan");
    let out = temp_path("nan.shard");
    let job = temp_path("nan_job");
    let shard = ["--shard-index", "0", "--shard-count", "2", "--out"];
    let out = out.to_str().unwrap();
    let cases: [(&str, Vec<&str>); 7] = [
        ("shard", [&shard[..], &[out]].concat()),
        (
            "shard",
            [&shard[..], &[out, "--method", "truncated"]].concat(),
        ),
        (
            "shard",
            [
                &shard[..],
                &[out, "--method", "mc-improved", "--perms", "20"],
            ]
            .concat(),
        ),
        ("value", vec!["--shards", "2"]),
        ("value", vec!["--shards", "2", "--method", "truncated"]),
        ("audit", vec!["--shards", "2"]),
        (
            "shard-plan",
            vec!["--shards", "2", "--job", job.to_str().unwrap()],
        ),
    ];
    for (cmd, extra) in cases {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_knnshap"))
            .args([cmd, "--train", train.to_str().unwrap()])
            .args(["--test", test.to_str().unwrap(), "--k", "2"])
            .args(&extra)
            .output()
            .expect("spawn knnshap");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{cmd} {extra:?}: {stderr}");
        assert!(
            stderr.contains("test row 1 contains a NaN/infinite feature"),
            "{cmd} {extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd} {extra:?}: {stderr}");
    }
    assert!(!job.join("plan").exists(), "no plan for a poisoned dataset");
    std::fs::remove_dir_all(&job).ok();
}

#[test]
fn merge_refuses_lsh_like_shard() {
    // `merge --method lsh` used to skip the job-identity check and print a
    // report labelled `method = lsh` over exact shards; the shared --method
    // parser now refuses it with the same explanation `shard` gives.
    let (train, test) = (temp_path("lsh_train.csv"), temp_path("lsh_test.csv"));
    let parts = [temp_path("lsh0.shard"), temp_path("lsh1.shard")];
    let _cleanup = TempFiles(
        [train.clone(), test.clone()]
            .into_iter()
            .chain(parts.iter().cloned())
            .collect(),
    );
    let (t, q) = (train.to_str().unwrap(), test.to_str().unwrap());
    knnshap_cli::run([
        "synth",
        "--kind",
        "blobs",
        "--n",
        "30",
        "--dim",
        "3",
        "--classes",
        "2",
        "--out",
        t,
        "--queries",
        "5",
        "--queries-out",
        q,
    ])
    .expect("synth");
    for (i, p) in parts.iter().enumerate() {
        let index = i.to_string();
        knnshap_cli::run([
            "shard",
            "--train",
            t,
            "--test",
            q,
            "--k",
            "2",
            "--shard-index",
            &index,
            "--shard-count",
            "2",
            "--out",
            p.to_str().unwrap(),
        ])
        .expect("exact shard");
    }
    let inputs = format!("{},{}", parts[0].display(), parts[1].display());
    for cmd in [
        vec!["merge", "--inputs", &inputs],
        vec![
            "shard",
            "--shard-index",
            "0",
            "--shard-count",
            "2",
            "--out",
            &inputs,
        ],
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_knnshap"))
            .args(&cmd)
            .args(["--train", t, "--test", q, "--k", "2", "--method", "lsh"])
            .output()
            .expect("spawn knnshap");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{cmd:?}: {stderr}");
        assert!(stderr.contains("whole-test-set"), "{cmd:?}: {stderr}");
        assert!(stderr.contains("docs/sharding.md"), "{cmd:?}: {stderr}");
    }
    // The same shards still merge under the method they were built with.
    knnshap_cli::run([
        "merge", "--train", t, "--test", q, "--k", "2", "--inputs", &inputs,
    ])
    .expect("exact merge");
}

/// Runs the real binary; returns its exit code and stderr.
fn knnshap_bin(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_knnshap"))
        .args(args)
        .output()
        .expect("spawn knnshap");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Synthesizes a small 3-d train/test pair under `tag`.
fn synth_pair(tag: &str, n: &str) -> (PathBuf, PathBuf, TempFiles) {
    let train = temp_path(&format!("{tag}_train.csv"));
    let test = temp_path(&format!("{tag}_test.csv"));
    knnshap_cli::run([
        "synth",
        "--kind",
        "blobs",
        "--n",
        n,
        "--dim",
        "3",
        "--classes",
        "2",
        "--out",
        train.to_str().unwrap(),
        "--queries",
        "6",
        "--queries-out",
        test.to_str().unwrap(),
    ])
    .expect("synth");
    let guard = TempFiles(vec![train.clone(), test.clone()]);
    (train, test, guard)
}

#[test]
fn out_of_range_parameters_are_refused_not_panicked() {
    // Each of these would panic deep in an estimator (exit 101 with a
    // backtrace) if it got past the estimator's parameter check — or the
    // LSH entry's — which must refuse it with exit 1 and one line naming
    // the parameter.
    let (train, test, _guard) = synth_pair("range", "40");
    let one_row = temp_path("range_one_row.csv");
    std::fs::write(&one_row, "0.1,0.2,0.3,1\n").unwrap();
    let _one_row_guard = TempFiles(vec![one_row.clone()]);
    let (t, q) = (train.to_str().unwrap(), test.to_str().unwrap());
    let eps_refusal = "eps must be positive";
    let mut cases: Vec<(Vec<&str>, &str)> = Vec::new();
    for method in ["truncated", "lsh"] {
        for eps in ["0", "-1", "nan"] {
            cases.push((vec!["--method", method, "--eps", eps], eps_refusal));
        }
    }
    cases.extend([
        (
            vec!["--method", "mc-improved", "--eps", "0"],
            "the heuristic stop needs a positive, finite eps",
        ),
        (
            vec!["--method", "lsh", "--delta", "0"],
            "delta must lie in (0, 1)",
        ),
        (
            vec!["--weight", "inverse", "--weight-param", "nan"],
            "the weight parameter must be finite",
        ),
    ]);
    let data = ["--train", t, "--test", q];
    for (extra, message) in &cases {
        for cmd in ["value", "audit"] {
            let args = [&[cmd][..], &data, extra].concat();
            let (code, stderr) = knnshap_bin(&args);
            assert_eq!(code, Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(message), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
    let lsh_one_row = [
        "value",
        "--train",
        one_row.to_str().unwrap(),
        "--test",
        q,
        "--method",
        "lsh",
    ];
    let (code, stderr) = knnshap_bin(&lsh_one_row);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("needs at least two training points"),
        "{stderr}"
    );

    // The sharded commands share the check: `shard`, `merge` and
    // `shard-plan` refuse before writing anything (`merge` over a valid set
    // of exact shards).
    let job = temp_path("range_job");
    let out = temp_path("range.shard");
    let whole = temp_path("range_whole.shard");
    let _shard_guard = TempFiles(vec![whole.clone()]);
    let (job_s, out_s, whole_s) = (
        job.to_str().unwrap(),
        out.to_str().unwrap(),
        whole.to_str().unwrap(),
    );
    let one_of_one = ["--shard-index", "0", "--shard-count", "1", "--out", whole_s];
    knnshap_cli::run([&["shard"][..], &data, &one_of_one].concat()).expect("exact shard");
    let shard = ["--shard-index", "0", "--shard-count", "2", "--out", out_s];
    let sharded: [(&str, &[&str]); 3] = [
        ("shard", &shard),
        ("merge", &["--inputs", whole_s]),
        ("shard-plan", &["--shards", "2", "--job", job_s]),
    ];
    for (cmd, extra) in sharded {
        for bad in [
            &["--method", "truncated", "--eps", "0"][..],
            &["--weight", "exponential", "--weight-param", "nan"],
        ] {
            let args = [&[cmd][..], &data, extra, bad].concat();
            let (code, stderr) = knnshap_bin(&args);
            assert_eq!(code, Some(1), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(
                stderr.contains(eps_refusal) || stderr.contains("must be finite"),
                "{args:?}: {stderr}"
            );
        }
    }
    assert!(!out.exists(), "no shard file for a refused job");
    assert!(!job.exists(), "no job directory for a refused plan");
}

#[test]
fn unsharded_group_testing_matches_sharded_bytes() {
    // The unsharded path accepts every method the sharded one does, and
    // `value --method group-testing` writes the --shards 3 bytes.
    let (train, test, _guard) = synth_pair("gt_bytes", "30");
    let (direct, sharded) = (temp_path("gt_direct.csv"), temp_path("gt_sharded.csv"));
    let _out_guard = TempFiles(vec![direct.clone(), sharded.clone()]);
    let (t, q) = (train.to_str().unwrap(), test.to_str().unwrap());
    let job = [
        "value",
        "--train",
        t,
        "--test",
        q,
        "--k",
        "3",
        "--method",
        "group-testing",
        "--perms",
        "200",
        "--seed",
        "7",
    ];
    let (code, stderr) = knnshap_bin(&[&job[..], &["--out", direct.to_str().unwrap()]].concat());
    assert_eq!(code, Some(0), "{stderr}");
    let with_shards = ["--shards", "3", "--out", sharded.to_str().unwrap()];
    let (code, stderr) = knnshap_bin(&[&job[..], &with_shards].concat());
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        std::fs::read(&direct).unwrap(),
        std::fs::read(&sharded).unwrap()
    );
}

#[test]
fn weighted_truncation_has_one_refusal_text() {
    let (train, test, _guard) = synth_pair("wtrunc", "20");
    let (t, q) = (train.to_str().unwrap(), test.to_str().unwrap());
    let job = [
        "value",
        "--train",
        t,
        "--test",
        q,
        "--method",
        "truncated",
        "--weight",
        "inverse",
    ];
    let (code, unsharded) = knnshap_bin(&job);
    assert_eq!(code, Some(1), "{unsharded}");
    let (code, sharded) = knnshap_bin(&[&job[..], &["--shards", "2"]].concat());
    assert_eq!(code, Some(1), "{sharded}");
    assert_eq!(
        unsharded.lines().next(),
        Some("error: truncated supports uniform weights only")
    );
    assert_eq!(unsharded, sharded);
}
