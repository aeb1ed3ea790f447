//! Integration tests for the `mvs` command-line binary, driven through the
//! real executable.

use std::process::Command;

fn mvs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mvs"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = mvs().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8 output");
    assert!(text.contains("USAGE"));
    assert!(text.contains("balb"));
    assert!(text.contains("--horizon"));
}

#[test]
fn no_arguments_also_prints_usage() {
    let out = mvs().output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = mvs().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "stderr: {err}");
}

#[test]
fn invalid_option_value_fails() {
    let out = mvs()
        .args(["run", "s1", "balb", "--horizon", "zero"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--horizon"));
}

#[test]
fn unusable_duration_fails_at_parse_time() {
    // `--eval-s inf` used to become `usize::MAX` frames and never return.
    for (flag, bad) in [
        ("--eval-s", "inf"),
        ("--eval-s", "nan"),
        ("--train-s", "-1"),
    ] {
        let out = mvs()
            .args(["run", "s1", "balb", flag, bad])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag} {bad} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{flag} {bad}: stderr: {err}");
        assert!(!err.contains("panicked"), "{flag} {bad}: stderr: {err}");
    }
}

#[test]
fn runs_that_used_to_do_nothing_are_refused() {
    // These used to run zero frames and report success: recall 1.000 over
    // no samples (`run`), recall from the admission pilot (`serve`).
    for (threads_env, args) in [
        (None, &["run", "s1", "balb", "--eval-s", "0.01"][..]),
        (None, &["compare", "s1", "--eval-s", "0.01"]),
        (None, &["serve", "--duration-s", "0.01"]),
        // … `compare` took `--trace` and wrote nothing …
        (None, &["compare", "s1", "--trace", "d"]),
        // … and a mistyped MVS_THREADS silently meant "every CPU".
        (
            Some("abc"),
            &["run", "s2", "balb", "--train-s", "5", "--eval-s", "2"],
        ),
        (Some("0"), &["serve", "--duration-s", "1"]),
    ] {
        let mut command = mvs();
        if let Some(value) = threads_env {
            command.env("MVS_THREADS", value);
        }
        let out = command.args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        let named = threads_env.map_or(args[args.len() - 2], |_| "MVS_THREADS");
        assert!(err.contains(named), "{args:?}: stderr: {err}");
        assert!(!err.contains("panicked"), "{args:?}: stderr: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    }
}

#[test]
fn short_run_reports_metrics() {
    let out = mvs()
        .args([
            "run",
            "s2",
            "balb-ind",
            "--train-s",
            "10",
            "--eval-s",
            "5",
            "--seed",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("object recall"), "stdout: {text}");
    assert!(text.contains("mean latency"));
    assert!(text.contains("per-frame series"));
}

#[test]
fn workload_prints_one_sparkline_per_camera() {
    let out = mvs()
        .args(["workload", "s2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let camera_lines = text
        .lines()
        .filter(|l| l.trim_start().starts_with('c'))
        .count();
    assert_eq!(camera_lines, 2, "stdout: {text}");
}
