//! The table and figure binaries read `--scale small|paper` and `--seed`
//! and nothing else: any other token, or another scale, exits 2 before a
//! block is simulated, instead of running a configuration nobody asked for.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `exe` with `args` and return its stderr, asserting it exits 2
/// within 5 s having printed nothing on stdout.
fn refused(exe: &str, args: &[&str]) -> String {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bench binary");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("poll bench binary").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{exe} {args:?} still running after 5 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("bench binary output");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(
        output.stdout.is_empty(),
        "{exe} {args:?} printed before refusing"
    );
    stderr
}

#[test]
fn a_misspelled_scale_is_refused_not_run_at_paper_scale() {
    let stderr = refused(env!("CARGO_BIN_EXE_table1"), &["--scale", "smal"]);
    assert!(stderr.contains("\"smal\" for --scale"), "{stderr}");
}

#[test]
fn a_retired_ablation_flag_is_refused() {
    let stderr = refused(env!("CARGO_BIN_EXE_table5"), &["--psi", "0.7"]);
    assert!(stderr.contains("unexpected flag --psi"), "{stderr}");
}
