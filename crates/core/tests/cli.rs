//! Exit-code contracts of the `cocoa-run` and `cocoa-serve` binaries for
//! inputs they must refuse: grid-pipeline flags that no longer exist and
//! files written under an older snapshot schema.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use cocoa_core::serve::{client, ServeConfig, Server};

const RUN: &str = env!("CARGO_BIN_EXE_cocoa-run");
const SERVE: &str = env!("CARGO_BIN_EXE_cocoa-serve");

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cocoa-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Rewrites the container's schema version: the little-endian u32 right
/// after the 4-byte `CSNP` magic.
fn relabel_as_schema_4(path: &PathBuf) {
    let mut bytes = std::fs::read(path).expect("read snapshot");
    assert_eq!(&bytes[..4], b"CSNP");
    bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
    std::fs::write(path, bytes).expect("write snapshot");
}

#[test]
fn removed_grid_flags_are_usage_errors() {
    for args in [
        &["--grid-fused"][..],
        &["--grid-precision", "f32"],
        &["--grid-kernel", "simd"],
    ] {
        let out = Command::new(RUN)
            .args(args)
            .output()
            .expect("run cocoa-run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn resuming_a_schema_4_snapshot_exits_5() {
    let dir = scratch_dir("resume");
    let snap = dir.join("half.csnp");
    let status = Command::new(RUN)
        .args(["--robots", "6", "--equipped", "3", "--duration", "60"])
        .args(["--snapshot-at", "30", "--snapshot-out"])
        .arg(&snap)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run cocoa-run");
    assert!(status.success());
    relabel_as_schema_4(&snap);
    let out = Command::new(RUN)
        .arg("--resume")
        .arg(&snap)
        .output()
        .expect("run cocoa-run --resume");
    assert_eq!(out.status.code(), Some(5));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported snapshot schema version 4"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_skips_a_schema_4_job_file_and_recomputes() {
    let dir = scratch_dir("serve-state");
    let spec = "{\"robots\": 6, \"equipped\": 3, \"duration_s\": 60}";
    let body_before = {
        let server = Server::start(ServeConfig {
            quiet: true,
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("server starts");
        let addr = server.local_addr().to_string();
        let response = client::submit(&addr, spec).expect("submit");
        assert_eq!(response.status, 200);
        server.shutdown();
        response.body
    };
    let job = std::fs::read_dir(&dir)
        .expect("state dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("job"))
        .expect("a persisted job");
    relabel_as_schema_4(&job);

    let mut child = Command::new(SERVE)
        .args(["--addr", "127.0.0.1:0", "--state-dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cocoa-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let Some(addr) = line
        .trim()
        .strip_prefix("listening on ")
        .map(str::to_string)
    else {
        let _ = child.kill();
        panic!("unexpected first line {line:?}");
    };
    let response = client::submit(&addr, spec).expect("resubmit");
    assert_eq!(response.status, 200);
    assert_eq!(
        response.cache_status(),
        Some("miss"),
        "stale file not served"
    );
    assert_eq!(response.body, body_before, "recomputed body is identical");
    client::shutdown(&addr).expect("shutdown accepted");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server must start and drain, not fail");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(
        stderr.contains("skipping") && stderr.contains("unsupported snapshot schema version 4"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
