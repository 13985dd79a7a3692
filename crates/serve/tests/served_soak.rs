//! Soak test for the `sciborq-served` binary: one process answers a long
//! stream of requests without running out of threads.
//!
//! Every stdin line is served on its own worker thread; the server must reap
//! finished workers as it goes. Holding every worker's handle until EOF
//! kept each exited thread's stack mapping alive, and a process died with
//! `failed to spawn thread` after roughly 32,700 requests — so this test
//! pipes well past that point.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const REQUESTS: usize = 40_000;

#[test]
fn served_answers_forty_thousand_requests_in_one_process() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sciborq-served"))
        .args(["--rows", "1000", "--layers", "100", "--log-level", "error"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("start sciborq-served");

    // Feed stdin from its own thread so a full stdout pipe can never
    // deadlock the test against the server.
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || {
        for _ in 0..REQUESTS {
            if writeln!(stdin, r#"{{"cmd":"metrics"}}"#).is_err() {
                break;
            }
        }
        // dropping stdin sends EOF: the server drains its workers and exits
    });

    let stdout = child.stdout.take().expect("piped stdout");
    let mut replies = 0usize;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read a reply line");
        assert!(
            line.contains(r#""status":"ok""#),
            "reply {replies} is not ok: {line}"
        );
        replies += 1;
    }
    writer.join().expect("stdin writer");
    let status = child.wait().expect("wait for sciborq-served");

    assert_eq!(replies, REQUESTS, "one reply per request line");
    assert!(status.success(), "sciborq-served exited with {status}");
}
