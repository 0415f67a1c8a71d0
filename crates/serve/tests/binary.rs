//! The `serve` binary end to end: start it on an ephemeral port, learn the
//! address from its readiness line, drive a cache hit, a spectral solve and
//! a board solve through [`Client`], check the counters in `stats`, then
//! shut it down and require a clean drain — the process acks, exits 0 on its
//! own and prints its `drained` line.

use hotiron_bench::scenario::SolverSpec;
use hotiron_serve::json::Json;
use hotiron_serve::protocol::{FidelityTier, Request, ScenarioSource, SolveRequest};
use hotiron_serve::Client;
use std::io::{BufRead as _, BufReader, Read as _};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the daemon if the test fails before it drains.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn solve(name: &str, solver: Option<SolverSpec>) -> Request {
    Request::Solve(SolveRequest {
        scenario: ScenarioSource::Named(name.into()),
        fidelity: FidelityTier::Fast,
        power_scale: None,
        power_w: None,
        deadline_ms: None,
        blocks: false,
        solver,
    })
}

/// Sends `req`, requires a `200` and returns the solver method it reports.
fn method(client: &mut Client, req: &Request) -> String {
    let resp = client.request(req).expect("answered");
    assert_eq!(resp.get("code").and_then(Json::as_u64), Some(200), "{}", resp.render());
    let method = resp.get("solver").and_then(|s| s.get("method")).and_then(Json::as_str);
    method.expect("solver telemetry").to_owned()
}

fn counter(stats: &Json, section: &str, key: &str) -> u64 {
    let value = stats.get(section).and_then(|s| s.get(key)).and_then(Json::as_u64);
    value.unwrap_or_else(|| panic!("stats lacks {section}.{key}: {}", stats.render()))
}

#[test]
fn serve_binary_solves_counts_and_drains_cleanly() {
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("start the serve binary");
    let mut daemon = Daemon(child);
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("readiness line");
    let addr = ready
        .strip_prefix("hotiron-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected readiness line `{ready}`"))
        .to_owned();

    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..2 {
        method(&mut client, &solve("paper-oil", None));
    }
    let spectral = solve("bare-die-forced-air", Some(SolverSpec::Spectral));
    assert_eq!(method(&mut client, &spectral), "spectral");
    let board = solve("board-duo", Some(SolverSpec::Multigrid));
    assert_eq!(method(&mut client, &board), "mg-cg", "boards route to multigrid");

    let stats = client.request(&Request::Stats).expect("stats");
    assert!(counter(&stats, "cache", "hits") > 0, "the repeated solve hit the circuit cache");
    assert!(counter(&stats, "requests", "solved_spectral") > 0, "a spectral solve was counted");
    assert_eq!(counter(&stats, "requests", "protocol_errors"), 0);
    assert_eq!(counter(&stats, "requests", "failed"), 0);

    let ack = client.request(&Request::Shutdown).expect("shutdown ack");
    assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true), "{}", ack.render());
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll the daemon") {
            break status;
        }
        assert!(Instant::now() < deadline, "the daemon did not exit after its drain");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "the drained daemon exits 0, got {status}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("remaining stdout");
    assert!(rest.contains("hotiron-serve drained"), "no drained line in `{rest}`");
}
