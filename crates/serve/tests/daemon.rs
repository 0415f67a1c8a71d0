//! End-to-end daemon tests over real TCP connections: solve reports,
//! wire-level coalescing, both shed paths, a seeded malformed-frame fuzz
//! (mirroring `verify::fuzz`'s seeding idiom), and graceful drain.

use hotiron_serve::json::Json;
use hotiron_serve::protocol::{
    read_frame, write_frame, FidelityTier, Request, ScenarioSource, SolveRequest, MAX_FRAME_BYTES,
};
use hotiron_serve::{spawn, Client, ServerConfig};
use rand::{Rng, SeedableRng, StdRng};
use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

fn solve(name: &str) -> Request {
    Request::Solve(SolveRequest {
        scenario: ScenarioSource::Named(name.into()),
        fidelity: FidelityTier::Fast,
        power_scale: None,
        power_w: None,
        deadline_ms: None,
        blocks: true,
        solver: None,
    })
}

fn code(resp: &Json) -> u64 {
    resp.get("code").and_then(Json::as_u64).expect("response carries a code")
}

/// A `[power] source = uniform` scenario on a large grid with plain CG — a
/// deliberately slow solve that keeps a worker busy for the shed tests.
fn slow_inline() -> Request {
    let scn = "[scenario]\nname = slow\n[die]\nplan = uniform\nwidth = 0.016\nheight = 0.016\n\
               [grid]\nrows = 192\ncols = 192\n[stack]\nlayer = silicon silicon 5e-4\n\
               layer = spreader copper 1e-3\ntop = lumped 0.8 20\n[power]\nsource = uniform 30\n\
               [solve]\nsolver = cg\n";
    Request::Solve(SolveRequest {
        scenario: ScenarioSource::Inline(scn.into()),
        fidelity: FidelityTier::Paper,
        power_scale: None,
        power_w: None,
        deadline_ms: None,
        blocks: false,
        solver: None,
    })
}

#[test]
fn daemon_answers_solves_with_block_reports_and_stats() {
    let handle = spawn(ServerConfig::default()).expect("bind");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let resp = client.request(&solve("athlon-hotspot")).expect("solve");
    assert_eq!(code(&resp), 200, "{}", resp.render());
    assert_eq!(resp.get("cache").and_then(Json::as_str), Some("miss"));
    let blocks = resp.get("blocks").expect("per-block report");
    let sched = blocks.get("sched").and_then(Json::as_f64).expect("sched block");
    let mem = blocks.get("mem_ctl").and_then(Json::as_f64).expect("mem_ctl block");
    assert!(sched > mem, "powered scheduler runs hotter than the idle DDR interface");
    assert_eq!(
        resp.get("solver").and_then(|s| s.get("converged")).and_then(Json::as_bool),
        Some(true)
    );

    // Same request on the same connection: served straight from the LRU.
    let again = client.request(&solve("athlon-hotspot")).expect("solve again");
    assert_eq!(again.get("cache").and_then(Json::as_str), Some("hit"));

    let stats = client.request(&Request::Stats).expect("stats");
    assert_eq!(code(&stats), 200);
    let req = stats.get("requests").expect("requests section");
    assert_eq!(req.get("solved").and_then(Json::as_u64), Some(2));
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(
        stats.get("latency_ms").and_then(|l| l.get("count")).and_then(Json::as_u64),
        Some(2)
    );

    handle.shutdown_and_join();
}

#[test]
fn spectral_solves_are_served_counted_and_binned_separately() {
    let handle = spawn(ServerConfig::default()).expect("bind");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let mut req = solve("bare-die-forced-air");
    if let Request::Solve(s) = &mut req {
        s.solver = Some(hotiron_bench::scenario::SolverSpec::Spectral);
    }
    for _ in 0..2 {
        let resp = client.request(&req).expect("solve");
        assert_eq!(code(&resp), 200, "{}", resp.render());
        assert_eq!(
            resp.get("solver").and_then(|s| s.get("method")).and_then(Json::as_str),
            Some("spectral"),
            "{}",
            resp.render()
        );
    }

    // Spectral against an ineligible stack: 422 naming the reason, not 500.
    let mut bad = solve("paper-oil");
    if let Request::Solve(s) = &mut bad {
        s.solver = Some(hotiron_bench::scenario::SolverSpec::Spectral);
    }
    let resp = client.request(&bad).expect("answered");
    assert_eq!(code(&resp), 422, "{}", resp.render());
    let msg = resp.get("error").and_then(Json::as_str).expect("error message");
    assert!(msg.contains("spectral solver ineligible"), "{msg}");

    let stats = client.request(&Request::Stats).expect("stats");
    let req_section = stats.get("requests").expect("requests section");
    assert_eq!(req_section.get("solved_spectral").and_then(Json::as_u64), Some(2));
    let by_path = stats.get("latency_by_path_ms").expect("per-path latency section");
    assert_eq!(
        by_path.get("spectral").and_then(|p| p.get("count")).and_then(Json::as_u64),
        Some(2),
        "{}",
        stats.render()
    );
    let rc = stats.get("response_cache").expect("spectral response cache section");
    assert!(rc.get("misses").and_then(Json::as_u64).unwrap_or(0) >= 1, "{}", stats.render());

    handle.shutdown_and_join();
}

#[test]
fn concurrent_identical_requests_assemble_one_circuit_across_connections() {
    const N: usize = 8;
    let handle = spawn(ServerConfig { workers: N, ..ServerConfig::default() }).expect("bind");
    let addr = handle.addr().to_string();
    let barrier = Arc::new(Barrier::new(N));
    let threads: Vec<_> = (0..N)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                barrier.wait();
                let resp = client.request(&solve("paper-oil")).expect("solve");
                assert_eq!(code(&resp), 200, "{}", resp.render());
                resp.get("cache").and_then(Json::as_str).unwrap().to_owned()
            })
        })
        .collect();
    let dispositions: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    let c = handle.engine().cache().counters();
    assert_eq!(c.misses, 1, "one circuit build for {N} wire requests: {dispositions:?}");
    assert_eq!(dispositions.iter().filter(|d| *d == "miss").count(), 1);
    assert_eq!(dispositions.iter().filter(|d| *d == "coalesced" || *d == "hit").count(), N - 1);
    handle.shutdown_and_join();
}

#[test]
fn oversized_inline_grid_is_422_and_the_daemon_keeps_answering() {
    let handle = spawn(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    // Unbounded, this grid's allocation aborted the whole process.
    let scn = "[scenario]\nname = huge\n[die]\nplan = uniform\nwidth = 0.016\nheight = 0.016\n\
               [grid]\nrows = 20000\ncols = 20000\n[stack]\nlayer = silicon silicon 5e-4\n\
               top = lumped 0.8 20\n[power]\nsource = uniform 30\n";
    let huge = Request::Solve(SolveRequest {
        scenario: ScenarioSource::Inline(scn.into()),
        fidelity: FidelityTier::Paper,
        power_scale: None,
        power_w: None,
        deadline_ms: None,
        blocks: false,
        solver: None,
    });
    let resp = client.request(&huge).expect("answered");
    assert_eq!(code(&resp), 422, "{}", resp.render());
    let msg = resp.get("error").and_then(Json::as_str).expect("error message");
    assert!(msg.contains("line 8") && msg.contains("`rows` must lie in"), "{msg}");

    let resp = client.request(&solve("paper-oil")).expect("answered after the 422");
    assert_eq!(code(&resp), 200, "{}", resp.render());

    handle.shutdown_and_join();
}

#[test]
fn overload_sheds_queue_full_and_deadline_but_always_answers() {
    let handle = spawn(ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() })
        .expect("bind");
    let addr = handle.addr().to_string();

    // A: occupy the single worker with a slow solve (frame written, response
    // not yet read).
    let mut conn_a = TcpStream::connect(&addr).expect("connect A");
    write_frame(&mut conn_a, slow_inline().to_json().render().as_bytes()).expect("send A");
    // Give the worker time to pop A so the queue is empty again.
    thread::sleep(Duration::from_millis(200));

    // D: queued behind A with a 1 ms deadline it cannot possibly meet.
    let mut conn_d = TcpStream::connect(&addr).expect("connect D");
    let deadline_req = Request::Solve(SolveRequest {
        scenario: ScenarioSource::Named("paper-air".into()),
        fidelity: FidelityTier::Fast,
        power_scale: None,
        power_w: None,
        deadline_ms: Some(1),
        blocks: false,
        solver: None,
    });
    write_frame(&mut conn_d, deadline_req.to_json().render().as_bytes()).expect("send D");
    thread::sleep(Duration::from_millis(50));

    // C: the queue already holds D, so admission sheds immediately.
    let mut conn_c = Client::connect(&addr).expect("connect C");
    let resp_c = conn_c.request(&solve("paper-air")).expect("C answered");
    assert_eq!(code(&resp_c), 503, "{}", resp_c.render());
    assert_eq!(resp_c.get("shed").and_then(Json::as_str), Some("queue-full"));

    // Nothing hangs: A completes, D is shed for its deadline.
    let resp_a = read_frame(&mut conn_a, MAX_FRAME_BYTES).expect("A answered");
    let resp_a = Json::parse(std::str::from_utf8(&resp_a).unwrap()).unwrap();
    assert_eq!(code(&resp_a), 200, "{}", resp_a.render());
    let resp_d = read_frame(&mut conn_d, MAX_FRAME_BYTES).expect("D answered");
    let resp_d = Json::parse(std::str::from_utf8(&resp_d).unwrap()).unwrap();
    assert_eq!(code(&resp_d), 503, "{}", resp_d.render());
    assert_eq!(resp_d.get("shed").and_then(Json::as_str), Some("deadline"));

    let stats = conn_c.request(&Request::Stats).expect("stats");
    let req = stats.get("requests").expect("requests section");
    assert_eq!(req.get("shed_queue_full").and_then(Json::as_u64), Some(1));
    assert_eq!(req.get("shed_deadline").and_then(Json::as_u64), Some(1));

    handle.shutdown_and_join();
}

/// Mirrors `verify::fuzz`: a fixed base seed XOR the case index, so any
/// failure names a reproducible case.
#[test]
fn malformed_frames_are_rejected_without_wedging_the_daemon() {
    const BASE_SEED: u64 = 0x5EED_F00D;
    const CASES: u64 = 16;
    let handle = spawn(ServerConfig::default()).expect("bind");
    let addr = handle.addr().to_string();

    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(BASE_SEED ^ case);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        match rng.gen_range(0..5u32) {
            // Valid frame, garbage (often non-utf8) payload.
            0 => {
                let len = rng.gen_range(1..64usize);
                let junk: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
                write_frame(&mut stream, &junk).expect("send junk");
                let resp = read_frame(&mut stream, MAX_FRAME_BYTES).expect("answered");
                let resp = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
                assert_eq!(code(&resp), 400, "case {case}: {}", resp.render());
                // Frame alignment survives: the connection still serves.
                write_frame(&mut stream, br#"{"kind":"stats"}"#).expect("send stats");
                let stats = read_frame(&mut stream, MAX_FRAME_BYTES).expect("still alive");
                let stats = Json::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
                assert_eq!(code(&stats), 200, "case {case}");
            }
            // Valid JSON, invalid request document.
            1 => {
                let doc = match rng.gen_range(0..3u32) {
                    0 => r#"{"kind":"dance"}"#.to_owned(),
                    1 => r#"{"kind":"solve"}"#.to_owned(),
                    _ => format!(r#"{{"kind":"solve","scenario":"x","deadline_ms":{}}}"#, -1),
                };
                write_frame(&mut stream, doc.as_bytes()).expect("send bad request");
                let resp = read_frame(&mut stream, MAX_FRAME_BYTES).expect("answered");
                let resp = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
                assert_eq!(code(&resp), 400, "case {case}: {}", resp.render());
            }
            // Oversized declared length: explicit 413, then close.
            2 => {
                let declared = MAX_FRAME_BYTES as u32 + 1 + rng.gen::<u32>() % 1024;
                stream.write_all(&declared.to_be_bytes()).expect("send prefix");
                stream.flush().expect("flush");
                let resp = read_frame(&mut stream, MAX_FRAME_BYTES).expect("answered");
                let resp = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
                assert_eq!(code(&resp), 413, "case {case}: {}", resp.render());
                assert!(
                    read_frame(&mut stream, MAX_FRAME_BYTES).is_err(),
                    "case {case}: connection closes after an unframeable stream"
                );
            }
            // Truncated frame: promise N bytes, send fewer, half-close.
            3 => {
                let declared = rng.gen_range(8..128u32);
                let short = rng.gen_range(0..declared) as usize;
                stream.write_all(&declared.to_be_bytes()).expect("send prefix");
                stream.write_all(&vec![b'x'; short]).expect("send partial");
                stream.flush().expect("flush");
                stream.shutdown(Shutdown::Write).expect("half-close");
                let resp = read_frame(&mut stream, MAX_FRAME_BYTES).expect("answered");
                let resp = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
                assert_eq!(code(&resp), 400, "case {case}: {}", resp.render());
            }
            // Deeply nested JSON: parser depth bound, not a stack overflow.
            _ => {
                let depth = rng.gen_range(40..200usize);
                let doc = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
                write_frame(&mut stream, doc.as_bytes()).expect("send deep");
                let resp = read_frame(&mut stream, MAX_FRAME_BYTES).expect("answered");
                let resp = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
                assert_eq!(code(&resp), 400, "case {case}: {}", resp.render());
            }
        }
    }

    // The daemon took every abuse case and still serves clean requests.
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client.request(&solve("paper-air")).expect("solve");
    assert_eq!(code(&resp), 200);
    let stats = client.request(&Request::Stats).expect("stats");
    let protocol_errors = stats
        .get("requests")
        .and_then(|r| r.get("protocol_errors"))
        .and_then(Json::as_u64)
        .expect("protocol_errors counter");
    assert!(protocol_errors >= CASES, "every fuzz case was counted: {protocol_errors}");

    handle.shutdown_and_join();
}

#[test]
fn drain_finishes_inflight_work_then_refuses_new_connections() {
    let handle = spawn(ServerConfig::default()).expect("bind");
    let addr = handle.addr().to_string();

    // Solves racing the drain must each end terminally: a report, an
    // explicit draining shed, or — only once the drain has begun closing
    // idle connections — a connection close. Never a hang.
    let racers: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let names = ["paper-air", "paper-oil", "athlon-hotspot", "bare-die-forced-air"];
                let mut completed = 0u64;
                loop {
                    match client.request(&solve(names[i])) {
                        Ok(resp) => {
                            let c = code(&resp);
                            assert!(c == 200 || c == 503, "terminal answer, got {c}");
                            completed += 1;
                        }
                        // The drain closed this connection between requests.
                        Err(_) => break completed,
                    }
                }
            })
        })
        .collect();
    // Let the racers get solves in flight before pulling the plug.
    thread::sleep(Duration::from_millis(150));

    let mut client = Client::connect(&addr).expect("connect");
    let ack = client.request(&Request::Shutdown).expect("shutdown ack");
    assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));

    for r in racers {
        let completed = r.join().expect("racer exited cleanly, not hung");
        assert!(completed > 0, "every racer completed work before the drain");
    }

    // join returns — acceptor, workers and connections all exited.
    handle.join();
    assert!(TcpStream::connect(&addr).is_err(), "the drained daemon no longer accepts connections");
}
