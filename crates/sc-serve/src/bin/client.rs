//! `client`: send synthetic digit images to a running `serve` instance
//! (or a `route` front — the wire protocol is identical).
//!
//! ```text
//! cargo run --release -p sc-serve --bin client -- \
//!     --addr 127.0.0.1:7878 --count 20 --seed 3 --model 1 --deadline-ms 250
//! ```
//!
//! Every request addresses model `--model` of the server's registry
//! (default 0); `--deadline-ms` gives each one a latency budget (default 0,
//! no deadline).
//!
//! `--concurrency N` opens N connections on N threads and splits `--count`
//! across them — the smoke-test shape for the event-loop server, whose whole
//! point is owning many concurrent sockets with one I/O thread. Counts are
//! aggregated and the exit code is the worst any connection saw.
//!
//! `--admin OP` switches the client into fleet-operations mode: it sends
//! one admin frame and prints the replica's status snapshot.
//! `OP` is `status`, `drain`, `unload:MODEL`, or `load:MODEL:PATH` (PATH is
//! a compiled plan-store file on the *replica's* filesystem). Mutating ops
//! are authenticated by locality — the replica only honors them from
//! loopback peers, so aim `--addr` at the replica itself, not the router.
//!
//! Exit codes distinguish failure classes for scripting:
//!
//! | code | meaning                                                       |
//! |------|---------------------------------------------------------------|
//! | 0    | every request answered `Ok` (admin mode: op accepted)         |
//! | 1    | transport failure (connect/read/write error, early close)     |
//! | 2    | at least one application error (`APP_ERROR`; admin refusal)   |
//! | 3    | at least one retriable refusal (`OVERLOADED`/`SHUTTING_DOWN`/ |
//! |      | `MODEL_UNAVAILABLE`)                                          |
//! | 4    | at least one `DEADLINE_EXCEEDED`                              |

use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_nn::dataset::render_digit;
use sc_serve::proto::{
    decode_admin_response, decode_response, read_frame, write_admin, write_request_v3, AdminOp,
    ErrorCode, Response,
};
use std::io::BufReader;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const EXIT_TRANSPORT: u8 = 1;
const EXIT_APP_ERROR: u8 = 2;
const EXIT_RETRIABLE: u8 = 3;
const EXIT_DEADLINE: u8 = 4;

/// Everything one connection needs to run its share of the request load.
#[derive(Clone)]
struct RunConfig {
    addr: String,
    model: u16,
    deadline_ms: u32,
    socket_timeout: Duration,
    read_timeout: Duration,
    /// Per-request result lines are printed only single-connection runs;
    /// a 1k-connection smoke would drown in them.
    verbose: bool,
}

/// Runs requests `ids` on one fresh connection. Returns how many answers
/// were both `Ok` and the right digit, how many were `Ok` at all, and the
/// worst failure class seen (0 = clean).
fn run_connection(config: &RunConfig, ids: std::ops::Range<u64>, seed: u64) -> (usize, usize, u8) {
    let stream = match TcpStream::connect(&config.addr) {
        Ok(stream) => stream,
        Err(error) => {
            eprintln!("connect to {} failed: {error}", config.addr);
            return (0, 0, EXIT_TRANSPORT);
        }
    };
    stream
        .set_read_timeout(Some(config.read_timeout))
        .expect("set read timeout");
    stream
        .set_write_timeout(Some(config.socket_timeout))
        .expect("set write timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut correct = 0usize;
    let mut answered = 0usize;
    // Worst failure class seen on this connection.
    let mut exit = 0u8;
    for id in ids {
        let digit = (id % 10) as usize;
        let image = render_digit(digit, &mut rng);
        let start = Instant::now();
        if let Err(error) = write_request_v3(
            &mut writer,
            id,
            config.model,
            config.deadline_ms,
            [1, 28, 28],
            image.as_slice(),
        ) {
            eprintln!("#{id}: send failed: {error}");
            return (correct, answered, EXIT_TRANSPORT);
        }
        match read_frame(&mut reader, decode_response) {
            Ok(Some(Response::Ok { argmax, logits, .. })) => {
                answered += 1;
                let rtt = start.elapsed();
                let hit = usize::from(argmax) == digit;
                correct += usize::from(hit);
                if config.verbose {
                    println!(
                        "#{id}: digit {digit} -> predicted {argmax} ({}) in {:.2}ms, top logit {:.3}",
                        if hit { "ok" } else { "miss" },
                        rtt.as_secs_f64() * 1000.0,
                        logits.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                    );
                }
            }
            Ok(Some(Response::Err { code, message, .. })) => {
                println!("#{id}: server error [{code}]: {message}");
                exit = exit.max(match code {
                    ErrorCode::DeadlineExceeded => EXIT_DEADLINE,
                    ErrorCode::Overloaded
                    | ErrorCode::ShuttingDown
                    | ErrorCode::ModelUnavailable => EXIT_RETRIABLE,
                    ErrorCode::App => EXIT_APP_ERROR,
                });
            }
            Ok(None) => {
                println!("server closed the connection");
                return (correct, answered, EXIT_TRANSPORT.max(exit));
            }
            Err(error) => {
                eprintln!("#{id}: read failed: {error}");
                return (correct, answered, EXIT_TRANSPORT.max(exit));
            }
        }
    }
    (correct, answered, exit)
}

/// Parses the `--admin` operation grammar: `status`, `drain`,
/// `unload:MODEL`, `load:MODEL:PATH`.
fn parse_admin_op(spec: &str) -> AdminOp {
    match spec {
        "status" => AdminOp::Status,
        "drain" => AdminOp::Drain,
        other => {
            if let Some(model) = other.strip_prefix("unload:") {
                AdminOp::UnloadModel {
                    model: model.parse().expect("unload model id"),
                }
            } else if let Some(rest) = other.strip_prefix("load:") {
                let (model, path) = rest
                    .split_once(':')
                    .expect("--admin load needs load:MODEL:PATH");
                AdminOp::LoadModel {
                    model: model.parse().expect("load model id"),
                    path: path.to_string(),
                }
            } else {
                panic!("unknown --admin op {other} (status | drain | unload:ID | load:ID:PATH)")
            }
        }
    }
}

/// Sends one admin frame and prints the replica's status snapshot.
fn run_admin(addr: &str, op: AdminOp, socket_timeout: Duration) -> ExitCode {
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(error) => {
            eprintln!("connect to {addr} failed: {error}");
            return ExitCode::from(EXIT_TRANSPORT);
        }
    };
    stream
        .set_read_timeout(Some(socket_timeout))
        .expect("set read timeout");
    stream
        .set_write_timeout(Some(socket_timeout))
        .expect("set write timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    if let Err(error) = write_admin(&mut writer, &op) {
        eprintln!("admin send failed: {error}");
        return ExitCode::from(EXIT_TRANSPORT);
    }
    let mut reader = BufReader::new(stream);
    match read_frame(&mut reader, decode_admin_response) {
        Ok(Some(response)) => {
            println!(
                "{} generation={} draining={} models={:?}{}{}",
                if response.ok { "ok" } else { "refused" },
                response.generation,
                response.draining,
                response.models,
                if response.message.is_empty() {
                    ""
                } else {
                    ": "
                },
                response.message
            );
            if response.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_APP_ERROR)
            }
        }
        Ok(None) => {
            eprintln!("server closed the connection before answering");
            ExitCode::from(EXIT_TRANSPORT)
        }
        Err(error) => {
            eprintln!("admin read failed: {error}");
            ExitCode::from(EXIT_TRANSPORT)
        }
    }
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut count = 10usize;
    let mut seed = 1u64;
    let mut model = 0u16;
    let mut deadline_ms = 0u32;
    let mut socket_timeout_ms = 10_000u64;
    let mut concurrency = 1usize;
    let mut admin: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--count" => count = value("--count").parse().expect("count"),
            "--seed" => seed = value("--seed").parse().expect("seed"),
            "--model" => model = value("--model").parse().expect("model id"),
            "--deadline-ms" => deadline_ms = value("--deadline-ms").parse().expect("deadline ms"),
            "--socket-timeout-ms" => {
                socket_timeout_ms = value("--socket-timeout-ms").parse().expect("timeout ms");
            }
            "--concurrency" => concurrency = value("--concurrency").parse().expect("concurrency"),
            "--admin" => admin = Some(value("--admin")),
            other => panic!("unknown flag {other}"),
        }
    }
    if let Some(spec) = admin {
        return run_admin(
            &addr,
            parse_admin_op(&spec),
            Duration::from_millis(socket_timeout_ms.max(1)),
        );
    }
    let concurrency = concurrency.clamp(1, count.max(1));

    // A hung server must surface as a typed transport failure, not an
    // indefinitely blocked client: every socket op carries a timeout. The
    // read timeout also covers the per-request deadline (plus slack for the
    // reply to travel), so a deadline-bearing request can never outwait its
    // own budget by much.
    let socket_timeout = Duration::from_millis(socket_timeout_ms.max(1));
    let read_timeout = if deadline_ms > 0 {
        socket_timeout.min(Duration::from_millis(u64::from(deadline_ms) + 250))
    } else {
        socket_timeout
    };
    let config = RunConfig {
        addr,
        model,
        deadline_ms,
        socket_timeout,
        read_timeout,
        verbose: concurrency == 1,
    };

    let started = Instant::now();
    let (correct, answered, exit) = if concurrency == 1 {
        run_connection(&config, 0..count as u64, seed)
    } else {
        // Contiguous id ranges per connection: ids stay globally unique (the
        // per-request result lines stay attributable) and the split covers
        // exactly `count` requests, remainder on the first connections.
        let per = count / concurrency;
        let remainder = count % concurrency;
        let mut workers = Vec::with_capacity(concurrency);
        let mut next_id = 0u64;
        for worker in 0..concurrency {
            let share = per + usize::from(worker < remainder);
            let ids = next_id..next_id + share as u64;
            next_id = ids.end;
            let config = config.clone();
            let seed = seed.wrapping_add(worker as u64);
            workers.push(std::thread::spawn(move || {
                run_connection(&config, ids, seed)
            }));
        }
        workers
            .into_iter()
            .map(|worker| worker.join().expect("client worker panicked"))
            .fold((0, 0, 0u8), |(c, a, e), (wc, wa, we)| {
                (c + wc, a + wa, e.max(we))
            })
    };
    println!(
        "{answered}/{count} requests answered Ok across {concurrency} connection(s) in {:.2}s; \
         {correct} predictions matched the rendered digit (SC accuracy depends on the \
         configuration and training budget)",
        started.elapsed().as_secs_f64()
    );
    ExitCode::from(exit)
}
