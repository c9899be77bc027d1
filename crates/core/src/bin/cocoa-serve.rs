//! `cocoa-serve` — sweep-as-a-service over plain HTTP/1.1 + JSONL.
//!
//! ```sh
//! # serve (ephemeral port; the bound address is printed on stdout)
//! cargo run --release -p cocoa-core --bin cocoa-serve -- --addr 127.0.0.1:0
//!
//! # submit a spec and tail the streamed telemetry
//! cargo run --release -p cocoa-core --bin cocoa-serve -- \
//!     --submit spec.json --addr 127.0.0.1:7071
//! ```
//!
//! The same binary is both the server and the client, so a round trip
//! needs no curl and no extra tooling — handy offline and in CI.

use std::io::Write;
use std::time::Duration;

use cocoa_core::serve::{client, example_spec, ServeConfig, Server};

const USAGE: &str = "\
cocoa-serve — run CoCoA scenarios as a batch service

USAGE:
    cocoa-serve [OPTIONS]                 start serving
    cocoa-serve --submit SPEC [OPTIONS]   post a spec, tail the stream
    cocoa-serve --stats [OPTIONS]         print server counters
    cocoa-serve --shutdown [OPTIONS]      ask the server to drain
    cocoa-serve --spec-template           print a starter spec

SERVER OPTIONS:
    --addr HOST:PORT    bind address (port 0 = ephemeral)
                                          [default: 127.0.0.1:7071]
    --max-jobs N        concurrent run limit [default: CPU count, max 8]
    --deadline SECS     per-run wall-clock deadline
    --state-dir DIR     persist results; restore them on restart
    --quiet             no per-request log lines on stderr

CLIENT OPTIONS:
    --submit SPEC       path to a spec file ('-' reads stdin)
    --out PATH          write the streamed JSONL here instead of stdout
    --stats             GET /v1/stats and print it
    --shutdown          POST /v1/shutdown
    --addr HOST:PORT    server to talk to    [default: 127.0.0.1:7071]

    -h, --help          print this help

The server prints `listening on HOST:PORT` on stdout once bound, then
serves until SIGTERM/SIGINT or POST /v1/shutdown; in-flight runs drain
to completion before exit. A connection that sends nothing for 5 s is
dropped, so an idle client cannot hold the drain open.

EXIT CODES:
    0   success
    2   usage error
    3   the server rejected the spec (validation)
    4   runtime/transport failure
    6   the run exceeded the server-side deadline
";

const EXIT_USAGE: i32 = 2;
const EXIT_VALIDATION: i32 = 3;
const EXIT_RUNTIME: i32 = 4;
const EXIT_DEADLINE: i32 = 6;

enum Mode {
    Serve,
    Submit(String),
    Stats,
    Shutdown,
    SpecTemplate,
}

struct Args {
    mode: Mode,
    addr: String,
    max_jobs: Option<usize>,
    deadline: Option<Duration>,
    state_dir: Option<std::path::PathBuf>,
    quiet: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Serve,
        addr: "127.0.0.1:7071".into(),
        max_jobs: None,
        deadline: None,
        state_dir: None,
        quiet: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--max-jobs" => {
                let n: usize = value("--max-jobs")?
                    .parse()
                    .map_err(|e| format!("--max-jobs: {e}"))?;
                if n == 0 {
                    return Err("--max-jobs must be at least 1".into());
                }
                args.max_jobs = Some(n);
            }
            "--deadline" => {
                let s: f64 = value("--deadline")?
                    .parse()
                    .map_err(|e| format!("--deadline: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--deadline must be positive".into());
                }
                args.deadline = Some(Duration::from_secs_f64(s));
            }
            "--state-dir" => args.state_dir = Some(value("--state-dir")?.into()),
            "--quiet" => args.quiet = true,
            "--submit" => args.mode = Mode::Submit(value("--submit")?),
            "--out" => args.out = Some(value("--out")?),
            "--stats" => args.mode = Mode::Stats,
            "--shutdown" => args.mode = Mode::Shutdown,
            "--spec-template" => args.mode = Mode::SpecTemplate,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return EXIT_USAGE;
        }
    };
    match std::mem::replace(&mut args.mode, Mode::Serve) {
        Mode::SpecTemplate => {
            print!("{}", example_spec());
            0
        }
        Mode::Stats => match client::get(&args.addr, "/v1/stats") {
            Ok(response) => {
                print!("{}", response.body_str());
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                EXIT_RUNTIME
            }
        },
        Mode::Shutdown => match client::shutdown(&args.addr) {
            Ok(_) => {
                eprintln!("server at {} is draining", args.addr);
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                EXIT_RUNTIME
            }
        },
        Mode::Submit(spec_path) => run_submit(&args, &spec_path),
        Mode::Serve => run_serve(args),
    }
}

fn run_submit(args: &Args, spec_path: &str) -> i32 {
    let spec = if spec_path == "-" {
        let mut text = String::new();
        match std::io::Read::read_to_string(&mut std::io::stdin(), &mut text) {
            Ok(_) => text,
            Err(e) => {
                eprintln!("error: cannot read stdin: {e}");
                return EXIT_RUNTIME;
            }
        }
    } else {
        match std::fs::read_to_string(spec_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {spec_path}: {e}");
                return EXIT_RUNTIME;
            }
        }
    };
    // Tail the stream to --out (or stdout) as lines arrive.
    let mut file_out;
    let mut stdout_out;
    let out: &mut dyn Write = match &args.out {
        Some(path) => {
            file_out = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot create {path}: {e}");
                    return EXIT_RUNTIME;
                }
            };
            &mut file_out
        }
        None => {
            stdout_out = std::io::stdout();
            &mut stdout_out
        }
    };
    let response = match client::submit_tailed(&args.addr, &spec, out) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_RUNTIME;
        }
    };
    match response.status {
        200 => {
            let cache = response.cache_status().unwrap_or("?").to_string();
            let fingerprint = response
                .header("X-Cocoa-Fingerprint")
                .unwrap_or("?")
                .to_string();
            match response.metrics() {
                Ok(metrics) => eprintln!(
                    "run {fingerprint} ({cache}): mean error {:.2} m, team energy {:.0} J",
                    metrics.mean_error_over_time(),
                    metrics.energy.total_j()
                ),
                Err(e) => {
                    eprintln!("error: response carried no decodable metrics: {e}");
                    return EXIT_RUNTIME;
                }
            }
            0
        }
        400 => {
            eprintln!("error: server rejected the spec:\n{}", response.body_str());
            EXIT_VALIDATION
        }
        504 => {
            eprintln!("error: run exceeded the server deadline");
            EXIT_DEADLINE
        }
        status => {
            eprintln!("error: server returned {status}:\n{}", response.body_str());
            EXIT_RUNTIME
        }
    }
}

fn run_serve(args: Args) -> i32 {
    cocoa_signal::install_shutdown_handler();
    let mut cfg = ServeConfig {
        addr: args.addr,
        job_deadline: args.deadline,
        state_dir: args.state_dir,
        quiet: args.quiet,
        ..ServeConfig::default()
    };
    if let Some(n) = args.max_jobs {
        cfg.max_jobs = n;
    }
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_RUNTIME;
        }
    };
    // Scripts scrape this line for the ephemeral port, so it goes to
    // stdout and is flushed immediately.
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.wait();
    0
}
