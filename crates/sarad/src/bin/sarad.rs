//! `sarad` — the standalone service binary.
//!
//! ```text
//! sarad [--socket PATH|HOST:PORT] [--cache-dir DIR] [--workers N] [--queue N]
//!       [--cache-budget BYTES[k|m|g]]
//! ```
//!
//! A `--socket` value containing `':'` is a TCP `host:port` address;
//! anything else is a Unix socket path. Runs until a `shutdown` request
//! arrives on the endpoint. Exits 2 on usage errors, 1 on service
//! failures, with one-line diagnostics.

use sarad::server::parse_budget;
use sarad::ServerOptions;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: sarad [--socket PATH|HOST:PORT] [--cache-dir DIR] [--workers N] [--queue N] \
         [--cache-budget BYTES[k|m|g]]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ServerOptions::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => opts.socket = PathBuf::from(value(&args, &mut i, "--socket")),
            "--cache-dir" => opts.cache_dir = PathBuf::from(value(&args, &mut i, "--cache-dir")),
            "--workers" => {
                opts.workers = value(&args, &mut i, "--workers").parse().unwrap_or_else(|_| {
                    eprintln!("error: --workers expects a positive integer");
                    std::process::exit(2);
                })
            }
            "--queue" => {
                opts.queue = value(&args, &mut i, "--queue").parse().unwrap_or_else(|_| {
                    eprintln!("error: --queue expects a positive integer");
                    std::process::exit(2);
                })
            }
            "--cache-budget" => {
                let raw = value(&args, &mut i, "--cache-budget");
                opts.cache_budget = Some(parse_budget(&raw).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other}");
                usage();
            }
        }
        i += 1;
    }
    let budget =
        opts.cache_budget.map_or_else(|| "unbounded".to_string(), |b| format!("{b} B budget"));
    eprintln!(
        "sarad: listening on {} (cache {}, {budget}, {} workers, queue {})",
        opts.socket.display(),
        opts.cache_dir.display(),
        opts.workers,
        opts.queue
    );
    if let Err(e) = sarad::serve(&opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
