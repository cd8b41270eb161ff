//! `np-serve` — the partition service binary.
//!
//! ```text
//! np-serve [--listen ADDR | --stdio]
//!          [--workers N] [--queue N] [--restarts N] [--max-wall-ms MS]
//!          [--metrics-interval-ms MS]
//! ```
//!
//! Speaks the JSON-lines protocol of `np_serve::proto`: one request
//! object per line in, one or more frames per request out (progress
//! frames if requested, then exactly one terminal `result`/`shed`/
//! `error` frame). `--stdio` (the default) serves stdin→stdout, handy
//! for piping; `--listen 127.0.0.1:7199` serves TCP. Clients can pull
//! a metrics snapshot on demand by sending a bare `/metrics` line (or
//! `/trace` for recent spans); `--metrics-interval-ms` additionally
//! pushes the same snapshot to stderr on a timer, for scraping the
//! service without holding a connection.

use np_serve::{ServeConfig, Service};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: np-serve [--listen ADDR | --stdio] \
                     [--workers N] [--queue N] [--restarts N] [--max-wall-ms MS] \
                     [--metrics-interval-ms MS]";

struct Args {
    listen: Option<String>,
    metrics_interval: Option<Duration>,
    cfg: ServeConfig,
}

fn parse_args<I>(args: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut listen = None;
    let mut metrics_interval = None;
    let mut cfg = ServeConfig::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--listen" => listen = Some(iter.next().ok_or("--listen needs an address")?),
            "--stdio" => listen = None,
            "--workers" => {
                let v = iter.next().ok_or("--workers needs a value")?;
                cfg.workers = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--workers expects a positive count, got '{v}'"))?;
            }
            "--queue" => {
                let v = iter.next().ok_or("--queue needs a value")?;
                cfg.queue = v
                    .parse::<usize>()
                    .map_err(|_| format!("--queue expects a count, got '{v}'"))?;
            }
            "--restarts" => {
                let v = iter.next().ok_or("--restarts needs a value")?;
                cfg.default_restarts = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--restarts expects a positive count, got '{v}'"))?;
            }
            "--max-wall-ms" => {
                let v = iter.next().ok_or("--max-wall-ms needs a value")?;
                let ms = v
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--max-wall-ms expects milliseconds, got '{v}'"))?;
                cfg.max_wall = Duration::from_millis(ms);
            }
            "--metrics-interval-ms" => {
                let v = iter.next().ok_or("--metrics-interval-ms needs a value")?;
                let ms = v.parse::<u64>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                    format!("--metrics-interval-ms expects milliseconds, got '{v}'")
                })?;
                metrics_interval = Some(Duration::from_millis(ms));
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unexpected argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Args {
        listen,
        metrics_interval,
        cfg,
    })
}

/// Pushes a metrics frame to stderr every `interval` until the process
/// exits. Detached on purpose: the exporter must never hold the server
/// up, and the thread dies with the process.
fn spawn_metrics_exporter(service: &Arc<Service>, interval: Duration) {
    let service = Arc::clone(service);
    std::thread::spawn(move || loop {
        std::thread::sleep(interval);
        eprintln!("{}", service.metrics_frame());
    });
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let service = Arc::new(Service::new(args.cfg));
    if let Some(interval) = args.metrics_interval {
        spawn_metrics_exporter(&service, interval);
    }
    match args.listen {
        Some(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot listen on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("np-serve listening on {addr}");
            if let Err(e) = np_serve::server::serve_tcp(&service, listener) {
                eprintln!("accept loop failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            np_serve::server::serve_stdio(&service);
            eprintln!("np-serve: stdin closed; {}", service.metrics_frame());
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_stdio() {
        let a = parse(&[]).unwrap();
        assert!(a.listen.is_none());
        assert!(a.metrics_interval.is_none());
        assert_eq!(a.cfg.workers, ServeConfig::default().workers);
    }

    #[test]
    fn metrics_interval_parses_and_rejects_zero() {
        let a = parse(&["--metrics-interval-ms", "250"]).unwrap();
        assert_eq!(a.metrics_interval, Some(Duration::from_millis(250)));
        assert!(parse(&["--metrics-interval-ms", "0"]).is_err());
        assert!(parse(&["--metrics-interval-ms"]).is_err());
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "--listen",
            "127.0.0.1:7199",
            "--workers",
            "2",
            "--queue",
            "8",
            "--restarts",
            "6",
            "--max-wall-ms",
            "500",
        ])
        .unwrap();
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:7199"));
        assert_eq!(a.cfg.workers, 2);
        assert_eq!(a.cfg.queue, 8);
        assert_eq!(a.cfg.default_restarts, 6);
        assert_eq!(a.cfg.max_wall, Duration::from_millis(500));
    }

    #[test]
    fn bad_flags_rejected() {
        for bad in [
            &["--workers", "0"][..],
            &["--restarts", "none"][..],
            &["--max-wall-ms", "0"][..],
            &["--mystery"][..],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
