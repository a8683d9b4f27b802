//! `gmcc` — the GMC linear algebra compiler.
//!
//! ```text
//! gmcc [FILE] [--emit julia|rust|pseudo] [--metric flops|time] [--check]
//!      [--bind NAME=SIZE[,NAME=SIZE...]] [--plan-store PATH]
//!
//! gmcc serve FILE (--requests RFILE | --listen ADDR)
//!      [--workers N] [--mode compositional|deep]
//!      [--plan-store PATH] [--pre-enumerate] [--queue-capacity N]
//!
//! gmcc request ADDR [RFILE]
//!
//! gmcc workload gen [--preset NAME] [--seed N] [...]
//! gmcc workload describe [TRACE]
//! gmcc workload faults [--seed N] [--panics N] [...]
//! gmcc workload replay [TRACE] [--workers N] [--verify ...]
//!      [--faults PLAN] [--queue-capacity N] [--quick]
//! ```
//!
//! The default mode reads a problem description in the paper's input
//! language (from FILE or stdin), runs the Generalized Matrix Chain
//! algorithm on every assignment and prints generated code with cost
//! annotations. Problems with symbolic dimensions (`Matrix A (n, m)`)
//! are compiled through the `gmc-plan` cache at the sizes given by
//! `--bind`; `--plan-store` warm-starts that cache from a snapshot and
//! saves it back.
//!
//! `serve` starts the serving front door (`gmc-serve`): every
//! assignment is registered once as a named structure, then either a
//! requests file is answered in-process (`--requests`, one
//! `<target> var=size,...` request per line) or a TCP line-protocol
//! listener serves clients (`--listen HOST:PORT`). `request` is the
//! matching client, reading request lines from RFILE or stdin.
//!
//! `workload` generates, inspects and replays synthetic serving
//! traffic traces (see `gmcc workload --help`).

use gmc_cli::{
    compile, run_request, run_serve_batch, run_workload, Emit, Metric, Options, ServeOptions,
};
use std::io::Read;
use std::process::ExitCode;

fn read_input(file: Option<&str>) -> Result<String, String> {
    match file {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
        None => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|_| "cannot read stdin".to_owned())?;
            Ok(s)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]),
        Some("request") => request_main(&args[1..]),
        Some("workload") => ExitCode::from(run_workload(&args[1..])),
        _ => compile_main(&args),
    }
}

fn compile_main(args: &[String]) -> ExitCode {
    let mut file: Option<String> = None;
    let mut options = Options::default();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--emit" => match args.next().map(str::parse::<Emit>) {
                Some(Ok(e)) => options.emit = e,
                Some(Err(e)) => {
                    eprintln!("gmcc: {e}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("gmcc: --emit needs a value");
                    return ExitCode::from(2);
                }
            },
            "--metric" => match args.next().map(str::parse::<Metric>) {
                Some(Ok(m)) => options.metric = m,
                Some(Err(e)) => {
                    eprintln!("gmcc: {e}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("gmcc: --metric needs a value");
                    return ExitCode::from(2);
                }
            },
            "--check" => options.check = true,
            "--bind" => match args.next() {
                Some(spec) => {
                    for part in spec.split(',') {
                        match part.split_once('=').and_then(|(name, value)| {
                            let name = name.trim();
                            let value = value.trim().parse::<usize>().ok()?;
                            (!name.is_empty()).then(|| (name.to_owned(), value))
                        }) {
                            Some(binding) => options.bind.push(binding),
                            None => {
                                eprintln!("gmcc: --bind expects NAME=SIZE, got `{part}`");
                                return ExitCode::from(2);
                            }
                        }
                    }
                }
                None => {
                    eprintln!("gmcc: --bind needs a value (NAME=SIZE[,NAME=SIZE...])");
                    return ExitCode::from(2);
                }
            },
            "--plan-store" => match args.next() {
                Some(path) => options.plan_store = Some(path.to_owned()),
                None => {
                    eprintln!("gmcc: --plan-store needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: gmcc [FILE] [--emit julia|rust|pseudo] [--metric flops|time] \
                     [--check] [--bind NAME=SIZE[,NAME=SIZE...]] [--plan-store PATH]\n\
                     \x20      gmcc serve FILE (--requests RFILE | --listen ADDR) [--workers N] \
                     [--mode compositional|deep] [--plan-store PATH] [--pre-enumerate] \
                     [--queue-capacity N]\n\
                     \x20      gmcc request ADDR [RFILE]  (request lines, or STATS | \
                     METRICS | SLOW | CACHE for introspection)\n\
                     \x20      gmcc workload <gen|describe|faults|replay> [...] \
                     (see gmcc workload --help)"
                );
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_owned());
            }
            other => {
                eprintln!("gmcc: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let input = match read_input(file.as_deref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gmcc: {e}");
            return ExitCode::from(2);
        }
    };

    match compile(&input, &options) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gmcc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve_main(args: &[String]) -> ExitCode {
    let mut file: Option<String> = None;
    let mut requests: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut options = ServeOptions::default();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--requests" => match args.next() {
                Some(path) => requests = Some(path.to_owned()),
                None => {
                    eprintln!("gmcc serve: --requests needs a path");
                    return ExitCode::from(2);
                }
            },
            "--listen" => match args.next() {
                Some(addr) => listen = Some(addr.to_owned()),
                None => {
                    eprintln!("gmcc serve: --listen needs HOST:PORT");
                    return ExitCode::from(2);
                }
            },
            "--workers" => match args.next().map(str::parse::<usize>) {
                Some(Ok(n)) if n > 0 => options.workers = n,
                _ => {
                    eprintln!("gmcc serve: --workers needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--mode" => match args.next() {
                Some("compositional") => options.inference = gmc::InferenceMode::Compositional,
                Some("deep") => options.inference = gmc::InferenceMode::Deep,
                _ => {
                    eprintln!("gmcc serve: --mode expects compositional or deep");
                    return ExitCode::from(2);
                }
            },
            "--plan-store" => match args.next() {
                Some(path) => options.plan_store = Some(path.to_owned()),
                None => {
                    eprintln!("gmcc serve: --plan-store needs a path");
                    return ExitCode::from(2);
                }
            },
            "--pre-enumerate" => options.pre_enumerate = true,
            "--queue-capacity" => match args.next().map(str::parse::<usize>) {
                Some(Ok(n)) if n > 0 => options.queue_capacity = Some(n),
                _ => {
                    eprintln!("gmcc serve: --queue-capacity needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_owned());
            }
            other => {
                eprintln!("gmcc serve: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("gmcc serve: a problem FILE is required");
        return ExitCode::from(2);
    };
    let input = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gmcc serve: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };

    match (requests, listen) {
        (Some(rfile), None) => {
            let request_text = match std::fs::read_to_string(&rfile) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("gmcc serve: cannot read {rfile}: {e}");
                    return ExitCode::from(2);
                }
            };
            match run_serve_batch(&input, &request_text, &options) {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("gmcc serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        (None, Some(addr)) => match gmc_cli::serve_listen(&input, &addr, &options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gmcc serve: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("gmcc serve: pass exactly one of --requests RFILE or --listen ADDR");
            ExitCode::from(2)
        }
    }
}

fn request_main(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut file: Option<String> = None;
    for arg in args {
        if addr.is_none() {
            addr = Some(arg.clone());
        } else if file.is_none() {
            file = Some(arg.clone());
        } else {
            eprintln!("gmcc request: unexpected argument `{arg}`");
            return ExitCode::from(2);
        }
    }
    let Some(addr) = addr else {
        eprintln!("gmcc request: usage: gmcc request ADDR [RFILE]");
        return ExitCode::from(2);
    };
    let requests = match read_input(file.as_deref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gmcc request: {e}");
            return ExitCode::from(2);
        }
    };
    match run_request(&addr, &requests) {
        Ok(replies) => {
            print!("{replies}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gmcc request: {e}");
            ExitCode::FAILURE
        }
    }
}
