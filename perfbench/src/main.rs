//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Hosts a fresh Galloper store in-process, drives one workload for
//! `--seconds`, checks every byte it reads back, and prints one JSON
//! line: the end-to-end metrics (`--trace 0`) or the per-layer
//! breakdown from a paired untraced/traced run (`--trace 1`). See
//! `README.md` beside this crate for the workloads and metrics.

mod codec;
mod run;
mod serve;
mod stats;
mod timed;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{Args, Sizes, Workload};

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        sizes: Sizes::FULL,
    })
}

/// The run's private state directory under the working directory,
/// removed when the run ends however it ends.
struct StateDir(PathBuf);

impl StateDir {
    const PARENT: &'static str = ".perfbench-state";

    fn create() -> Result<StateDir, String> {
        let dir = Path::new(StateDir::PARENT).join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("state dir: {e}"))?;
        Ok(StateDir(dir))
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(StateDir::PARENT);
    }
}

/// The git revision of the working directory, read from `.git` when
/// there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} kernel={} pool_threads={} nproc={} io_mode={} git_rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        galloper_gf::kernel::active().name(),
        galloper_linalg::pool::global_pool().max_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        galloper_cli::IoMode::from_env().as_str(),
        git_rev(),
    );
    // How much CPU time the hypervisor gave to other guests: on a
    // shared host it explains runs that read slow.
    let (s0, t0) = stats::steal_ticks();
    let result = StateDir::create().and_then(|state| {
        if args.trace {
            run::run_traced(&args, &state.0)
        } else {
            run::run_e2e(&args, &state.0)
        }
    });
    let (s1, t1) = stats::steal_ticks();
    println!(
        "# cpu_steal_share={:.4}",
        (s1 - s0) as f64 / (t1 - t0).max(1) as f64
    );
    match result {
        Ok(report) => {
            println!("{}", report.render());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: run failed its checks");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload get-degraded --seed 42 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::GetDegraded);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 20.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload file-codec --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload file-codec --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv(
            "--workload file-codec --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
