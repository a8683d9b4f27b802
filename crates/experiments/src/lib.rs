//! Experiment drivers reproducing every table and figure of the CGO'18
//! GMC paper's evaluation (Sec. 4).
//!
//! * [`generator`] — the random test-problem generator (paper protocol).
//! * [`harness`] — compiles each chain with GMC + the nine baselines and
//!   costs or executes the resulting programs.
//! * [`report`] — text rendering of the Fig. 8 / Fig. 9 data.
//! * [`gentime`] — the generation-time experiment.
//!
//! Runnable binaries (README § Trying it shows how to run them):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig8` | average speedup of GMC over each baseline |
//! | `fig9` | per-problem execution times, sorted by GMC time |
//! | `table1` | example kernel patterns, constraints and costs |
//! | `table2` | the ten implementations of `A⁻¹ B Cᵀ` |
//! | `sec33` | the FLOPs-vs-time `ABCDE` example |
//! | `gen_time` | GMC generation-time statistics |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod gentime;
pub mod harness;
pub mod report;

/// Tiny command-line flag parsing for the experiment binaries
/// (`--name value` pairs and boolean `--flag`s).
pub mod args {
    /// Returns the value following `--name`, if present.
    pub fn opt(name: &str) -> Option<String> {
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            if a == format!("--{name}") {
                return args.next();
            }
        }
        None
    }

    /// Returns the value following `--name` parsed, or `default`.
    pub fn opt_or<T: std::str::FromStr>(name: &str, default: T) -> T {
        opt(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Whether the boolean flag `--name` is present.
    pub fn flag(name: &str) -> bool {
        std::env::args().any(|a| a == format!("--{name}"))
    }
}
