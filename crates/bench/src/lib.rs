//! Experiment harness for the GDSII-Guard reproduction: the NSGA-II
//! budget of the paper-evaluation run and a tiny ASCII scatter plotter
//! for Pareto fronts.
//!
//! The binaries in `src/bin/`:
//!
//! | Binary | Job |
//! |---|---|
//! | `repro` | the paper's evaluation (Table II, Fig. 4, Fig. 5, §IV-D runtime, attack battery, ablations) from one in-process sweep |
//! | `bench_suite` | the bench harness: explore rows over the design matrix, each a differential check |

pub mod plot;

use gdsii_guard::Nsga2Params;

/// NSGA-II budget of `repro`'s explores: a thorough exploration (about
/// 1.9k–2.7k unique implementations per Fig. 5 design). The incremental
/// [`gdsii_guard::pipeline::EvalEngine`] keeps this cheap — operator
/// edits and Phase-A plans amortize across the run, so the twelve-design
/// sweep still finishes in minutes. `bench_suite` shares its seed.
///
/// `threads` stays on auto (0 = the machine's available parallelism):
/// candidate evaluation is CPU-bound, so spawning more workers than
/// hardware threads only adds queue contention and preemption stalls —
/// on a single-core runner a pinned 8-worker replay measured ~1.7x
/// slower than the same replay sized to the machine. Each worker's
/// Phase B runs serially on that worker's thread.
pub const GG_GA_PARAMS: Nsga2Params = Nsga2Params::builder()
    .population(24)
    .generations(128)
    .seed(0x6D51)
    .threads(0)
    .build();
