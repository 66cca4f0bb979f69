//! The experiment harness: regenerates every table and figure of
//! Blohsfeld, Korus & Seeger (SIGMOD 1999). See DESIGN.md §2 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured results.
//!
//! Run everything through the `selest` binary's `repro` command:
//!
//! ```text
//! cargo run --release -- repro all
//! cargo run --release -- repro fig12 --quick
//! ```

pub mod context;
pub mod figures;
pub mod harness;
pub mod methods;
pub mod oracle;

pub use context::FileContext;
pub use harness::{evaluate, ExperimentReport, Scale, Series};

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: [&str; 19] = [
    "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "tab02", "ext01", "ext02", "ext03", "ext04", "ext05", "ext06",
];

/// Run one experiment by id.
pub fn run_experiment(id: &str, scale: &Scale) -> ExperimentReport {
    match id {
        "fig01" => figures::fig01::run(scale),
        "fig02" => figures::fig02::run(scale),
        "fig03" => figures::fig03::run(scale),
        "fig04" => figures::fig04::run(scale),
        "fig05" => figures::fig05::run(scale),
        "fig06" => figures::fig06::run(scale),
        "fig07" => figures::fig07::run(scale),
        "fig08" => figures::fig08::run(scale),
        "fig09" => figures::fig09::run(scale),
        "fig10" => figures::fig10::run(scale),
        "fig11" => figures::fig11::run(scale),
        "fig12" => figures::fig12::run(scale),
        "tab02" => figures::tab02::run(scale),
        "ext01" => figures::ext01::run(scale),
        "ext02" => figures::ext02::run(scale),
        "ext03" => figures::ext03::run(scale),
        "ext04" => figures::ext04::run(scale),
        "ext05" => figures::ext05::run(scale),
        "ext06" => figures::ext06::run(scale),
        other => panic!("unknown experiment id {other}; known: {ALL_EXPERIMENTS:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_round_trip() {
        // The cheap experiments run through the dispatcher; expensive ones
        // are covered by their own module tests.
        for id in ["fig01", "fig02", "tab02"] {
            let r = run_experiment(id, &Scale::quick());
            assert_eq!(r.id, id);
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        let _ = run_experiment("fig99", &Scale::quick());
    }
}
