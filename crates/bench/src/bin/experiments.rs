//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p pcc-bench --bin experiments -- all
//! cargo run --release -p pcc-bench --bin experiments -- fig8a
//! cargo run --release -p pcc-bench --bin experiments -- fig2 --probe
//! PCC_POINTS=20000 PCC_FRAMES=9 cargo run --release -p pcc-bench --bin experiments -- summary
//! ```
//!
//! Subcommands: `table1 fig2 fig3a fig3b fig8a fig8b fig8c fig9 fig10b
//! powermode mbsearch summary csv decode gpcc_modes all`. Pass `--probe`
//! (or set `PCC_PROBE=1`) to record real per-stage timings with
//! `pcc-probe` and print the measured stage table after the experiments.

use pcc_bench::{figures, Scale};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let probe = if let Some(i) = args.iter().position(|a| a == "--probe") {
        args.remove(i);
        pcc_probe::set_enabled(true);
        true
    } else {
        pcc_probe::enabled()
    };
    if probe {
        let _ = pcc_probe::take_report(); // drop anything recorded before the run
    }
    let which = args.first().map(String::as_str).unwrap_or("all");
    let scale = Scale::from_env();
    eprintln!(
        "# scale: {} points x {} frames per video (set PCC_POINTS / PCC_FRAMES to change)\n",
        scale.points, scale.frames
    );

    let needs_fig8 =
        matches!(which, "fig8a" | "fig8b" | "fig8c" | "summary" | "csv" | "decode" | "all");
    let fig8_data = needs_fig8.then(|| figures::fig8_reports(scale));

    let mut ran = false;
    let mut run = |name: &str, text: String| {
        ran = true;
        println!("==== {name} ====");
        println!("{text}");
    };

    if matches!(which, "table1" | "all") {
        run("table1", figures::table1());
    }
    if matches!(which, "fig2" | "all") {
        run("fig2", figures::fig2(scale));
    }
    if matches!(which, "fig3a" | "all") {
        run("fig3a", figures::fig3a(scale));
    }
    if matches!(which, "fig3b" | "all") {
        run("fig3b", figures::fig3b(scale));
    }
    if let Some(data) = &fig8_data {
        if matches!(which, "fig8a" | "all") {
            run("fig8a", figures::fig8a(scale, data));
        }
        if matches!(which, "fig8b" | "all") {
            run("fig8b", figures::fig8b(scale, data));
        }
        if matches!(which, "fig8c" | "all") {
            run("fig8c", figures::fig8c(data));
        }
    }
    if matches!(which, "fig9" | "all") {
        run("fig9", figures::fig9(scale));
    }
    if matches!(which, "gpcc_modes" | "all") {
        run("gpcc_modes", figures::gpcc_modes(scale));
    }
    if let Some(data) = &fig8_data {
        if matches!(which, "decode" | "all") {
            run("decode", figures::decode_latency(scale, data));
        }
    }
    if matches!(which, "fig10b" | "all") {
        run("fig10b", figures::fig10b(scale));
    }
    if matches!(which, "powermode" | "all") {
        run("powermode", figures::powermode(scale));
    }
    if matches!(which, "mbsearch" | "all") {
        run("mbsearch", figures::mb_full_search(scale));
    }
    if let Some(data) = &fig8_data {
        if matches!(which, "summary" | "all") {
            run("summary", figures::summary(scale, data));
        }
        if which == "csv" {
            run("csv", figures::csv(scale, data));
        }
    }

    if !ran {
        eprintln!(
            "unknown experiment '{which}'; available: table1 fig2 fig3a fig3b fig8a fig8b fig8c fig9 fig10b powermode mbsearch summary csv decode gpcc_modes all"
        );
        std::process::exit(2);
    }

    if probe {
        let report = pcc_probe::take_report();
        println!("==== probe ====");
        if report.is_empty() {
            println!("(no spans recorded)");
        } else {
            println!("{}", report.table());
        }
    }
}
