//! Fig. 1 — active bitcoin addresses over time (the paper's motivation
//! chart). Prints the per-window active-address series of the simulated
//! chain plus cumulative distinct addresses, as an ASCII sparkline table.

use bac_bench::{build_full_dataset, print_rows, ExpScale};

/// Blocks per point of the series.
const WINDOW: usize = 25;

fn main() {
    let scale = ExpScale::from_args();
    println!("# Fig. 1 — active addresses over time (window = {WINDOW} blocks)");
    let (sim, _) = build_full_dataset(&scale);

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for chunk in sim.activity().chunks(WINDOW).filter(|c| c.len() == WINDOW) {
        let active: usize = chunk.iter().map(|p| p.active_addresses).sum();
        let txs: usize = chunk.iter().map(|p| p.transactions).sum();
        let height = chunk.last().expect("non-empty chunk").height;
        let cumulative = chunk.last().expect("non-empty chunk").cumulative_addresses;
        series.push(active);
        rows.push(vec![
            height.to_string(),
            active.to_string(),
            txs.to_string(),
            cumulative.to_string(),
        ]);
    }
    print_rows(
        "Fig. 1 series: activity per window",
        &["Height", "Active addrs", "Txs", "Cumulative addrs"],
        &rows,
    );

    // Sparkline of the active-address series.
    let max = series.iter().copied().max().unwrap_or(1).max(1);
    let glyphs = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let line: String = series
        .iter()
        .map(|&v| glyphs[(v * (glyphs.len() - 1)) / max])
        .collect();
    println!("\nactive addresses: {line}");
    println!(
        "shape check (paper: sustained growth in active addresses): first window {} -> last window {}",
        series.first().unwrap_or(&0),
        series.last().unwrap_or(&0)
    );
}
