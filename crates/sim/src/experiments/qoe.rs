//! Figures 12–18 and Table 3: system QoE across network types.

use super::ExperimentBudget;
use crate::report::{fmt_f, Figure, Series, Table};
use crate::session::{FecMode, Scheme, SessionConfig, SessionResult, SessionRunner};
use crate::sweep;
use nerve_abr::fec_table::FecTable;
use nerve_abr::qoe::QualityMaps;
use nerve_core::DegradationLadder;
use nerve_net::trace::{NetworkKind, NetworkTrace};

/// One sweep unit: a single (trace, seed, scheme) session on a network
/// kind. Pure function of its arguments — the parallel sweep relies on
/// that. Returns (qoe, recovered fraction, recovered-frame qoe).
fn run_unit(
    budget: &ExperimentBudget,
    maps: &QualityMaps,
    kind: NetworkKind,
    scheme: &Scheme,
    loss_override: Option<f64>,
    t: usize,
) -> (f64, f64, f64) {
    let mut trace =
        NetworkTrace::generate(kind, budget.seed.wrapping_add(t as u64 * 131)).downscaled(1.5);
    if let Some(l) = loss_override {
        trace.loss_rate = l;
    }
    let mut cfg = SessionConfig::new(trace, maps.clone(), scheme.clone());
    cfg.chunks = budget.chunks_per_trace;
    cfg.seed = budget.seed + t as u64;
    let r: SessionResult = SessionRunner::new(cfg).run(None);
    (r.qoe, r.recovered_fraction, r.recovered_frame_qoe)
}

/// Reduce per-trace unit results — **in trace order** — to the mean
/// fields we report. The serial and parallel paths share this fold, so
/// tables are bit-identical at every worker count.
fn reduce_units(units: &[(f64, f64, f64)]) -> (f64, f64, f64) {
    let mut qoe = 0.0;
    let mut rec_frac = 0.0;
    let mut rec_qoe = 0.0;
    for &(q, f, rq) in units {
        qoe += q;
        rec_frac += f;
        rec_qoe += rq;
    }
    let n = units.len().max(1) as f64;
    (qoe / n, rec_frac / n, rec_qoe / n)
}

/// Run one scheme over the budgeted trace population of a network kind;
/// returns the mean session result fields we report. Traces fan out
/// across the worker pool.
fn run_scheme(
    budget: &ExperimentBudget,
    maps: &QualityMaps,
    kind: NetworkKind,
    scheme: &Scheme,
    loss_override: Option<f64>,
) -> (f64, f64, f64) {
    let ts: Vec<usize> = (0..budget.traces_per_network).collect();
    let per = sweep::map(&ts, |_, &t| {
        run_unit(budget, maps, kind, scheme, loss_override, t)
    });
    reduce_units(&per)
}

/// The full scheme × network mean-result matrix, swept at
/// (scheme, network, trace) granularity in one flat pool pass.
fn run_matrix(
    budget: &ExperimentBudget,
    maps: &QualityMaps,
    schemes: &[(&str, Scheme)],
    loss_override: Option<f64>,
) -> Vec<Vec<(f64, f64, f64)>> {
    let kinds = NetworkKind::ALL;
    let traces = budget.traces_per_network;
    let mut units = Vec::with_capacity(schemes.len() * kinds.len() * traces);
    for si in 0..schemes.len() {
        for ki in 0..kinds.len() {
            for t in 0..traces {
                units.push((si, ki, t));
            }
        }
    }
    let per = sweep::map(&units, |_, &(si, ki, t)| {
        run_unit(budget, maps, kinds[ki], &schemes[si].1, loss_override, t)
    });
    // Units are (scheme, kind)-major, trace-minor: each cell's traces
    // are contiguous and in trace order, matching `reduce_units`'s fold.
    per.chunks(traces)
        .map(reduce_units)
        .collect::<Vec<_>>()
        .chunks(kinds.len())
        .map(|row| row.to_vec())
        .collect()
}

/// Generic "schemes x networks" QoE table used by Figures 12/15/16/17/18.
fn scheme_table(
    title: &str,
    budget: &ExperimentBudget,
    maps: &QualityMaps,
    schemes: &[(&str, Scheme)],
    loss_override: Option<f64>,
) -> Table {
    let cells = run_matrix(budget, maps, schemes, loss_override);
    let mut t = Table::new(title, &["scheme", "3G", "4G", "5G", "WiFi"]);
    for ((name, _), row_cells) in schemes.iter().zip(cells.iter()) {
        let mut row = vec![name.to_string()];
        for &(qoe, _, _) in row_cells {
            row.push(fmt_f(qoe));
        }
        t.row(row);
    }
    t
}

/// Figure 12: QoE of recovery-only schemes across network types.
pub fn fig12_recovery_schemes(budget: &ExperimentBudget, maps: &QualityMaps) -> Table {
    scheme_table(
        "Figure 12: QoE of recovery-only schemes",
        budget,
        maps,
        &[
            ("w/o RC", Scheme::without_recovery()),
            ("RC alone", Scheme::recovery_alone()),
            ("Our (RC-aware)", Scheme::recovery_aware()),
        ],
        None,
    )
}

/// Table 3: QoE of the recovered frames only.
pub fn tab03_recovered_qoe(budget: &ExperimentBudget, maps: &QualityMaps) -> Table {
    let schemes = [
        (
            "w/o RC",
            Scheme::without_recovery().with_ladder(DegradationLadder::reuse_only()),
        ),
        ("RC alone", Scheme::recovery_alone()),
        ("Our", Scheme::recovery_aware()),
    ];
    let cells = run_matrix(budget, maps, &schemes, None);
    let mut t = Table::new(
        "Table 3: QoE of recovered frames",
        &["scheme", "3G", "4G", "5G", "WiFi"],
    );
    for ((name, _), row_cells) in schemes.iter().zip(cells.iter()) {
        let mut row = vec![name.to_string()];
        for &(_, _, rec_qoe) in row_cells {
            row.push(fmt_f(rec_qoe));
        }
        t.row(row);
    }
    t
}

/// Figure 13b: fraction of frames requiring recovery, per network.
pub fn fig13b_recovered_fraction(budget: &ExperimentBudget, maps: &QualityMaps) -> Table {
    let cells = run_matrix(budget, maps, &[("Our", Scheme::recovery_aware())], None);
    let mut t = Table::new(
        "Figure 13b: frames requiring recovery (%)",
        &["network", "recovered frames (%)"],
    );
    for (&kind, &(_, frac, _)) in NetworkKind::ALL.iter().zip(cells[0].iter()) {
        t.row(vec![kind.label().to_string(), fmt_f(frac * 100.0)]);
    }
    t
}

/// Figure 14: per-chunk time series (throughput + QoE of three schemes)
/// on one 5G trace.
pub fn fig14_5g_timeseries(budget: &ExperimentBudget, maps: &QualityMaps) -> Figure {
    let trace = NetworkTrace::generate(NetworkKind::FiveG, budget.seed).downscaled(1.5);
    let mut fig = Figure::new(
        "Figure 14: 5G time series (throughput and per-chunk QoE)",
        "chunk start (s)",
        "Mbps / QoE",
    );
    let mut tput = Series::new("throughput (Mbps)");
    let schemes = [
        ("w/o RC", Scheme::without_recovery()),
        ("RC alone", Scheme::recovery_alone()),
        ("RC (ours)", Scheme::recovery_aware()),
    ];
    let results = sweep::map(&schemes, |_, (_, scheme)| {
        let mut cfg = SessionConfig::new(trace.clone(), maps.clone(), scheme.clone());
        cfg.chunks = budget.chunks_per_trace;
        cfg.seed = budget.seed;
        SessionRunner::new(cfg).run(None)
    });
    for ((name, _), result) in schemes.iter().zip(results.iter()) {
        let mut s = Series::new(*name);
        for c in &result.chunks {
            s.push(c.start_secs, c.qoe);
        }
        if tput.points.is_empty() {
            for c in &result.chunks {
                tput.push(c.start_secs, c.throughput_kbps / 1000.0);
            }
        }
        fig.series.push(s);
    }
    fig.series.insert(0, tput);
    fig
}

/// Figure 15: lossy networks, FEC disabled, no transport retransmission.
pub fn fig15_lossy_no_fec(budget: &ExperimentBudget, maps: &QualityMaps) -> Table {
    let mut without = Scheme::without_recovery().with_ladder(DegradationLadder::reuse_only());
    without.retransmission = false;
    let mut alone = Scheme::recovery_alone();
    alone.retransmission = false;
    let mut ours = Scheme::recovery_aware();
    ours.retransmission = false;
    scheme_table(
        "Figure 15: QoE under lossy networks (no FEC, no retransmission)",
        budget,
        maps,
        &[
            ("w/o RC (reuse)", without),
            ("RC alone", alone),
            ("Our (RC-aware)", ours),
        ],
        Some(0.05),
    )
}

/// Build the §4 FEC lookup table for a scheme by sweeping loss x ratio
/// through short training sessions.
pub fn build_fec_table(
    budget: &ExperimentBudget,
    maps: &QualityMaps,
    base_scheme: &Scheme,
) -> FecTable {
    let losses = [0.01, 0.03, 0.05];
    let ratios: Vec<f64> = (0..=6).map(|i| i as f64 * 0.1).collect();
    let mut small = budget.clone();
    small.traces_per_network = 1;
    small.chunks_per_trace = budget.chunks_per_trace.min(10);
    // Precompute the loss × ratio grid on the pool; `FecTable::build`
    // then reads the memo, so its own probe order is irrelevant.
    let points = sweep::grid(&losses, &ratios);
    let qoes = sweep::map(&points, |_, &(loss, ratio)| {
        let scheme = base_scheme.clone().with_fec(FecMode::Fixed(ratio));
        let (qoe, _, _) = run_scheme(&small, maps, NetworkKind::WiFi, &scheme, Some(loss));
        qoe
    });
    FecTable::build(&losses, &ratios, |loss, ratio| {
        let i = points
            .iter()
            .position(|&(l, r)| l.to_bits() == loss.to_bits() && r.to_bits() == ratio.to_bits())
            .expect("FEC probe outside the precomputed grid");
        qoes[i]
    })
}

/// Figure 16: lossy networks with per-scheme FEC lookup tables.
pub fn fig16_lossy_with_fec(budget: &ExperimentBudget, maps: &QualityMaps) -> Table {
    let mut without = Scheme::without_recovery().with_ladder(DegradationLadder::reuse_only());
    without.retransmission = false;
    let mut alone = Scheme::recovery_alone();
    alone.retransmission = false;
    let mut ours = Scheme::recovery_aware();
    ours.retransmission = false;

    let t_without = build_fec_table(budget, maps, &without);
    let t_alone = build_fec_table(budget, maps, &alone);
    let t_ours = build_fec_table(budget, maps, &ours);

    scheme_table(
        "Figure 16: QoE under lossy networks with FEC lookup tables",
        budget,
        maps,
        &[
            ("w/o FEC (ours)", ours.clone()),
            ("w/o RC + FEC", without.with_fec(FecMode::Table(t_without))),
            ("RC alone + FEC", alone.with_fec(FecMode::Table(t_alone))),
            ("Our + FEC", ours.with_fec(FecMode::Table(t_ours))),
        ],
        Some(0.05),
    )
}

/// Figure 17: SR-only schemes.
pub fn fig17_sr_schemes(budget: &ExperimentBudget, maps: &QualityMaps) -> Table {
    scheme_table(
        "Figure 17: QoE of SR-only schemes",
        budget,
        maps,
        &[
            ("w/o SR", Scheme::without_sr()),
            ("SR alone", Scheme::sr_alone()),
            ("NEMO", Scheme::nemo_baseline()),
            ("Our (SR-aware)", Scheme::sr_aware()),
        ],
        None,
    )
}

/// Figure 18: the full system.
pub fn fig18_full_system(budget: &ExperimentBudget, maps: &QualityMaps) -> Table {
    let both_alone = Scheme {
        recovery: true,
        sr: true,
        ..Scheme::without_recovery()
    };
    scheme_table(
        "Figure 18: QoE of recovery + SR schemes",
        budget,
        maps,
        &[
            ("w/o SR & RC", Scheme::without_recovery()),
            ("SR & RC alone", both_alone),
            ("NEMO", Scheme::nemo_baseline()),
            ("Our (full)", Scheme::nerve()),
        ],
        None,
    )
}

/// Parse a table cell back to f64 (test helper, also used by the bin's
/// improvement summaries).
pub fn cell(t: &Table, row: usize, col: usize) -> f64 {
    t.rows[row][col].parse().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn maps() -> QualityMaps {
        QualityMaps::placeholder(&[512, 1024, 1600, 2640, 4400])
    }

    #[test]
    fn fig12_ordering_ours_over_alone_over_without() {
        let budget = ExperimentBudget::test();
        let t = fig12_recovery_schemes(&budget, &maps());
        // Mean across networks preserves the paper's ordering.
        let mean = |r: usize| (1..=4).map(|c| cell(&t, r, c)).sum::<f64>() / 4.0;
        let without = mean(0);
        let alone = mean(1);
        let ours = mean(2);
        assert!(
            ours > without,
            "ours {ours:.3} must beat w/o RC {without:.3}"
        );
        assert!(
            alone >= without - 0.05,
            "RC alone {alone:.3} should not lose to w/o RC {without:.3}"
        );
        assert!(ours >= alone - 0.05, "ours {ours:.3} vs alone {alone:.3}");
    }

    #[test]
    fn fig15_recovery_is_robust_under_loss() {
        let budget = ExperimentBudget::test();
        let m = maps();
        let lossy = fig15_lossy_no_fec(&budget, &m);
        let mean = |t: &Table, r: usize| (1..=4).map(|c| cell(t, r, c)).sum::<f64>() / 4.0;
        // Ordering within the lossy setting (the paper's Figure 15):
        // ours >= RC alone >= w/o RC.
        let without = mean(&lossy, 0);
        let alone = mean(&lossy, 1);
        let ours = mean(&lossy, 2);
        assert!(ours > without, "ours {ours:.3} vs w/o RC {without:.3}");
        assert!(alone > without, "alone {alone:.3} vs w/o RC {without:.3}");
        assert!(ours >= alone - 0.2, "ours {ours:.3} vs alone {alone:.3}");
        // The recovery advantage must be substantial in this setting
        // (the paper reports 59–82% improvements in Figure 15).
        assert!(
            ours - without > 0.1,
            "lossy-setting gap too small: ours {ours:.3} vs w/o {without:.3}"
        );
    }

    #[test]
    fn fig17_ours_beats_no_sr_everywhere() {
        let budget = ExperimentBudget::test();
        let t = fig17_sr_schemes(&budget, &maps());
        for c in 1..=4 {
            assert!(
                cell(&t, 3, c) > cell(&t, 0, c),
                "{}: ours {} vs w/o SR {}",
                t.headers[c],
                t.rows[3][c],
                t.rows[0][c]
            );
        }
    }

    #[test]
    fn fig18_full_system_wins_on_average() {
        let budget = ExperimentBudget::test();
        let t = fig18_full_system(&budget, &maps());
        let mean = |r: usize| (1..=4).map(|c| cell(&t, r, c)).sum::<f64>() / 4.0;
        let ours = mean(3);
        for r in 0..3 {
            assert!(
                ours >= mean(r) - 0.05,
                "full system {ours:.3} vs {} {:.3}",
                t.rows[r][0],
                mean(r)
            );
        }
    }

    #[test]
    fn fig13b_recovered_fraction_is_positive_everywhere() {
        let budget = ExperimentBudget::test();
        let t = fig13b_recovered_fraction(&budget, &maps());
        for row in &t.rows {
            let v: f64 = row[1].parse().unwrap();
            assert!((0.0..=100.0).contains(&v), "{}: {v}", row[0]);
        }
    }

    #[test]
    fn fig14_series_align() {
        let budget = ExperimentBudget::test();
        let fig = fig14_5g_timeseries(&budget, &maps());
        assert_eq!(fig.series.len(), 4); // tput + 3 schemes
        let n = fig.series[0].points.len();
        for s in &fig.series {
            assert_eq!(s.points.len(), n);
        }
    }
}
