//! Paper-shape regressions at FULL paper scale. All six take about a minute
//! in release (and gigabytes of memory), so they are `#[ignore]`d out of
//! tier-1 and run as their own CI step:
//! `cargo test --release --test paper_shapes -- --ignored`.
//!
//! Each test pins one headline claim of the paper against the calibrated
//! model (the numeric anchors are recorded in EXPERIMENTS.md).

use mic_eval::experiments::{fig1, fig2, fig3, fig4, table1};
use mic_eval::graph::suite::Scale;

const FULL: Scale = Scale::Full;

#[test]
#[ignore = "full-scale run (about a minute for all six, own CI step); see EXPERIMENTS.md"]
fn table1_matches_paper_within_tolerance() {
    for r in table1::table1(FULL) {
        assert_eq!(r.vertices, r.paper.vertices, "{}", r.name);
        let e = r.edges as f64 / r.paper.edges as f64;
        assert!((0.97..1.03).contains(&e), "{}: |E| ratio {e}", r.name);
        let d = r.max_degree as f64 / r.paper.max_degree as f64;
        assert!((0.85..1.15).contains(&d), "{}: Δ ratio {d}", r.name);
        if r.name != "auto" {
            let l = r.levels as f64 / r.paper.levels as f64;
            assert!((0.9..1.1).contains(&l), "{}: level ratio {l}", r.name);
        }
    }
}

#[test]
#[ignore = "full-scale run (about a minute for all six, own CI step); see EXPERIMENTS.md"]
fn fig1_openmp_dynamic_plateaus_near_72() {
    let fig = fig1::fig1(fig1::Panel::OpenMp, FULL);
    let dyn_ = fig.get("OpenMP-dynamic").unwrap();
    let last = *dyn_.y.last().unwrap();
    assert!((62.0..85.0).contains(&last), "plateau {last} (paper: 72)");
    // Dynamic beats static clearly in the 41–61 midrange.
    let st = fig.get("OpenMP-static").unwrap();
    let i51 = fig.x.iter().position(|&t| t == 51).unwrap();
    assert!(dyn_.y[i51] > 1.2 * st.y[i51]);
}

#[test]
#[ignore = "full-scale run (about a minute for all six, own CI step); see EXPERIMENTS.md"]
fn fig1_runtime_ordering_matches_paper() {
    let cilk = fig1::fig1(fig1::Panel::CilkPlus, FULL);
    let tbb = fig1::fig1(fig1::Panel::Tbb, FULL);
    let cilk_peak = cilk.get("CilkPlus").unwrap().peak().1;
    let tbb_peak = tbb.get("TBB-simple").unwrap().peak().1;
    // Paper: TBB 45 > Cilk 32, both far below OpenMP's 72.
    assert!((38.0..55.0).contains(&tbb_peak), "TBB peak {tbb_peak}");
    assert!((28.0..45.0).contains(&cilk_peak), "Cilk peak {cilk_peak}");
    assert!(tbb_peak > cilk_peak);
}

#[test]
#[ignore = "full-scale run (about a minute for all six, own CI step); see EXPERIMENTS.md"]
fn fig2_shuffled_is_near_linear_and_ordered() {
    let fig = fig2::fig2(FULL);
    let last = fig.x.len() - 1;
    let omp = fig.get("OpenMP").unwrap().y[last];
    let tbb = fig.get("TBB").unwrap().y[last];
    let cilk = fig.get("CilkPlus").unwrap().y[last];
    // Paper: 153 / 121 / 98 at 121 threads.
    assert!((120.0..165.0).contains(&omp), "OpenMP {omp}");
    assert!(omp > tbb && tbb > cilk, "ordering {omp} {tbb} {cilk}");
    assert!(cilk > 85.0, "Cilk {cilk}");
}

#[test]
#[ignore = "full-scale run (about a minute for all six, own CI step); see EXPERIMENTS.md"]
fn fig3_convergence_at_iter_10() {
    let values: Vec<f64> = [fig3::Panel::OpenMp, fig3::Panel::CilkPlus, fig3::Panel::Tbb]
        .into_iter()
        .map(|p| {
            *fig3::fig3(p, FULL)
                .get("10 iterations")
                .unwrap()
                .y
                .last()
                .unwrap()
        })
        .collect();
    // Paper: all three ≈ 49.
    for v in &values {
        assert!((40.0..55.0).contains(v), "iter-10 endpoint {v}");
    }
    let hi = values.iter().cloned().fold(f64::MIN, f64::max);
    let lo = values.iter().cloned().fold(f64::MAX, f64::min);
    assert!(hi / lo < 1.1, "models must converge: {values:?}");
}

#[test]
#[ignore = "full-scale run (about a minute for all six, own CI step); see EXPERIMENTS.md"]
fn fig4_block_beats_bag_and_tracks_model() {
    let fig = fig4::fig4(fig4::Panel::AllKnf, FULL);
    let last = fig.x.len() - 1;
    let model = fig.get("Model").unwrap().y[last];
    let block = fig.get("OpenMP-Block-relaxed").unwrap();
    let bag = fig.get("CilkPlus-Bag-relaxed").unwrap().y[last];
    assert!(block.y[last] < model, "model bounds the implementation");
    assert!(
        block.y[last] > 5.0 * bag,
        "block {} must dwarf bag {bag}",
        block.y[last]
    );
    // The block implementation peaks before 121 threads and declines.
    let (peak_idx, _) = block.peak();
    assert!(fig.x[peak_idx] < 121, "peak at {}", fig.x[peak_idx]);
}
