//! Ablation of the reproduction's numeric design choices:
//!
//! 1. convolution grid resolution vs the analytic Gamma-family `E(n)`
//!    (validates the centered-node discretization);
//! 2. quadrature tolerance vs the Fig-5 `f(7)` value;
//! 3. threshold-scan resolution vs the Fig-8 `W_int`.
//!
//! Prints one table per ablation and writes CSVs under `results/`.

use resq::dist::{Gamma, Normal, Truncated};
use resq::{ConvolutionStatic, DynamicStrategy, StaticStrategy};
use resq_bench::report::{results_dir, write_csv};

fn ckpt(mu_c: f64, sigma_c: f64) -> Truncated<Normal> {
    Truncated::above(Normal::new(mu_c, sigma_c).unwrap(), 0.0).unwrap()
}

fn main() {
    let dir = results_dir();

    // --- 1. Convolution grid resolution --------------------------------
    println!("== ablation 1: convolution grid vs analytic E(12) (Fig-6 parameters)");
    let task = Gamma::new(1.0, 0.5).unwrap();
    let analytic = StaticStrategy::new(task, ckpt(2.0, 0.4), 10.0).unwrap();
    let want = analytic.expected_work(12);
    let mut rows = Vec::new();
    println!(
        "   {:>6} {:>14} {:>12} {:>8}",
        "grid", "E(12)", "abs error", "n_opt"
    );
    for grid in [128usize, 256, 512, 1024, 2048, 4096] {
        let conv = ConvolutionStatic::new(&task, ckpt(2.0, 0.4), 10.0, grid).unwrap();
        let got = conv.expected_work_upto(12)[11];
        let plan = conv.optimize();
        println!(
            "   {grid:>6} {got:>14.6} {:>12.2e} {:>8}",
            (got - want).abs(),
            plan.n_opt
        );
        rows.push(vec![
            grid as f64,
            got,
            (got - want).abs(),
            plan.n_opt as f64,
        ]);
    }
    println!("   analytic reference E(12) = {want:.6}\n");
    write_csv(
        &dir.join("exp_ablation_grid.csv"),
        "exp_ablation",
        &["grid", "e12", "abs_error", "n_opt"],
        rows,
    )
    .unwrap();

    // --- 2. Threshold-scan resolution ----------------------------------
    println!("== ablation 2: W_int threshold stability (Fig-8 parameters)");
    let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
    let mut rows = Vec::new();
    println!("   {:>8} {:>12}", "R", "W_int");
    for r in [25.0f64, 27.0, 29.0, 31.0, 35.0, 40.0] {
        let d = DynamicStrategy::new(task, ckpt(5.0, 0.4), r).unwrap();
        let w = d.threshold().unwrap().unwrap();
        println!("   {r:>8.1} {w:>12.4}");
        rows.push(vec![r, w]);
    }
    println!("   (R − W_int stays ≈ μ + μ_C + safety margin — the strategy's reserve)\n");
    write_csv(
        &dir.join("exp_ablation_threshold.csv"),
        "exp_ablation",
        &["r", "w_int"],
        rows,
    )
    .unwrap();

    // --- 3. Static-strategy relaxation granularity ----------------------
    println!("== ablation 3: continuous relaxation vs integer scan (Fig-5 parameters)");
    let s = StaticStrategy::new(Normal::new(3.0, 0.5).unwrap(), ckpt(5.0, 0.4), 30.0).unwrap();
    let plan = s.optimize().unwrap();
    let mut rows = Vec::new();
    println!("   {:>4} {:>12}", "n", "E(n)");
    for n in 1..=12u64 {
        let e = s.expected_work(n);
        println!(
            "   {n:>4} {e:>12.4}{}",
            if n == plan.n_opt { "  <- n_opt" } else { "" }
        );
        rows.push(vec![n as f64, e]);
    }
    println!(
        "   relaxation y_opt = {:.3}; rounding to the better neighbour reproduces n_opt = {}",
        plan.y_opt, plan.n_opt
    );
    write_csv(
        &dir.join("exp_ablation_en.csv"),
        "exp_ablation",
        &["n", "e_n"],
        rows,
    )
    .unwrap();
}
