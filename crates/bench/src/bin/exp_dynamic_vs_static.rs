//! Extension experiment: dynamic-vs-static gain as task variability grows.
fn main() {
    resq_bench::report::finish(resq_bench::experiments::exp_dynamic_vs_static(
        resq_bench::experiments::canonical::DYNAMIC_VS_STATIC_TRIALS,
    ));
}
