//! Extension experiment: the paper's §5 general (non-IID) instance.
fn main() {
    resq_bench::report::finish(resq_bench::experiments::exp_general_instance(
        resq_bench::experiments::canonical::GENERAL_INSTANCE_TRIALS,
    ));
}
