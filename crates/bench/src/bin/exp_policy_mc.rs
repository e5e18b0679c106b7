//! Extension experiment: Monte-Carlo policy validation/comparison (§4).
fn main() {
    resq_bench::report::finish(resq_bench::experiments::exp_policy_mc(
        resq_bench::experiments::canonical::POLICY_MC_TRIALS,
    ));
}
