//! Extension experiment: §4.4 continue-vs-drop across billing models.
fn main() {
    resq_bench::report::finish(resq_bench::experiments::exp_campaign(
        resq_bench::experiments::canonical::CAMPAIGN_TRIALS,
    ));
}
