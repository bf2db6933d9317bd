/**
 * @file
 * ledger_selftest: the campaign ledger's own tests.
 *
 *   ledger_selftest [SCRATCH_DIR]      (or: python3 ledger/run.py --selftest)
 *
 * - a short-budget smoke of every workload, untraced and traced;
 * - decorator neutrality: decorated and plain oracle members give the
 *   same fuzz counts and divergence signatures at jobs 1 and 2;
 * - the trace self-check passes on a traced campaign and fails when
 *   every call is timed twice (stacked decorators);
 * - set-up starts cold: a repetition run right after another (warm
 *   cache) still misses the compile cache exactly as often;
 * - the host gauge samples on two threads, and reference seconds scale
 *   inversely with the gauge.
 *
 * Exits 0 when every check passes, 1 otherwise.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "gauge.hh"
#include "support/logging.hh"
#include "workloads.hh"

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
}

ledger::RunConfig
smokeConfig(const std::string &workload, bool trace,
            const std::string &scratch)
{
    ledger::RunConfig config;
    config.workload = workload;
    config.seed = 7;
    // One cycle, every operation repeated twice.
    config.seconds = 0;
    config.trace = trace;
    config.scratch = scratch + "/" + workload + (trace ? "-traced" : "");
    config.budget = {600, 20, 1, 2, 1};
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string scratch = argc > 1 ? argv[1] : ".ledger-selftest";
    compdiff::support::QuietGuard quiet;

    for (const auto &workload : ledger::workloadNames()) {
        for (const bool trace : {false, true}) {
            const auto config = smokeConfig(workload, trace, scratch);
            const auto out = ledger::runWorkload(config);
            const std::string name =
                "smoke " + workload + (trace ? " traced" : "");
            check(out.correct, name + ": correct");
            check(out.attempted > 0 && out.failed <= out.attempted,
                  name + ": operations accounted");
            bool finite = !out.metrics.empty();
            bool positive = true;
            for (const auto &metric : out.metrics) {
                finite = finite && std::isfinite(metric.value);
                positive = positive && metric.value > 0;
            }
            check(finite, name + ": every metric finite");
            if (!trace)
                check(positive, name + ": every end-to-end metric positive");
        }
    }

    for (const std::size_t jobs : {1, 2}) {
        const auto plain = ledger::testing::campaignFingerprint(
            "pktdump", "all", jobs, 800, 11, false);
        const auto decorated = ledger::testing::campaignFingerprint(
            "pktdump", "all", jobs, 800, 11, true);
        check(plain == decorated,
              "decorators are neutral at jobs " + std::to_string(jobs));
    }

    for (const std::size_t jobs : {1, 2}) {
        const std::string at = " at jobs " + std::to_string(jobs);
        const double once = ledger::testing::traceResidual(
            "pktdump", "all", jobs, 800, 11, 1);
        check(once <= ledger::kSelfCheckTolerance,
              "trace self-check passes" + at);
        const double twice = ledger::testing::traceResidual(
            "pktdump", "all", jobs, 800, 11, 2);
        check(twice > ledger::kSelfCheckTolerance,
              "trace self-check catches calls timed twice" + at);
    }

    for (const auto &workload : ledger::workloadNames()) {
        const auto config = smokeConfig(workload, false, scratch);
        const auto first = ledger::measureSetup(config);
        const auto second = ledger::measureSetup(config);
        check(second.cacheMisses > 0 &&
                  second.cacheMisses == first.cacheMisses,
              "set-up of " + workload + " starts from a cold compile cache");
    }

    ledger::HostGauge gauge(2);
    const double sample = gauge.sample();
    check(sample > 0 && gauge.last() == sample && gauge.samples().size() == 1,
          "host gauge samples on two threads");
    const double ref = ledger::kGaugeReferenceSeconds;
    check(ledger::HostGauge::toReference(1.0, ref, ref) == 1.0 &&
              ledger::HostGauge::toReference(1.0, ref, 3 * ref) == 0.5,
          "reference seconds scale inversely with the gauge");

    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
