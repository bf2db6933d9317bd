/**
 * @file
 * ledger_bench: the campaign ledger's command-line front end.
 *
 *   ledger_bench --workload campaign|campaign_persist|triage|all
 *                --seed N --seconds S --trace 0|1
 *                [--scratch DIR] [--ledger FILE]
 *                [--commit ID] [--source-digest HEX]
 *
 * Prints a provenance line, one line per metric with its unit, the
 * run's notes, and as the last line of stdout one JSON object with
 * the keys correct / attempted / failed / metrics. `--ledger`
 * appends the full record (provenance included) as one JSON line.
 * `python3 ledger/run.py` builds this binary and drives it.
 */

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "probe.hh"
#include "support/logging.hh"
#include "vm/vm.hh"
#include "workloads.hh"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace
{

using ledger::jsonString;

std::string
number(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "ledger_bench: %s\n"
                 "usage: ledger_bench --workload "
                 "campaign|campaign_persist|triage|all --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR] [--ledger FILE] "
                 "[--commit ID] [--source-digest HEX]\n",
                 why);
    return 2;
}

std::string
utcNow()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args = {
        {"--workload", ""}, {"--seed", "1"},        {"--seconds", "10"},
        {"--trace", "0"},   {"--scratch", ".ledger-scratch"},
        {"--ledger", ""},   {"--commit", "unknown"},
        {"--source-digest", "unknown"}};
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (!args.count(flag) || i + 1 >= argc)
            return usage(("bad argument " + flag).c_str());
        args[flag] = argv[++i];
    }
    const std::string workload = args["--workload"];
    std::vector<std::string> workloads;
    if (workload == "all")
        workloads = ledger::workloadNames();
    else
        workloads = {workload};
    for (const auto &name : workloads) {
        bool known = false;
        for (const auto &w : ledger::workloadNames())
            known = known || w == name;
        if (!known)
            return usage(("unknown workload '" + name + "'").c_str());
    }
    const std::string trace = args["--trace"];
    if (trace != "0" && trace != "1")
        return usage("--trace takes 0 or 1");

    ledger::RunConfig config;
    try {
        config.seed = std::stoull(args["--seed"]);
        config.seconds = std::stod(args["--seconds"]);
    } catch (const std::exception &) {
        return usage("--seed and --seconds take numbers");
    }
    config.trace = trace == "1";

    std::ostringstream provenance;
    provenance << "{\"commit\":" << jsonString(args["--commit"])
               << ",\"source_digest\":" << jsonString(args["--source-digest"])
               << ",\"nproc\":" << std::thread::hardware_concurrency()
               << ",\"build_type\":" << jsonString(LEDGER_BUILD_TYPE)
               << ",\"dispatch\":"
               << jsonString(compdiff::vm::dispatchModeName(
                      compdiff::vm::defaultDispatchMode()))
               << ",\"seed\":" << config.seed
               << ",\"seconds\":" << number(config.seconds)
               << ",\"trace\":" << trace << ",\"date\":" << jsonString(utcNow())
               << "}";
    std::printf("# provenance %s\n", provenance.str().c_str());
    // Library notices (one per written bundle) would land inside the
    // timed region; failures reach the notes instead.
    compdiff::support::QuietGuard quiet;

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::ostringstream metrics;
    bool first_metric = true;
    for (const auto &name : workloads) {
        config.workload = name;
        config.scratch = args["--scratch"] + "/" + name;
        ledger::RunOutcome out;
        try {
            out = ledger::runWorkload(config);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "ledger_bench: %s: %s\n", name.c_str(),
                         e.what());
            return 1;
        }
        std::printf("== %s (seed %llu, %s)\n", name.c_str(),
                    static_cast<unsigned long long>(config.seed),
                    config.trace ? "traced" : "untraced");
        for (auto &metric : out.metrics) {
            if (!std::isfinite(metric.value)) {
                out.notes.push_back("WRONG: " + metric.name +
                                    " is not a finite number");
                out.correct = false;
                metric.value = 0;
            }
            std::printf("  %-34s %16.6f %s\n", metric.name.c_str(),
                        metric.value, metric.unit.c_str());
            const std::string key =
                workloads.size() > 1 ? name + ":" + metric.name : metric.name;
            metrics << (first_metric ? "" : ",") << jsonString(key)
                    << ":{\"value\":" << number(metric.value)
                    << ",\"unit\":" << jsonString(metric.unit) << "}";
            first_metric = false;
        }
        std::printf("  %-34s %16.6f ratio (%llu of %llu operations)\n",
                    "ops_failed_frac",
                    out.attempted ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0.0,
                    static_cast<unsigned long long>(out.failed),
                    static_cast<unsigned long long>(out.attempted));
        for (const auto &note : out.notes)
            std::printf("  note: %s\n", note.c_str());

        if (!args["--ledger"].empty()) {
            std::ofstream ledger_file(args["--ledger"], std::ios::app);
            std::ostringstream notes;
            for (std::size_t i = 0; i < out.notes.size(); i++)
                notes << (i ? "," : "") << jsonString(out.notes[i]);
            std::ostringstream own;
            for (std::size_t i = 0; i < out.metrics.size(); i++)
                own << (i ? "," : "") << jsonString(out.metrics[i].name)
                    << ":" << number(out.metrics[i].value);
            ledger_file << "{\"workload\":" << jsonString(name)
                        << ",\"provenance\":" << provenance.str()
                        << ",\"correct\":" << (out.correct ? "true" : "false")
                        << ",\"attempted\":" << out.attempted
                        << ",\"failed\":" << out.failed << ",\"metrics\":{"
                        << own.str() << "},\"notes\":[" << notes.str()
                        << "]}\n";
        }
        correct = correct && out.correct;
        attempted += out.attempted;
        failed += out.failed;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics.str().c_str());
    return 0;
}
