/**
 * @file
 * CompDiff-AFL++ on a real-world-style target: fuzz the pktdump
 * packet analyzer (tcpdump stand-in), then triage the saved
 * divergences back to their root causes and show a minimized
 * reproducer for each, like the bug reports the paper filed.
 *
 * Build & run:  ./build/examples/fuzz_packetdump [execs] [options]
 *
 * Run it with --help for the options: AFL++-style stats and a
 * Chrome trace of the whole campaign, a crash-safe resumable session
 * (DESIGN.md §10), deterministic shards and worker threads.
 */

#include <cstdio>

#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "support/bytes.hh"
#include "support/flags.hh"
#include "targets/campaign.hh"
#include "targets/targets.hh"

int
main(int argc, char **argv)
{
    using namespace compdiff;

    const targets::TargetProgram *target =
        targets::findTarget("pktdump");
    if (!target) {
        std::fprintf(stderr, "pktdump target missing\n");
        return 1;
    }

    targets::CampaignOptions options;
    options.checkSanitizers = true;
    options.maxExecs = 12'000;
    std::string trace_out;
    std::uint64_t shards = options.shards;
    std::uint64_t jobs = options.jobs;
    using support::Flag;
    const support::FlagSet flags(
        "fuzz_packetdump [execs] [options]",
        {{"",
          {
              Flag("--stats-dir=DIR", &options.statsDir,
                   "AFL++-style fuzzer_stats/plot_data under DIR/pktdump/"),
              Flag("--trace-out=FILE", &trace_out,
                   "Chrome-trace JSON of the whole campaign"),
              Flag("--session=DIR", &options.sessionDir,
                   "crash-safe session under DIR/pktdump/"),
              Flag("--resume", &options.resume,
                   "finish the session in --session=DIR"),
              Flag("--halt-after=N", &options.haltAfterExecs,
                   "stop at the first checkpoint at or beyond N execs"),
              Flag("--checkpoint-every=N", &options.checkpointEvery,
                   "checkpoint every N shard executions"),
              Flag("--shards=N", &shards,
                   "deterministic shards (part of the result identity)")
                  .atMost(support::kMaxWorkerCount),
              Flag("--jobs=N", &jobs, "worker threads (never changes results)")
                  .atMost(support::kMaxWorkerCount),
          }}},
        "execs is the campaign budget (default " +
            std::to_string(options.maxExecs) + ").\n");
    const auto positional =
        flags.parseOrExit({argv + 1, argv + argc}).positional;
    if (positional.size() > 1)
        flags.fail("unexpected argument " + positional[1]);
    if (!positional.empty()) {
        try {
            options.maxExecs =
                support::parseUnsigned("execs", positional[0]);
        } catch (const support::FlagError &error) {
            flags.fail(error.what());
        }
    }
    options.shards = shards;
    options.jobs = jobs;
    if (!options.statsDir.empty() || !trace_out.empty())
        obs::setEnabled(true);

    std::printf("fuzzing %s (%s, v%s, %zu LoC) for %llu execs...\n\n",
                target->name.c_str(), target->inputType.c_str(),
                target->version.c_str(), target->linesOfCode(),
                static_cast<unsigned long long>(options.maxExecs));

    auto result = targets::runCampaign(*target, options);

    if (result.halted) {
        std::printf("session halted at a checkpoint after %llu "
                    "execs; rerun with --resume to finish\n",
                    static_cast<unsigned long long>(
                        result.stats.execs));
        return 0;
    }

    std::printf("executions      : %llu\n",
                static_cast<unsigned long long>(result.stats.execs));
    std::printf("corpus seeds    : %zu\n", result.stats.seeds);
    std::printf("coverage edges  : %zu\n", result.stats.edges);
    std::printf("unique diffs    : %zu\n", result.stats.diffs);
    std::printf("bugs recovered  : %zu of %zu planted\n\n",
                result.found.size(), target->bugs.size());

    for (const auto &finding : result.found) {
        std::printf("--- bug %d [%s] %s\n", finding.probeId,
                    targets::categoryColumn(finding.bug->category),
                    finding.bug->description.c_str());
        std::printf("    sanitizers: ASan=%d UBSan=%d MSan=%d\n",
                    finding.asanFires, finding.ubsanFires,
                    finding.msanFires);
        std::printf("    minimized reproducer (%zu bytes):\n%s",
                    finding.witness.size(),
                    support::hexDump(finding.witness, 4).c_str());
    }
    if (!trace_out.empty()) {
        obs::writeTextFile(
            trace_out,
            obs::TraceRecorder::global().chromeTraceJson());
        std::printf("\ntrace written to %s\n", trace_out.c_str());
    }
    return result.found.empty() ? 1 : 0;
}
