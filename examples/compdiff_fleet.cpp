/**
 * @file
 * Multi-process fleet front end: one coordinator process supervising
 * N fuzzing worker processes over a shared crash-safe session
 * directory (DESIGN.md §12).
 *
 *   # 3 worker processes over 6 deterministic shards
 *   ./build/examples/compdiff_fleet --target=pktdump --fuzz=60000 \
 *       --shards=6 --workers=3 --session=/tmp/fleet
 *
 * The same binary is both sides of the protocol: without `--worker`
 * it runs the coordinator (fleet::runFleet), which re-execs itself
 * with `--worker --worker-shards=...` per spawned worker. Workers
 * that die — crash, OOM-kill, kill -9 — are revived from their shard
 * checkpoints and the finished campaign's artifacts are
 * byte-identical to a single-process run (kill one and watch:
 * `kill -9 $(awk '/^pid/{print $3}' /tmp/fleet/shard-0.lease)`).
 *
 * Run it with --help for the options. The campaign flags (and the
 * program argument) reach every worker exactly as they were typed.
 *
 * Exit codes: 0 campaign complete and stable, 1 complete with
 * divergences, 2 usage/session error, 4 deadline hit (incomplete,
 * resumable).
 */

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "compdiff/implementation.hh"
#include "fleet/fleet.hh"
#include "minic/parser.hh"
#include "obs/stats.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "targets/targets.hh"

namespace
{

struct FleetCli
{
    // Campaign identity (forwarded to workers verbatim).
    std::string target;
    std::string program;
    std::string impls = "paper10";
    compdiff::core::ImplementationSet implSet; ///< --impls parsed
    std::uint64_t shards = 1;
    std::uint64_t jobs = 1;
    bool quiet = false;
    /** Campaign budget, cadences, directory and (coordinator) triage. */
    compdiff::session::SessionConfig session;
    /** The program argument and campaign flags as typed. */
    std::vector<std::string> campaignArgs;

    // Coordinator side.
    compdiff::fleet::FleetOptions fleet;
    std::uint64_t workers = 2;
    std::uint64_t maxSpawns = 64;

    // Worker side.
    bool worker = false;
    compdiff::fleet::WorkerSpec spec;
};

/** The flag table; group 0 holds the flags forwarded to workers. */
compdiff::support::FlagSet
fleetFlags(FleetCli &o)
{
    using compdiff::support::Flag;
    using compdiff::support::kMaxWorkerCount;
    auto &triage = o.session.triage;
    return compdiff::support::FlagSet(
        "compdiff_fleet [options] [prog.mc]",
        {{"campaign (forwarded to workers)",
          {
              Flag("--target=NAME", &o.target,
                   "fuzz a built-in target (pktdump, ...)"),
              Flag("--impls=SPECS", &o.impls,
                   "oracle specs or \"paper10\"/\"all\""),
              Flag("--fuzz=N", &o.session.fuzz.maxExecs,
                   "campaign budget in executions"),
              Flag("--shards=N", &o.shards,
                   "deterministic shards (>= workers)")
                  .atMost(kMaxWorkerCount),
              Flag("--jobs=N", &o.jobs, "threads per worker")
                  .atMost(kMaxWorkerCount),
              Flag("--checkpoint-every=N", &o.session.checkpointEvery,
                   "shard checkpoint cadence in execs"),
              Flag("--heartbeat-every=S", &o.session.heartbeatSecs,
                   "heartbeat cadence in seconds"),
              Flag("--sync-every=S", &o.fleet.syncSecs,
                   "cross-worker corpus sync cadence (0 = off; "
                   "forfeits bit-identity)"),
              Flag("--session=DIR", &o.session.dir,
                   "session directory (required)"),
              Flag("--quiet", &o.quiet, "silence warn()/inform() notices"),
          }},
         {"coordinator",
          {
              Flag("--workers=N", &o.workers, "worker process slots")
                  .atMost(kMaxWorkerCount),
              Flag("--deadline=S", &o.fleet.deadlineSecs,
                   "wall-clock budget in seconds"),
              Flag("--poll-every=S", &o.fleet.pollSecs,
                   "supervision poll interval"),
              Flag("--status-every=S", &o.fleet.statusSecs,
                   "aggregated status table cadence"),
              Flag("--dead-after=S", &o.fleet.deadAfterSecs,
                   "heartbeat age marking a worker hung"),
              Flag("--max-spawns=N", &o.maxSpawns, "per-shard spawn cap"),
              Flag("--reduce[=BUDGET]", &triage.candidateBudget,
                   "triage divergences after completion",
                   &triage.reduceFound),
              Flag("--reports-out=DIR", &triage.reportsDir,
                   "bundle reduced divergences under DIR"),
              Flag("--worker", &o.worker,
                   "internal (set by the coordinator), as are "
                   "--worker-shards=, --worker-index=, "
                   "--worker-generation="),
          }}});
}

/** This binary's path, for the worker re-exec. */
std::string
selfExecutable(const char *argv0)
{
    char buffer[4096];
    const ssize_t got =
        ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (got > 0) {
        buffer[got] = '\0';
        return buffer;
    }
    return argv0;
}

/** This binary, the campaign arguments as typed, then --worker. */
std::vector<std::string>
workerCommand(const FleetCli &options, const char *argv0)
{
    std::vector<std::string> command = {selfExecutable(argv0)};
    command.insert(command.end(), options.campaignArgs.begin(),
                   options.campaignArgs.end());
    command.push_back("--worker");
    return command;
}

compdiff::session::SessionConfig
sessionConfig(const FleetCli &options)
{
    using namespace compdiff;
    session::SessionConfig config = options.session;
    config.fuzz.diffImpls = options.implSet;
    config.fuzz.jobs = options.jobs;
    config.shards = options.shards;
    config.jobs = options.jobs;
    if (options.fleet.syncSecs > 0) {
        config.syncPath = config.dir + "/sync.journal";
        config.syncSecs = options.fleet.syncSecs;
    }
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace compdiff;

    FleetCli options;
    const support::FlagSet flags = fleetFlags(options);
    // The worker protocol's own flags are consumed before the table.
    std::vector<std::string> args;
    for (int i = 1; i < argc; i++) {
        if (!fleet::parseWorkerArg(argv[i], &options.spec))
            args.push_back(argv[i]);
    }
    const support::ParsedArgs parsed = flags.parseOrExit(args);
    if (parsed.positional.size() > 1)
        flags.fail("unexpected argument " + parsed.positional[1]);
    options.campaignArgs = parsed.positional;
    options.campaignArgs.insert(options.campaignArgs.end(),
                                parsed.groupArgs[0].begin(),
                                parsed.groupArgs[0].end());
    if (!parsed.positional.empty())
        options.program = parsed.positional[0];
    options.implSet = flags.convert("--impls", [&] {
        return core::ImplementationRegistry::global().parse(options.impls);
    });
    support::QuietGuard quiet(options.quiet);

    if (options.session.dir.empty())
        flags.fail("a fleet needs --session=DIR");

    std::string source;
    std::vector<support::Bytes> seeds;
    if (!options.target.empty()) {
        const targets::TargetProgram *target =
            targets::findTarget(options.target);
        if (!target) {
            std::fprintf(stderr, "unknown target %s\n",
                         options.target.c_str());
            return 2;
        }
        source = target->source;
        seeds = target->seeds;
    } else if (!options.program.empty()) {
        source = support::readFile(options.program);
        if (source.empty()) {
            std::fprintf(stderr, "cannot read %s\n",
                         options.program.c_str());
            return 2;
        }
    } else {
        flags.fail("a fleet needs --target=NAME or a program file");
    }

    std::unique_ptr<minic::Program> program;
    try {
        program = minic::parseAndCheck(source);
    } catch (const support::CompileError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
    }

    if (options.worker)
        return fleet::runWorker(*program, seeds,
                                sessionConfig(options),
                                options.spec);

    fleet::FleetOptions fleet_options = options.fleet;
    fleet_options.workers = options.workers;
    fleet_options.workerCommand = workerCommand(options, argv[0]);
    fleet_options.maxSpawnsPerShard = options.maxSpawns;

    try {
        const fleet::FleetResult result =
            fleet::runFleet(*program, seeds, sessionConfig(options),
                            fleet_options);
        if (!result.completed) {
            std::printf(
                "fleet deadline reached after %zu spawns (%zu "
                "revivals); rerun the same command to continue "
                "from the checkpoints in %s\n",
                result.spawns, result.revivals,
                options.session.dir.c_str());
            return 4;
        }
        std::printf("%s", obs::renderFuzzerStats(result.stats)
                              .c_str());
        std::printf("\nfleet: %zu spawns, %zu revivals, %zu lease "
                    "conflicts, %zu unique divergences\n",
                    result.spawns, result.revivals,
                    result.leaseConflicts, result.result.diffs.size());
        for (const auto &report : result.reports) {
            std::printf("reduced %s: input %zu -> %zu bytes\n",
                        reduce::signatureDirName(report.signature)
                            .c_str(),
                        report.witnessInput.size(),
                        report.input.size());
        }
        return result.result.diffs.empty() ? 0 : 1;
    } catch (const session::SessionError &error) {
        std::fprintf(stderr, "fleet error: %s\n", error.what());
        return 2;
    }
}
