/**
 * @file
 * A small command-line front end: run CompDiff on your own MiniC
 * program, and when a divergence is found, localize it.
 *
 *   ./build/examples/compdiff_cli [options] [prog.mc [input-file]]
 *
 * Run it with --help for the options; the help text is generated
 * from the flag table in parseArgs().
 *
 * With no program argument it writes a demo program to /tmp and
 * analyzes that, so it is safe to run from the bench/example sweep.
 *
 * The report mirrors the paper's bug reports (Section 5): the
 * triggering input, two configurations that reproduce the issue, the
 * divergent outputs, plus the trace-alignment root-cause candidate.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "compdiff/localize.hh"
#include "compiler/cache.hh"
#include "compiler/config.hh"
#include "fuzz/sharded.hh"
#include "minic/parser.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "reduce/report.hh"
#include "sancheck/report.hh"
#include "sancheck/sancheck.hh"
#include "session/session.hh"
#include "support/bytes.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "targets/targets.hh"

namespace
{

const char *kDemoProgram = R"(// demo: unstable overflow guard
int check_range(int offset, int len) {
    if (offset < 0 || len < 0) { return -1; }
    if (offset + len < offset) { return -1; }
    return 0;
}
int main() {
    int offset = 2147483647 - input_byte(0);
    int len = input_byte(1);
    if (check_range(offset, len) < 0) {
        print_str("rejected");
    } else {
        print_str("accepted");
    }
    newline();
    return 0;
}
)";

/** Parsed command line. */
struct CliOptions
{
    std::string impls = "paper10";
    std::string mode = "diff";
    std::string sanImpls;
    bool fuzz = false;
    std::string target;
    std::uint64_t jobs = 1;
    std::uint64_t shards = 1;
    /** Campaign budget, files, persistence and triage knobs. */
    compdiff::session::SessionConfig session;
    bool cacheLimitSet = false;
    std::uint64_t cacheEntries = 0;
    std::string traceOut;
    std::string metricsOut;
    bool flame = false;
    bool quiet = false;
    std::string validateJson;
    std::vector<std::string> positional;
    /** --impls and --san-impls parsed (the latter empty when unset). */
    compdiff::core::ImplementationSet implSet;
    compdiff::core::ImplementationSet sanImplSet;

    bool sancheck() const { return mode == "sancheck"; }

    bool wantsTelemetry() const
    {
        return !session.fuzz.statsOutPath.empty() ||
               !session.fuzz.plotOutPath.empty() || !traceOut.empty() ||
               !metricsOut.empty() || flame;
    }
};

CliOptions
parseArgs(int argc, char **argv)
{
    using compdiff::support::Flag;
    CliOptions o;
    auto &triage = o.session.triage;
    const compdiff::support::FlagSet flags(
        "compdiff_cli [options] [prog.mc [input-file]]",
        {{"",
          {
              Flag("--impls=SPECS", &o.impls,
                   "the oracle: implementation specs (\"gcc:-O2\", "
                   "\"clang:-Os:ubsan\", \"ref\") or the aliases "
                   "\"paper10\" / \"all\" (paper10 plus ref)"),
              Flag("--mode=diff|sancheck", &o.mode,
                   "sancheck: certify UB with the reference interpreter "
                   "and classify sanitizer FN/FP findings"),
              Flag("--san-impls=SPECS", &o.sanImpls,
                   "sanitized implementations for --mode=sancheck "
                   "(default: the standard four)"),
              Flag("--fuzz[=N]", &o.session.fuzz.maxExecs,
                   "run a fuzz campaign instead of a single input",
                   &o.fuzz),
              Flag("--target=NAME", &o.target,
                   "fuzz a built-in target (pktdump, ...)"),
              Flag("--reduce[=BUDGET]", &triage.candidateBudget,
                   "minimize each unique divergence found",
                   &triage.reduceFound),
              Flag("--reports-out=DIR", &triage.reportsDir,
                   "bundle reduced divergences under DIR (semantically "
                   "equal witnesses merge into one bundle)"),
              Flag("--jobs=N", &o.jobs,
                   "worker threads, 0 = hardware (never changes results)")
                  .atMost(compdiff::support::kMaxWorkerCount),
              Flag("--shards=N", &o.shards, "deterministic campaign shards")
                  .atMost(compdiff::support::kMaxWorkerCount),
              Flag("--session=DIR", &o.session.dir,
                   "persist the campaign as a crash-safe session under DIR"),
              Flag("--resume", &o.session.resume,
                   "continue the session in --session=DIR"),
              Flag("--checkpoint-every=N", &o.session.checkpointEvery,
                   "checkpoint every N shard executions"),
              Flag("--halt-after=N", &o.session.haltAfterExecs,
                   "stop each shard at the first safe point at or beyond "
                   "N executions"),
              Flag("--heartbeat-every=S", &o.session.heartbeatSecs,
                   "shard heartbeat cadence in seconds (display/health "
                   "only)"),
              Flag("--cache-entries=N", &o.cacheEntries,
                   "bound the compile cache to N modules (LRU eviction; "
                   "0 = unbounded)",
                   &o.cacheLimitSet),
              Flag("--stats-out=FILE", &o.session.fuzz.statsOutPath,
                   "AFL++-style fuzzer_stats snapshot"),
              Flag("--plot-out=FILE", &o.session.fuzz.plotOutPath,
                   "AFL++-style plot_data time series"),
              Flag("--trace-out=FILE", &o.traceOut, "Chrome-trace JSON"),
              Flag("--metrics-out=FILE", &o.metricsOut,
                   "metrics registry as JSONL"),
              Flag("--flame", &o.flame, "print the span flame summary"),
              Flag("--quiet", &o.quiet, "silence warn()/inform() notices"),
              Flag("--validate-json=F", &o.validateJson,
                   "check that F parses as JSON and exit"),
          }}},
        "With no program argument, analyzes a built-in demo program.\n");
    o.positional = flags.parseOrExit({argv + 1, argv + argc}).positional;
    const auto &registry = compdiff::core::ImplementationRegistry::global();
    o.implSet =
        flags.convert("--impls", [&] { return registry.parse(o.impls); });
    if (!o.sanImpls.empty())
        o.sanImplSet = flags.convert(
            "--san-impls", [&] { return registry.parse(o.sanImpls); });
    return o;
}

/** Flush requested telemetry files at exit (any mode). */
void
exportTelemetry(const CliOptions &options)
{
    using namespace compdiff;
    if (!options.traceOut.empty()) {
        obs::writeTextFile(
            options.traceOut,
            obs::TraceRecorder::global().chromeTraceJson());
    }
    if (!options.metricsOut.empty()) {
        obs::writeTextFile(
            options.metricsOut,
            obs::Registry::global().snapshot().toJsonl());
    }
    if (options.flame) {
        std::printf("\nspan flame summary:\n%s",
                    obs::TraceRecorder::global()
                        .flameSummary()
                        .c_str());
    }
}

int
runFuzzMode(const compdiff::minic::Program &program,
            const std::vector<compdiff::support::Bytes> &seeds,
            const CliOptions &options)
{
    using namespace compdiff;

    // The session owns the whole lifecycle; with --session=DIR it
    // persists checkpoints there, otherwise it runs ephemerally.
    session::SessionConfig session_config = options.session;
    fuzz::FuzzOptions &fuzz_options = session_config.fuzz;
    if (options.sancheck()) {
        fuzz_options.sancheckMode = true;
        if (!options.sanImplSet.empty())
            fuzz_options.sancheckImpls = options.sanImplSet;
    } else {
        fuzz_options.diffImpls = options.implSet;
    }
    fuzz_options.jobs = options.jobs;
    session_config.shards = options.shards;
    session_config.jobs = options.jobs;

    session::CampaignSession session(program, seeds,
                                     session_config);
    const fuzz::ShardedResult &sharded = session.run();

    std::printf("%s",
                obs::renderFuzzerStats(session.statsSnapshot())
                    .c_str());
    if (session.halted()) {
        std::printf("\nsession halted at a checkpoint after %llu "
                    "execs; rerun with --session=%s --resume to "
                    "finish the campaign\n",
                    static_cast<unsigned long long>(
                        sharded.total.execs),
                    options.session.dir.c_str());
        exportTelemetry(options);
        return 0;
    }
    if (options.sancheck()) {
        for (const auto &diff : sharded.diffs) {
            std::printf("\nfinding at exec %llu "
                        "(%zu-byte input):\n  %s\n",
                        static_cast<unsigned long long>(
                            diff.execIndex),
                        diff.input.size(),
                        diff.sanFinding.str().c_str());
        }
        const std::vector<sancheck::FindingReport> reports =
            session.triageSancheck();
        for (const auto &report : reports) {
            std::printf(
                "\nreduced %s: input %zu -> %zu bytes, "
                "program %zu -> %zu statements%s\n",
                reduce::signatureDirName(
                    report.finding.signatureHash())
                    .c_str(),
                report.witnessInput.size(), report.input.size(),
                report.programStats.stmtsBefore,
                report.programStats.stmtsAfter,
                report.reproduced
                    ? ""
                    : " (witness did not reproduce; kept as-is)");
        }
        exportTelemetry(options);
        return sharded.total.diffs > 0 ? 1 : 0;
    }
    for (const auto &diff : sharded.diffs) {
        std::printf("\ndivergence at exec %llu "
                    "(%zu-byte input):\n%s",
                    static_cast<unsigned long long>(diff.execIndex),
                    diff.input.size(),
                    diff.result.summary().c_str());
    }
    const std::vector<reduce::DivergenceReport> reports =
        session.triage();
    for (const auto &report : reports) {
        std::printf("\nreduced %s: input %zu -> %zu bytes, "
                    "program %zu -> %zu statements%s\n",
                    reduce::signatureDirName(report.semanticKey)
                        .c_str(),
                    report.witnessInput.size(), report.input.size(),
                    report.programStats.stmtsBefore,
                    report.programStats.stmtsAfter,
                    report.reproduced
                        ? ""
                        : " (witness did not reproduce; kept as-is)");
        std::printf("  semantic key: %016llx (canonical form "
                    "%016llx, behavior signature %016llx)\n",
                    static_cast<unsigned long long>(
                        report.semanticKey),
                    static_cast<unsigned long long>(
                        report.canonicalFingerprint),
                    static_cast<unsigned long long>(
                        report.signature));
        std::printf("  slice: %s\n", report.slice.str().c_str());
        if (report.localization.attempted) {
            std::printf("  localization (%s vs %s): %s\n",
                        report.localization.implA.c_str(),
                        report.localization.implB.c_str(),
                        report.localization.localization.str()
                            .c_str());
            if (report.localization.bridged)
                std::printf("  note: %s\n",
                            report.localization.note.c_str());
        } else if (!report.localization.note.empty()) {
            std::printf("  localization: %s\n",
                        report.localization.note.c_str());
        }
    }
    exportTelemetry(options);
    return sharded.total.diffs > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace compdiff;

    const CliOptions options = parseArgs(argc, argv);

    if (!options.validateJson.empty()) {
        const std::string text = support::readFile(options.validateJson);
        if (text.empty()) {
            std::fprintf(stderr, "cannot read %s\n",
                         options.validateJson.c_str());
            return 2;
        }
        std::string error;
        if (!obs::jsonWellFormed(text, &error)) {
            std::fprintf(stderr, "%s: invalid JSON (%s)\n",
                         options.validateJson.c_str(),
                         error.c_str());
            return 1;
        }
        std::printf("%s: well-formed JSON (%zu bytes)\n",
                    options.validateJson.c_str(), text.size());
        return 0;
    }

    support::QuietGuard quiet(options.quiet);
    if (options.wantsTelemetry())
        obs::setEnabled(true);
    if (options.cacheLimitSet) {
        compiler::CompileCache::global().setLimits(
            options.cacheEntries,
            compiler::CompileCache::kDefaultMaxBytes);
    }

    std::string source;
    support::Bytes input;
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
        if (!seeds.empty())
            input = seeds.front();
    } else if (!options.positional.empty()) {
        source = support::readFile(options.positional[0]);
        if (source.empty()) {
            std::fprintf(stderr, "cannot read %s\n",
                         options.positional[0].c_str());
            return 2;
        }
    } else if (options.sancheck()) {
        std::printf("no program given; running the built-in sanlab "
                    "target (see DESIGN.md section 14)\n\n");
        source = sancheck::sanlabSource();
        seeds = sancheck::sanlabSeeds();
        if (!seeds.empty())
            input = seeds.front();
    } else {
        std::printf("no program given; analyzing the built-in demo "
                    "(see --help in the source header)\n\n");
        source = kDemoProgram;
        input = {10, 50}; // offset INT_MAX-10, len 50: overflows
    }
    if (options.target.empty() && options.positional.size() > 1) {
        const std::string raw = support::readFile(options.positional[1]);
        input.assign(raw.begin(), raw.end());
    }
    if (seeds.empty() && !input.empty())
        seeds.push_back(input);

    std::unique_ptr<minic::Program> program;
    try {
        program = minic::parseAndCheck(source);
    } catch (const support::CompileError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
    }

    if (options.fuzz) {
        try {
            return runFuzzMode(*program, seeds, options);
        } catch (const session::SessionError &error) {
            std::fprintf(stderr, "session error: %s\n",
                         error.what());
            return 2;
        }
    }

    if (options.sancheck()) {
        sancheck::SanCheckOracle oracle(
            *program,
            options.sanImplSet.empty()
                ? sancheck::defaultImplementations()
                : options.sanImplSet);
        const sancheck::Outcome outcome = oracle.runInput(input);
        std::printf("certified reference run: %s, "
                    "%zu certificate(s)\n",
                    outcome.certified.result.exitClass().c_str(),
                    outcome.certified.certificates.size());
        for (const auto &cert : outcome.certified.certificates)
            std::printf("  %s\n", cert.str().c_str());
        if (outcome.findings.empty()) {
            std::printf("\nno sanitizer findings on this input. "
                        "Try other inputs, or run a campaign with "
                        "--mode=sancheck --fuzz.\n");
            exportTelemetry(options);
            return 0;
        }
        for (const auto &finding : outcome.findings)
            std::printf("\nfinding: %s\n", finding.str().c_str());
        exportTelemetry(options);
        return 1;
    }

    core::DiffOptions diff_options;
    diff_options.jobs = options.jobs;
    core::DiffEngine engine(*program, options.implSet, diff_options);
    auto diff = engine.runInput(input);
    std::printf("%s", diff.summary().c_str());
    if (!diff.divergent) {
        std::printf("\nThis input shows no instability. Try other "
                    "inputs, or plug the program into the fuzzer "
                    "(see examples/fuzz_packetdump.cpp).\n");
        exportTelemetry(options);
        return 0;
    }

    // Localize between two behavior-class representatives. With
    // cross-backend pairs (e.g. against "ref"), localizeAcross
    // bridges to a same-class simulated member when one exists and
    // reports exactly which pair it aligned.
    auto pair = core::localizeAcross(
        *program, engine.implementations(), diff, input);
    if (pair.attempted) {
        std::printf("\nroot-cause candidate (%s vs %s):\n  %s\n",
                    pair.implA.c_str(), pair.implB.c_str(),
                    pair.localization.str().c_str());
        if (pair.bridged)
            std::printf("  note: %s\n", pair.note.c_str());
    } else {
        std::printf("\n(no root-cause candidate: %s)\n",
                    pair.note.c_str());
    }
    exportTelemetry(options);
    return 1;
}
