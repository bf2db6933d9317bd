/**
 * @file
 * Sanitizer-checking front end (DESIGN.md section 14): certify each
 * input's UB-ness with the reference interpreter, run the sanitized
 * implementations, and classify per-sanitizer false negatives /
 * false positives.
 *
 *   ./build/examples/compdiff_sancheck [options]
 *
 * Three modes: the default sweeps the seed set (the built-in sanlab
 * target's unless --program/--seeds override it) and prints the
 * Table-6-style FN/FP overlap matrix; --input=FILE classifies one
 * input and exits 1 when a finding fires (the reproduce command
 * sig-<hex>/report.md bundles name); --fuzz[=N] runs a sancheck
 * campaign instead of the fixed sweep. Run it with --help for the
 * options.
 */

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compdiff/implementation.hh"
#include "minic/parser.hh"
#include "reduce/report.hh"
#include "sancheck/report.hh"
#include "sancheck/sancheck.hh"
#include "session/session.hh"
#include "support/bytes.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace
{

struct CliOptions
{
    std::string program;
    std::string input;
    std::string impls;
    /** --impls parsed; the standard four when unset. */
    compdiff::core::ImplementationSet implSet;
    std::string seedsDir;
    bool fuzz = false;
    std::uint64_t jobs = 1;
    std::uint64_t shards = 1;
    /** Campaign budget, persistence and triage knobs. */
    compdiff::session::SessionConfig session;
    bool quiet = false;
};

CliOptions
parseArgs(int argc, char **argv)
{
    using compdiff::support::Flag;
    CliOptions o;
    auto &triage = o.session.triage;
    const compdiff::support::FlagSet flags(
        "compdiff_sancheck [options]",
        {{"",
          {
              Flag("--program=FILE", &o.program,
                   "MiniC program (default: built-in sanlab)"),
              Flag("--input=FILE", &o.input,
                   "classify one input; exit 1 on a finding"),
              Flag("--impls=SPECS", &o.impls,
                   "sanitized implementation specs (default: the "
                   "standard four)"),
              Flag("--seeds=DIR", &o.seedsDir,
                   "extra seed files for the sweep/campaign"),
              Flag("--fuzz[=N]", &o.session.fuzz.maxExecs,
                   "run a sancheck fuzz campaign, then print the matrix",
                   &o.fuzz),
              Flag("--jobs=N", &o.jobs,
                   "worker threads (never changes results)")
                  .atMost(compdiff::support::kMaxWorkerCount),
              Flag("--shards=N", &o.shards, "deterministic campaign shards")
                  .atMost(compdiff::support::kMaxWorkerCount),
              Flag("--session=DIR", &o.session.dir,
                   "persist the campaign as a session"),
              Flag("--resume", &o.session.resume,
                   "continue the session in --session=DIR"),
              Flag("--halt-after=N", &o.session.haltAfterExecs,
                   "stop shards at the first safe point at or beyond N "
                   "executions"),
              Flag("--reduce[=B]", &triage.candidateBudget,
                   "reduce each unique finding", &triage.reduceFound),
              Flag("--reports-out=D", &triage.reportsDir,
                   "write sig-<hex>/ bundles under D"),
              Flag("--quiet", &o.quiet, "silence warn()/inform() notices"),
          }}});
    const auto positional =
        flags.parseOrExit({argv + 1, argv + argc}).positional;
    if (!positional.empty())
        flags.fail("unexpected argument " + positional.front());
    const auto &registry = compdiff::core::ImplementationRegistry::global();
    o.implSet = o.impls.empty()
                    ? compdiff::sancheck::defaultImplementations()
                    : flags.convert("--impls",
                                    [&] { return registry.parse(o.impls); });
    return o;
}

/**
 * Table-6-style overlap matrix: one row per sanitized
 * implementation, one column per UB class, each cell the unique
 * FN/FP signature counts observed for that pair.
 */
std::string
renderMatrix(const std::vector<std::string> &impl_ids,
             const std::vector<compdiff::sancheck::SanFinding>
                 &findings)
{
    using namespace compdiff;
    static const refinterp::UbKind kKinds[] = {
        refinterp::UbKind::SignedOverflow,
        refinterp::UbKind::DivideByZero,
        refinterp::UbKind::OversizedShift,
        refinterp::UbKind::NullDeref,
        refinterp::UbKind::OutOfBounds,
        refinterp::UbKind::UninitRead,
    };
    // One unique signature is one cell entry: the campaign already
    // dedups, the fixed sweep dedups here.
    std::set<std::string> seen;
    std::map<std::pair<std::string, refinterp::UbKind>,
             std::pair<std::uint64_t, std::uint64_t>>
        cells;
    std::uint64_t total_fn = 0, total_fp = 0;
    for (const auto &finding : findings) {
        if (!seen.insert(finding.signature()).second)
            continue;
        auto &cell = cells[{finding.implId, finding.ubKind}];
        if (finding.kind == sancheck::FindingKind::FalseNegative) {
            cell.first++;
            total_fn++;
        } else {
            cell.second++;
            total_fp++;
        }
    }

    support::TextTable table;
    std::vector<std::string> header = {"impl"};
    std::vector<support::Align> align = {support::Align::Left};
    for (const auto kind : kKinds) {
        header.push_back(refinterp::ubKindName(kind));
        align.push_back(support::Align::Left);
    }
    table.setHeader(std::move(header));
    table.setAlign(std::move(align));
    for (const auto &impl : impl_ids) {
        std::vector<std::string> row = {impl};
        for (const auto kind : kKinds) {
            const auto it = cells.find({impl, kind});
            if (it == cells.end()) {
                row.push_back(".");
                continue;
            }
            std::string cell;
            if (it->second.first) {
                cell += "FN x" +
                        std::to_string(it->second.first);
            }
            if (it->second.second) {
                if (!cell.empty())
                    cell += " ";
                cell += "FP x" +
                        std::to_string(it->second.second);
            }
            row.push_back(cell);
        }
        table.addRow(std::move(row));
    }
    std::ostringstream os;
    os << "sanitizer FN/FP matrix (unique signatures):\n"
       << table.str() << "\n"
       << "findings : " << total_fn << " FN, " << total_fp
       << " FP\n";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace compdiff;

    const CliOptions options = parseArgs(argc, argv);
    support::QuietGuard quiet(options.quiet);

    const core::ImplementationSet &impls = options.implSet;
    try {
        sancheck::validateImpls(impls);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
    }

    std::string source;
    std::vector<support::Bytes> seeds;
    if (options.program.empty()) {
        source = sancheck::sanlabSource();
        seeds = sancheck::sanlabSeeds();
    } else {
        source = support::readFile(options.program);
        if (source.empty()) {
            std::fprintf(stderr, "cannot read %s\n",
                         options.program.c_str());
            return 2;
        }
    }
    if (!options.seedsDir.empty()) {
        std::vector<std::string> paths;
        for (const auto &entry :
             std::filesystem::directory_iterator(options.seedsDir)) {
            if (entry.is_regular_file())
                paths.push_back(entry.path().string());
        }
        std::sort(paths.begin(), paths.end());
        for (const auto &path : paths) {
            const std::string raw = support::readFile(path);
            seeds.emplace_back(raw.begin(), raw.end());
        }
    }

    std::unique_ptr<minic::Program> program;
    try {
        program = minic::parseAndCheck(source);
    } catch (const support::CompileError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
    }

    std::vector<std::string> impl_ids;
    for (const auto &impl : impls)
        impl_ids.push_back(impl->id());

    // --input: classify exactly one pair — the reproduce command
    // that sig-<hex>/report.md bundles name. Exit 1 on a finding.
    if (!options.input.empty()) {
        const std::string raw = support::readFile(options.input);
        const support::Bytes input(raw.begin(), raw.end());
        sancheck::SanCheckOracle oracle(*program, impls);
        const sancheck::Outcome outcome = oracle.runInput(input);
        std::printf("certified reference run: %s, "
                    "%zu certificate(s)\n",
                    outcome.certified.result.exitClass().c_str(),
                    outcome.certified.certificates.size());
        for (const auto &cert : outcome.certified.certificates)
            std::printf("  %s\n", cert.str().c_str());
        for (const auto &finding : outcome.findings)
            std::printf("finding: %s\n", finding.str().c_str());
        if (outcome.findings.empty())
            std::printf("no sanitizer findings on this input\n");
        return outcome.findings.empty() ? 0 : 1;
    }

    std::vector<sancheck::SanFinding> findings;
    if (options.fuzz) {
        session::SessionConfig session_config = options.session;
        session_config.fuzz.sancheckMode = true;
        session_config.fuzz.sancheckImpls = impls;
        session_config.fuzz.jobs = options.jobs;
        session_config.shards = options.shards;
        session_config.jobs = options.jobs;

        try {
            session::CampaignSession session(*program, seeds,
                                             session_config);
            const fuzz::ShardedResult &sharded = session.run();
            if (session.halted()) {
                std::printf(
                    "session halted after %llu execs; rerun with "
                    "--session=%s --resume to finish\n",
                    static_cast<unsigned long long>(
                        sharded.total.execs),
                    options.session.dir.c_str());
                return 0;
            }
            for (const auto &diff : sharded.diffs) {
                std::printf("finding at exec %llu: %s\n",
                            static_cast<unsigned long long>(
                                diff.execIndex),
                            diff.sanFinding.str().c_str());
                findings.push_back(diff.sanFinding);
            }
            const auto reports = session.triageSancheck();
            for (const auto &report : reports) {
                std::printf(
                    "reduced %s: input %zu -> %zu bytes, "
                    "program %zu -> %zu statements%s\n",
                    reduce::signatureDirName(
                        report.finding.signatureHash())
                        .c_str(),
                    report.witnessInput.size(),
                    report.input.size(),
                    report.programStats.stmtsBefore,
                    report.programStats.stmtsAfter,
                    report.reproduced ? ""
                                      : " (witness did not "
                                        "reproduce; kept as-is)");
            }
        } catch (const session::SessionError &error) {
            std::fprintf(stderr, "session error: %s\n",
                         error.what());
            return 2;
        }
    } else {
        // Fixed sweep: classify every seed against every
        // implementation — nonce 0, seed order, fully
        // deterministic.
        sancheck::SanCheckOracle oracle(*program, impls);
        std::vector<sancheck::FindingWitness> witnesses;
        std::set<std::string> seen;
        for (const auto &seed : seeds) {
            const sancheck::Outcome outcome =
                oracle.runInput(seed);
            for (const auto &finding : outcome.findings) {
                findings.push_back(finding);
                if (seen.insert(finding.signature()).second)
                    witnesses.push_back({seed, finding});
            }
        }
        const session::TriageOptions &triage = options.session.triage;
        if (triage.reduceFound && !witnesses.empty()) {
            sancheck::FindingReduceOptions reduce_options;
            reduce_options.candidateBudget = triage.candidateBudget;
            reduce_options.jobs = options.jobs;
            reduce_options.reportsDir = triage.reportsDir;
            const auto reports = sancheck::reduceFindings(
                *program, impls, witnesses, reduce_options);
            for (const auto &report : reports) {
                std::printf(
                    "reduced %s: input %zu -> %zu bytes\n",
                    reduce::signatureDirName(
                        report.finding.signatureHash())
                        .c_str(),
                    report.witnessInput.size(),
                    report.input.size());
            }
        }
    }

    std::printf("\n%s",
                renderMatrix(impl_ids, findings).c_str());
    return findings.empty() ? 0 : 1;
}
