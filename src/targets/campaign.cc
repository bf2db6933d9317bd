#include "targets/campaign.hh"

#include <algorithm>

#include "compiler/compiler.hh"
#include "minic/parser.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "reduce/input_reducer.hh"
#include "sanitizers/sanitizers.hh"
#include "session/session.hh"
#include "support/logging.hh"

namespace compdiff::targets
{

namespace
{

/**
 * Triage oracle for a planted bug's witness: a candidate still
 * reproduces the bug when the bug's ground-truth probe fires on the
 * fuzz-config Vm and the implementations still diverge. Minimizing
 * with it is the automatic counterpart of the paper's manual triage:
 * a witness that still carried other records would attribute their
 * sanitizer reports to this bug (Table 6 would be contaminated). The
 * probe, not the divergence signature, is the bug's identity here, so
 * the reduction may drop other records' divergences along the way.
 */
class ProbeOracle : public reduce::Oracle
{
  public:
    ProbeOracle(const core::DiffEngine &engine, vm::Vm &probe_vm,
                int probe, std::uint64_t candidate_budget)
        : reduce::Oracle(candidate_budget), engine_(engine),
          probeVm_(probe_vm), probe_(probe)
    {
    }

  protected:
    bool accepts(const minic::Program &,
                 const support::Bytes &input) override
    {
        const auto run = probeVm_.run(input);
        return std::find(run.probes.begin(), run.probes.end(),
                         probe_) != run.probes.end() &&
               engine_.runInput(input).divergent;
    }

  private:
    const core::DiffEngine &engine_;
    vm::Vm &probeVm_;
    int probe_;
};

} // namespace

bool
CampaignResult::foundProbe(int probe_id) const
{
    for (const auto &finding : found)
        if (finding.probeId == probe_id)
            return true;
    return false;
}

CampaignResult
runCampaign(const TargetProgram &target,
            const CampaignOptions &options)
{
    obs::Span span("campaign." + target.name);
    obs::counter("campaign.targets").add();

    CampaignResult result;
    result.target = target.name;

    auto program = minic::parseAndCheck(target.source);

    fuzz::FuzzOptions fuzz_options;
    fuzz_options.maxExecs = options.maxExecs;
    fuzz_options.rngSeed = options.rngSeed;
    fuzz_options.limits = options.limits;
    if (!options.statsDir.empty()) {
        const std::string dir =
            options.statsDir + "/" + target.name;
        fuzz_options.statsOutPath = dir + "/fuzzer_stats";
        fuzz_options.plotOutPath = dir + "/plot_data";
    }
    // Record-oriented targets saturate well below AFL's default
    // input ceiling; a small cap keeps executions short.
    fuzz_options.maxInputSize = 64;
    // Output normalization (RQ5): strip the [ts:...] stamps that
    // targets like netshark embed per run.
    fuzz_options.diffOptions.normalizer =
        core::OutputNormalizer::withDefaultFilters();

    fuzz_options.jobs = options.jobs;

    // The session owns the lifecycle: configure → run → checkpoint →
    // resume → triage → report. Ephemeral unless sessionDir is set.
    session::SessionConfig session_config;
    if (!options.sessionDir.empty())
        session_config.dir = options.sessionDir + "/" + target.name;
    session_config.resume = options.resume;
    session_config.checkpointEvery = options.checkpointEvery;
    session_config.haltAfterExecs = options.haltAfterExecs;
    session_config.fuzz = fuzz_options;
    session_config.shards = options.shards;
    session_config.jobs = options.jobs;
    session_config.triage = options.triage;
    if (!session_config.triage.reportsDir.empty()) {
        session_config.triage.reportsDir += "/" + target.name;
    }
    session::CampaignSession session(*program, target.seeds,
                                     session_config);
    const fuzz::ShardedResult &sharded = session.run();
    result.stats = sharded.total;
    result.halted = session.halted();
    if (result.halted) {
        // A halted campaign has only partial evidence; the resume
        // that completes the budget performs the triage below.
        return result;
    }
    result.reports = session.triage();

    // Triage: map each unique divergence back to planted bugs via
    // the probes its witness fired. The session's portable records
    // carry exactly the evidence this needs.
    const std::vector<session::DivergenceRecord> records =
        session.divergenceRecords();
    obs::Span triage_span("campaign.triage");
    std::map<int, const session::DivergenceRecord *> witness_for;
    const auto keep_untriaged =
        [&](const session::DivergenceRecord &record) {
            for (const auto &seen : result.untriaged)
                if (seen.signature == record.signature)
                    return;
            result.untriaged.push_back({record.signature,
                                        record.input,
                                        record.hashVector});
        };
    for (const auto &record : records) {
        if (record.probes.empty()) {
            // No probe fired: keep the full evidence, not just a
            // count — the reducer/bundler can still consume it.
            keep_untriaged(record);
            continue;
        }
        for (int probe : record.probes) {
            if (!witness_for.count(probe))
                witness_for[probe] = &record;
        }
    }

    // Per-bug analysis on *minimized* witnesses.
    core::DiffOptions diff_options = fuzz_options.diffOptions;
    diff_options.limits = options.limits;
    core::DiffEngine engine(*program,
                            compiler::standardImplementations(),
                            diff_options);
    compiler::Compiler comp(*program);
    const compiler::CompilerConfig probe_config =
        fuzz_options.fuzzConfig;
    auto probe_module = comp.compile(probe_config);
    vm::Vm probe_vm(probe_module, probe_config, options.limits);

    sanitizers::SanitizerRunner runner(*program, options.limits);
    for (const auto &[probe, record] : witness_for) {
        const PlantedBug *bug = target.findBug(probe);
        if (!bug) {
            keep_untriaged(*record);
            continue;
        }
        BugFinding finding;
        finding.probeId = probe;
        finding.bug = bug;
        ProbeOracle oracle(engine, probe_vm, probe,
                           options.triage.candidateBudget);
        finding.witness =
            reduce::reduceInput(oracle, *program, record->input)
                .reduced;
        finding.hashVector =
            engine.runInput(finding.witness).hashVector();
        if (options.checkSanitizers) {
            finding.asanFires =
                runner.check(compiler::Sanitizer::ASan,
                             finding.witness)
                    .fired;
            finding.ubsanFires =
                runner.check(compiler::Sanitizer::UBSan,
                             finding.witness)
                    .fired;
            finding.msanFires =
                runner.check(compiler::Sanitizer::MSan,
                             finding.witness)
                    .fired;
        }
        result.found.push_back(std::move(finding));
    }
    obs::counter("campaign.bugs_found").add(result.found.size());
    obs::counter("campaign.untriaged_diffs")
        .add(result.untriaged.size());
    return result;
}

std::vector<CampaignResult>
runAllCampaigns(const CampaignOptions &options)
{
    std::vector<CampaignResult> results;
    for (const auto &target : allTargets())
        results.push_back(runCampaign(target, options));
    return results;
}

std::map<std::string, ColumnCounts>
aggregateByColumn(const std::vector<CampaignResult> &results)
{
    std::map<std::string, ColumnCounts> columns;
    for (const auto &target : allTargets()) {
        for (const auto &bug : target.bugs)
            columns[categoryColumn(bug.category)].planted++;
    }
    for (const auto &result : results) {
        for (const auto &finding : result.found) {
            ColumnCounts &c =
                columns[categoryColumn(finding.bug->category)];
            c.found++;
            if (finding.bug->confirmed)
                c.confirmed++;
            if (finding.bug->fixed)
                c.fixed++;
            if (finding.asanFires || finding.ubsanFires ||
                finding.msanFires) {
                c.sanitizerAlso++;
            }
        }
    }
    return columns;
}

} // namespace compdiff::targets
