#include "compdiff/engine.hh"

#include <sstream>

#include "compdiff/exec_service.hh"
#include "compiler/cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace compdiff::core
{

using support::Bytes;

std::vector<std::uint64_t>
DiffResult::hashVector() const
{
    std::vector<std::uint64_t> hashes;
    hashes.reserve(observations.size());
    for (const auto &obs : observations)
        hashes.push_back(obs.hash);
    return hashes;
}

bool
DiffResult::divergesWithin(const std::vector<std::size_t> &subset) const
{
    if (subset.size() < 2)
        return false;
    const std::uint64_t first = observations[subset[0]].hash;
    for (std::size_t i = 1; i < subset.size(); i++)
        if (observations[subset[i]].hash != first)
            return true;
    return false;
}

std::string
DiffResult::summary(std::size_t max_output_bytes) const
{
    std::ostringstream os;
    os << (divergent ? "DIVERGENT" : "consistent") << " across "
       << observations.size() << " implementations ("
       << classCount << " behavior class"
       << (classCount == 1 ? "" : "es") << ")\n";
    for (std::size_t cls = 0; cls < classCount; cls++) {
        os << "  class " << cls << ":";
        const Observation *sample = nullptr;
        for (std::size_t i = 0; i < observations.size(); i++) {
            if (classOf[i] == cls) {
                os << " " << observations[i].impl;
                sample = &observations[i];
            }
        }
        if (sample) {
            std::string text = sample->normalizedOutput;
            if (text.size() > max_output_bytes) {
                text.resize(max_output_bytes);
                text += "...";
            }
            for (auto &c : text)
                if (c == '\n')
                    c = ' ';
            os << "\n    [" << sample->exitClass << "] \"" << text
               << "\"\n";
        }
    }
    if (obs::metricsEnabled()) {
        // Per-observation telemetry: the instruction count is the
        // deterministic stand-in for per-binary timing.
        os << "  telemetry (instructions per implementation):\n";
        for (const auto &obs_entry : observations) {
            os << "    " << obs_entry.impl << ": "
               << obs_entry.instructions
               << (obs_entry.timedOut ? " (timed out)" : "") << "\n";
        }
        os << "  budget rounds: " << (attempts > 0 ? attempts : 1)
           << (unresolvedTimeout ? " (timeout unresolved)" : "")
           << "\n";
    }
    return os.str();
}

DiffEngine::DiffEngine(const minic::Program &program,
                       DiffOptions options)
    : DiffEngine(program, paper10Implementations(),
                 std::move(options))
{
}

DiffEngine::DiffEngine(const minic::Program &program,
                       std::vector<compiler::CompilerConfig> configs,
                       DiffOptions options)
    : DiffEngine(program, implementationsFor(configs),
                 std::move(options))
{
}

DiffEngine::DiffEngine(const minic::Program &program,
                       ImplementationSet impls, DiffOptions options)
    : impls_(std::move(impls)), options_(std::move(options))
{
    compileAll(program);
    service_ = std::make_unique<ExecutionService>(
        impls_, artifacts_, options_.limits, options_.jobs);
}

DiffEngine::~DiffEngine() = default;

void
DiffEngine::compileAll(const minic::Program &program)
{
    obs::Span span("compdiff.compileAll");
    // One pretty-print fingerprints the program for the whole
    // k-implementation batch; each simulated compile is then a
    // cache lookup.
    CompileContext ctx;
    ctx.programHash = compiler::programFingerprint(program);
    ctx.traitsTweak = options_.traitsTweak;
    artifacts_.clear();
    artifacts_.reserve(impls_.size());
    for (const auto &impl : impls_)
        artifacts_.push_back(impl->compile(program, ctx));
}

void
DiffEngine::retarget(const minic::Program &program)
{
    obs::Span span("compdiff.retarget");
    compileAll(program);
    service_->rebindArtifacts(artifacts_);
}

DiffResult
DiffEngine::runInput(const Bytes &input, std::uint64_t nonce_base) const
{
    return std::move(runBatch({&input, 1}, {&nonce_base, 1}).front());
}

std::vector<DiffResult>
DiffEngine::runBatch(std::span<const Bytes> inputs,
                     std::span<const std::uint64_t> nonce_bases) const
{
    obs::Span run_span("compdiff.runBatch");
    // First round for the whole batch, implementation-major: each
    // resident executor (warm decoded module + arena) runs every
    // input back to back — in parallel when options_.jobs > 1;
    // observations land in configuration order either way.
    std::vector<DiffResult> results(inputs.size());
    service_->runBatch(inputs, nonce_bases,
                       options_.limits.maxInstructions,
                       options_.normalizer, results);
    for (std::size_t b = 0; b < inputs.size(); b++) {
        results[b].attempts = 1;
        // RQ6 retries (rare) and classification complete per input.
        finishInput(results[b], inputs[b], nonce_bases[b]);
    }
    return results;
}

void
DiffEngine::finishInput(DiffResult &result, const Bytes &input,
                        std::uint64_t nonce_base) const
{
    // result.observations holds the first round; the loop below
    // continues the budget schedule from there.
    std::uint64_t budget = options_.limits.maxInstructions;
    int attempts_left = (options_.retryTimeouts
                             ? options_.timeoutRetries + 1
                             : 1) -
                        1;

    while (true) {
        bool any_timeout = false;
        bool all_timeout = true;
        for (const Observation &obs : result.observations) {
            any_timeout |= obs.timedOut;
            all_timeout &= obs.timedOut;
        }
        if (!any_timeout || all_timeout) {
            result.unresolvedTimeout = false;
            break;
        }
        // Partial timeout: the truncated outputs are not comparable.
        // Raise the budget and try again (RQ6).
        result.unresolvedTimeout = true;
        budget *= options_.timeoutBudgetFactor;
        obs::counter("compdiff.timeout_retries").add();
        if (attempts_left-- <= 0)
            break;
        result.attempts++;
        service_->runBatch({&input, 1}, {&nonce_base, 1}, budget,
                           options_.normalizer, {&result, 1});
    }

    // Assign behavior classes.
    obs::Span compare_span("compdiff.compare");
    result.classOf.assign(impls_.size(), 0);
    std::vector<std::uint64_t> class_hash;
    for (std::size_t i = 0; i < result.observations.size(); i++) {
        const std::uint64_t h = result.observations[i].hash;
        std::size_t cls = class_hash.size();
        for (std::size_t c = 0; c < class_hash.size(); c++) {
            if (class_hash[c] == h) {
                cls = c;
                break;
            }
        }
        if (cls == class_hash.size())
            class_hash.push_back(h);
        result.classOf[i] = cls;
    }
    result.classCount = class_hash.size();
    result.divergent = !result.unresolvedTimeout &&
                       result.classCount > 1;

    if (obs::metricsEnabled()) {
        obs::counter("compdiff.runs").add();
        obs::counter("compdiff.impl_execs")
            .add(static_cast<std::uint64_t>(result.attempts) *
                 impls_.size());
        if (result.divergent)
            obs::counter("compdiff.divergent").add();
        if (result.unresolvedTimeout)
            obs::counter("compdiff.unresolved_timeouts").add();
        obs::histogram("compdiff.classes_per_run")
            .observe(result.classCount);
    }
}

} // namespace compdiff::core
