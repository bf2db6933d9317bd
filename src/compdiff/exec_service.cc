#include "compdiff/exec_service.hh"

#include "obs/trace.hh"
#include "support/hash.hh"

namespace compdiff::core
{

using support::Bytes;

ExecutionService::ExecutionService(
    ImplementationSet impls,
    std::vector<std::shared_ptr<const Artifact>> artifacts,
    vm::VmLimits limits, std::size_t jobs)
    : impls_(std::move(impls)), limits_(limits),
      jobs_(jobs == 0 ? support::ThreadPool::hardwareWorkers()
                      : jobs)
{
    ids_.reserve(impls_.size());
    executors_.reserve(impls_.size());
    for (std::size_t i = 0; i < impls_.size(); i++) {
        ids_.push_back(impls_[i]->id());
        executors_.push_back(
            impls_[i]->makeExecutor(artifacts[i], limits_));
    }
    if (jobs_ > 1)
        pool_ = std::make_unique<support::ThreadPool>(jobs_);
}

void
ExecutionService::rebindArtifacts(
    const std::vector<std::shared_ptr<const Artifact>> &artifacts)
{
    for (std::size_t i = 0; i < executors_.size(); i++) {
        if (!executors_[i]->rebind(artifacts[i])) {
            executors_[i] =
                impls_[i]->makeExecutor(artifacts[i], limits_);
        }
    }
}

void
ExecutionService::executeOne(std::size_t index, const Bytes &input,
                             std::uint64_t nonce_base,
                             std::uint64_t budget,
                             const OutputNormalizer &normalizer,
                             Observation &out)
{
    obs::Span exec_span(obs::tracingEnabled()
                            ? "exec." + ids_[index]
                            : std::string());
    const RawObservation raw = executors_[index]->execute(
        input, nonce_base * executors_.size() + index + 1, budget);

    out.impl = ids_[index];
    out.timedOut = raw.timedOut;
    out.instructions = raw.instructions;
    out.normalizedOutput = normalizer.normalize(raw.output);
    out.exitClass = raw.exitClass;
    support::HashCombiner combiner;
    combiner.addString(out.normalizedOutput);
    combiner.addString(out.exitClass);
    out.hash = combiner.digest();
}

void
ExecutionService::runBatch(std::span<const Bytes> inputs,
                           std::span<const std::uint64_t> nonce_bases,
                           std::uint64_t budget,
                           const OutputNormalizer &normalizer,
                           std::span<DiffResult> out)
{
    for (auto &result : out)
        result.observations.resize(executors_.size());

    // Implementation-major: one executor runs the whole input batch
    // before the next implementation starts. Every (i, b) cell is a
    // pure function of (implementation, input, nonce_base, budget),
    // so neither this order nor the jobs > 1 fan-out below is
    // observable.
    const auto run_impl = [&](std::size_t i) {
        for (std::size_t b = 0; b < inputs.size(); b++) {
            executeOne(i, inputs[b], nonce_bases[b], budget,
                       normalizer, out[b].observations[i]);
        }
    };
    if (!pool_) {
        for (std::size_t i = 0; i < executors_.size(); i++)
            run_impl(i);
        return;
    }
    // One task per implementation (an executor is single-threaded);
    // each task walks the batch serially.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(executors_.size());
    for (std::size_t i = 0; i < executors_.size(); i++)
        tasks.push_back([&run_impl, i] { run_impl(i); });
    pool_->runAll(std::move(tasks));
}

} // namespace compdiff::core
