#pragma once

/**
 * @file
 * The CompDiff differential engine (paper Section 3.1).
 *
 * Workflow, exactly as the paper states it:
 *   1) fix a set of compiler implementations C_i,
 *   2) compile the program with each C_i into binaries B_i,
 *   3) run every B_i on the same input,
 *   4) compare the (normalized) output checksums; any mismatch makes
 *      the input bug-triggering.
 *
 * The engine also implements the RQ6 timeout discipline: when only
 * *some* binaries exceed the execution budget, the budget is raised
 * and the run repeated, so that truncated outputs are never reported
 * as divergence.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compdiff/implementation.hh"
#include "compdiff/normalizer.hh"
#include "compiler/config.hh"
#include "support/bytes.hh"
#include "vm/vm.hh"

namespace compdiff::core
{

class ExecutionService;

/** Engine knobs. */
struct DiffOptions
{
    vm::VmLimits limits;
    OutputNormalizer normalizer = OutputNormalizer::withDefaultFilters();
    /** RQ6: re-run partial timeouts with a larger budget. */
    bool retryTimeouts = true;
    int timeoutRetries = 3;
    std::uint64_t timeoutBudgetFactor = 4;
    /**
     * Worker threads for the k-way execution fan-out: 1 = serial
     * (the seed behavior), 0 = one per hardware thread. Results are
     * bit-identical for every value — the ExecutionService fills the
     * observation vector in configuration order and nonces depend
     * only on (nonce_base, config index), never on scheduling.
     */
    std::size_t jobs = 1;
    /**
     * Ablation hook: mutate each simulated configuration's derived
     * traits before compilation (e.g. disable one UB-exploiting pass
     * across the whole implementation set). Compile-time knobs only;
     * backends without Traits (the reference interpreter) ignore it.
     */
    std::function<void(compiler::Traits &)> traitsTweak;
};

/** One implementation's observation for an input. */
struct Observation
{
    /** Implementation::id() of the implementation that ran. */
    std::string impl;
    std::string normalizedOutput;
    std::string exitClass;
    std::uint64_t hash = 0;
    bool timedOut = false;
    /** Instructions executed in the final (kept) attempt — the
     *  deterministic per-implementation "timing" axis. */
    std::uint64_t instructions = 0;
};

/** Outcome of one differential run. */
struct DiffResult
{
    bool divergent = false;
    /**
     * Set when the run still contained partial timeouts after all
     * retries; such inputs are never reported as divergent (they are
     * the only would-be false-positive source, RQ6).
     */
    bool unresolvedTimeout = false;
    /** Budget rounds executed (1 = no timeout retry was needed);
     *  every implementation ran this many times (RQ6 accounting). */
    int attempts = 0;
    std::vector<Observation> observations;
    /** Distinct behavior classes; classOf[i] indexes them. */
    std::vector<std::size_t> classOf;
    std::size_t classCount = 0;

    /** Per-implementation output hashes, in implementation order. */
    std::vector<std::uint64_t> hashVector() const;

    /** Would the subset (indices into observations) still diverge? */
    bool divergesWithin(const std::vector<std::size_t> &subset) const;

    /**
     * Human-readable report: classes, members, and their outputs.
     * When metrics are enabled (obs::metricsEnabled()), each class
     * line additionally carries per-observation instruction-count
     * telemetry and the report ends with the retry accounting.
     */
    std::string summary(std::size_t max_output_bytes = 160) const;
};

/**
 * Compiles a program under a set of implementations and runs the
 * output-comparison oracle on inputs.
 *
 * Compilation happens once, in the constructor, into one Artifact
 * per implementation (the simulated family memoizes modules in the
 * process-wide compiler::CompileCache, so rebuilding an engine for
 * the same (program, impl, traits) skips recompilation entirely);
 * runBatch() then only executes (the forkserver-style reuse from
 * Section 3.2), dispatching the k executions over the engine's
 * ExecutionService (serially when options.jobs == 1).
 *
 * Concurrency: a DiffEngine may be driven by one thread at a time
 * (its ExecutionService reuses per-implementation Executor state
 * between rounds). Sharded campaigns construct one engine per shard;
 * the compile cache makes those k-way compilations nearly free.
 */
class DiffEngine
{
  public:
    /**
     * Diff against the paper's ten-implementation oracle.
     *
     * @param program  Analyzed program (must outlive the engine).
     * @param options  Engine knobs.
     */
    explicit DiffEngine(const minic::Program &program,
                        DiffOptions options = {});

    /**
     * Diff against an explicit implementation set (e.g. from
     * ImplementationRegistry::parse).
     */
    DiffEngine(const minic::Program &program, ImplementationSet impls,
               DiffOptions options = {});

    /**
     * Convenience: an all-simulated oracle from a config list
     * (wraps each CompilerConfig in its simulated implementation).
     */
    DiffEngine(const minic::Program &program,
               std::vector<compiler::CompilerConfig> configs,
               DiffOptions options = {});

    ~DiffEngine();

    /**
     * Run every binary on one input and compare normalized outputs:
     * a runBatch of one, viewing `input` in place.
     *
     * @param input      The test input.
     * @param nonce_base Seed for per-execution nonces (timestamps);
     *                   every binary execution gets a distinct nonce,
     *                   as wall-clock time would.
     */
    DiffResult runInput(const support::Bytes &input,
                        std::uint64_t nonce_base = 0) const;

    /**
     * Run a batch of inputs against the resident binaries — one
     * DiffResult per input, each a pure function of (input,
     * nonce_base), so batch boundaries are unobservable. The first
     * execution round of the whole batch is dispatched
     * implementation-major through the ExecutionService (each
     * resident executor runs every input back to back); the rare RQ6
     * timeout-retry rounds then complete per input, each as a batch
     * of one. `nonce_bases` must have one entry per input.
     */
    std::vector<DiffResult>
    runBatch(std::span<const support::Bytes> inputs,
             std::span<const std::uint64_t> nonce_bases) const;

    /**
     * Recompile the oracle for a new program and retarget the
     * resident executors at the fresh artifacts in place (falling
     * back to executor rebuilds for backends that cannot rebind).
     * Equivalent to constructing a new engine with the same
     * implementations and options, minus the per-program setup cost —
     * the reduction oracle retargets one engine across thousands of
     * candidate programs.
     */
    void retarget(const minic::Program &program);

    /** The oracle members, in observation order. */
    const ImplementationSet &implementations() const
    {
        return impls_;
    }

    /** Number of implementations (k in the paper). */
    std::size_t size() const { return impls_.size(); }

    const DiffOptions &options() const { return options_; }

  private:
    /**
     * Complete a result whose observations hold the first round
     * (result.attempts == 1): run the RQ6 timeout-retry loop, assign
     * behavior classes, and record metrics.
     */
    void finishInput(DiffResult &result, const support::Bytes &input,
                     std::uint64_t nonce_base) const;

    void compileAll(const minic::Program &program);

    ImplementationSet impls_;
    DiffOptions options_;
    std::vector<std::shared_ptr<const Artifact>> artifacts_;
    std::unique_ptr<ExecutionService> service_;
};

} // namespace compdiff::core
