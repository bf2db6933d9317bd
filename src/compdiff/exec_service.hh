#pragma once

/**
 * @file
 * Parallel k-way execution for the differential oracle.
 *
 * The paper's Section 5 overhead discussion reports ~10x run-time
 * cost for the full ten-implementation set because every input is
 * executed k times *serially*. Those k executions are independent by
 * construction (each implementation has its own address space and
 * the oracle only compares their finished observations), so the
 * fan-out is embarrassingly parallel.
 *
 * ExecutionService is the forkserver analog one level up: it keeps
 * one resident Executor per implementation (a warm Vm for the
 * simulated family, a warm tree-walker for the reference
 * interpreter — whatever the backend builds) and executes batches of
 * inputs against them, implementation-major, over a
 * support::ThreadPool. A single input is a batch of one. Determinism
 * is preserved structurally:
 *   - input b's observation of implementation i is written to
 *     out[b].observations[i], so completion order is invisible;
 *   - per-execution nonces are computed from (nonce_base, i), not
 *     from scheduling;
 *   - the RQ6 timeout-retry loop stays in DiffEngine, which sees
 *     exactly the same observation vector a serial run produces.
 * A service with jobs == 1 runs the batch inline on the caller's
 * thread with the same code path, which is how the bit-identity of
 * `--jobs 1` and `--jobs N` is enforced by design rather than by
 * testing alone (the test exists too).
 *
 * Concurrency contract: one ExecutionService belongs to one
 * DiffEngine, and runBatch() may be called by one thread at a time
 * (the per-implementation Executors are reused across batches).
 * Sharded campaigns get one engine (and service) per shard.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "support/thread_pool.hh"

namespace compdiff::core
{

class ExecutionService
{
  public:
    /**
     * @param impls     The oracle members, in observation order.
     * @param artifacts One compiled artifact per implementation
     *                  (same order).
     * @param limits    Per-execution limits; the instruction budget
     *                  is overridden per batch (RQ6 retries).
     * @param jobs      Worker threads; 1 = inline serial execution,
     *                  0 = ThreadPool::hardwareWorkers().
     */
    ExecutionService(
        ImplementationSet impls,
        std::vector<std::shared_ptr<const Artifact>> artifacts,
        vm::VmLimits limits, std::size_t jobs);

    /**
     * Execute every implementation on every input with the given
     * instruction budget and fill out[b].observations (resized to
     * size()) with input b's observations in implementation order.
     * Each observation depends only on (implementation, input,
     * nonce_base, budget); `nonce_bases` and `out` have one entry
     * per input.
     *
     * The iteration order is the batch win: implementation-major, so
     * each resident executor (and its decoded module, warm arena, and
     * branch-predictor state) runs the whole input batch back to back
     * instead of being interleaved k ways per input. With jobs > 1
     * the batch becomes k tasks — one per implementation, each
     * serial over the inputs — one pool dispatch per batch.
     */
    void runBatch(std::span<const support::Bytes> inputs,
                  std::span<const std::uint64_t> nonce_bases,
                  std::uint64_t budget,
                  const OutputNormalizer &normalizer,
                  std::span<DiffResult> out);

    /**
     * Retarget every resident executor at a new per-implementation
     * artifact vector (same implementation order as construction).
     * Executors whose backend cannot rebind in place are rebuilt via
     * makeExecutor. This is what keeps one service (and its warm
     * Vm arenas) alive across the thousands of candidate programs a
     * reduction or fuzzing campaign compiles.
     */
    void rebindArtifacts(
        const std::vector<std::shared_ptr<const Artifact>> &artifacts);

    /** Number of implementations (k). */
    std::size_t size() const { return executors_.size(); }

    /** Resolved worker count (>= 1). */
    std::size_t jobs() const { return jobs_; }

  private:
    void executeOne(std::size_t index, const support::Bytes &input,
                    std::uint64_t nonce_base, std::uint64_t budget,
                    const OutputNormalizer &normalizer,
                    Observation &out);

    /** The oracle members (kept for rebind fallbacks). */
    ImplementationSet impls_;
    /** Implementation ids, observation order (summaries/spans). */
    std::vector<std::string> ids_;
    /** Resident per-implementation workers (forkserver reuse). */
    std::vector<std::unique_ptr<Executor>> executors_;
    vm::VmLimits limits_;
    std::size_t jobs_;
    /** Present only when jobs_ > 1. */
    std::unique_ptr<support::ThreadPool> pool_;
};

} // namespace compdiff::core
