#pragma once

/**
 * @file
 * The ledger's tracing layer: timing decorators around the oracle
 * members and an in-memory span store.
 *
 * Everything here sits *outside* the library. A traced campaign or
 * triage call is handed an ImplementationSet whose members are
 * TracedImplementation wrappers; they forward id(), describe() and
 * simulatedConfig() unchanged, so compile-cache keys, session
 * fingerprints and every observation stay bit-identical to the plain
 * set, and they time compile / makeExecutor / execute / rebind. Each
 * timed call becomes one Span whose parent is the enclosing
 * operation (a campaign or triage call the benchmark loop opened
 * with beginOp()).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "compdiff/implementation.hh"

namespace ledger
{

/** Seconds on the steady wall clock since an arbitrary epoch. */
inline double
nowSecs()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The layer a decorated call belongs to. */
enum class Layer : std::uint8_t
{
    Compile,      ///< Implementation::compile (compiler)
    MakeExecutor, ///< Implementation::makeExecutor (compdiff)
    Execute,      ///< Executor::execute (vm / refinterp)
    Rebind,       ///< Executor::rebind (compdiff)
};

const char *layerName(Layer layer);

/** `text` as a JSON string literal, quotes included. */
std::string jsonString(const std::string &text);

/** A small per-thread number, stable for the thread's lifetime. */
std::uint16_t threadIndex();

/** One timed call. Times are nowSecs() values. */
struct Span
{
    std::uint32_t op = 0; ///< enclosing operation (Op::id)
    Layer layer = Layer::Execute;
    std::uint16_t member = 0; ///< index into Probe::members()
    std::uint16_t thread = 0; ///< threadIndex() of the calling thread
    bool retry = false;       ///< execute at a raised budget (RQ6)
    double start = 0;
    double end = 0;
    std::uint64_t instructions = 0; ///< execute only
};

/** One closed-loop operation: a campaign or a triage call. */
struct Op
{
    std::uint32_t id = 0;
    std::string name; ///< "campaign", "triage", "witness_campaign"
    std::string target;
    double start = 0;
    double end = 0;
};

/**
 * Span store shared by every decorator of one traced run. Spans are
 * appended under a mutex (ExecutionService fans executes out over
 * pool threads at jobs > 1) and read only between operations.
 */
class Probe
{
  public:
    /**
     * Wrap every member of `impls` in a timing decorator recording
     * into this probe. `base_budget` is the campaign's instruction
     * budget: an execute asked for more is an RQ6 retry.
     */
    compdiff::core::ImplementationSet
    wrap(const compdiff::core::ImplementationSet &impls,
         std::uint64_t base_budget);

    /** Open an operation; decorated calls until endOp() attach to
     *  it. Returns its id. */
    std::uint32_t beginOp(const std::string &name,
                          const std::string &target);
    void endOp();

    /** Keep the raw output and the input of every first-attempt
     *  execute (for the normalizer and coverage replays). */
    void setCapture(bool on) { capture_ = on; }
    /** Drop what capture kept so far. */
    void clearCaptures();

    void record(const Span &span);
    void capture(std::uint32_t op, std::uint16_t member,
                 const compdiff::support::Bytes &input, std::string output);

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<Op> &ops() const { return ops_; }
    const std::vector<std::string> &members() const { return members_; }
    /** Raw outputs of every captured execute (normalizer replay). */
    const std::vector<std::string> &outputs() const { return outputs_; }
    /** Inputs executed by member 0, first attempts, in order, with
     *  their operation id: the campaign's input stream. */
    const std::vector<std::pair<std::uint32_t, compdiff::support::Bytes>> &
    inputs() const
    {
        return inputs_;
    }
    std::uint32_t currentOp() const { return current_.load(); }

    /** Write every op and span as JSON lines to `path`. */
    void writeJsonl(const std::string &path) const;

  private:
    std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<Op> ops_;
    std::vector<std::string> members_;
    std::vector<std::string> outputs_;
    std::vector<std::pair<std::uint32_t, compdiff::support::Bytes>> inputs_;
    /** Read by pool threads inside decorated calls. */
    std::atomic<bool> capture_{false};
    std::atomic<std::uint32_t> current_{0};
};

} // namespace ledger
