#pragma once

/**
 * @file
 * The ledger's three workloads (see README.md for why each exists).
 *
 * Every workload is a closed loop: one caller starts a campaign or a
 * triage call, waits for it, checks its output, and starts the next.
 * A run is a fixed number of cycles, round(seconds / cycleSeconds),
 * so a faster or slower build does exactly the same work. Each cycle
 * draws its own campaign seeds from the workload seed: one run
 * averages over many campaigns, and the same seed gives the same
 * inputs. The untraced run times every operation `reps` times in a
 * row and keeps the fastest, in reference seconds (gauge.hh). The
 * traced run
 * goes through the same cycles and seeds once, through the timing
 * decorators, with an untraced twin of the first cycles, and derives
 * the per-layer figures from the spans and from replays of each
 * cycle's own traffic.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace ledger
{

/** One reported figure. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Work sizes of one workload; the selftest shrinks them. */
struct Budget
{
    /** Fuzz executions per campaign (per target). */
    std::uint64_t execs = 0;
    /** Oracle-candidate budget per triaged witness. */
    std::uint64_t candidates = 0;
    /** Zero-budget set-up repetitions per cycle; setup_s is their
     *  median (campaign workloads; triage sets up once per cycle). */
    int setupReps = 0;
    /** Timed repetitions of every operation in the untraced run, in a
     *  row; the fastest, in reference seconds, counts. */
    int reps = 0;
    /** Seconds of --seconds per cycle: a run is
     *  max(1, round(seconds / cycleSeconds)) cycles. */
    double cycleSeconds = 0;
};

/** Relative tolerance of the trace self-check. */
constexpr double kSelfCheckTolerance = 0.02;

struct RunConfig
{
    /** "campaign", "campaign_persist" or "triage". */
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory for session trees, report bundles and the span
     *  dump; created if missing, emptied of this run's files at
     *  exit. */
    std::string scratch;
    /** Zero fields take the workload's defaults. */
    Budget budget;
};

/** What a run reports. */
struct RunOutcome
{
    /** Operations attempted: campaigns, reported divergences,
     *  triaged witnesses. */
    std::uint64_t attempted = 0;
    /** Operations that threw or produced a wrong result. */
    std::uint64_t failed = 0;
    /** False when any completed operation produced a wrong result
     *  (a failure that is an error, not a wrong output, leaves it
     *  true). */
    bool correct = true;
    /** End-to-end metrics (untraced) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    /** Human-readable findings: per-target rows, failures. */
    std::vector<std::string> notes;
};

/** The workload names, in presentation order. */
const std::vector<std::string> &workloadNames();

/** Run one workload. Throws std::invalid_argument on a bad name. */
RunOutcome runWorkload(const RunConfig &config);

/** One cold set-up repetition (setup_s is the median of these). */
struct SetupSample
{
    double seconds = 0;
    /** CompileCache misses during the repetition. */
    std::uint64_t cacheMisses = 0;
};

/** Measure one set-up repetition of `config.workload`. */
SetupSample measureSetup(const RunConfig &config);

namespace testing
{
/**
 * Counts (execs, oracle execs, corpus, edges, diffs, crashes) and the
 * divergence signatures of one in-memory campaign on a bundled
 * target, run through plain or timing-decorated oracle members.
 */
std::vector<std::uint64_t>
campaignFingerprint(const std::string &target, const std::string &impls,
                    std::size_t jobs, std::uint64_t execs,
                    std::uint64_t rng_seed, bool decorated);

/**
 * The largest trace self-check term of one traced in-memory campaign
 * whose oracle members are wrapped `wraps` times (1 is the real
 * set-up; 2 times every call twice and must fail the check).
 */
double traceResidual(const std::string &target, const std::string &impls,
                     std::size_t jobs, std::uint64_t execs,
                     std::uint64_t rng_seed, int wraps);
} // namespace testing

} // namespace ledger
