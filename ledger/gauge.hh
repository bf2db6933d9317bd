#pragma once

/**
 * @file
 * The host-speed gauge.
 *
 * The ledger runs on shared hosts whose speed drifts by tens of percent
 * over minutes, as neighbours load the cores and caches. The gauge is a
 * small fixed kernel timed on the wall clock between the benchmark's
 * operations. Half of it works on data (table updates, a hit-count map,
 * decimal formatting, FNV hashing, small allocations); half spreads
 * indirect calls over 256 distinct functions, as an interpreter's
 * handlers do. That is the mix a campaign's fuzz loop runs, and the
 * gauge slows with the host about as much as a campaign does.
 *
 * Each timed operation is converted to *reference seconds*: its wall
 * time times kGaugeReferenceSeconds over the mean of the gauge samples
 * taken just before and just after it. A gauge of N threads runs the
 * kernel on N threads at once and times the slowest, for workloads
 * that keep N threads busy.
 *
 * The kernel calls nothing in the CompDiff library, so a change to the
 * library cannot change it. It must itself never change: every figure
 * the ledger records is in units of its speed.
 */

#include <vector>

namespace ledger
{

/** Gauge wall seconds at the reference speed, about the median
 *  single-thread sample on a shared 4-vCPU x86-64 VM (Intel Xeon) in a
 *  quiet spell. */
constexpr double kGaugeReferenceSeconds = 0.030;

/** Run the gauge kernel once on this thread; returns its wall
 *  seconds. */
double gaugeKernelSeconds();

class HostGauge
{
  public:
    explicit HostGauge(unsigned threads = 1) : threads_(threads) {}

    /** Take a sample; returns its wall seconds. */
    double sample();
    /** The latest sample, taking one first if there is none. */
    double last();
    /** Reference seconds of `wall` seconds measured between the
     *  samples `before` and `after`. */
    static double toReference(double wall, double before, double after)
    {
        return wall * kGaugeReferenceSeconds / (0.5 * (before + after));
    }
    const std::vector<double> &samples() const { return samples_; }

  private:
    unsigned threads_;
    std::vector<double> samples_;
};

} // namespace ledger
