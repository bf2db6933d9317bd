#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "compdiff/engine.hh"
#include "compdiff/implementation.hh"
#include "compiler/cache.hh"
#include "fuzz/fuzzer.hh"
#include "gauge.hh"
#include "minic/parser.hh"
#include "probe.hh"
#include "reduce/oracle.hh"
#include "reduce/report.hh"
#include "semdiff/canon.hh"
#include "session/checkpoint.hh"
#include "session/serial.hh"
#include "session/session.hh"
#include "targets/targets.hh"
#include "vm/coverage.hh"
#include "vm/vm.hh"

namespace ledger
{

namespace fs = std::filesystem;
using namespace compdiff;

namespace
{

Budget defaultBudget(const std::string &workload);
double peakRssMb();

// ---------------------------------------------------------------------
// Small helpers

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/** Nearest-rank quantile (q in [0,1]). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank ? rank - 1 : 0)];
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** The fuzzer RNG seed of campaign `index` of a workload. */
std::uint64_t
campaignSeed(std::uint64_t seed, const std::string &workload,
             std::size_t index)
{
    std::uint64_t h = splitmix(seed);
    for (char c : workload)
        h = splitmix(h ^ static_cast<unsigned char>(c));
    return splitmix(h ^ index);
}

std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    return buf;
}

// ---------------------------------------------------------------------
// Campaign plumbing shared by every workload

const targets::TargetProgram &
targetSpec(const std::string &name)
{
    const auto *spec = targets::findTarget(name);
    if (!spec)
        throw std::runtime_error("ledger: no bundled target " + name);
    return *spec;
}

/** The fuzz options every ledger campaign uses (the same knobs as
 *  targets::runCampaign). */
fuzz::FuzzOptions
fuzzOptions(std::uint64_t execs, std::uint64_t rng_seed,
            core::ImplementationSet impls)
{
    fuzz::FuzzOptions options;
    options.maxExecs = execs;
    options.rngSeed = rng_seed;
    options.maxInputSize = 64;
    options.diffOptions.normalizer =
        core::OutputNormalizer::withDefaultFilters();
    options.diffImpls = std::move(impls);
    return options;
}

core::DiffOptions
diffOptionsOf(const fuzz::FuzzOptions &options)
{
    core::DiffOptions diff = options.diffOptions;
    diff.limits = options.limits;
    diff.jobs = 1;
    return diff;
}

/** Everything that must repeat exactly between two runs of one
 *  campaign. */
struct CampaignDigest
{
    fuzz::FuzzStats total;
    std::vector<std::uint64_t> signatures;
    std::vector<std::uint64_t> execIndices;

    bool operator==(const CampaignDigest &o) const
    {
        return total.execs == o.total.execs &&
               total.compdiffExecs == o.total.compdiffExecs &&
               total.seeds == o.total.seeds &&
               total.crashes == o.total.crashes &&
               total.diffs == o.total.diffs &&
               total.edges == o.total.edges &&
               signatures == o.signatures &&
               execIndices == o.execIndices;
    }
};

CampaignDigest
digestOf(const fuzz::ShardedResult &result)
{
    CampaignDigest digest;
    digest.total = result.total;
    for (const auto &diff : result.diffs) {
        digest.signatures.push_back(diff.signature);
        digest.execIndices.push_back(diff.execIndex);
    }
    return digest;
}

/** Cycles in a run: a fixed number for the given --seconds, so a
 *  faster or slower build does exactly the same work. */
int
cycleCount(const RunConfig &config)
{
    return std::max(1, static_cast<int>(std::lround(
                           config.seconds / config.budget.cycleSeconds)));
}

/** Operation accounting for one run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> notes;

    /** An operation completed with a wrong result. */
    void wrong(const std::string &what)
    {
        failed++;
        correct = false;
        notes.push_back("WRONG: " + what);
    }
};

/**
 * Check every reported divergence: a fresh engine must reproduce the
 * campaign's hash vector under the recorded execution index. Each
 * divergence is one operation.
 */
void
verifyDivergences(const minic::Program &program,
                  const fuzz::FuzzOptions &options,
                  const std::vector<fuzz::FoundDiff> &diffs,
                  const std::string &target, Tally &tally)
{
    if (diffs.empty())
        return;
    core::DiffEngine engine(program, options.diffImpls,
                            diffOptionsOf(options));
    for (const auto &diff : diffs) {
        tally.attempted++;
        const auto again = engine.runInput(diff.input, diff.execIndex);
        if (!again.divergent ||
            again.hashVector() != diff.result.hashVector()) {
            tally.wrong(target + ": divergence at exec " +
                        std::to_string(diff.execIndex) +
                        " does not reproduce");
        }
    }
}

/** CompileCache hits and misses across one timed call. */
struct CacheDelta
{
    double hits = 0;
    double misses = 0;

    static CacheDelta now()
    {
        const auto &cache = compiler::CompileCache::global();
        return {static_cast<double>(cache.hits()),
                static_cast<double>(cache.misses())};
    }
    CacheDelta since(const CacheDelta &start) const
    {
        return {hits - start.hits, misses - start.misses};
    }
    CacheDelta &operator+=(const CacheDelta &o)
    {
        hits += o.hits;
        misses += o.misses;
        return *this;
    }
    double ratio() const
    {
        return hits + misses > 0 ? hits / (hits + misses) : 0;
    }
};

/** A plain (untraced) or decorated oracle; `wraps` > 1 stacks
 *  decorators (only the self-check's own test does that). */
core::ImplementationSet
oracleFor(const std::string &spec, Probe *probe, int wraps = 1)
{
    auto impls = core::ImplementationRegistry::global().parse(spec);
    for (int i = 0; probe && i < wraps; i++)
        impls = probe->wrap(impls, vm::VmLimits{}.maxInstructions);
    return impls;
}

struct CampaignSpec
{
    std::string target;
    std::string impls;
    std::size_t jobs = 1;
    std::uint64_t execs = 0;
    std::uint64_t rngSeed = 0;
};

/** The outcome of one timed campaign. */
struct CampaignRun
{
    double wall = 0;
    /** `wall` in reference seconds (see gauge.hh). */
    double refWall = 0;
    /** CompileCache hits and misses inside the timed call. */
    CacheDelta cache;
    CampaignDigest digest;
    std::vector<fuzz::FoundDiff> diffs;
};

/** An in-memory campaign, timed from session construction to its
 *  destruction. */
CampaignRun
runCampaign(const minic::Program &program, const CampaignSpec &spec,
            Probe *probe, int wraps = 1)
{
    session::SessionConfig config;
    config.fuzz = fuzzOptions(spec.execs, spec.rngSeed,
                              oracleFor(spec.impls, probe, wraps));
    config.jobs = spec.jobs;
    config.fuzz.jobs = spec.jobs;
    CampaignRun run;
    if (probe)
        probe->beginOp("campaign", spec.target);
    const CacheDelta cache = CacheDelta::now();
    const double t0 = nowSecs();
    {
        session::CampaignSession session(
            program, targetSpec(spec.target).seeds, config);
        const auto &result = session.run();
        run.digest = digestOf(result);
        run.diffs = result.diffs;
    }
    run.wall = nowSecs() - t0;
    run.cache = CacheDelta::now().since(cache);
    if (probe)
        probe->endOp();
    return run;
}

/** Cold set-up of one target: parse, canonicalize, open a session
 *  and compile B_fuzz plus the oracle (a zero-budget campaign). */
void
coldSetup(const std::string &target, const std::string &impls,
          std::size_t jobs, const std::string &dir)
{
    auto program = minic::parseAndCheck(targetSpec(target).source);
    semdiff::canonicalize(*program);
    session::SessionConfig config;
    config.fuzz = fuzzOptions(0, 1, oracleFor(impls, nullptr));
    config.jobs = jobs;
    config.fuzz.jobs = jobs;
    config.dir = dir;
    session::CampaignSession session(*program, targetSpec(target).seeds,
                                     config);
    session.run();
}

/** A finished witness campaign whose triage() the workload times. */
struct WitnessSession
{
    std::string target;
    std::unique_ptr<minic::Program> program;
    std::unique_ptr<session::CampaignSession> session;
    std::string reportsDir;
};

/** One cold set-up repetition of a workload; the triage set-up's
 *  witness sessions land in `keep` when it is non-null. */
SetupSample setupOnce(const RunConfig &config, int cycle,
                      std::vector<WitnessSession> *keep);

// ---------------------------------------------------------------------
// Repetition

/**
 * Run every operation of a run `reps` times in a row and keep each
 * one's fastest run, in reference seconds. A host gauge sample follows
 * every repetition: its wall time is converted to reference seconds
 * with the samples on either side of it, which cancels the host's
 * drift (see gauge.hh); the fastest repetition drops a short slow
 * spell the gauge missed. `run(rep, i)` runs operation `i`; every
 * repetition must give the same result (`digest`).
 */
template <typename Result, typename Fn>
std::vector<Result>
fastestOf(int reps, const std::vector<std::string> &names, Fn run,
          HostGauge &gauge, Tally &tally)
{
    std::vector<Result> best(names.size());
    for (std::size_t i = 0; i < names.size(); i++) {
        for (int rep = 0; rep < reps; rep++) {
            const double before = gauge.last();
            Result r = run(rep, i);
            r.refWall = HostGauge::toReference(r.wall, before, gauge.sample());
            if (rep > 0 && !(r.digest == best[i].digest))
                tally.wrong(names[i] + ": a repetition gave another result");
            if (rep == 0 || r.refWall < best[i].refWall)
                best[i] = std::move(r);
        }
    }
    return best;
}

// ---------------------------------------------------------------------
// Trace analysis

/** Total length of the union of [start, end) intervals. */
double
unionLength(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0;
    double cur_start = 0;
    double cur_end = -1;
    bool open = false;
    for (const auto &[start, end] : intervals) {
        if (!open || start > cur_end) {
            if (open)
                total += cur_end - cur_start;
            cur_start = start;
            cur_end = end;
            open = true;
        } else {
            cur_end = std::max(cur_end, end);
        }
    }
    if (open)
        total += cur_end - cur_start;
    return total;
}

/** Per-layer figures from a traced run's spans. */
struct SpanSummary
{
    double opWall = 0; ///< Σ op walls
    std::uint64_t compiles = 0;
    double compileBusy = 0;
    std::uint64_t oracleExecs = 0;
    double oracleBusy = 0; ///< Σ execute durations, every member
    std::uint64_t insns = 0;
    std::uint64_t retries = 0;
    std::uint64_t refExecs = 0;
    double refBusy = 0;
    std::uint64_t rebinds = 0;
    double rebindBusy = 0;
    std::vector<double> simExecUs;
    /** Blocking time per layer: union of that layer's spans. */
    std::map<Layer, double> blocking;
    /** Union of every span clipped to its operation (what some timed
     *  call covers). */
    double covered = 0;
    /** Span time outside the span's own operation. */
    double escaped = 0;
    /** Span time that overlaps another span on the same thread, i.e.
     *  was timed twice. */
    double nested = 0;
};

SpanSummary
summarize(const Probe &probe, const std::set<std::string> &op_names)
{
    SpanSummary out;
    std::map<std::uint32_t, const Op *> ops;
    for (const auto &op : probe.ops()) {
        if (!op_names.count(op.name))
            continue;
        ops[op.id] = &op;
        out.opWall += op.end - op.start;
    }
    using Intervals = std::vector<std::pair<double, double>>;
    std::map<Layer, Intervals> per_layer;
    std::map<std::pair<std::uint32_t, std::uint16_t>, Intervals> per_thread;
    Intervals clipped;
    for (const auto &span : probe.spans()) {
        const auto it = ops.find(span.op);
        if (it == ops.end())
            continue;
        const Op &op = *it->second;
        const double d = span.end - span.start;
        const bool is_ref = probe.members()[span.member] == "ref";
        switch (span.layer) {
        case Layer::Compile:
            out.compiles++;
            out.compileBusy += d;
            break;
        case Layer::MakeExecutor:
            break;
        case Layer::Execute:
            out.oracleExecs++;
            out.oracleBusy += d;
            out.insns += span.instructions;
            out.retries += span.retry ? 1 : 0;
            if (is_ref) {
                out.refExecs++;
                out.refBusy += d;
            } else {
                out.simExecUs.push_back(d * 1e6);
            }
            break;
        case Layer::Rebind:
            out.rebinds++;
            out.rebindBusy += d;
            break;
        }
        per_layer[span.layer].push_back({span.start, span.end});
        per_thread[{span.op, span.thread}].push_back({span.start, span.end});
        const double start = std::max(span.start, op.start);
        const double end = std::min(span.end, op.end);
        out.escaped += d - std::max(0.0, end - start);
        if (end > start)
            clipped.push_back({start, end});
    }
    for (auto &[layer, intervals] : per_layer)
        out.blocking[layer] = unionLength(std::move(intervals));
    for (auto &[key, intervals] : per_thread) {
        double sum = 0;
        for (const auto &[start, end] : intervals)
            sum += end - start;
        out.nested += sum - unionLength(std::move(intervals));
    }
    out.covered = unionLength(std::move(clipped));
    return out;
}

/** The terms of the trace self-check, each as a share of the traced
 *  wall time. */
struct SelfCheck
{
    double attributed = 0;   ///< Σ layer blocking time, seconds
    double unattributed = 0; ///< traced wall − covered, seconds
    double sumResidual = 0;  ///< |attributed + unattributed − wall|
    double escaped = 0;
    double nested = 0;

    double worst() const { return std::max({sumResidual, escaped, nested}); }
};

/**
 * The trace self-check. The attributed blocking time of each layer
 * (the union of its spans) plus the unattributed remainder (traced
 * wall minus everything some span covers) must add up to the traced
 * wall time; layers that overlap one another or spans that fall
 * outside their operation make the sum drift. Two further terms
 * catch what the sum cannot see: span time outside its own operation
 * (a call charged to the wrong operation), and span time that
 * overlaps another span on the same thread (a call timed twice, as
 * stacked decorators would).
 */
SelfCheck
selfCheckTerms(const SpanSummary &s)
{
    SelfCheck c;
    for (const auto &[layer, secs] : s.blocking)
        c.attributed += secs;
    c.unattributed = s.opWall - s.covered;
    if (s.opWall > 0) {
        c.sumResidual =
            std::fabs(c.attributed + c.unattributed - s.opWall) / s.opWall;
        c.escaped = s.escaped / s.opWall;
        c.nested = s.nested / s.opWall;
    }
    return c;
}

void
selfCheck(const SpanSummary &s, Tally &tally)
{
    const SelfCheck c = selfCheckTerms(s);
    tally.notes.push_back(
        "trace self-check: attributed " + fmt("%.4f", c.attributed) +
        " s + unattributed " + fmt("%.4f", c.unattributed) +
        " s vs traced wall " + fmt("%.4f", s.opWall) + " s (residual " +
        fmt("%.5f", c.sumResidual) + ", escaped " + fmt("%.5f", c.escaped) +
        ", timed twice " + fmt("%.5f", c.nested) + "; tolerance " +
        fmt("%.2f", kSelfCheckTolerance) + ")");
    if (c.worst() > kSelfCheckTolerance)
        tally.wrong("trace self-check exceeds its tolerance");
}

/** The captured raw outputs replayed through the default normalizer. */
struct NormalizeReplay
{
    double seconds = 0;
    double outputs = 0;
    double changed = 0;

    void add(const Probe &probe)
    {
        const auto normalizer =
            core::OutputNormalizer::withDefaultFilters();
        const double t0 = nowSecs();
        for (const auto &output : probe.outputs()) {
            if (normalizer.normalize(output) != output)
                changed++;
        }
        seconds += nowSecs() - t0;
        outputs += static_cast<double>(probe.outputs().size());
    }
    double changedFrac() const { return outputs > 0 ? changed / outputs : 0; }
};

/**
 * Replay the captured input stream through B_fuzz with a coverage
 * map, as the fuzz loop runs it. `programs` maps each traced campaign
 * op to its program.
 */
double
coverageReplay(const Probe &probe,
               const std::map<std::uint32_t, const minic::Program *> &programs)
{
    const fuzz::FuzzOptions options = fuzzOptions(0, 0, {});
    struct Loaded
    {
        std::shared_ptr<const bytecode::Module> module;
        std::unique_ptr<vm::Vm> vm;
    };
    std::map<const minic::Program *, Loaded> loaded;
    vm::CoverageMap coverage;
    double secs = 0;
    std::uint64_t nonce = 0;
    for (const auto &[op, input] : probe.inputs()) {
        const auto it = programs.find(op);
        if (it == programs.end())
            continue;
        Loaded &l = loaded[it->second];
        if (!l.vm) {
            l.module = compiler::compileCached(*it->second, options.fuzzConfig);
            l.vm = std::make_unique<vm::Vm>(*l.module, options.fuzzConfig,
                                            options.limits);
        }
        const double t0 = nowSecs();
        coverage.reset();
        l.vm->run(input, &coverage, ++nonce);
        secs += nowSecs() - t0;
    }
    return secs;
}

/** Median seconds of `reps` runs of `fn`. */
template <typename Fn>
double
timeMedian(int reps, Fn fn)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; i++) {
        const double t0 = nowSecs();
        fn();
        samples.push_back(nowSecs() - t0);
    }
    return median(samples);
}

/** Timed parse + canonicalize of the targets (median of 5). */
std::pair<double, double>
frontEndTimes(const std::vector<std::string> &targets)
{
    std::vector<std::unique_ptr<minic::Program>> programs;
    const double parse = timeMedian(5, [&] {
        programs.clear();
        for (const auto &name : targets)
            programs.push_back(
                minic::parseAndCheck(targetSpec(name).source));
    });
    const double canon = timeMedian(5, [&] {
        for (const auto &program : programs)
            semdiff::canonicalize(*program);
    });
    return {parse, canon};
}

/** The per-layer metric set, every name present (zero where the
 *  workload does not exercise the layer). */
class LayerMetrics
{
  public:
    LayerMetrics()
    {
        for (const auto &[name, unit] : kLayout)
            values_[name] = 0;
    }
    void set(const std::string &name, double value)
    {
        if (!values_.count(name))
            throw std::logic_error("ledger: unknown metric " + name);
        values_[name] = value;
    }
    std::vector<Metric> list() const
    {
        std::vector<Metric> out;
        for (const auto &[name, unit] : kLayout)
            out.push_back({name, values_.at(name), unit});
        return out;
    }

    /** Fill the span-derived figures of a traced run. */
    void fromSpans(const SpanSummary &s, double threads)
    {
        set("compiler.compiles", static_cast<double>(s.compiles));
        set("compiler.compile_s", s.compileBusy);
        set("vm.oracle_execs", static_cast<double>(s.oracleExecs));
        set("vm.oracle_exec_s", s.oracleBusy);
        set("vm.oracle_exec_us_p50", quantile(s.simExecUs, 0.50));
        set("vm.oracle_exec_us_p99", quantile(s.simExecUs, 0.99));
        set("vm.oracle_insns", static_cast<double>(s.insns));
        set("vm.retry_execs", static_cast<double>(s.retries));
        set("refinterp.execs", static_cast<double>(s.refExecs));
        set("refinterp.exec_s", s.refBusy);
        set("compdiff.rebinds", static_cast<double>(s.rebinds));
        set("compdiff.rebind_s", s.rebindBusy);
        set("compdiff.oracle_busy_frac",
            s.opWall > 0 ? s.oracleBusy / (s.opWall * threads) : 0);
        set("trace.unattributed_frac",
            s.opWall > 0 ? (s.opWall - s.covered) / s.opWall : 0);
    }

  private:
    static const std::vector<std::pair<std::string, std::string>>
        kLayout;
    std::map<std::string, double> values_;
};

const std::vector<std::pair<std::string, std::string>>
    LayerMetrics::kLayout = {
        {"minic.parse_s", "s"},
        {"compiler.compiles", "count"},
        {"compiler.compile_s", "s"},
        {"compiler.cache_hit_ratio", "ratio"},
        {"vm.oracle_execs", "count"},
        {"vm.oracle_exec_s", "s"},
        {"vm.oracle_exec_us_p50", "us"},
        {"vm.oracle_exec_us_p99", "us"},
        {"vm.oracle_insns", "count"},
        {"vm.retry_execs", "count"},
        {"vm.coverage_exec_s", "s"},
        {"refinterp.execs", "count"},
        {"refinterp.exec_s", "s"},
        {"compdiff.normalize_s", "s"},
        {"compdiff.normalize_changed_frac", "ratio"},
        {"compdiff.rebinds", "count"},
        {"compdiff.rebind_s", "s"},
        {"compdiff.oracle_busy_frac", "ratio"},
        {"fuzz.execs", "count"},
        {"fuzz.corpus", "count"},
        {"fuzz.edges", "count"},
        {"fuzz.diffs", "count"},
        {"fuzz.crashes", "count"},
        {"fuzz.self_s", "s"},
        {"session.checkpoints", "count"},
        {"session.journal_bytes", "bytes"},
        {"session.encode_us", "us"},
        {"session.decode_us", "us"},
        {"session.restore_s", "s"},
        {"reduce.witnesses", "count"},
        {"reduce.candidates", "count"},
        {"reduce.accept_ratio", "ratio"},
        {"reduce.shrink_bytes", "bytes"},
        {"reduce.shrink_stmts", "count"},
        {"reduce.self_s", "s"},
        {"semdiff.canon_s", "s"},
        {"trace.overhead_frac", "ratio"},
        {"trace.unattributed_frac", "ratio"},
};

fuzz::FuzzStats
sumStats(const std::vector<CampaignDigest> &digests)
{
    fuzz::FuzzStats sum;
    for (const auto &d : digests) {
        sum.execs += d.total.execs;
        sum.seeds += d.total.seeds;
        sum.edges += d.total.edges;
        sum.diffs += d.total.diffs;
        sum.crashes += d.total.crashes;
    }
    return sum;
}

void
setFuzzCounts(LayerMetrics &m, const std::vector<CampaignDigest> &digests)
{
    const fuzz::FuzzStats sum = sumStats(digests);
    m.set("fuzz.execs", static_cast<double>(sum.execs));
    m.set("fuzz.corpus", static_cast<double>(sum.seeds));
    m.set("fuzz.edges", static_cast<double>(sum.edges));
    m.set("fuzz.diffs", static_cast<double>(sum.diffs));
    m.set("fuzz.crashes", static_cast<double>(sum.crashes));
}

/** The fuzz counts of an untraced run, so a traced run of the same
 *  seed can be compared with them. */
std::string
fuzzCountsNote(const std::vector<CampaignDigest> &digests)
{
    const fuzz::FuzzStats sum = sumStats(digests);
    return "exact counts: fuzz.execs " + std::to_string(sum.execs) +
           ", fuzz.corpus " + std::to_string(sum.seeds) + ", fuzz.edges " +
           std::to_string(sum.edges) + ", fuzz.diffs " +
           std::to_string(sum.diffs) + ", fuzz.crashes " +
           std::to_string(sum.crashes);
}

/** Blocking time every decorated call covers (compile, executor
 *  creation, execute, rebind) — what fuzz/reduce self time excludes. */
double
decoratedBlocking(const SpanSummary &s)
{
    double total = 0;
    for (const auto &[layer, secs] : s.blocking)
        total += secs;
    return total;
}

RunOutcome
finish(Tally &tally, std::vector<Metric> metrics)
{
    RunOutcome out;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.correct = tally.correct;
    out.metrics = std::move(metrics);
    // Every cycle repeats the same failures (floatpack triage): keep
    // the first of each note, on one line, with a repeat count.
    std::vector<std::string> order;
    std::map<std::string, int> count;
    for (std::string note : tally.notes) {
        std::replace(note.begin(), note.end(), '\n', ' ');
        if (count[note]++ == 0)
            order.push_back(note);
    }
    for (const auto &note : order) {
        out.notes.push_back(count[note] > 1 ? note + " (x" +
                                                  std::to_string(count[note]) +
                                                  ")"
                                            : note);
    }
    return out;
}

/** Closed-loop totals: work units done, wall seconds (in reference
 *  seconds and as measured), operations. */
struct Totals
{
    double work = 0;
    double wall = 0;
    double rawWall = 0;
    double ops = 0;

    template <typename Run> void add(const Run &run, double work_units,
                                     double op_units)
    {
        work += work_units;
        wall += run.refWall;
        rawWall += run.wall;
        ops += op_units;
    }
};

std::vector<Metric>
endToEnd(Tally &tally, double setup, const Totals &t)
{
    if (t.ops == 0 || t.wall <= 0)
        tally.wrong("no operation completed");
    return {{"setup_s", setup, "s"},
            {"execs_per_s", t.wall > 0 ? t.work / t.wall : 0, "execs/s"},
            {"s_per_op", t.ops > 0 ? t.wall / t.ops : 0, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"}};
}

std::string
cyclesNote(int cycles, int reps, const Totals &t, const char *work,
           const char *op)
{
    return std::to_string(cycles) + " cycles, fastest of " +
           std::to_string(reps) + ": " + fmt("%.0f ", t.work) + work + ", " +
           fmt("%.0f ", t.ops) + op + ", " +
           fmt("%.3f reference s timed", t.wall) +
           fmt(" (%.3f s measured, ", t.rawWall) +
           fmt("%.1f ", t.rawWall > 0 ? t.work / t.rawWall : 0) + work +
           "/s measured)";
}

/** The gauge samples of a run, for the notes. */
std::string
gaugeNote(const HostGauge &gauge)
{
    return "host gauge: " + std::to_string(gauge.samples().size()) +
           " samples, median " + fmt("%.2f ms", 1e3 * median(gauge.samples())) +
           " (reference " + fmt("%.2f ms)", 1e3 * kGaugeReferenceSeconds);
}

/** The analyzed programs of bundled targets, in order. */
using Programs = std::vector<std::unique_ptr<minic::Program>>;

Programs
parseTargets(const std::vector<std::string> &names)
{
    Programs programs;
    for (const auto &name : names)
        programs.push_back(minic::parseAndCheck(targetSpec(name).source));
    return programs;
}

/** Account one campaign and check its divergences. */
void
checkCampaign(const minic::Program &program, const CampaignSpec &spec,
              const CampaignRun &run, Tally &tally)
{
    tally.attempted++;
    verifyDivergences(program,
                      fuzzOptions(spec.execs, spec.rngSeed,
                                  oracleFor(spec.impls, nullptr)),
                      run.diffs, spec.target, tally);
}

/**
 * A cycle's zero-budget set-up repetitions. They are spread over the
 * run, one batch per cycle, because the host's speed shifts over tens
 * of seconds (shared cores): a burst of samples at the start would
 * time one moment of it. Each sample is converted to reference
 * seconds with the latest gauge sample.
 */
void
sampleSetup(const RunConfig &config, HostGauge &gauge,
            std::vector<double> &samples)
{
    const double g = gauge.last();
    for (int rep = 0; rep < config.budget.setupReps; rep++) {
        samples.push_back(HostGauge::toReference(
            setupOnce(config, 0, nullptr).seconds, g, g));
    }
}

/** Untraced/traced twin cycles at the start of a traced run; the
 *  overhead is the ratio of their median walls. */
constexpr int kTwins = 3;

double
overheadFrac(std::vector<double> traced, std::vector<double> plain)
{
    return median(std::move(traced)) / median(std::move(plain)) - 1;
}

/** Replays of one traced cycle's captured campaign traffic, summed
 *  over the run. */
struct CampaignReplays
{
    double coverage = 0;
    NormalizeReplay normalize;

    /** Replay and drop what the probe captured since the last call. */
    void add(Probe &probe,
             const std::map<std::string, const minic::Program *> &programs)
    {
        std::map<std::uint32_t, const minic::Program *> op_programs;
        for (const auto &op : probe.ops()) {
            if (op.name == "campaign")
                op_programs[op.id] = programs.at(op.target);
        }
        coverage += coverageReplay(probe, op_programs);
        normalize.add(probe);
        probe.clearCaptures();
    }
};

/** Per-layer figures shared by the two campaign workloads. */
void
campaignLayers(LayerMetrics &m, const SpanSummary &s,
               const CampaignReplays &replays, double threads)
{
    m.fromSpans(s, threads);
    m.set("fuzz.self_s", s.opWall - decoratedBlocking(s));
    m.set("vm.coverage_exec_s", replays.coverage);
    m.set("compdiff.normalize_s", replays.normalize.seconds);
    m.set("compdiff.normalize_changed_frac",
          replays.normalize.changedFrac());
}

// ---------------------------------------------------------------------
// Workload: campaign

const std::vector<std::string> kCampaignTargets = {"pktdump", "phplite",
                                                   "floatpack"};

/** Cycle `cycle`: one campaign per target, each with its own seed. */
std::vector<CampaignSpec>
campaignSpecs(const RunConfig &config, int cycle)
{
    std::vector<CampaignSpec> specs;
    for (std::size_t i = 0; i < kCampaignTargets.size(); i++) {
        const std::size_t index =
            static_cast<std::size_t>(cycle) * kCampaignTargets.size() + i;
        specs.push_back({kCampaignTargets[i], "paper10", 1,
                         config.budget.execs,
                         campaignSeed(config.seed, "campaign", index)});
    }
    return specs;
}

/** An in-memory campaign from a cold compile cache. */
CampaignRun
coldCampaign(const minic::Program &program, const CampaignSpec &spec,
             Probe *probe)
{
    compiler::CompileCache::global().clear();
    return runCampaign(program, spec, probe);
}

RunOutcome
campaignWorkload(const RunConfig &config)
{
    Tally tally;
    const auto targets = parseTargets(kCampaignTargets);
    const int cycles = cycleCount(config);
    std::vector<CampaignDigest> digests;

    if (!config.trace) {
        std::vector<CampaignSpec> specs;
        std::vector<std::string> names;
        for (int cycle = 0; cycle < cycles; cycle++) {
            for (const auto &spec : campaignSpecs(config, cycle)) {
                specs.push_back(spec);
                names.push_back(spec.target);
            }
        }
        const std::size_t per_cycle = kCampaignTargets.size();
        std::vector<double> setups;
        HostGauge gauge;
        const auto runs = fastestOf<CampaignRun>(
            config.budget.reps, names,
            [&](int rep, std::size_t op) {
                if (rep == 0 && op % per_cycle == 0)
                    sampleSetup(config, gauge, setups);
                const std::size_t i = op % per_cycle;
                CampaignRun run = coldCampaign(*targets[i], specs[op], nullptr);
                if (rep + 1 == config.budget.reps)
                    checkCampaign(*targets[i], specs[op], run, tally);
                run.diffs.clear();
                return run;
            },
            gauge, tally);
        Totals t;
        std::vector<Totals> per_target(targets.size());
        for (std::size_t op = 0; op < runs.size(); op++) {
            digests.push_back(runs[op].digest);
            for (Totals *sum : {&t, &per_target[op % per_cycle]})
                sum->add(runs[op],
                         static_cast<double>(runs[op].digest.total.execs), 1);
        }
        tally.notes.push_back(cyclesNote(cycles, config.budget.reps, t,
                                         "execs", "campaigns"));
        tally.notes.push_back(gaugeNote(gauge));
        for (std::size_t i = 0; i < targets.size(); i++) {
            tally.notes.push_back(
                kCampaignTargets[i] + ": " +
                fmt("%.1f execs/s", per_target[i].work / per_target[i].wall));
        }
        tally.notes.push_back(fuzzCountsNote(digests));
        return finish(tally, endToEnd(tally, median(setups), t));
    }

    LayerMetrics m;
    const auto [parse_s, canon_s] = frontEndTimes(kCampaignTargets);
    m.set("minic.parse_s", parse_s);
    m.set("semdiff.canon_s", canon_s);
    std::map<std::string, const minic::Program *> programs;
    for (std::size_t i = 0; i < targets.size(); i++)
        programs[kCampaignTargets[i]] = targets[i].get();
    Probe probe;
    probe.setCapture(true);
    CampaignReplays replays;
    std::vector<double> plain_walls;
    std::vector<double> traced_walls;
    CacheDelta cache;
    for (int cycle = 0; cycle < cycles; cycle++) {
        const auto specs = campaignSpecs(config, cycle);
        double plain_wall = 0;
        double traced_wall = 0;
        for (std::size_t i = 0; i < specs.size(); i++) {
            const CampaignRun traced =
                coldCampaign(*targets[i], specs[i], &probe);
            checkCampaign(*targets[i], specs[i], traced, tally);
            digests.push_back(traced.digest);
            cache += traced.cache;
            traced_wall += traced.wall;
            if (cycle < kTwins) {
                const CampaignRun plain =
                    coldCampaign(*targets[i], specs[i], nullptr);
                plain_wall += plain.wall;
                if (!(plain.digest == traced.digest))
                    tally.wrong(specs[i].target + ": traced campaign "
                                                  "differs from the "
                                                  "untraced one");
            }
        }
        if (cycle < kTwins) {
            plain_walls.push_back(plain_wall);
            traced_walls.push_back(traced_wall);
        }
        replays.add(probe, programs);
    }

    const SpanSummary s = summarize(probe, {"campaign"});
    selfCheck(s, tally);
    setFuzzCounts(m, digests);
    m.set("compiler.cache_hit_ratio", cache.ratio());
    m.set("trace.overhead_frac", overheadFrac(traced_walls, plain_walls));
    campaignLayers(m, s, replays, 1);
    probe.writeJsonl(config.scratch + "/trace-campaign.jsonl");
    return finish(tally, m.list());
}

// ---------------------------------------------------------------------
// Workload: campaign_persist

constexpr const char *kPersistTarget = "pktdump";
constexpr const char *kPersistImpls = "all";
constexpr std::size_t kPersistJobs = 2;

struct PersistSpec
{
    CampaignSpec campaign;
    std::string dir;
    std::uint64_t checkpointEvery = 0;
    std::uint64_t haltAfter = 0;
};

PersistSpec
persistSpec(const RunConfig &config, int cycle)
{
    PersistSpec spec;
    spec.campaign = {kPersistTarget, kPersistImpls, kPersistJobs,
                     config.budget.execs,
                     campaignSeed(config.seed, "campaign_persist",
                                  static_cast<std::size_t>(cycle))};
    spec.dir = config.scratch + "/persist-session";
    // Dense checkpoints: fifty per campaign.
    spec.checkpointEvery = std::max<std::uint64_t>(config.budget.execs / 50, 1);
    spec.haltAfter = config.budget.execs / 2;
    return spec;
}

session::SessionConfig
persistConfig(const PersistSpec &spec, Probe *probe)
{
    session::SessionConfig config;
    config.fuzz = fuzzOptions(spec.campaign.execs, spec.campaign.rngSeed,
                              oracleFor(spec.campaign.impls, probe));
    config.jobs = spec.campaign.jobs;
    config.fuzz.jobs = spec.campaign.jobs;
    config.dir = spec.dir;
    config.checkpointEvery = spec.checkpointEvery;
    return config;
}

/** Halt at half budget, then resume to completion, as after a kill;
 *  timed from the first session's construction to the resumed one's
 *  destruction, cold compile cache first. */
CampaignRun
persistCampaign(const minic::Program &program, const PersistSpec &spec,
                Probe *probe, Tally &tally)
{
    fs::remove_all(spec.dir);
    compiler::CompileCache::global().clear();
    const auto &seeds = targetSpec(kPersistTarget).seeds;
    CampaignRun run;
    if (probe)
        probe->beginOp("campaign", kPersistTarget);
    const CacheDelta cache = CacheDelta::now();
    const double t0 = nowSecs();
    {
        auto config = persistConfig(spec, probe);
        config.haltAfterExecs = spec.haltAfter;
        session::CampaignSession first(program, seeds, config);
        first.run();
        if (!first.halted())
            tally.wrong("persist: campaign did not halt at half budget");
    }
    {
        auto config = persistConfig(spec, probe);
        config.resume = true;
        session::CampaignSession resumed(program, seeds, config);
        const auto &result = resumed.run();
        if (!resumed.completed())
            tally.wrong("persist: resumed campaign did not complete");
        run.digest = digestOf(result);
        run.diffs = result.diffs;
    }
    run.wall = nowSecs() - t0;
    run.cache = CacheDelta::now().since(cache);
    if (probe)
        probe->endOp();
    return run;
}

/** The uninterrupted in-memory run a halted+resumed one must match. */
CampaignDigest
persistReference(const minic::Program &program, const PersistSpec &spec)
{
    return coldCampaign(program, spec.campaign, nullptr).digest;
}

/** Account one halted+resumed campaign: it must equal the
 *  uninterrupted run, and its divergences must reproduce. */
void
checkPersist(const minic::Program &program, const PersistSpec &spec,
             const CampaignRun &run, const CampaignDigest &reference,
             Tally &tally)
{
    checkCampaign(program, spec.campaign, run, tally);
    if (!(run.digest == reference))
        tally.wrong("persist: halted+resumed result differs from the "
                    "uninterrupted run");
}

/** Journal, checkpoint codec and restore figures of finished session
 *  directories, summed (counts, restore) or medianed (codec) over the
 *  run's cycles. */
struct SessionFigures
{
    double checkpoints = 0;
    double journalBytes = 0;
    double restore = 0;
    std::vector<double> encodeUs;
    std::vector<double> decodeUs;

    void add(const minic::Program &program, const PersistSpec &spec,
             const CampaignDigest &reference, Tally &tally)
    {
        const std::string journal = spec.dir + "/shard-0.journal";
        const auto records = session::readRecords(journal);
        checkpoints += static_cast<double>(records.size());
        journalBytes += static_cast<double>(fs::file_size(journal));
        if (!records.empty()) {
            const support::Bytes &last = records.back();
            fuzz::FuzzerState state;
            decodeUs.push_back(1e6 * timeMedian(21, [&] {
                state = session::decodeFuzzerState(last);
            }));
            support::Bytes encoded;
            encodeUs.push_back(1e6 * timeMedian(21, [&] {
                encoded = session::encodeFuzzerState(state);
            }));
            if (encoded != last)
                tally.wrong(
                    "persist: checkpoint does not re-encode byte-exactly");
        }

        // Restore only: resume the finished session; nothing is left
        // to run.
        auto config = persistConfig(spec, nullptr);
        config.resume = true;
        const double t0 = nowSecs();
        session::CampaignSession restored(
            program, targetSpec(kPersistTarget).seeds, config);
        const auto &result = restored.run();
        restore += nowSecs() - t0;
        tally.attempted++;
        if (!(digestOf(result) == reference))
            tally.wrong("persist: restored session differs from the "
                        "uninterrupted run");
    }

    void set(LayerMetrics &m) const
    {
        m.set("session.checkpoints", checkpoints);
        m.set("session.journal_bytes", journalBytes);
        m.set("session.encode_us", median(encodeUs));
        m.set("session.decode_us", median(decodeUs));
        m.set("session.restore_s", restore);
    }
};

RunOutcome
persistWorkload(const RunConfig &config)
{
    Tally tally;
    const auto targets = parseTargets({kPersistTarget});
    const minic::Program &program = *targets[0];
    const int cycles = cycleCount(config);
    std::vector<CampaignDigest> digests;

    if (!config.trace) {
        std::vector<double> setups;
        HostGauge gauge(kPersistJobs);
        const auto runs = fastestOf<CampaignRun>(
            config.budget.reps,
            std::vector<std::string>(static_cast<std::size_t>(cycles),
                                     kPersistTarget),
            [&](int rep, std::size_t cycle) {
                if (rep == 0)
                    sampleSetup(config, gauge, setups);
                const PersistSpec spec =
                    persistSpec(config, static_cast<int>(cycle));
                CampaignRun run =
                    persistCampaign(program, spec, nullptr, tally);
                if (rep + 1 == config.budget.reps)
                    checkPersist(program, spec, run,
                                 persistReference(program, spec), tally);
                run.diffs.clear();
                return run;
            },
            gauge, tally);
        Totals t;
        for (const auto &run : runs) {
            digests.push_back(run.digest);
            t.add(run, static_cast<double>(run.digest.total.execs), 1);
        }
        tally.notes.push_back(cyclesNote(cycles, config.budget.reps, t,
                                         "execs", "campaigns"));
        tally.notes.push_back(gaugeNote(gauge));
        tally.notes.push_back(fuzzCountsNote(digests));
        return finish(tally, endToEnd(tally, median(setups), t));
    }

    LayerMetrics m;
    const auto [parse_s, canon_s] = frontEndTimes({kPersistTarget});
    m.set("minic.parse_s", parse_s);
    m.set("semdiff.canon_s", canon_s);
    Probe probe;
    probe.setCapture(true);
    CampaignReplays replays;
    SessionFigures session_figures;
    std::vector<double> plain_walls;
    std::vector<double> traced_walls;
    CacheDelta cache;
    for (int cycle = 0; cycle < cycles; cycle++) {
        const PersistSpec spec = persistSpec(config, cycle);
        const CampaignDigest reference = persistReference(program, spec);
        if (cycle < kTwins) {
            const auto plain = persistCampaign(program, spec, nullptr, tally);
            checkPersist(program, spec, plain, reference, tally);
            plain_walls.push_back(plain.wall);
        }
        const auto traced = persistCampaign(program, spec, &probe, tally);
        checkPersist(program, spec, traced, reference, tally);
        if (cycle < kTwins)
            traced_walls.push_back(traced.wall);
        digests.push_back(traced.digest);
        cache += traced.cache;
        replays.add(probe, {{kPersistTarget, &program}});
        session_figures.add(program, spec, reference, tally);
    }

    const SpanSummary s = summarize(probe, {"campaign"});
    selfCheck(s, tally);
    setFuzzCounts(m, digests);
    m.set("compiler.cache_hit_ratio", cache.ratio());
    m.set("trace.overhead_frac", overheadFrac(traced_walls, plain_walls));
    campaignLayers(m, s, replays, static_cast<double>(kPersistJobs));
    session_figures.set(m);
    probe.writeJsonl(config.scratch + "/trace-campaign_persist.jsonl");
    return finish(tally, m.list());
}

// ---------------------------------------------------------------------
// Workload: triage

const std::vector<std::string> kTriageTargets = {"pktdump", "floatpack"};

/** Produce cycle `cycle`'s witness sessions (the triage workload's
 *  set-up): one finished campaign per target, triage not yet run. */
std::vector<WitnessSession>
witnessSessions(const RunConfig &config, int cycle, const std::string &tag,
                Probe *probe)
{
    std::vector<WitnessSession> out;
    for (std::size_t i = 0; i < kTriageTargets.size(); i++) {
        WitnessSession w;
        w.target = kTriageTargets[i];
        w.program = minic::parseAndCheck(targetSpec(w.target).source);
        semdiff::canonicalize(*w.program);
        w.reportsDir = config.scratch + "/reports-" + tag + "/" +
                       std::to_string(cycle) + "/" + w.target;
        session::SessionConfig sc;
        const std::size_t index =
            static_cast<std::size_t>(cycle) * kTriageTargets.size() + i;
        sc.fuzz = fuzzOptions(config.budget.execs,
                              campaignSeed(config.seed, "triage", index),
                              oracleFor("paper10", probe));
        sc.triage.reduceFound = true;
        sc.triage.candidateBudget = config.budget.candidates;
        sc.triage.reportsDir = w.reportsDir;
        w.session = std::make_unique<session::CampaignSession>(
            *w.program, targetSpec(w.target).seeds, sc);
        if (probe)
            probe->beginOp("witness_campaign", w.target);
        w.session->run();
        if (probe)
            probe->endOp();
        out.push_back(std::move(w));
    }
    return out;
}

/** Is (program, input) filed in the report's bundle (root or one of
 *  its variants)? */
bool
bundleHolds(const std::string &reports_dir,
            const reduce::DivergenceReport &report)
{
    const fs::path bundle =
        fs::path(reports_dir) / reduce::signatureDirName(report.semanticKey);
    const auto read = [](const fs::path &path) {
        std::ifstream in(path, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string input(report.input.begin(), report.input.end());
    std::vector<fs::path> dirs = {bundle};
    if (fs::is_directory(bundle / "variants")) {
        for (const auto &entry : fs::directory_iterator(bundle / "variants"))
            dirs.push_back(entry.path());
    }
    for (const auto &dir : dirs) {
        if (fs::exists(dir / "program.mc") &&
            read(dir / "program.mc") == report.program &&
            read(dir / "input.bin") == input)
            return true;
    }
    return false;
}

/** What one triage call produced; must repeat exactly. */
struct TriageDigest
{
    /** The call threw (its message is TriageRun::error). */
    bool threw = false;
    std::vector<std::uint64_t> signatures;
    std::uint64_t candidates = 0;
    std::uint64_t accepted = 0;
    std::uint64_t shrinkBytes = 0;
    std::uint64_t shrinkStmts = 0;
    std::uint64_t witnesses = 0;

    bool operator==(const TriageDigest &o) const
    {
        return threw == o.threw && signatures == o.signatures &&
               candidates == o.candidates && accepted == o.accepted &&
               shrinkBytes == o.shrinkBytes &&
               shrinkStmts == o.shrinkStmts && witnesses == o.witnesses;
    }
    TriageDigest &operator+=(const TriageDigest &o)
    {
        signatures.insert(signatures.end(), o.signatures.begin(),
                          o.signatures.end());
        candidates += o.candidates;
        accepted += o.accepted;
        shrinkBytes += o.shrinkBytes;
        shrinkStmts += o.shrinkStmts;
        witnesses += o.witnesses;
        return *this;
    }
};

/** One timed triage() call. */
struct TriageRun
{
    double wall = 0;
    /** `wall` in reference seconds (see gauge.hh). */
    double refWall = 0;
    /** CompileCache hits and misses inside the call. */
    CacheDelta cache;
    TriageDigest digest;
    std::vector<reduce::DivergenceReport> reports;
    std::string error;
};

/** triage() on one witness session from a cold compile cache, into
 *  an emptied reports directory. */
TriageRun
triageOnce(const WitnessSession &w, Probe *probe)
{
    fs::remove_all(w.reportsDir);
    compiler::CompileCache::global().clear();
    TriageRun run;
    if (probe)
        probe->beginOp("triage", w.target);
    const CacheDelta cache = CacheDelta::now();
    const double t0 = nowSecs();
    try {
        run.reports = w.session->triage();
    } catch (const std::exception &e) {
        run.digest.threw = true;
        run.error = e.what();
    }
    run.wall = nowSecs() - t0;
    run.cache = CacheDelta::now().since(cache);
    if (probe)
        probe->endOp();

    auto &d = run.digest;
    for (const auto &report : run.reports) {
        d.witnesses++;
        d.signatures.push_back(report.signature);
        d.candidates += report.inputStats.candidatesTried +
                        report.programStats.candidatesTried;
        d.accepted += report.inputStats.candidatesAccepted +
                      report.programStats.candidatesAccepted;
        d.shrinkBytes += report.input.size();
        d.shrinkStmts += report.programStats.stmtsAfter;
    }
    return run;
}

/** Check one filed report: its minimized pair must sit in its bundle
 *  and reproduce its signature through a fresh oracle. */
void
checkReport(const WitnessSession &w, const reduce::DivergenceReport &report,
            Tally &tally)
{
    const std::string sig = reduce::signatureDirName(report.signature);
    if (!bundleHolds(w.reportsDir, report)) {
        tally.wrong(w.target + ": " + sig +
                    " minimized pair missing from its bundle");
        return;
    }
    auto program = minic::parseAndCheck(report.program);
    reduce::SignatureOracle fresh(*program, oracleFor("paper10", nullptr),
                                  report.input,
                                  diffOptionsOf(w.session->config().fuzz), 0);
    if (!fresh.reproduced() || fresh.targetSignature() != report.signature)
        tally.wrong(w.target + ": " + sig +
                    " bundle does not reproduce its signature");
}

/** Account one session's triage: every witness is one operation, and
 *  a call that threw fails all of its witnesses. Reads the bundles the
 *  last triage() of the session wrote. */
void
checkTriage(const WitnessSession &w, const TriageRun &run, Tally &tally)
{
    const std::size_t witnesses = w.session->divergenceRecords().size();
    tally.attempted += witnesses;
    if (run.digest.threw) {
        tally.failed += witnesses;
        tally.notes.push_back("FAILED: " + w.target +
                              " triage threw: " + run.error);
        return;
    }
    for (const auto &report : run.reports)
        checkReport(w, report, tally);
}

std::string
triageCountsNote(const TriageDigest &d)
{
    return "exact counts: reduce.witnesses " + std::to_string(d.witnesses) +
           ", reduce.candidates " + std::to_string(d.candidates) +
           ", reduce.shrink_bytes " + std::to_string(d.shrinkBytes) +
           ", reduce.shrink_stmts " + std::to_string(d.shrinkStmts);
}

RunOutcome
triageWorkload(const RunConfig &config)
{
    Tally tally;
    const int cycles = cycleCount(config);
    std::vector<CampaignDigest> witness_digests;
    TriageDigest total;

    if (!config.trace) {
        // Each cycle's witness sessions are set up (timed: setup_s)
        // just before its triage calls, so only one cycle's sessions
        // are alive at a time.
        const std::size_t per_cycle = kTriageTargets.size();
        std::vector<std::string> names;
        for (int cycle = 0; cycle < cycles; cycle++)
            names.insert(names.end(), kTriageTargets.begin(),
                         kTriageTargets.end());
        std::vector<WitnessSession> sessions;
        std::vector<double> setups;
        HostGauge gauge;
        const auto runs = fastestOf<TriageRun>(
            config.budget.reps, names,
            [&](int rep, std::size_t op) {
                if (rep == 0 && op % per_cycle == 0) {
                    sessions.clear();
                    const double g = gauge.last();
                    setups.push_back(HostGauge::toReference(
                        setupOnce(config, static_cast<int>(op / per_cycle),
                                  &sessions)
                            .seconds,
                        g, g));
                }
                const WitnessSession &w = sessions[op % per_cycle];
                TriageRun run = triageOnce(w, nullptr);
                if (rep + 1 == config.budget.reps) {
                    checkTriage(w, run, tally);
                    witness_digests.push_back(digestOf(w.session->result()));
                    fs::remove_all(w.reportsDir);
                }
                run.reports.clear();
                return run;
            },
            gauge, tally);
        Totals t;
        for (std::size_t op = 0; op < runs.size(); op++) {
            total += runs[op].digest;
            t.add(runs[op], static_cast<double>(runs[op].digest.candidates),
                  static_cast<double>(runs[op].digest.witnesses));
        }
        tally.notes.push_back(cyclesNote(cycles, config.budget.reps, t,
                                         "candidates", "witnesses triaged"));
        tally.notes.push_back(gaugeNote(gauge));
        if (t.ops > 0)
            tally.notes.push_back("triage_s_per_witness (= s_per_op): " +
                                  fmt("%.6f reference s", t.wall / t.ops));
        tally.notes.push_back(fuzzCountsNote(witness_digests));
        tally.notes.push_back(triageCountsNote(total));
        return finish(tally, endToEnd(tally, median(setups), t));
    }

    LayerMetrics m;
    const auto [parse_s, canon_s] = frontEndTimes(kTriageTargets);
    m.set("minic.parse_s", parse_s);
    Probe probe;
    probe.setCapture(true);
    NormalizeReplay normalize;
    double canon_minimized = 0;
    std::vector<double> plain_walls;
    std::vector<double> traced_walls;
    CacheDelta cache;
    for (int cycle = 0; cycle < cycles; cycle++) {
        const bool twin = cycle < kTwins;
        std::vector<WitnessSession> plain_sessions;
        if (twin) {
            compiler::CompileCache::global().clear();
            plain_sessions = witnessSessions(config, cycle, "plain", nullptr);
        }
        compiler::CompileCache::global().clear();
        const auto traced_sessions =
            witnessSessions(config, cycle, "traced", &probe);
        // The normalizer replay covers triage traffic only.
        probe.clearCaptures();
        double plain_wall = 0;
        double traced_wall = 0;
        std::vector<std::string> minimized;
        for (std::size_t i = 0; i < traced_sessions.size(); i++) {
            const WitnessSession &w = traced_sessions[i];
            const auto witness_digest = digestOf(w.session->result());
            witness_digests.push_back(witness_digest);
            const TriageRun traced = triageOnce(w, &probe);
            checkTriage(w, traced, tally);
            total += traced.digest;
            cache += traced.cache;
            traced_wall += traced.wall;
            for (const auto &report : traced.reports)
                minimized.push_back(report.program);
            if (!twin)
                continue;
            if (!(digestOf(plain_sessions[i].session->result()) ==
                  witness_digest))
                tally.wrong(w.target + ": traced witness campaign differs");
            const TriageRun plain = triageOnce(plain_sessions[i], nullptr);
            plain_wall += plain.wall;
            if (!(plain.digest == traced.digest))
                tally.wrong(w.target +
                            ": traced triage differs from the untraced one");
        }
        if (twin) {
            plain_walls.push_back(plain_wall);
            traced_walls.push_back(traced_wall);
        }
        normalize.add(probe);
        probe.clearCaptures();
        canon_minimized += timeMedian(5, [&] {
            for (const auto &source : minimized)
                semdiff::canonicalizeSource(source);
        });
    }

    const SpanSummary s = summarize(probe, {"triage"});
    selfCheck(s, tally);
    m.fromSpans(s, 1);
    setFuzzCounts(m, witness_digests);
    m.set("compiler.cache_hit_ratio", cache.ratio());
    m.set("trace.overhead_frac", overheadFrac(traced_walls, plain_walls));
    m.set("reduce.witnesses", static_cast<double>(total.witnesses));
    m.set("reduce.candidates", static_cast<double>(total.candidates));
    m.set("reduce.accept_ratio",
          total.candidates ? static_cast<double>(total.accepted) /
                                 static_cast<double>(total.candidates)
                           : 0);
    m.set("reduce.shrink_bytes", static_cast<double>(total.shrinkBytes));
    m.set("reduce.shrink_stmts", static_cast<double>(total.shrinkStmts));
    m.set("reduce.self_s", s.opWall - decoratedBlocking(s));
    m.set("semdiff.canon_s", canon_s + canon_minimized);
    m.set("compdiff.normalize_s", normalize.seconds);
    m.set("compdiff.normalize_changed_frac", normalize.changedFrac());
    probe.writeJsonl(config.scratch + "/trace-triage.jsonl");
    return finish(tally, m.list());
}

SetupSample
setupOnce(const RunConfig &config, int cycle,
          std::vector<WitnessSession> *keep)
{
    // Set-up starts from a cold compile cache: users pay cold
    // compiles on every launch.
    const std::string persist_dir = config.scratch + "/persist-setup";
    fs::remove_all(persist_dir);
    compiler::CompileCache::global().clear();
    const CacheDelta cache = CacheDelta::now();
    const double t0 = nowSecs();
    if (config.workload == "campaign") {
        for (const auto &spec : campaignSpecs(config, cycle))
            coldSetup(spec.target, spec.impls, spec.jobs, "");
    } else if (config.workload == "campaign_persist") {
        coldSetup(kPersistTarget, kPersistImpls, kPersistJobs, persist_dir);
    } else {
        auto sessions = witnessSessions(config, cycle, "plain", nullptr);
        if (keep)
            *keep = std::move(sessions);
    }
    const double secs = nowSecs() - t0;
    return {secs, static_cast<std::uint64_t>(
                      CacheDelta::now().since(cache).misses)};
}

RunConfig
withDefaults(const RunConfig &config)
{
    RunConfig c = config;
    const Budget d = defaultBudget(c.workload);
    if (!c.budget.execs)
        c.budget.execs = d.execs;
    if (!c.budget.candidates)
        c.budget.candidates = d.candidates;
    if (!c.budget.setupReps)
        c.budget.setupReps = d.setupReps;
    if (!c.budget.reps)
        c.budget.reps = d.reps;
    if (!(c.budget.cycleSeconds > 0))
        c.budget.cycleSeconds = d.cycleSeconds;
    fs::create_directories(c.scratch);
    return c;
}

/** Work sizes. cycleSeconds sets a run's size: round(seconds /
 *  cycleSeconds) cycles. At --seconds 25 that is 8, 22 and 24 cycles,
 *  which take about 30-35 s each on a shared 4-vCPU x86-64 VM
 *  (set-up samples, repetitions, gauge samples and correctness checks
 *  included). */
Budget
defaultBudget(const std::string &workload)
{
    if (workload == "campaign")
        return {2000, 0, 5, 2, 3.1};
    if (workload == "campaign_persist")
        return {2000, 0, 5, 2, 1.14};
    if (workload == "triage")
        return {1000, 60, 0, 2, 1.04};
    throw std::invalid_argument("unknown workload: " + workload);
}

double
peakRssMb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace

SetupSample
measureSetup(const RunConfig &config)
{
    return setupOnce(withDefaults(config), 0, nullptr);
}

std::vector<std::uint64_t>
testing::campaignFingerprint(const std::string &target,
                             const std::string &impls, std::size_t jobs,
                             std::uint64_t execs, std::uint64_t rng_seed,
                             bool decorated)
{
    Probe probe;
    auto program = minic::parseAndCheck(targetSpec(target).source);
    const CampaignRun run =
        runCampaign(*program, {target, impls, jobs, execs, rng_seed},
                    decorated ? &probe : nullptr);
    if (decorated && probe.spans().empty())
        throw std::logic_error("ledger: decorated campaign recorded no span");
    const auto &t = run.digest.total;
    std::vector<std::uint64_t> out = {t.execs, t.compdiffExecs, t.seeds,
                                      t.edges, t.diffs, t.crashes};
    out.insert(out.end(), run.digest.signatures.begin(),
               run.digest.signatures.end());
    return out;
}

double
testing::traceResidual(const std::string &target, const std::string &impls,
                       std::size_t jobs, std::uint64_t execs,
                       std::uint64_t rng_seed, int wraps)
{
    Probe probe;
    auto program = minic::parseAndCheck(targetSpec(target).source);
    runCampaign(*program, {target, impls, jobs, execs, rng_seed}, &probe,
                wraps);
    return selfCheckTerms(summarize(probe, {"campaign"})).worst();
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "campaign", "campaign_persist", "triage"};
    return names;
}

RunOutcome
runWorkload(const RunConfig &config)
{
    const RunConfig c = withDefaults(config);
    if (c.workload == "campaign")
        return campaignWorkload(c);
    if (c.workload == "campaign_persist")
        return persistWorkload(c);
    return triageWorkload(c);
}

} // namespace ledger
