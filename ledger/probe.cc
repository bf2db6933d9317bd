#include "probe.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace ledger
{

using compdiff::core::Artifact;
using compdiff::core::CompileContext;
using compdiff::core::Executor;
using compdiff::core::Implementation;
using compdiff::core::RawObservation;
using compdiff::support::Bytes;

namespace
{

/** A span of `layer` opened now under the probe's current operation. */
Span
openSpan(const Probe &probe, Layer layer, std::uint16_t member,
         bool retry = false)
{
    Span span;
    span.op = probe.currentOp();
    span.layer = layer;
    span.member = member;
    span.thread = threadIndex();
    span.retry = retry;
    span.start = nowSecs();
    return span;
}

class TracedExecutor : public Executor
{
  public:
    TracedExecutor(std::unique_ptr<Executor> inner, Probe &probe,
                   std::uint16_t member, std::uint64_t base_budget)
        : inner_(std::move(inner)), probe_(probe), member_(member),
          baseBudget_(base_budget)
    {
    }

    RawObservation execute(const Bytes &input, std::uint64_t nonce,
                           std::uint64_t budget) override
    {
        Span span =
            openSpan(probe_, Layer::Execute, member_, budget > baseBudget_);
        RawObservation obs = inner_->execute(input, nonce, budget);
        span.end = nowSecs();
        span.instructions = obs.instructions;
        probe_.record(span);
        if (!span.retry)
            probe_.capture(span.op, member_, input, obs.output);
        return obs;
    }

    bool rebind(std::shared_ptr<const Artifact> artifact) override
    {
        Span span = openSpan(probe_, Layer::Rebind, member_);
        const bool ok = inner_->rebind(std::move(artifact));
        span.end = nowSecs();
        probe_.record(span);
        return ok;
    }

  private:
    std::unique_ptr<Executor> inner_;
    Probe &probe_;
    std::uint16_t member_;
    std::uint64_t baseBudget_;
};

class TracedImplementation : public Implementation
{
  public:
    TracedImplementation(std::shared_ptr<const Implementation> inner,
                         Probe &probe, std::uint16_t member,
                         std::uint64_t base_budget)
        : inner_(std::move(inner)), probe_(probe), member_(member),
          baseBudget_(base_budget)
    {
    }

    const std::string &id() const override { return inner_->id(); }
    std::string describe() const override
    {
        return inner_->describe();
    }
    const compdiff::compiler::CompilerConfig *
    simulatedConfig() const override
    {
        return inner_->simulatedConfig();
    }

    std::shared_ptr<const Artifact>
    compile(const compdiff::minic::Program &program,
            const CompileContext &ctx) const override
    {
        Span span = openSpan(probe_, Layer::Compile, member_);
        auto artifact = inner_->compile(program, ctx);
        span.end = nowSecs();
        probe_.record(span);
        return artifact;
    }

    std::unique_ptr<Executor>
    makeExecutor(std::shared_ptr<const Artifact> artifact,
                 const compdiff::vm::VmLimits &limits) const override
    {
        Span span = openSpan(probe_, Layer::MakeExecutor, member_);
        auto inner = inner_->makeExecutor(std::move(artifact), limits);
        span.end = nowSecs();
        probe_.record(span);
        return std::make_unique<TracedExecutor>(std::move(inner), probe_,
                                                member_, baseBudget_);
    }

  private:
    std::shared_ptr<const Implementation> inner_;
    Probe &probe_;
    std::uint16_t member_;
    std::uint64_t baseBudget_;
};

} // namespace

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::uint16_t
threadIndex()
{
    static std::atomic<std::uint16_t> next{0};
    thread_local const std::uint16_t index = next++;
    return index;
}

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Compile:
        return "compile";
    case Layer::MakeExecutor:
        return "make_executor";
    case Layer::Execute:
        return "execute";
    case Layer::Rebind:
        return "rebind";
    }
    return "?";
}

compdiff::core::ImplementationSet
Probe::wrap(const compdiff::core::ImplementationSet &impls,
            std::uint64_t base_budget)
{
    compdiff::core::ImplementationSet out;
    for (const auto &impl : impls) {
        auto it = std::find(members_.begin(), members_.end(), impl->id());
        if (it == members_.end())
            it = members_.insert(members_.end(), impl->id());
        const auto member =
            static_cast<std::uint16_t>(it - members_.begin());
        out.push_back(std::make_shared<TracedImplementation>(
            impl, *this, member, base_budget));
    }
    return out;
}

std::uint32_t
Probe::beginOp(const std::string &name, const std::string &target)
{
    if (current_.load() != 0)
        throw std::logic_error("ledger: nested probe operation");
    const auto id = static_cast<std::uint32_t>(ops_.size() + 1);
    ops_.push_back({id, name, target, nowSecs(), 0});
    current_.store(id);
    return id;
}

void
Probe::endOp()
{
    ops_.back().end = nowSecs();
    current_.store(0);
}

void
Probe::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

void
Probe::capture(std::uint32_t op, std::uint16_t member, const Bytes &input,
               std::string output)
{
    if (!capture_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    outputs_.push_back(std::move(output));
    if (member == 0)
        inputs_.emplace_back(op, input);
}

void
Probe::clearCaptures()
{
    std::lock_guard<std::mutex> lock(mu_);
    outputs_.clear();
    inputs_.clear();
}

void
Probe::writeJsonl(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("ledger: cannot write " + path);
    char buf[256];
    for (const auto &op : ops_) {
        std::snprintf(buf, sizeof buf,
                      "{\"kind\":\"op\",\"id\":%u,\"start\":%.9f,"
                      "\"end\":%.9f,\"name\":",
                      op.id, op.start, op.end);
        out << buf << jsonString(op.name)
            << ",\"target\":" << jsonString(op.target) << "}\n";
    }
    for (const auto &span : spans_) {
        std::snprintf(buf, sizeof buf,
                      "{\"kind\":\"span\",\"parent\":%u,\"layer\":\"%s\","
                      "\"member\":%s,\"thread\":%u,\"retry\":%s,"
                      "\"start\":%.9f,\"end\":%.9f,\"insns\":%llu}\n",
                      span.op, layerName(span.layer),
                      jsonString(members_[span.member]).c_str(),
                      static_cast<unsigned>(span.thread),
                      span.retry ? "true" : "false", span.start, span.end,
                      static_cast<unsigned long long>(span.instructions));
        out << buf;
    }
}

} // namespace ledger
