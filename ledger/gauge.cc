#include "gauge.hh"

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "probe.hh"

namespace ledger
{

namespace
{

/** Kept out of the optimizer's reach; written by every gauge thread. */
std::atomic<std::uint64_t> gauge_sink{0};

constexpr int kRounds = 1500;
constexpr int kStepsPerRound = 400;
constexpr std::uint32_t kMask = 0xffff;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Data-side half: a 256 KB table, a 64 KB hit-count map, decimal
 *  formatting into a growing string, FNV hashing, one small heap
 *  allocation per round. */
std::uint64_t
dataHalf()
{
    std::vector<std::uint8_t> counts(kMask + 1);
    std::vector<std::uint32_t> table(kMask + 1);
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t hash = 1469598103934665603ull;
    for (int round = 0; round < kRounds; round++) {
        std::string out;
        std::uint32_t prev = 0;
        for (int step = 0; step < kStepsPerRound; step++) {
            const std::uint32_t value = (xorshift(x) >> 8) & kMask;
            switch (x & 7) {
            case 0:
                table[value] += static_cast<std::uint32_t>(step);
                break;
            case 1:
                out += static_cast<char>('a' + value % 26);
                break;
            case 2: {
                char buf[24];
                const int n = std::snprintf(buf, sizeof buf, "%u",
                                            table[value]);
                out.append(buf, static_cast<std::size_t>(n));
                break;
            }
            case 3:
                table[value ^ prev] ^= value;
                break;
            case 4:
                if (value & 1)
                    out.push_back(' ');
                break;
            case 5:
                table[(value * 7) & kMask] = table[value] + 1;
                break;
            default:
                prev = value;
            }
            counts[(prev ^ value) & kMask]++;
            prev = value >> 1;
        }
        auto scratch =
            std::make_unique<std::vector<std::uint32_t>>(32 + (x & 63));
        (*scratch)[0] = static_cast<std::uint32_t>(out.size());
        for (const char c : out) {
            hash ^= static_cast<std::uint8_t>(c);
            hash *= 1099511628211ull;
        }
        hash += (*scratch)[0] + counts[x & kMask];
    }
    return hash;
}

struct CodeState
{
    std::uint64_t x;
    std::uint64_t hash;
    std::uint32_t *table;
    std::string *out;
};

/** One of 256 distinct small functions (K varies shifts, constants
 *  and the operation), so the code half spreads over many branch and
 *  call targets, as an interpreter's handlers do. */
template <int K>
__attribute__((noinline)) void
codeStep(CodeState &s)
{
    constexpr std::uint64_t c = 0x9E3779B97F4A7C15ull * (K + 1) + K;
    s.x ^= s.x << (13 + K % 3);
    s.x ^= s.x >> (7 + K % 5);
    s.x ^= s.x << 17;
    const std::uint32_t v = (s.x >> 8) & kMask;
    switch (K % 6) {
    case 0:
        s.table[v] += static_cast<std::uint32_t>(c);
        break;
    case 1:
        s.table[(v * (K | 1)) & kMask] ^=
            static_cast<std::uint32_t>(s.hash >> (K % 29));
        break;
    case 2:
        if ((v & 7) == (K & 7)) {
            char buf[24];
            const int n = std::snprintf(buf, sizeof buf, "%u", s.table[v]);
            s.out->append(buf, static_cast<std::size_t>(n));
        } else {
            s.hash += c;
        }
        break;
    case 3:
        s.out->push_back(static_cast<char>('a' + (v + K) % 26));
        break;
    case 4:
        s.hash = (s.hash ^ s.table[v]) * 1099511628211ull + K;
        break;
    default:
        if (s.table[v] & 1)
            s.table[v ^ K] = s.table[v] + static_cast<std::uint32_t>(c);
        else
            s.hash ^= c;
    }
}

template <std::size_t... I>
constexpr std::array<void (*)(CodeState &), sizeof...(I)>
codeSteps(std::index_sequence<I...>)
{
    return {&codeStep<static_cast<int>(I)>...};
}

constexpr auto kCodeSteps = codeSteps(std::make_index_sequence<256>{});

/** Code-side half: indirect calls into 256 distinct functions. */
std::uint64_t
codeHalf()
{
    std::vector<std::uint32_t> table(kMask + 1);
    std::string out;
    CodeState s{88172645463325252ull, 1469598103934665603ull, table.data(),
                &out};
    for (int round = 0; round < kRounds; round++) {
        out.clear();
        for (int step = 0; step < kStepsPerRound; step++)
            kCodeSteps[(s.x >> 40) & 255](s);
        for (const char c : out) {
            s.hash ^= static_cast<std::uint8_t>(c);
            s.hash *= 1099511628211ull;
        }
        auto scratch =
            std::make_unique<std::vector<std::uint32_t>>(32 + (s.x & 63));
        s.hash += scratch->size();
    }
    return s.hash;
}

} // namespace

double
gaugeKernelSeconds()
{
    const double t0 = nowSecs();
    gauge_sink.store(dataHalf() + codeHalf(), std::memory_order_relaxed);
    return nowSecs() - t0;
}

double
HostGauge::sample()
{
    const double t0 = nowSecs();
    // std::async futures wait for their thread when destroyed, and
    // get() rethrows what the thread threw.
    std::vector<std::future<double>> others;
    for (unsigned i = 1; i < threads_; i++)
        others.push_back(std::async(std::launch::async, gaugeKernelSeconds));
    gaugeKernelSeconds();
    for (auto &other : others)
        other.get();
    samples_.push_back(nowSecs() - t0);
    return samples_.back();
}

double
HostGauge::last()
{
    return samples_.empty() ? sample() : samples_.back();
}

} // namespace ledger
