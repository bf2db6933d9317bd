/**
 * @file
 * Tests for the observability layer: metric semantics, span
 * recording and Chrome-trace export, stats-file formats, and the
 * disabled-mode no-op guarantee.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace
{

using namespace compdiff;
using obs::EnabledGuard;
using obs::Registry;
using obs::TraceRecorder;

/** Fresh global state for every test in this file. */
class Obs : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        Registry::global().reset();
        TraceRecorder::global().clear();
        obs::setEnabled(false);
    }
    void TearDown() override { obs::setEnabled(false); }
};

TEST_F(Obs, CounterAccumulatesWhenEnabled)
{
    EnabledGuard on(true);
    auto &counter = obs::counter("test.counter");
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    // Same name -> same handle.
    EXPECT_EQ(&obs::counter("test.counter"), &counter);
    EXPECT_EQ(obs::counter("test.counter").value(), 42u);
}

TEST_F(Obs, DisabledBumpsAreNoOps)
{
    ASSERT_FALSE(obs::metricsEnabled());
    obs::counter("test.counter").add(5);
    obs::gauge("test.gauge").set(5);
    obs::histogram("test.hist").observe(5);
    EXPECT_EQ(obs::counter("test.counter").value(), 0u);
    EXPECT_EQ(obs::gauge("test.gauge").value(), 0u);
    EXPECT_EQ(obs::histogram("test.hist").count(), 0u);
}

TEST_F(Obs, GaugeSetAndHighWaterMark)
{
    EnabledGuard on(true);
    auto &gauge = obs::gauge("test.gauge");
    gauge.set(7);
    EXPECT_EQ(gauge.value(), 7u);
    gauge.max(3);
    EXPECT_EQ(gauge.value(), 7u);
    gauge.max(9);
    EXPECT_EQ(gauge.value(), 9u);
}

TEST_F(Obs, HistogramBucketsAndSum)
{
    EnabledGuard on(true);
    auto &hist =
        Registry::global().histogram("test.hist2", {10, 100});
    hist.observe(5);    // bucket 0 (<= 10)
    hist.observe(10);   // bucket 0 (boundary is inclusive)
    hist.observe(50);   // bucket 1 (<= 100)
    hist.observe(1000); // overflow bucket
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_EQ(hist.sum(), 1065u);
    ASSERT_EQ(hist.buckets().size(), 3u);
    EXPECT_EQ(hist.buckets()[0], 2u);
    EXPECT_EQ(hist.buckets()[1], 1u);
    EXPECT_EQ(hist.buckets()[2], 1u);
}

TEST_F(Obs, SnapshotAndReset)
{
    EnabledGuard on(true);
    obs::counter("snap.c").add(3);
    obs::gauge("snap.g").set(4);
    Registry::global().histogram("snap.h", {8}).observe(6);

    auto snapshot = Registry::global().snapshot();
    const auto *c = snapshot.find("snap.c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->kind, "counter");
    EXPECT_EQ(c->value, 3u);
    const auto *h = snapshot.find("snap.h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1u);
    // Entries are name-sorted.
    for (std::size_t i = 1; i < snapshot.entries.size(); i++) {
        EXPECT_LT(snapshot.entries[i - 1].name,
                  snapshot.entries[i].name);
    }

    Registry::global().reset();
    EXPECT_EQ(obs::counter("snap.c").value(), 0u);
    EXPECT_EQ(obs::gauge("snap.g").value(), 0u);
    // Registrations (and handles) survive a reset.
    auto after = Registry::global().snapshot();
    EXPECT_EQ(after.entries.size(), snapshot.entries.size());
}

TEST_F(Obs, SnapshotJsonlIsWellFormed)
{
    EnabledGuard on(true);
    obs::counter("jsonl.counter").add(1);
    obs::counter("jsonl.weird\"name\\").add(2);
    Registry::global().histogram("jsonl.hist", {1, 2}).observe(1);
    const std::string jsonl =
        Registry::global().snapshot().toJsonl();
    std::string error;
    EXPECT_TRUE(obs::jsonlWellFormed(jsonl, &error)) << error;
    const std::string table =
        Registry::global().snapshot().toTable();
    EXPECT_NE(table.find("jsonl.counter"), std::string::npos);
}

TEST_F(Obs, SpanNestingIsRecorded)
{
    EnabledGuard on(true);
    {
        obs::Span outer("outer");
        {
            obs::Span inner("inner");
        }
        {
            obs::Span inner2("inner2");
        }
    }
    auto events = TraceRecorder::global().events();
    ASSERT_EQ(events.size(), 3u);
    // Spans complete innermost-first.
    EXPECT_EQ(events[0].name, "inner");
    EXPECT_EQ(events[0].depth, 1u);
    EXPECT_EQ(events[1].name, "inner2");
    EXPECT_EQ(events[1].depth, 1u);
    EXPECT_EQ(events[2].name, "outer");
    EXPECT_EQ(events[2].depth, 0u);
    // The outer span encloses the inner ones in time.
    EXPECT_LE(events[2].startUs, events[0].startUs);
    EXPECT_EQ(TraceRecorder::global().dropped(), 0u);
}

TEST_F(Obs, DisabledSpansRecordNothing)
{
    {
        obs::Span span("ghost");
    }
    EXPECT_TRUE(TraceRecorder::global().events().empty());
}

TEST_F(Obs, ChromeTraceJsonIsWellFormed)
{
    EnabledGuard on(true);
    {
        obs::Span span("a \"quoted\" span\\name");
        obs::Span child("child");
    }
    const std::string json =
        TraceRecorder::global().chromeTraceJson();
    std::string error;
    EXPECT_TRUE(obs::jsonWellFormed(json, &error)) << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    const std::string flame =
        TraceRecorder::global().flameSummary();
    EXPECT_NE(flame.find("child"), std::string::npos);
    // Nothing overflowed, so the summary claims no truncation.
    EXPECT_EQ(flame.find("dropped"), std::string::npos);
}

TEST_F(Obs, RingBufferPinsHeadAndKeepsTail)
{
    EnabledGuard on(true);
    TraceRecorder::global().setCapacity(64); // pins 64/16 = 4
    for (int i = 0; i < 200; i++) {
        obs::Span span("span" + std::to_string(i));
    }
    auto events = TraceRecorder::global().events();
    EXPECT_EQ(events.size(), 68u); // 4 pinned + 64 ring
    EXPECT_GT(TraceRecorder::global().dropped(), 0u);
    // The head of the run survives...
    EXPECT_EQ(events[0].name, "span0");
    // ...and so does the most recent event.
    EXPECT_EQ(events.back().name, "span199");
    // The flame summary says it is built from a truncated window.
    const std::string dropped_line =
        std::to_string(TraceRecorder::global().dropped()) +
        " events dropped (trace ring full): totals cover only the "
        "retained window\n";
    const std::string flame = TraceRecorder::global().flameSummary();
    EXPECT_TRUE(flame.ends_with(dropped_line)) << flame;
    TraceRecorder::global().setCapacity(65536);
}

TEST_F(Obs, JsonValidatorAcceptsAndRejects)
{
    std::string error;
    EXPECT_TRUE(obs::jsonWellFormed("{}"));
    EXPECT_TRUE(obs::jsonWellFormed(
        R"({"a":[1,2.5,-3e2],"b":{"c":null,"d":"x\n"},"e":true})"));
    EXPECT_TRUE(obs::jsonWellFormed("  [1, 2, 3]  "));
    EXPECT_FALSE(obs::jsonWellFormed("", &error));
    EXPECT_FALSE(obs::jsonWellFormed("{", &error));
    EXPECT_FALSE(obs::jsonWellFormed("{\"a\":}", &error));
    EXPECT_FALSE(obs::jsonWellFormed("[1,]", &error));
    EXPECT_FALSE(obs::jsonWellFormed("\"unterminated", &error));
    EXPECT_FALSE(obs::jsonWellFormed("{} trailing", &error));
    EXPECT_FALSE(obs::jsonWellFormed("nulL", &error));
    EXPECT_TRUE(obs::jsonlWellFormed("{\"a\":1}\n[2]\n\n"));
    EXPECT_FALSE(obs::jsonlWellFormed("{\"a\":1}\noops\n", &error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST_F(Obs, FuzzerStatsRoundTrip)
{
    obs::FuzzerStatsSnapshot snapshot;
    snapshot.execsDone = 1234;
    snapshot.compdiffExecs = 12340;
    snapshot.perConfigExecs = {{"gcc-O0", 6170}, {"clang-O3", 6170}};
    snapshot.corpusSize = 17;
    snapshot.crashes = 2;
    snapshot.diffs = 3;
    snapshot.edges = 99;
    snapshot.lastFindExec = 1200;
    snapshot.lastDiffExec = 800;

    const std::string text = obs::renderFuzzerStats(snapshot);
    const auto kv = obs::parseFuzzerStats(text);
    EXPECT_EQ(kv.at("execs_done"), "1234");
    EXPECT_EQ(kv.at("compdiff_execs"), "12340");
    EXPECT_EQ(kv.at("saved_diffs"), "3");
    EXPECT_EQ(kv.at("last_diff_execs"), "800");
    EXPECT_EQ(kv.at("execs_impl_gcc_O0"), "6170");

    const auto back = obs::snapshotFromFuzzerStats(text);
    EXPECT_EQ(back.execsDone, snapshot.execsDone);
    EXPECT_EQ(back.compdiffExecs, snapshot.compdiffExecs);
    EXPECT_EQ(back.corpusSize, snapshot.corpusSize);
    EXPECT_EQ(back.lastFindExec, snapshot.lastFindExec);
    ASSERT_EQ(back.perConfigExecs.size(), 2u);
    std::uint64_t total = 0;
    for (const auto &[name, execs] : back.perConfigExecs)
        total += execs;
    EXPECT_EQ(total, back.compdiffExecs);
}

TEST_F(Obs, PlotWriterFormat)
{
    obs::PlotWriter plot;
    plot.addRow({100, 5, 0, 1, 20, 1000});
    plot.addRow({200, 6, 1, 1, 25, 2000});
    const std::string text = plot.str();
    EXPECT_EQ(text.find("# execs"), 0u);
    EXPECT_NE(text.find("100, 5, 0, 1, 20, 1000"),
              std::string::npos);
    EXPECT_EQ(plot.rows().size(), 2u);
}

TEST_F(Obs, EnabledGuardRestoresState)
{
    obs::setEnabled(false);
    {
        EnabledGuard on(true);
        EXPECT_TRUE(obs::metricsEnabled());
        EXPECT_TRUE(obs::tracingEnabled());
        {
            EnabledGuard off(false);
            EXPECT_FALSE(obs::metricsEnabled());
        }
        EXPECT_TRUE(obs::metricsEnabled());
    }
    EXPECT_FALSE(obs::metricsEnabled());
    EXPECT_FALSE(obs::tracingEnabled());
}

TEST_F(Obs, RegistryIsThreadSafe)
{
    // Regression test for the parallel execution layer: handle
    // registration (map mutation) and bumps (atomic adds) race from
    // worker threads during a sharded campaign. Hammer both from
    // several threads; every increment must survive and handles
    // must stay stable.
    EnabledGuard on(true);
    constexpr int kThreads = 8;
    constexpr int kIters = 2'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([t] {
            for (int i = 0; i < kIters; i++) {
                // Shared name: contended atomic bumps.
                obs::counter("mt.shared").add();
                // Rotating names: concurrent registration.
                obs::counter("mt.worker." +
                             std::to_string((t + i) % 4))
                    .add();
                obs::gauge("mt.gauge").max(
                    static_cast<std::uint64_t>(i));
                obs::histogram("mt.hist").observe(
                    static_cast<std::uint64_t>(i % 100));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(obs::counter("mt.shared").value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    std::uint64_t rotated = 0;
    for (int n = 0; n < 4; n++)
        rotated +=
            obs::counter("mt.worker." + std::to_string(n)).value();
    EXPECT_EQ(rotated, static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(obs::gauge("mt.gauge").value(), kIters - 1u);
    auto snapshot = Registry::global().snapshot();
    EXPECT_FALSE(snapshot.toJsonl().empty());
}

TEST_F(Obs, QuietGuardScopesNoticeSilencing)
{
    ASSERT_FALSE(support::isQuiet());
    {
        support::QuietGuard quiet;
        EXPECT_TRUE(support::isQuiet());
        {
            support::QuietGuard loud(false);
            EXPECT_FALSE(support::isQuiet());
        }
        EXPECT_TRUE(support::isQuiet());
    }
    EXPECT_FALSE(support::isQuiet());
}

/**
 * Property test: a randomized FuzzerStatsSnapshot survives a
 * render→parse round trip with *every* field intact — including
 * perConfigExecs in configuration (file) order, not key-sorted, and
 * the wall-clock display fields. The strongest check is byte-level:
 * re-rendering the parsed snapshot reproduces the original text.
 */
TEST_F(Obs, FuzzerStatsSnapshotRoundTripProperty)
{
    // Deliberately not alphabetical: a key-sorted parse would
    // reorder these and fail the byte-identity check below.
    const char *kNames[] = {"zeta_O3", "gcc_O0",  "icx_O2",
                            "clang_O3", "bcc_O1", "alpha_Os"};
    const std::size_t kPool = sizeof(kNames) / sizeof(kNames[0]);
    support::Rng rng(0x5EEDFACE);
    for (int iter = 0; iter < 64; iter++) {
        SCOPED_TRACE("iter=" + std::to_string(iter));
        obs::FuzzerStatsSnapshot snapshot;
        snapshot.banner =
            "compdiff-afl-" + std::to_string(rng.below(1000));
        snapshot.execsDone = rng.below(1'000'000'000);
        snapshot.corpusSize = rng.below(100'000);
        snapshot.crashes = rng.below(10'000);
        snapshot.diffs = rng.below(10'000);
        snapshot.edges = rng.below(1'000'000);
        snapshot.lastFindExec = rng.below(1'000'000'000);
        snapshot.lastDiffExec = rng.below(1'000'000'000);
        // %.2f-exact doubles so the byte comparison is meaningful.
        snapshot.execsPerSec =
            static_cast<double>(rng.below(100'000'000)) / 100.0;
        snapshot.runTimeSecs =
            static_cast<double>(rng.below(1'000'000'00)) / 100.0;
        snapshot.restarts = rng.below(1000);
        const std::size_t configs = rng.below(kPool + 1);
        const std::size_t start = rng.below(kPool);
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < configs; i++) {
            const std::uint64_t execs = rng.below(1'000'000);
            snapshot.perConfigExecs.emplace_back(
                kNames[(start + i) % kPool], execs);
            total += execs;
        }
        snapshot.compdiffExecs = total;

        const std::string text = obs::renderFuzzerStats(snapshot);
        const obs::FuzzerStatsSnapshot back =
            obs::snapshotFromFuzzerStats(text);
        EXPECT_EQ(back.banner, snapshot.banner);
        EXPECT_EQ(back.execsDone, snapshot.execsDone);
        EXPECT_EQ(back.compdiffExecs, snapshot.compdiffExecs);
        EXPECT_EQ(back.corpusSize, snapshot.corpusSize);
        EXPECT_EQ(back.crashes, snapshot.crashes);
        EXPECT_EQ(back.diffs, snapshot.diffs);
        EXPECT_EQ(back.edges, snapshot.edges);
        EXPECT_EQ(back.lastFindExec, snapshot.lastFindExec);
        EXPECT_EQ(back.lastDiffExec, snapshot.lastDiffExec);
        EXPECT_EQ(back.execsPerSec, snapshot.execsPerSec);
        EXPECT_EQ(back.runTimeSecs, snapshot.runTimeSecs);
        EXPECT_EQ(back.restarts, snapshot.restarts);
        EXPECT_EQ(back.perConfigExecs, snapshot.perConfigExecs);
        EXPECT_EQ(obs::renderFuzzerStats(back), text);
    }
}

TEST_F(Obs, HistogramQuantileInterpolation)
{
    obs::MetricsSnapshot::Entry entry;
    entry.kind = "histogram";
    entry.bounds = {100, 200};
    entry.buckets = {50, 50, 0};
    entry.count = 100;
    // rank 50 lands exactly at the first bucket's upper bound...
    EXPECT_DOUBLE_EQ(entry.quantile(0.50), 100.0);
    // ...rank 90 interpolates 80% into the second bucket's span.
    EXPECT_DOUBLE_EQ(entry.quantile(0.90), 180.0);
    // Degenerate inputs: empty entries and out-of-range q are 0.
    EXPECT_EQ(entry.quantile(0.0), 0.0);
    EXPECT_EQ(entry.quantile(1.0), 0.0);
    obs::MetricsSnapshot::Entry empty;
    empty.kind = "histogram";
    empty.bounds = {10};
    empty.buckets = {0, 0};
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    // Overflow-bucket observations clamp to the highest bound.
    obs::MetricsSnapshot::Entry over;
    over.kind = "histogram";
    over.bounds = {10};
    over.buckets = {0, 5};
    over.count = 5;
    EXPECT_DOUBLE_EQ(over.quantile(0.5), 10.0);
}

TEST_F(Obs, SnapshotJsonlCarriesPercentiles)
{
    EnabledGuard on(true);
    auto &hist =
        Registry::global().histogram("pct.hist", {10, 100});
    for (int i = 0; i < 10; i++)
        hist.observe(5);
    const std::string jsonl =
        Registry::global().snapshot().toJsonl();
    EXPECT_NE(jsonl.find("\"p50\":"), std::string::npos);
    EXPECT_NE(jsonl.find("\"p90\":"), std::string::npos);
    EXPECT_NE(jsonl.find("\"p99\":"), std::string::npos);
    std::string error;
    EXPECT_TRUE(obs::jsonlWellFormed(jsonl, &error)) << error;
    const std::string table =
        Registry::global().snapshot().toTable();
    EXPECT_NE(table.find("p50"), std::string::npos);
}

TEST_F(Obs, EventLineRoundTrip)
{
    obs::CampaignEvent event("divergence", 412);
    event.hex("signature", 0x00ab12cd34ef5678ULL)
        .num("size", 33)
        .text("note", "weird \"quoted\" value\n");
    const std::string line = obs::renderEventLine(event);
    EXPECT_EQ(line.find("{\"v\":1,\"kind\":\"divergence\""), 0u);

    obs::CampaignEvent back;
    std::string error;
    ASSERT_TRUE(obs::parseEventLine(line, &back, &error)) << error;
    EXPECT_EQ(back.kind, "divergence");
    EXPECT_EQ(back.exec, 412u);
    ASSERT_EQ(back.details.size(), 3u);
    ASSERT_NE(back.find("signature"), nullptr);
    EXPECT_EQ(back.find("signature")->value,
              obs::hex16(0x00ab12cd34ef5678ULL));
    EXPECT_EQ(back.numOr("size"), 33u);
    EXPECT_EQ(back.find("note")->value, "weird \"quoted\" value\n");
    // Round-tripping is byte-stable (details keep their order).
    EXPECT_EQ(obs::renderEventLine(back), line);
}

TEST_F(Obs, EventLineChecksumCatchesTampering)
{
    const std::string line = obs::renderEventLine(
        obs::CampaignEvent("discovery", 7).num("size", 16));
    obs::CampaignEvent out;
    ASSERT_TRUE(obs::parseEventLine(line, &out));
    // Flip one digit in the body: the crc no longer matches.
    std::string tampered = line;
    const std::size_t pos = tampered.find("\"exec\":7");
    ASSERT_NE(pos, std::string::npos);
    tampered[pos + 7] = '9';
    std::string error;
    EXPECT_FALSE(obs::parseEventLine(tampered, &out, &error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST_F(Obs, EventLogKeepsValidPrefixAndDropsTornTail)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "compdiff_obs_events_torn.jsonl")
            .string();
    std::filesystem::remove(path);

    // A missing file is an empty log, not an error.
    EXPECT_TRUE(obs::readEventLog(path).events.empty());
    EXPECT_FALSE(obs::readEventLog(path).droppedTail);

    std::vector<obs::CampaignEvent> events;
    for (std::uint64_t i = 1; i <= 5; i++)
        events.push_back(
            obs::CampaignEvent("discovery", i * 10).num("size", i));
    ASSERT_TRUE(obs::appendEventLines(path, events));
    EXPECT_EQ(obs::readEventLog(path).events.size(), 5u);

    // Tear the last line mid-checksum, as a hard kill would.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 9);
    const obs::EventLog torn = obs::readEventLog(path);
    EXPECT_EQ(torn.events.size(), 4u);
    EXPECT_TRUE(torn.droppedTail);
    EXPECT_EQ(torn.events.back().exec, 40u);

    // writeEventLog rewinds the journal wholesale.
    ASSERT_TRUE(obs::writeEventLog(
        path, {obs::CampaignEvent("crash", 3)}));
    const obs::EventLog rewound = obs::readEventLog(path);
    ASSERT_EQ(rewound.events.size(), 1u);
    EXPECT_EQ(rewound.events[0].kind, "crash");
    EXPECT_FALSE(rewound.droppedTail);
    std::filesystem::remove(path);
}

} // namespace
