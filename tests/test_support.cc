/**
 * @file
 * Unit tests for the support library (hashing, RNG, strings, tables,
 * command-line flags).
 */

#include <gtest/gtest.h>

#include "support/bytes.hh"
#include "support/flags.hh"
#include "support/hash.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace
{

using namespace compdiff::support;

TEST(Hash, MurmurIsDeterministic)
{
    EXPECT_EQ(murmurHash64("hello"), murmurHash64("hello"));
    EXPECT_NE(murmurHash64("hello"), murmurHash64("hellp"));
    EXPECT_NE(murmurHash64("hello", 1), murmurHash64("hello", 2));
}

TEST(Hash, EmptyAndShortInputs)
{
    // Different lengths of identical prefixes must hash differently.
    EXPECT_NE(murmurHash64(""), murmurHash64(std::string_view("\0", 1)));
    EXPECT_NE(murmurHash64("a"), murmurHash64("aa"));
    // 15/16/17-byte boundary around the block size.
    const std::string base(17, 'x');
    EXPECT_NE(murmurHash64(base.substr(0, 15)),
              murmurHash64(base.substr(0, 16)));
    EXPECT_NE(murmurHash64(base.substr(0, 16)),
              murmurHash64(base.substr(0, 17)));
}

TEST(Hash, CombinerOrderSensitive)
{
    HashCombiner a;
    a.add(1).add(2);
    HashCombiner b;
    b.add(2).add(1);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(1), 0u);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        const auto v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Strings, SplitJoinTrim)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
    EXPECT_EQ(trim("  x \n"), "x");
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_TRUE(endsWith("foobar", "bar"));
    EXPECT_TRUE(contains("foobar", "oba"));
    EXPECT_EQ(replaceAll("aaa", "a", "bb"), "bbbbbb");
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
}

TEST(Bytes, LittleEndianHelpers)
{
    Bytes buffer;
    appendLE32(buffer, 0x01020304);
    appendLE16(buffer, 0xbeef);
    EXPECT_EQ(readLE32(buffer, 0), 0x01020304u);
    EXPECT_EQ(readLE16(buffer, 4), 0xbeef);
    EXPECT_EQ(readLE32(buffer, 3, 7), 7u); // out of range
}

TEST(Table, AlignsColumns)
{
    TextTable table;
    table.setHeader({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"long-name", "2"});
    const auto text = table.str();
    EXPECT_NE(text.find("long-name"), std::string::npos);
    EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, BoxStatsQuartiles)
{
    const auto stats = boxStats({1, 2, 3, 4, 5});
    EXPECT_DOUBLE_EQ(stats.min, 1);
    EXPECT_DOUBLE_EQ(stats.median, 3);
    EXPECT_DOUBLE_EQ(stats.max, 5);
    EXPECT_DOUBLE_EQ(stats.q1, 2);
    EXPECT_DOUBLE_EQ(stats.q3, 4);
}

/** The flag shapes the front ends use, parsed in-process. */
struct FlagFixture
{
    std::uint64_t jobs = 1;
    std::uint64_t shards = 1;
    std::string mode = "diff";
    std::string format = "table";
    bool fuzz = false;
    std::uint64_t fuzzExecs = 20'000;
    bool reduce = false;
    std::uint64_t reduceBudget = 4096;
    bool watch = false;
    double watchSecs = 2.0;
    double heartbeatSecs = 1.0;
    std::string session;
    bool quiet = false;

    FlagSet flags()
    {
        return FlagSet(
            "prog [options] [file]",
            {{"campaign",
              {Flag("--jobs=N", &jobs, "threads").atMost(kMaxWorkerCount),
               Flag("--shards=N", &shards, "shards").atMost(kMaxWorkerCount),
               Flag("--fuzz[=N]", &fuzzExecs, "campaign", &fuzz),
               Flag("--heartbeat-every=S", &heartbeatSecs, "heartbeat"),
               Flag("--session=DIR", &session, "session")}},
             {"other",
              {Flag("--mode=diff|sancheck", &mode, "oracle"),
               Flag("--format=table|json|prom", &format, "rendering"),
               Flag("--reduce[=B]", &reduceBudget, "reduce", &reduce),
               Flag("--watch[=SECS]", &watchSecs, "watch", &watch),
               Flag("--quiet", &quiet, "quiet")}}});
    }

    ParsedArgs parse(std::vector<std::string> args)
    {
        return flags().parse(args);
    }

    /** The FlagError message for `arg`, or "" when it parsed. */
    std::string error(const std::string &arg)
    {
        try {
            parse({arg});
        } catch (const FlagError &e) {
            return e.what();
        }
        return "";
    }
};

TEST(Flags, RejectsMalformedCounts)
{
    for (const char *value : {"-1", "abc", "1x", "18446744073709551616",
                              "1025", "", " 4", "+4", "0x10"}) {
        FlagFixture f;
        const std::string message = f.error(std::string("--jobs=") + value);
        EXPECT_NE(message.find("--jobs"), std::string::npos) << value;
        EXPECT_EQ(f.jobs, 1u) << value;
    }
    // --shards shares the ceiling: a huge shard count is a usage
    // error, not an allocation of that many shards.
    for (const char *value : {"100000000", "1025"}) {
        FlagFixture f;
        const std::string message = f.error(std::string("--shards=") + value);
        EXPECT_NE(message.find("--shards"), std::string::npos) << value;
        EXPECT_NE(message.find("limit 1024"), std::string::npos) << value;
        EXPECT_EQ(f.shards, 1u) << value;
    }
    FlagFixture f;
    EXPECT_NE(f.error("--jobs=1025").find("limit 1024"), std::string::npos);
    EXPECT_NE(f.error("--jobs=18446744073709551616").find("out of range"),
              std::string::npos);
    EXPECT_NE(f.error("--jobs").find("needs a value"), std::string::npos);
    EXPECT_NE(f.error("--fuzz=2e4").find("--fuzz"), std::string::npos);
    EXPECT_NE(f.error("--reduce=-5").find("--reduce"), std::string::npos);
}

TEST(Flags, AcceptsValidCountsExactly)
{
    FlagFixture f;
    f.parse({"--jobs=0"});
    EXPECT_EQ(f.jobs, 0u);
    f.parse({"--jobs=1024"});
    EXPECT_EQ(f.jobs, 1024u);
    f.parse({"--jobs=007"});
    EXPECT_EQ(f.jobs, 7u);
    f.parse({"--shards=1024"});
    EXPECT_EQ(f.shards, 1024u);
    // Without a ceiling the whole uint64 range fits.
    f.parse({"--fuzz=18446744073709551615"});
    EXPECT_EQ(f.fuzzExecs, UINT64_MAX);
    EXPECT_EQ(parseUnsigned("execs", "600"), 600u);
    EXPECT_THROW(parseUnsigned("execs", "600k"), FlagError);
}

TEST(Flags, ConvertReportsFatalErrorsAsUsageErrors)
{
    FlagFixture f;
    EXPECT_EQ(f.flags().convert("--impls", [] { return 3; }), 3);
    // A bad spec found after parsing exits 2 with the usage, the way
    // a malformed value does (ImplementationRegistry::parse throws
    // FatalError on an unknown family).
    EXPECT_EXIT(f.flags().convert("--impls",
                                  []() -> int { fatal("unknown family"); }),
                ::testing::ExitedWithCode(2),
                "invalid value for --impls: fatal: unknown family");
}

TEST(Flags, NumbersAreStrictAndLossless)
{
    FlagFixture f;
    f.parse({"--heartbeat-every=0.0000005"});
    EXPECT_EQ(f.heartbeatSecs, 0.0000005);
    f.parse({"--heartbeat-every=1e-7"});
    EXPECT_EQ(f.heartbeatSecs, 1e-7);
    f.parse({"--heartbeat-every=.25"});
    EXPECT_EQ(f.heartbeatSecs, 0.25);
    for (const char *value : {"abc", "0.2x", "", "nan", "inf", "1e999"}) {
        const std::string message =
            f.error(std::string("--heartbeat-every=") + value);
        EXPECT_NE(message.find("--heartbeat-every"), std::string::npos)
            << value;
    }
    EXPECT_EQ(f.heartbeatSecs, 0.25);
}

TEST(Flags, ChoicesRejectUnlistedWords)
{
    FlagFixture f;
    f.parse({"--mode=sancheck", "--format=prom"});
    EXPECT_EQ(f.mode, "sancheck");
    EXPECT_EQ(f.format, "prom");
    EXPECT_NE(f.error("--mode=fast").find("--mode"), std::string::npos);
    EXPECT_NE(f.error("--format=xml").find("table, json, prom"),
              std::string::npos);
    EXPECT_NE(f.error("--format=").find("--format"), std::string::npos);
    EXPECT_EQ(f.mode, "sancheck");
    EXPECT_EQ(f.format, "prom");
}

TEST(Flags, OptionalValueForms)
{
    FlagFixture bare;
    bare.parse({"--fuzz", "--reduce", "--watch"});
    EXPECT_TRUE(bare.fuzz);
    EXPECT_EQ(bare.fuzzExecs, 20'000u);
    EXPECT_TRUE(bare.reduce);
    EXPECT_EQ(bare.reduceBudget, 4096u);
    EXPECT_TRUE(bare.watch);
    EXPECT_EQ(bare.watchSecs, 2.0);

    FlagFixture valued;
    valued.parse({"--fuzz=500", "--reduce=100", "--watch=0.5"});
    EXPECT_TRUE(valued.fuzz);
    EXPECT_EQ(valued.fuzzExecs, 500u);
    EXPECT_TRUE(valued.reduce);
    EXPECT_EQ(valued.reduceBudget, 100u);
    EXPECT_TRUE(valued.watch);
    EXPECT_EQ(valued.watchSecs, 0.5);

    // --watch=0 parses as 0; the monitor maps it to its default.
    FlagFixture zero;
    zero.parse({"--watch=0"});
    EXPECT_TRUE(zero.watch);
    EXPECT_EQ(zero.watchSecs, 0.0);

    FlagFixture absent;
    absent.parse({});
    EXPECT_FALSE(absent.fuzz);
    EXPECT_FALSE(absent.reduce);
    EXPECT_FALSE(absent.watch);
}

TEST(Flags, PositionalsUnknownsAndGroups)
{
    FlagFixture f;
    const ParsedArgs parsed =
        f.parse({"prog.mc", "--quiet", "--jobs=2", "-", "--mode=sancheck",
                 "--session=a=b", "--fuzz"});
    EXPECT_FALSE(parsed.help);
    EXPECT_EQ(parsed.positional, (std::vector<std::string>{"prog.mc", "-"}));
    EXPECT_TRUE(f.quiet);
    EXPECT_EQ(f.session, "a=b");
    ASSERT_EQ(parsed.groupArgs.size(), 2u);
    EXPECT_EQ(parsed.groupArgs[0],
              (std::vector<std::string>{"--jobs=2", "--session=a=b",
                                        "--fuzz"}));
    EXPECT_EQ(parsed.groupArgs[1],
              (std::vector<std::string>{"--quiet", "--mode=sancheck"}));

    EXPECT_EQ(f.error("--no-such-flag"), "unknown option --no-such-flag");
    EXPECT_EQ(f.error("--jobs-x=1"), "unknown option --jobs-x=1");
    EXPECT_EQ(f.error("--quiet=1"), "--quiet takes no value");
    // --help stops the parse before later arguments are looked at.
    EXPECT_TRUE(f.parse({"--help", "--jobs=abc"}).help);
}

TEST(Flags, UsageIsGeneratedFromTheTable)
{
    FlagFixture f;
    const std::string usage = f.flags().usage();
    EXPECT_EQ(usage.rfind("usage: prog [options] [file]\n", 0), 0u);
    for (const char *piece :
         {"\ncampaign:\n", "\nother:\n", "  --jobs=N ", "--fuzz[=N]",
          "(default 20000)", "--mode=diff|sancheck", "--watch[=SECS]",
          "  --quiet ", "  --help "}) {
        EXPECT_NE(usage.find(piece), std::string::npos) << piece;
    }
    // Wrapped help lines stay within the width.
    for (const auto &line : split(usage, '\n'))
        EXPECT_LE(line.size(), 72u) << line;
}

} // namespace
