#pragma once

/**
 * @file
 * Declarative command-line flags. A binary declares one table of
 * entries (spelling, destination pointer, help text); the same table
 * drives the parser and generates the --help text, so the two cannot
 * drift apart.
 *
 * Every flag is given as `--name` or `--name=value`. Values are
 * strict: an unsigned integer is decimal digits only and must fit
 * both its destination and the entry's ceiling, a number must be a
 * finite decimal consumed whole, and a choice must be one of the
 * listed words. Anything else is a FlagError that names the flag.
 */

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/logging.hh"

namespace compdiff::support
{

/** Ceiling for thread and process counts (--jobs, --workers). */
constexpr std::uint64_t kMaxWorkerCount = 1024;

/** A malformed command line; what() names the offending flag. */
class FlagError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Where a flag stores its value; the type picks the value kind. */
using FlagDest =
    std::variant<bool *, std::string *, std::uint64_t *, double *>;

/**
 * One table entry. The spelling is the flag as the help shows it:
 *
 *   "--quiet"               a switch (dest is a bool)
 *   "--jobs=N"              a value, parsed by the destination type
 *   "--fuzz[=N]"            the value may be omitted
 *   "--mode=diff|sancheck"  a choice: one of the listed words
 *
 * `present`, when set, becomes true whenever the flag appears.
 */
struct Flag
{
    Flag(std::string spelling, FlagDest dest, std::string help,
         bool *present = nullptr);

    /** Reject unsigned values above `ceiling`. */
    Flag atMost(std::uint64_t ceiling) &&;

    std::string spelling;
    std::string name; ///< the spelling up to '=' or '['
    FlagDest dest;
    std::string help;
    bool *present;
    bool valueOptional = false;
    std::vector<std::string> choices;
    std::uint64_t max = UINT64_MAX;
};

/** A titled run of flags; the title heads its block in the help. */
struct FlagGroup
{
    std::string title; ///< empty: no heading
    std::vector<Flag> flags;
};

/** What a command line held besides the values the flags stored. */
struct ParsedArgs
{
    /** `--help` appeared; parsing stopped there. */
    bool help = false;
    /** Arguments not starting with `--`, in order. */
    std::vector<std::string> positional;
    /** The text of every flag argument as given, per group. */
    std::vector<std::vector<std::string>> groupArgs;
};

/**
 * One binary's flag table. Build it right after the options struct:
 * the destinations' current values are the defaults the help shows,
 * and they must outlive the FlagSet. `--help` is built in.
 */
class FlagSet
{
  public:
    /** `synopsis` follows "usage: "; `epilog` closes the help. */
    FlagSet(std::string synopsis, std::vector<FlagGroup> groups,
            std::string epilog = "");

    /** Parse arguments (argv without argv[0]); throws FlagError. */
    ParsedArgs parse(const std::vector<std::string> &args) const;

    /**
     * parse() for main(): `--help` prints the usage to stdout and
     * exits 0; a FlagError goes to stderr with the usage, exit 2.
     */
    ParsedArgs parseOrExit(const std::vector<std::string> &args) const;

    /** Print `message` and the usage to stderr and exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /**
     * `make()` for a value built from flag text after parsing (say,
     * implementation specs): a FatalError it throws fails like a
     * malformed value of `flag`.
     */
    template <typename Make>
    auto convert(const std::string &flag, Make &&make) const
    {
        try {
            return make();
        } catch (const FatalError &error) {
            fail("invalid value for " + flag + ": " + error.what());
        }
    }

    /** The generated --help text. */
    const std::string &usage() const { return usage_; }

  private:
    std::vector<FlagGroup> groups_;
    std::string usage_;
};

/** Strict decimal unsigned integer at most `max`; else a FlagError
 *  naming `what`. */
std::uint64_t parseUnsigned(std::string_view what, std::string_view text,
                            std::uint64_t max = UINT64_MAX);

} // namespace compdiff::support
