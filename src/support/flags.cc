#include "support/flags.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/strings.hh"

namespace compdiff::support
{

namespace
{

constexpr std::size_t kHelpWidth = 72;
constexpr std::size_t kMaxNameColumn = 24;

[[noreturn]] void
badValue(std::string_view what, std::string_view text,
         const std::string &why)
{
    throw FlagError("invalid value for " + std::string(what) + ": '" +
                    std::string(text) + "' " + why);
}

/** `text` read whole by std::from_chars as a T, else a FlagError. */
template <typename T>
T
parseWhole(std::string_view what, std::string_view text, const char *kind)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        badValue(what, text, "is out of range");
    if (ec != std::errc() || ptr != end)
        badValue(what, text, std::string("is not ") + kind);
    return value;
}

/** Strict finite decimal number; else a FlagError naming `what`. */
double
parseNumber(std::string_view what, std::string_view text)
{
    const auto value = parseWhole<double>(what, text, "a finite number");
    if (!std::isfinite(value))
        badValue(what, text, "is not a finite number");
    return value;
}

/** The destination's current value for the help; "" for none. */
std::string
defaultText(const FlagDest &dest)
{
    if (const auto *text = std::get_if<std::string *>(&dest))
        return **text;
    if (const auto *count = std::get_if<std::uint64_t *>(&dest))
        return **count ? std::to_string(**count) : "";
    if (const auto *number = std::get_if<double *>(&dest))
        return **number != 0 ? format("%g", **number) : "";
    return "";
}

/** Store `arg` (the flag's name, then `=value` at `eq` if any). */
void
assign(const Flag &flag, const std::string &arg, std::size_t eq)
{
    if (flag.present)
        *flag.present = true;
    bool *const *toggle = std::get_if<bool *>(&flag.dest);
    if (eq == std::string::npos) {
        if (toggle)
            **toggle = true;
        else if (!flag.valueOptional)
            throw FlagError(flag.name + " needs a value (" +
                            flag.spelling + ")");
        return;
    }
    if (toggle)
        throw FlagError(flag.name + " takes no value");
    const std::string value = arg.substr(eq + 1);
    if (!flag.choices.empty() &&
        std::find(flag.choices.begin(), flag.choices.end(), value) ==
            flag.choices.end())
        badValue(flag.name, value,
                 "is not one of: " + join(flag.choices, ", "));
    if (auto *const *text = std::get_if<std::string *>(&flag.dest))
        **text = value;
    else if (auto *const *count = std::get_if<std::uint64_t *>(&flag.dest))
        **count = parseUnsigned(flag.name, value, flag.max);
    else
        *std::get<double *>(flag.dest) = parseNumber(flag.name, value);
}

} // namespace

Flag::Flag(std::string spelling_, FlagDest dest_, std::string help_,
           bool *present_)
    : spelling(std::move(spelling_)), dest(dest_), help(std::move(help_)),
      present(present_)
{
    const std::size_t end = spelling.find_first_of("[=");
    name = spelling.substr(0, end);
    if (end == std::string::npos)
        return;
    valueOptional = spelling[end] == '[';
    std::string meta = spelling.substr(end + (valueOptional ? 2 : 1));
    if (valueOptional)
        meta.pop_back();
    if (meta.find('|') != std::string::npos)
        choices = split(meta, '|');
}

Flag
Flag::atMost(std::uint64_t ceiling) &&
{
    max = ceiling;
    return std::move(*this);
}

FlagSet::FlagSet(std::string synopsis, std::vector<FlagGroup> groups,
                 std::string epilog)
    : groups_(std::move(groups))
{
    std::size_t column = 0;
    for (const auto &group : groups_) {
        for (const auto &flag : group.flags)
            column = std::max(column, flag.spelling.size());
    }
    column = std::min(column, kMaxNameColumn) + 4;

    // One row per flag: the spelling, then the help word-wrapped in
    // a column of its own.
    const auto row = [&](const std::string &spelling,
                         const std::string &help) {
        std::string line = "  " + spelling;
        bool fresh = true;
        for (const auto &word : split(help, ' ')) {
            if (!fresh && line.size() + 1 + word.size() > kHelpWidth) {
                usage_ += line + "\n";
                line.clear();
                fresh = true;
            }
            if (fresh && line.size() >= column) {
                usage_ += line + "\n";
                line.clear();
            }
            line.resize(std::max(line.size(), column), ' ');
            line += (fresh ? "" : " ") + word;
            fresh = false;
        }
        usage_ += line + "\n";
    };
    usage_ = "usage: " + synopsis + "\n";
    for (const auto &group : groups_) {
        usage_ += group.title.empty() ? "\n" : "\n" + group.title + ":\n";
        for (const auto &flag : group.flags) {
            const std::string def = defaultText(flag.dest);
            row(flag.spelling,
                def.empty() ? flag.help
                            : flag.help + " (default " + def + ")");
        }
    }
    row("--help", "show this text");
    if (!epilog.empty())
        usage_ += "\n" + epilog;
}

ParsedArgs
FlagSet::parse(const std::vector<std::string> &args) const
{
    ParsedArgs parsed;
    parsed.groupArgs.resize(groups_.size());
    for (const std::string &arg : args) {
        if (!startsWith(arg, "--")) {
            parsed.positional.push_back(arg);
            continue;
        }
        if (arg == "--help") {
            parsed.help = true;
            break;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        bool known = false;
        for (std::size_t g = 0; g < groups_.size() && !known; g++) {
            for (const auto &flag : groups_[g].flags) {
                if (flag.name == name) {
                    assign(flag, arg, eq);
                    parsed.groupArgs[g].push_back(arg);
                    known = true;
                    break;
                }
            }
        }
        if (!known)
            throw FlagError("unknown option " + arg);
    }
    return parsed;
}

ParsedArgs
FlagSet::parseOrExit(const std::vector<std::string> &args) const
{
    ParsedArgs parsed;
    try {
        parsed = parse(args);
    } catch (const FlagError &error) {
        fail(error.what());
    }
    if (parsed.help) {
        std::fputs(usage_.c_str(), stdout);
        std::exit(0);
    }
    return parsed;
}

void
FlagSet::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s\n\n%s", message.c_str(), usage_.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(std::string_view what, std::string_view text,
              std::uint64_t max)
{
    const auto value =
        parseWhole<std::uint64_t>(what, text, "an unsigned integer");
    if (value > max)
        badValue(what, text, "exceeds the limit " + std::to_string(max));
    return value;
}

} // namespace compdiff::support
