#pragma once

/**
 * @file
 * Small string utilities shared across modules.
 */

#include <string>
#include <string_view>
#include <vector>

namespace compdiff::support
{

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char delim);

/** Split into non-empty, whitespace-trimmed lines. */
std::vector<std::string> splitLines(std::string_view text);

/** Join pieces with a separator. */
std::string join(const std::vector<std::string> &pieces,
                 std::string_view sep);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(std::string_view text);

/** True if text begins with prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True if text ends with suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** True if needle occurs in haystack. */
bool contains(std::string_view haystack, std::string_view needle);

/** Replace every occurrence of a substring. */
std::string replaceAll(std::string text, std::string_view from,
                       std::string_view to);

/** Render an integer in lowercase hex with a 0x prefix. */
std::string toHex(std::uint64_t value);

/** Human-readable rendering of a byte count ("1.4M", "23K"). */
std::string humanCount(double value);

/** The whole file at `path`; empty when it cannot be read. */
std::string readFile(const std::string &path);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace compdiff::support
