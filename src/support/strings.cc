#include "support/strings.hh"

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace compdiff::support
{

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); i++) {
        if (i == text.size() || text[i] == delim) {
            out.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
splitLines(std::string_view text)
{
    std::vector<std::string> out;
    for (auto &line : split(text, '\n')) {
        auto t = trim(line);
        if (!t.empty())
            out.push_back(std::move(t));
    }
    return out;
}

std::string
join(const std::vector<std::string> &pieces, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < pieces.size(); i++) {
        if (i)
            out += sep;
        out += pieces[i];
    }
    return out;
}

std::string
trim(std::string_view text)
{
    std::size_t b = 0;
    std::size_t e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        b++;
    while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])))
        e--;
    return std::string(text.substr(b, e - b));
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

bool
contains(std::string_view haystack, std::string_view needle)
{
    return haystack.find(needle) != std::string_view::npos;
}

std::string
replaceAll(std::string text, std::string_view from, std::string_view to)
{
    if (from.empty())
        return text;
    std::size_t pos = 0;
    while ((pos = text.find(from, pos)) != std::string::npos) {
        text.replace(pos, from.size(), to);
        pos += to.size();
    }
    return text;
}

std::string
toHex(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
}

std::string
humanCount(double value)
{
    char buf[32];
    if (value >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.1fM", value / 1e6);
    else if (value >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.0fK", value / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);

    std::string out(needed > 0 ? static_cast<std::size_t>(needed) : 0,
                    '\0');
    if (needed > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    va_end(args2);
    return out;
}

} // namespace compdiff::support
