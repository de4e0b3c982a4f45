#include "common/plan_spec.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace medusa {

std::vector<std::string>
splitSpecEntries(const std::string &spec)
{
    std::vector<std::string> entries;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t end = spec.find_first_of(";,", pos);
        if (end == std::string::npos) {
            end = spec.size();
        }
        std::string entry = spec.substr(pos, end - pos);
        pos = end + 1;
        while (!entry.empty() &&
               std::isspace(static_cast<unsigned char>(entry.front())) !=
                   0) {
            entry.erase(entry.begin());
        }
        while (!entry.empty() &&
               std::isspace(static_cast<unsigned char>(entry.back())) !=
                   0) {
            entry.pop_back();
        }
        if (!entry.empty()) {
            entries.push_back(std::move(entry));
        }
        if (end == spec.size()) {
            break;
        }
    }
    return entries;
}

namespace {

/** strtoull in @p base at a digit of that base, refusing overflow. */
std::optional<u64>
parseDigits(const char *begin, char **end, int base)
{
    const auto c = static_cast<unsigned char>(*begin);
    if ((base == 16 ? std::isxdigit(c) : std::isdigit(c)) == 0) {
        return std::nullopt;
    }
    errno = 0;
    const unsigned long long value = std::strtoull(begin, end, base);
    if (errno == ERANGE) {
        return std::nullopt;
    }
    return static_cast<u64>(value);
}

} // namespace

std::optional<u64>
parseSpecUintPrefix(const char *begin, char **end)
{
    return parseDigits(begin, end, 10);
}

std::optional<u64>
parseSpecUint(const std::string &text)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    char *end = nullptr;
    const std::optional<u64> value =
        parseDigits(text.c_str() + (hex ? 2 : 0), &end, hex ? 16 : 10);
    if (!value.has_value() || end != text.c_str() + text.size()) {
        return std::nullopt;
    }
    return value;
}

} // namespace medusa
