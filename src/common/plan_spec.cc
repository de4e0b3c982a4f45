#include "common/plan_spec.h"

#include <cctype>

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

} // namespace medusa
