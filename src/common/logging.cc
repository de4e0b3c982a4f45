#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace medusa::detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "[PANIC] %s:%d: %s\n", file, line, msg.c_str());
    std::abort();
}

} // namespace medusa::detail
