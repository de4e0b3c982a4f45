/**
 * @file
 * Forwarding header: the JSON reader lives in common/json.h. It stays
 * only because perfbench/serve_load.cc, which is not edited with the
 * library, includes "serve/json.h" and spells `serve::Json`. In-tree
 * code includes common/json.h.
 */

#include "common/json.h"

namespace medusa::serve { using medusa::Json; }
