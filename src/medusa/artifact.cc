#include "medusa/artifact.h"

#include "common/metrics.h"

namespace medusa::core {

u64
Artifact::totalNodes() const
{
    u64 total = 0;
    for (const auto &g : graphs) {
        total += g.nodes.size();
    }
    return total;
}

void
AnalysisStats::publishTo(MetricsRegistry &registry) const
{
    registry.counter("analysis.total_nodes").add(total_nodes);
    registry.counter("analysis.total_params").add(total_params);
    registry.counter("analysis.pointer_params").add(pointer_params);
    registry.counter("analysis.constant_params").add(constant_params);
    registry.counter("analysis.decoy_candidates").add(decoy_candidates);
    registry.counter("analysis.validation_repairs").add(validation_repairs);
    registry.counter("analysis.dlsym_visible_nodes")
        .add(dlsym_visible_nodes);
    registry.counter("analysis.hidden_kernel_nodes")
        .add(hidden_kernel_nodes);
    registry.counter("analysis.model_param_buffers")
        .add(model_param_buffers);
    registry.counter("analysis.temp_buffers").add(temp_buffers);
    registry.counter("analysis.permanent_buffers").add(permanent_buffers);
    registry.counter("analysis.rewritten_buffers").add(rewritten_buffers);
    registry.counter("analysis.indirect_pointer_words")
        .add(indirect_pointer_words);
    registry.counter("analysis.materialized_content_bytes")
        .add(materialized_content_bytes);
    registry.counter("analysis.full_dump_bytes").add(full_dump_bytes);
}

} // namespace medusa::core
