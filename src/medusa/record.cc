#include "medusa/record.h"

#include <algorithm>

namespace medusa::core {

void
Recorder::onAlloc(u64 seq_index, DeviceAddr addr, u64 logical_size,
                  u64 backing_size)
{
    MEDUSA_CHECK(seq_index == allocs_.size(),
                 "allocation sequence index out of step");
    AllocRecord rec;
    rec.alloc_index = seq_index;
    rec.addr = addr;
    rec.logical_size = logical_size;
    rec.backing_size = backing_size;
    rec.op_pos_alloc = ops_.size();
    allocs_.push_back(rec);
    live_[addr] = seq_index;
    // seq_index exceeds every recorded index, so the entry lands after
    // the records at its base (at the end, unless the pool reused it).
    const std::pair<DeviceAddr, u64> entry{addr, seq_index};
    by_base_.insert(
        std::upper_bound(by_base_.begin(), by_base_.end(), entry), entry);

    AllocOp op;
    op.kind = AllocOp::kAlloc;
    op.logical_size = logical_size;
    op.backing_size = backing_size;
    ops_.push_back(op);
}

void
Recorder::onFree(DeviceAddr addr)
{
    auto it = live_.find(addr);
    MEDUSA_CHECK(it != live_.end(), "free of unrecorded buffer");
    const u64 alloc_index = it->second;
    live_.erase(it);
    allocs_[alloc_index].op_pos_free = static_cast<i64>(ops_.size());

    AllocOp op;
    op.kind = AllocOp::kFree;
    op.freed_alloc_index = alloc_index;
    ops_.push_back(op);
}

void
Recorder::onKernelLaunch(KernelAddr, simcuda::ParamView, bool capturing)
{
    if (!capturing || current_graph_ < 0) {
        return; // only captured launches become graph nodes
    }
    graph_launches_[static_cast<u32>(current_graph_)].push_back(
        CapturedLaunch{ops_.size()});
}

void
Recorder::onTagBuffer(const std::string &tag, DeviceAddr addr)
{
    auto it = live_.find(addr);
    MEDUSA_CHECK(it != live_.end(), "tag of unrecorded buffer " << tag);
    tags_[tag] = it->second;
}

void
Recorder::markOrganicBoundary()
{
    organic_op_count_ = ops_.size();
    organic_alloc_count_ = allocs_.size();
}

void
Recorder::markCaptureStageBegin()
{
    capture_stage_op_pos_ = ops_.size();
}

void
Recorder::beginGraph(u32 batch_size)
{
    MEDUSA_CHECK(current_graph_ < 0, "nested graph recording");
    current_graph_ = static_cast<i32>(batch_size);
    graph_launches_[batch_size].clear();
}

void
Recorder::endGraph()
{
    MEDUSA_CHECK(current_graph_ >= 0, "endGraph without beginGraph");
    current_graph_ = -1;
}

void
Recorder::recordsContaining(DeviceAddr value,
                            std::vector<const AllocRecord *> &out) const
{
    out.clear();
    // Driver blocks never overlap, so at most one base range can
    // contain the value; pool reuse stacks multiple records on the same
    // base over time.
    if (by_base_.empty() || by_base_.front().first > value) {
        return;
    }
    // Find the last entry whose base is at or below value with a
    // branch-free binary search: its comparisons are unpredictable, and
    // std::upper_bound's mispredicted branches cost a third of a lookup.
    const auto *last = by_base_.data();
    for (std::size_t n = by_base_.size(); n > 1;) {
        const std::size_t half = n / 2;
        last = last[half].first <= value ? last + half : last;
        n -= half;
    }
    const auto *first = last;
    while (first != by_base_.data() && (first - 1)->first == last->first) {
        --first;
    }
    for (const auto *it = first; it <= last; ++it) {
        const AllocRecord &rec = allocs_[it->second];
        if (value >= rec.addr && value < rec.addr + rec.logical_size) {
            out.push_back(&rec);
        }
    }
}

} // namespace medusa::core
