#include "simcuda/kernel.h"

#include <set>

namespace medusa::simcuda {

// Defined in kernels/builtin.cc; registers all built-in kernels into the
// mutable registry exactly once.
void registerBuiltinKernels(KernelRegistry &registry);

KernelRegistry &
mutableRegistry()
{
    static KernelRegistry registry;
    return registry;
}

const KernelRegistry &
KernelRegistry::instance()
{
    static const bool inited = [] {
        registerBuiltinKernels(mutableRegistry());
        return true;
    }();
    (void)inited;
    return mutableRegistry();
}

KernelId
KernelRegistry::registerKernel(KernelDef def)
{
    MEDUSA_CHECK(findByName(def.mangled_name) == kInvalidKernel,
                 "duplicate kernel name " << def.mangled_name);
    MEDUSA_CHECK(def.params.size() <= kMaxKernelParams,
                 "kernel " << def.mangled_name << " has "
                           << def.params.size()
                           << " params, more than the inline capacity "
                           << kMaxKernelParams);
    MEDUSA_CHECK(def.access.empty() ||
                     def.access.size() == def.params.size(),
                 "kernel " << def.mangled_name
                           << " access set does not match its params");
    for (std::size_t i = 0; i < def.access.size(); ++i) {
        const bool is_ptr = def.params[i] == ParamKind::kPointer;
        MEDUSA_CHECK(is_ptr == (def.access[i] != ParamAccess::kNone),
                     "kernel " << def.mangled_name << " param " << i
                               << " access/kind mismatch");
    }
    defs_.push_back(std::move(def));
    return static_cast<KernelId>(defs_.size() - 1);
}

KernelId
KernelRegistry::findByName(const std::string &mangled_name) const
{
    for (std::size_t i = 0; i < defs_.size(); ++i) {
        if (defs_[i].mangled_name == mangled_name) {
            return static_cast<KernelId>(i);
        }
    }
    return kInvalidKernel;
}

std::vector<KernelId>
KernelRegistry::kernelsInModule(const std::string &module) const
{
    std::vector<KernelId> out;
    for (std::size_t i = 0; i < defs_.size(); ++i) {
        if (defs_[i].module_name == module) {
            out.push_back(static_cast<KernelId>(i));
        }
    }
    return out;
}

std::vector<std::string>
KernelRegistry::moduleNames() const
{
    std::set<std::string> names;
    for (const auto &d : defs_) {
        names.insert(d.module_name);
    }
    return {names.begin(), names.end()};
}

} // namespace medusa::simcuda
