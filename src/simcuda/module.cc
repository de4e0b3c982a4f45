#include "simcuda/module.h"

namespace medusa::simcuda {

namespace {

/** Simulated code-segment base for kernel entry points. */
constexpr KernelAddr kTextBase = 0x7fd000000000ull;

} // namespace

ModuleTable::ModuleTable(u64 aslr_seed)
    : rng_(aslr_seed), addr_of_(KernelRegistry::instance().kernelCount(), 0)
{
}

bool
ModuleTable::isModuleLoaded(const std::string &module_name) const
{
    auto it = loaded_modules_.find(module_name);
    return it != loaded_modules_.end() && it->second;
}

bool
ModuleTable::ensureLoaded(KernelId id)
{
    // A kernel with an address belongs to a loaded module: skip hashing
    // the module's name on every launch after the first.
    if (isLoaded(id)) [[likely]] {
        return false;
    }
    const auto &reg = KernelRegistry::instance();
    return loadModule(reg.def(id).module_name);
}

bool
ModuleTable::loadModule(const std::string &module_name)
{
    if (isModuleLoaded(module_name)) {
        return false;
    }
    const auto &reg = KernelRegistry::instance();
    const auto kernels = reg.kernelsInModule(module_name);
    MEDUSA_CHECK(!kernels.empty(),
                 "loading unknown module " << module_name);
    // Randomized module slide; kernels get distinct entry points within
    // the module's simulated text segment.
    const KernelAddr slide =
        kTextBase + ((rng_.nextU64() % (64 * units::GiB)) & ~0xfffull);
    u64 offset = 0x40;
    for (KernelId id : kernels) {
        const KernelAddr addr = slide + offset;
        offset += 0x100 + (rng_.nextU64() % 8) * 0x10;
        addr_of_[id] = addr;
        kernel_at_[addr] = id;
    }
    loaded_modules_[module_name] = true;
    return true;
}

Status
ModuleTable::notLoaded(KernelId id) const
{
    if (id >= addr_of_.size()) {
        return invalidArgument("unknown kernel id " + std::to_string(id));
    }
    return failedPrecondition(
        "kernel's module not loaded: " +
        KernelRegistry::instance().def(id).mangled_name);
}

StatusOr<KernelId>
ModuleTable::kernelAt(KernelAddr addr) const
{
    auto it = kernel_at_.find(addr);
    if (it == kernel_at_.end()) {
        return invalidArgument("no kernel at address " +
                               std::to_string(addr));
    }
    return it->second;
}

StatusOr<DsoSymbol>
ModuleTable::dlsym(const std::string &dso_name,
                   const std::string &mangled_name) const
{
    const auto &reg = KernelRegistry::instance();
    const KernelId id = reg.findByName(mangled_name);
    if (id == kInvalidKernel) {
        return notFound("dlsym: no symbol " + mangled_name);
    }
    const KernelDef &def = reg.def(id);
    if (def.module_name != dso_name) {
        return notFound("dlsym: symbol " + mangled_name + " not in " +
                        dso_name);
    }
    if (!def.in_symbol_table) {
        // The closed-source case of the paper: the kernel exists in the
        // library but is hidden from the symbol table.
        return notFound("dlsym: symbol " + mangled_name +
                        " hidden in " + dso_name);
    }
    return DsoSymbol{id};
}

StatusOr<KernelAddr>
ModuleTable::funcBySymbol(const DsoSymbol &symbol, bool *did_load)
{
    if (symbol.kernel == kInvalidKernel) {
        return invalidArgument("cudaGetFuncBySymbol: invalid handle");
    }
    const bool loaded = ensureLoaded(symbol.kernel);
    if (did_load != nullptr) {
        *did_load = loaded;
    }
    return addressOf(symbol.kernel);
}

StatusOr<std::vector<KernelAddr>>
ModuleTable::enumerateFunctions(const std::string &module_name) const
{
    if (!isModuleLoaded(module_name)) {
        return failedPrecondition("cuModuleEnumerateFunctions: module " +
                                  module_name + " not loaded");
    }
    const auto &reg = KernelRegistry::instance();
    std::vector<KernelAddr> out;
    for (KernelId id : reg.kernelsInModule(module_name)) {
        auto addr = addressOf(id);
        MEDUSA_CHECK(addr.isOk(), "loaded module missing kernel address");
        out.push_back(*addr);
    }
    return out;
}

StatusOr<std::string>
ModuleTable::funcGetName(KernelAddr addr) const
{
    MEDUSA_ASSIGN_OR_RETURN(KernelId id, kernelAt(addr));
    return KernelRegistry::instance().def(id).mangled_name;
}

std::vector<std::string>
ModuleTable::loadedModules() const
{
    std::vector<std::string> out;
    for (const auto &[name, loaded] : loaded_modules_) {
        if (loaded) {
            out.push_back(name);
        }
    }
    return out;
}

u64
ModuleTable::stateFingerprint() const
{
    // XOR-combined per-entry hashes keep the digest independent of
    // unordered_map iteration order.
    u64 h = rng_.stateHash() * 0x100000001b3ull;
    for (const auto &[name, loaded] : loaded_modules_) {
        u64 e = loaded ? 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull;
        for (char c : name) {
            e = (e ^ static_cast<u8>(c)) * 0x100000001b3ull;
        }
        h ^= e;
    }
    for (KernelId id = 0; id < addr_of_.size(); ++id) {
        if (addr_of_[id] == 0) {
            continue;
        }
        u64 e = 0xcbf29ce484222325ull;
        e = (e ^ id) * 0x100000001b3ull;
        e = (e ^ addr_of_[id]) * 0x100000001b3ull;
        h ^= e;
    }
    return h;
}

} // namespace medusa::simcuda
