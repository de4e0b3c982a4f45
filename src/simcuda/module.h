/**
 * @file
 * Per-process module and symbol management.
 *
 * Mirrors the CUDA driver's behaviour that Medusa (§5) exploits:
 *
 *  - Kernels are loaded at *module* granularity: the first launch of any
 *    kernel in a module loads the whole module, assigning addresses to
 *    every kernel it contains.
 *  - Kernel addresses are randomized per process launch (ASLR).
 *  - A DSO's symbol table exposes only kernels with
 *    KernelDef::in_symbol_table (closed-source cuBLAS-like kernels are
 *    hidden), so dlsym() fails for them and the only way to find their
 *    address is to force the module to load (triggering-kernels) and
 *    enumerate it via cuModuleEnumerateFunctions()/cuFuncGetName().
 */

#ifndef MEDUSA_SIMCUDA_MODULE_H
#define MEDUSA_SIMCUDA_MODULE_H

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "simcuda/kernel.h"

namespace medusa::simcuda {

/** Opaque host-side function handle returned by dlsym(). */
struct DsoSymbol
{
    KernelId kernel = kInvalidKernel;
};

/**
 * Tracks which modules are loaded in one simulated process, and the
 * randomized address of every loaded kernel. KernelIds are dense
 * registry indexes, so the address of each is one slot of a flat
 * table: isLoaded, addressOf and ensureLoaded — asked on every launch —
 * are one array read.
 */
class ModuleTable
{
  public:
    /** @param aslr_seed per-process seed for address randomization. */
    explicit ModuleTable(u64 aslr_seed);

    /** True if the module that contains @p id has been loaded. */
    bool
    isLoaded(KernelId id) const
    {
        return id < addr_of_.size() && addr_of_[id] != 0;
    }

    /** True if the named module has been loaded. */
    bool isModuleLoaded(const std::string &module_name) const;

    /**
     * Load the module containing @p id (no-op if already loaded).
     * @return true if a load actually happened (so callers can charge
     *         the module-load latency and the implicit synchronization).
     */
    bool ensureLoaded(KernelId id);

    /** Load a module by name. @return true if a load happened. */
    bool loadModule(const std::string &module_name);

    /**
     * Address of a loaded kernel; error if its module is not loaded or
     * @p id is not a registered kernel.
     */
    StatusOr<KernelAddr>
    addressOf(KernelId id) const
    {
        if (isLoaded(id)) [[likely]] {
            return addr_of_[id];
        }
        return notLoaded(id);
    }

    /** Reverse-resolve an address to a kernel id; error if unknown. */
    StatusOr<KernelId> kernelAt(KernelAddr addr) const;

    /**
     * dlsym() simulation: look up @p mangled_name in the symbol table of
     * DSO @p dso_name. Hidden kernels and wrong DSOs yield kNotFound.
     * Does NOT load the module (a host-side symbol lookup only).
     */
    StatusOr<DsoSymbol> dlsym(const std::string &dso_name,
                              const std::string &mangled_name) const;

    /**
     * cudaGetFuncBySymbol() simulation: resolve a dlsym handle to the
     * kernel's device address, loading its module if needed.
     * @param[out] did_load set true if a module load happened.
     */
    StatusOr<KernelAddr> funcBySymbol(const DsoSymbol &symbol,
                                      bool *did_load);

    /**
     * cuModuleEnumerateFunctions() simulation: all kernel addresses in a
     * *loaded* module. Error if the module is not loaded.
     */
    StatusOr<std::vector<KernelAddr>>
    enumerateFunctions(const std::string &module_name) const;

    /** cuFuncGetName() simulation: mangled name at a kernel address. */
    StatusOr<std::string> funcGetName(KernelAddr addr) const;

    /** Names of currently loaded modules. */
    std::vector<std::string> loadedModules() const;

    std::size_t loadedModuleCount() const { return loaded_modules_.size(); }

    /**
     * Order-insensitive digest of the module registry (loaded modules,
     * kernel address assignments) plus the ASLR RNG stream. Equal
     * fingerprints mean identical future address assignments — see
     * DeviceMemoryManager::stateFingerprint.
     */
    u64 stateFingerprint() const;

  private:
    /** addressOf's refusal of a kernel that has no address. */
    Status notLoaded(KernelId id) const;

    Rng rng_;
    /** module name -> loaded? */
    std::unordered_map<std::string, bool> loaded_modules_;
    /**
     * Kernel id -> randomized address, sized to the registry; 0 (never
     * a kernel address) for a kernel whose module is not loaded.
     */
    std::vector<KernelAddr> addr_of_;
    /** randomized address -> kernel id. */
    std::unordered_map<KernelAddr, KernelId> kernel_at_;
};

} // namespace medusa::simcuda

#endif // MEDUSA_SIMCUDA_MODULE_H
