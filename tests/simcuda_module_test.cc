/**
 * @file
 * Tests of the module/symbol layer: module-granular loading, hidden
 * kernels vs dlsym, per-process address randomization, and the driver
 * enumeration API that triggering-kernels-based restoration uses (§5).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "simcuda/gpu_process.h"
#include "simcuda/kernels/builtin.h"

namespace medusa::simcuda {
namespace {

class ModuleTest : public ::testing::Test
{
  protected:
    ModuleTest()
        : process_(makeOptions(1), &clock_, &cost_),
          other_(makeOptions(2), &clock_, &cost_)
    {
    }

    static GpuProcessOptions
    makeOptions(u64 seed)
    {
        GpuProcessOptions o;
        o.aslr_seed = seed;
        return o;
    }

    const KernelDef &
    def(KernelId id)
    {
        return KernelRegistry::instance().def(id);
    }

    SimClock clock_;
    CostModel cost_;
    GpuProcess process_;
    GpuProcess other_;
};

TEST_F(ModuleTest, RegistryHasAllFourModules)
{
    const auto modules = KernelRegistry::instance().moduleNames();
    EXPECT_EQ(modules.size(), 4u);
    EXPECT_NE(std::find(modules.begin(), modules.end(), kNcclModule),
              modules.end());
    EXPECT_NE(std::find(modules.begin(), modules.end(), kCublasModule),
              modules.end());
    EXPECT_NE(std::find(modules.begin(), modules.end(), kTorchModule),
              modules.end());
    EXPECT_NE(std::find(modules.begin(), modules.end(), kAttnModule),
              modules.end());
}

TEST_F(ModuleTest, DlsymFindsVisibleKernels)
{
    const auto &k = BuiltinKernels::get();
    auto sym = process_.dlsym(kTorchModule, def(k.rmsnorm).mangled_name);
    ASSERT_TRUE(sym.isOk());
    EXPECT_EQ(sym->kernel, k.rmsnorm);
}

TEST_F(ModuleTest, DlsymCannotFindHiddenKernels)
{
    // The cuBLAS-like GEMMs are hidden from the symbol table — the
    // exact situation that motivates triggering-kernels (§5).
    const auto &k = BuiltinKernels::get();
    auto sym = process_.dlsym(kCublasModule,
                              def(k.gemm_128x128).mangled_name);
    EXPECT_EQ(sym.status().code(), StatusCode::kNotFound);
}

TEST_F(ModuleTest, DlsymWrongLibraryFails)
{
    const auto &k = BuiltinKernels::get();
    EXPECT_FALSE(
        process_.dlsym(kAttnModule, def(k.rmsnorm).mangled_name).isOk());
    EXPECT_FALSE(process_.dlsym(kTorchModule, "no_such_symbol").isOk());
}

TEST_F(ModuleTest, FuncBySymbolLoadsModuleAndResolves)
{
    const auto &k = BuiltinKernels::get();
    auto sym = process_.dlsym(kTorchModule, def(k.gelu).mangled_name);
    ASSERT_TRUE(sym.isOk());
    EXPECT_FALSE(process_.modules().isModuleLoaded(kTorchModule));
    auto addr = process_.cudaGetFuncBySymbol(*sym);
    ASSERT_TRUE(addr.isOk());
    EXPECT_TRUE(process_.modules().isModuleLoaded(kTorchModule));
    EXPECT_EQ(*process_.cuFuncGetName(*addr),
              def(k.gelu).mangled_name);
}

TEST_F(ModuleTest, ModuleLoadIsModuleGranular)
{
    // Loading any kernel of a module makes EVERY kernel in it
    // resolvable — the property triggering-kernels exploits.
    const auto &k = BuiltinKernels::get();
    ASSERT_TRUE(process_.modules().loadModule(kCublasModule));
    for (KernelId id : {k.gemm_128x128, k.gemm_64x64, k.gemm_splitk,
                        k.gemm_lmhead}) {
        EXPECT_TRUE(process_.modules().addressOf(id).isOk());
    }
}

TEST_F(ModuleTest, LoadingALoadedModuleAgainIsANoOp)
{
    // Neither a second load by name nor a launch-time ensureLoaded of
    // one of its kernels loads again or draws another module slide.
    const auto &k = BuiltinKernels::get();
    ModuleTable &modules = process_.modules();
    ASSERT_TRUE(modules.loadModule(kCublasModule));
    const u64 loaded = modules.stateFingerprint();
    EXPECT_FALSE(modules.loadModule(kCublasModule));
    EXPECT_FALSE(modules.ensureLoaded(k.gemm_64x64));
    EXPECT_EQ(modules.stateFingerprint(), loaded);
    EXPECT_EQ(modules.loadedModuleCount(), 1u);
}

TEST_F(ModuleTest, EnumerationRequiresLoadedModule)
{
    auto funcs = process_.cuModuleEnumerateFunctions(kCublasModule);
    EXPECT_EQ(funcs.status().code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(process_.modules().loadModule(kCublasModule));
    funcs = process_.cuModuleEnumerateFunctions(kCublasModule);
    ASSERT_TRUE(funcs.isOk());
    EXPECT_EQ(funcs->size(), 5u); // the five GEMM variants
}

TEST_F(ModuleTest, EnumerationPlusNamesRestoresHiddenKernels)
{
    // The §5 path: enumerate the module, match by name.
    const auto &k = BuiltinKernels::get();
    ASSERT_TRUE(process_.modules().loadModule(kCublasModule));
    auto funcs = process_.cuModuleEnumerateFunctions(kCublasModule);
    ASSERT_TRUE(funcs.isOk());
    bool found = false;
    for (KernelAddr addr : *funcs) {
        auto name = process_.cuFuncGetName(addr);
        ASSERT_TRUE(name.isOk());
        if (*name == def(k.gemm_splitk).mangled_name) {
            found = true;
            EXPECT_EQ(*process_.modules().kernelAt(addr), k.gemm_splitk);
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ModuleTest, KernelAddressesRandomizedAcrossProcesses)
{
    const auto &k = BuiltinKernels::get();
    ASSERT_TRUE(process_.modules().loadModule(kTorchModule));
    ASSERT_TRUE(other_.modules().loadModule(kTorchModule));
    auto a1 = process_.modules().addressOf(k.rmsnorm);
    auto a2 = other_.modules().addressOf(k.rmsnorm);
    EXPECT_NE(*a1, *a2);
}

TEST_F(ModuleTest, FuncGetModuleReportsOwningLibrary)
{
    const auto &k = BuiltinKernels::get();
    ASSERT_TRUE(process_.modules().loadModule(kCublasModule));
    auto addr = process_.modules().addressOf(k.gemm_64x64);
    auto module = process_.cuFuncGetModule(*addr);
    ASSERT_TRUE(module.isOk());
    EXPECT_EQ(*module, kCublasModule);
}

TEST_F(ModuleTest, AddressOfUnloadedKernelFails)
{
    const auto &k = BuiltinKernels::get();
    const auto addr = process_.modules().addressOf(k.rope);
    EXPECT_EQ(addr.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(addr.status().message(),
              "kernel's module not loaded: " + def(k.rope).mangled_name);
    EXPECT_FALSE(process_.modules().isLoaded(k.rope));
}

TEST_F(ModuleTest, IdPastTheTableIsNeverLoaded)
{
    const KernelId past =
        static_cast<KernelId>(KernelRegistry::instance().kernelCount());
    ModuleTable table(3);
    for (const std::string &module :
         KernelRegistry::instance().moduleNames()) {
        ASSERT_TRUE(table.loadModule(module));
    }
    for (KernelId id : {past, past + 1, kInvalidKernel}) {
        EXPECT_FALSE(table.isLoaded(id));
        const auto addr = table.addressOf(id);
        EXPECT_EQ(addr.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(addr.status().message(),
                  "unknown kernel id " + std::to_string(id));
    }
    // Every registered id, the last included, is loaded and addressed.
    for (KernelId id = 0; id < past; ++id) {
        EXPECT_TRUE(table.isLoaded(id));
        ASSERT_TRUE(table.addressOf(id).isOk());
        EXPECT_EQ(*table.kernelAt(*table.addressOf(id)), id);
    }
}

TEST_F(ModuleTest, FingerprintKeepsItsValueInEitherLoadOrder)
{
    // One hash per loaded kernel, XOR-combined: the digest depends on
    // which addresses were assigned, not on how the table stores or
    // visits them. The values are those of the hash-map table this
    // flat table replaced, for one seed and two load orders.
    ModuleTable none(11);
    EXPECT_EQ(none.stateFingerprint(), 0xc620f2d8dcf32862ull);

    ModuleTable forward(11);
    ModuleTable backward(11);
    for (const char *module : {kTorchModule, kCublasModule, kAttnModule}) {
        ASSERT_TRUE(forward.loadModule(module));
    }
    for (const char *module : {kAttnModule, kCublasModule, kTorchModule}) {
        ASSERT_TRUE(backward.loadModule(module));
    }
    EXPECT_EQ(forward.stateFingerprint(), 0xf6810546dc06b62aull);
    EXPECT_EQ(backward.stateFingerprint(), 0x68d266824795185aull);

    // The same loads through ensureLoaded, one kernel per module, reach
    // the same state.
    const auto &k = BuiltinKernels::get();
    ModuleTable by_kernel(11);
    const KernelId first_of[] = {k.rmsnorm, k.gemm_128x128,
                                 k.paged_attention_decode};
    ASSERT_EQ(def(first_of[0]).module_name, kTorchModule);
    ASSERT_EQ(def(first_of[1]).module_name, kCublasModule);
    ASSERT_EQ(def(first_of[2]).module_name, kAttnModule);
    for (KernelId id : first_of) {
        EXPECT_TRUE(by_kernel.ensureLoaded(id));
        EXPECT_FALSE(by_kernel.ensureLoaded(id));
    }
    EXPECT_EQ(by_kernel.stateFingerprint(), forward.stateFingerprint());
}

TEST_F(ModuleTest, LoadedModulesListed)
{
    EXPECT_TRUE(process_.modules().loadedModules().empty());
    ASSERT_TRUE(process_.modules().loadModule(kAttnModule));
    const auto loaded = process_.modules().loadedModules();
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0], kAttnModule);
}

} // namespace
} // namespace medusa::simcuda
