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
    EXPECT_EQ(process_.modules().addressOf(k.rope).status().code(),
              StatusCode::kFailedPrecondition);
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
