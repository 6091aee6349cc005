// Extended server features: program-driven dynamic loading/unlinking
// (kSysOmosLoad/kSysOmosUnload), the initializers operator, override
// blueprints, cache eviction recovery, constraint conflicts between
// libraries, and IPC-driven administration.
#include <atomic>
#include <functional>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/server.h"
#include "src/os/sim_fs.h"
#include "src/store/image_store.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "tests/helpers.h"

namespace omos {
namespace {

Result<void> AddCrt0(OmosServer& server) {
  OMOS_TRY(ObjectFile crt0, Assemble(R"(
.text
.global _start
_start:
  call main
  sys 0
)", "crt0.o"));
  return server.AddFragment("/lib/crt0.o", std::move(crt0));
}

class ServerFeatures : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<OmosServer>(kernel_);
    ASSERT_OK(AddCrt0(*server_));
  }

  Result<RunOutcome> Run(TaskId id) {
    Task* task = kernel_.FindTask(id);
    OMOS_TRY_VOID(kernel_.RunTask(*task));
    RunOutcome out;
    out.exit_code = task->exit_code();
    out.output = task->output();
    return out;
  }

  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
};

TEST_F(ServerFeatures, ProgramDrivenDynamicLoadAndCall) {
  // A plugin class with one entry point.
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global plugin_fn
plugin_fn:
  movi r0, 77
  ret
)", "plugin.o"));
  ASSERT_OK(server_->AddFragment("/obj/plugin.o", std::move(plugin)));

  // The main program asks OMOS to load the class (sys 19) and calls through
  // the returned address — the §5 dld-style interface, from inside the
  // simulated program.
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(StrCat(R"asm(
.text
.global main
main:
  push lr
  lea r0, blueprint
  lea r1, wanted
  sys )asm", kSysOmosLoad, R"asm(
  movi r1, 0
  beq r0, r1, fail
  callr r0
  pop lr
  ret
fail:
  movi r0, 255
  pop lr
  ret
.data
blueprint: .asciiz "(merge /obj/plugin.o)"
wanted: .asciiz "plugin_fn"
)asm"), "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/main.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/host", {"host"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 77);
}

TEST_F(ServerFeatures, DynamicUnloadRemovesMappings) {
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global plugin_fn
plugin_fn:
  movi r0, 5
  ret
.data
pdata: .word 9
)", "plugin.o"));
  ASSERT_OK(server_->AddFragment("/obj/plugin.o", std::move(plugin)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 0
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/main.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/host", {"host"}));
  Task* task = kernel_.FindTask(id);

  ASSERT_OK_AND_ASSIGN(auto loaded,
                       server_->DynamicLoad(*task, "(merge /obj/plugin.o)", {"plugin_fn"}));
  size_t with_plugin = task->space().Regions().size();
  ASSERT_OK(server_->DynamicUnload(*task, loaded.text_base));
  EXPECT_LT(task->space().Regions().size(), with_plugin);
  // Unloading twice fails cleanly.
  auto again = server_->DynamicUnload(*task, loaded.text_base);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kNotFound);
  // The class can be loaded again after unlinking.
  ASSERT_OK(server_->DynamicLoad(*task, "(merge /obj/plugin.o)", {"plugin_fn"}));
}

TEST_F(ServerFeatures, InitializersOperatorRunsStaticConstructors) {
  // Two "C++ static initializers" and a main that checks their effect —
  // the §2.2/§3.3 initializers story.
  ASSERT_OK_AND_ASSIGN(ObjectFile inits, Assemble(R"(
.text
.global __init_alpha
__init_alpha:
  lea r1, state
  ld r2, [r1+0]
  addi r2, r2, 10
  st r2, [r1+0]
  ret
.global __init_beta
__init_beta:
  lea r1, state
  ld r2, [r1+0]
  addi r2, r2, 3
  st r2, [r1+0]
  ret
.data
.align 4
.global state
state: .word 0
)", "inits.o"));
  ASSERT_OK(server_->AddFragment("/obj/inits.o", std::move(inits)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call __run_initializers
  lea r1, state
  ld r0, [r1+0]
  pop lr
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/ctors",
                                "(initializers (merge /lib/crt0.o /obj/main.o /obj/inits.o))"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/ctors", {"ctors"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 13);
}

TEST_F(ServerFeatures, OverrideBlueprintReplacesImplementation) {
  ASSERT_OK_AND_ASSIGN(ObjectFile v1, Assemble(R"(
.text
.global answer
answer:
  movi r0, 1
  ret
.global main
main:
  push lr
  call answer
  pop lr
  ret
)", "v1.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, Assemble(R"(
.text
.global answer
answer:
  movi r0, 2
  ret
)", "v2.o"));
  ASSERT_OK(server_->AddFragment("/obj/v1.o", std::move(v1)));
  ASSERT_OK(server_->AddFragment("/obj/v2.o", std::move(v2)));
  // merge would reject the duplicate definition; override takes the second.
  ASSERT_OK(server_->DefineMeta("/bin/merged", "(merge /lib/crt0.o /obj/v1.o /obj/v2.o)"));
  auto merged = server_->Instantiate("/bin/merged", {}, nullptr);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().code(), ErrorCode::kDuplicateSymbol);

  ASSERT_OK(server_->DefineMeta("/bin/over",
                                "(override (merge /lib/crt0.o /obj/v1.o) /obj/v2.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/over", {"over"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 2);  // internal caller rebound to the override
}

TEST_F(ServerFeatures, EvictedLibraryIsRebuiltByInstantiate) {
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global f
f:
  movi r0, 4
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/l", "(merge /obj/lib.o)"));
  Specialization spec{"lib-constrained", {}};
  ASSERT_OK_AND_ASSIGN(const CachedImage* first, server_->Instantiate("/lib/l", spec, nullptr));
  uint32_t base = first->image.text_base;
  server_->cache().Evict(first->key);
  uint64_t work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* rebuilt, server_->Instantiate("/lib/l", spec, &work));
  EXPECT_GT(work, 0u);  // rebuilt, not a hit
  // Strong constraint: the rebuilt image reuses the same placement, so
  // stale clients remain correct.
  EXPECT_EQ(rebuilt->image.text_base, base);
}

TEST_F(ServerFeatures, ConflictingLibraryHintsSpill) {
  ASSERT_OK_AND_ASSIGN(ObjectFile a, Assemble(".text\n.global fa\nfa: ret\n", "a.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile b, Assemble(".text\n.global fb\nfb: ret\n", "b.o"));
  ASSERT_OK(server_->AddFragment("/obj/a.o", std::move(a)));
  ASSERT_OK(server_->AddFragment("/obj/b.o", std::move(b)));
  // Both libraries want the same text base.
  ASSERT_OK(server_->DefineLibrary("/lib/a",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/a.o)"));
  ASSERT_OK(server_->DefineLibrary("/lib/b",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/b.o)"));
  Specialization spec{"lib-constrained", {}};
  ASSERT_OK_AND_ASSIGN(const CachedImage* la, server_->Instantiate("/lib/a", spec, nullptr));
  ASSERT_OK_AND_ASSIGN(const CachedImage* lb, server_->Instantiate("/lib/b", spec, nullptr));
  EXPECT_EQ(la->image.text_base, 0x3000000u);
  EXPECT_NE(lb->image.text_base, 0x3000000u);
  ASSERT_EQ(server_->conflicts().size(), 1u);
  EXPECT_EQ(server_->conflicts()[0].wanted, 0x3000000u);
}

TEST_F(ServerFeatures, DefineMetaOverIpc) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 11
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  Channel channel = server_->MakeChannel();
  OmosRequest request;
  request.op = OmosOp::kDefineMeta;
  request.path = "/bin/remote";
  request.specialization = "(merge /lib/crt0.o /obj/m.o)";  // blueprint field
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/remote", {"remote"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 11);
}

TEST_F(ServerFeatures, DynamicLoadOverIpcReturnsSymbolValues) {
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global pf
pf:
  movi r0, 3
  ret
)", "p.o"));
  ASSERT_OK(server_->AddFragment("/obj/p.o", std::move(plugin)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 0\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/m.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/host", {"host"}));

  Channel channel = server_->MakeChannel();
  OmosRequest request;
  request.op = OmosOp::kDynamicLoad;
  request.path = "(merge /obj/p.o)";
  request.task_handle = id;
  request.symbols = {"pf", "missing"};
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(reply.symbol_values.size(), 2u);
  EXPECT_NE(reply.symbol_values[0], 0u);
  EXPECT_EQ(reply.symbol_values[1], 0u);
}

TEST_F(ServerFeatures, ReleaseTaskDropsRuntimeState) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 0\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/p", "(merge /lib/crt0.o /obj/m.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/p", {"p"}));
  Task* task = kernel_.FindTask(id);
  server_->ReleaseTask(id);
  auto unload = server_->DynamicUnload(*task, 0x101000);
  ASSERT_FALSE(unload.ok());  // no runtime state left
}

TEST_F(ServerFeatures, ShowRestrictsLibraryInterface) {
  // project/show in a blueprint: only the exported api survives.
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global api_entry
api_entry:
  push lr
  call impl_detail
  pop lr
  ret
impl_detail_pad: nop
.global impl_detail
impl_detail:
  movi r0, 21
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK_AND_ASSIGN(Module shown,
                       server_->EvaluateBlueprint("(show \"^api_\" (merge /obj/lib.o))"));
  ASSERT_OK_AND_ASSIGN(auto names, shown.ExportNames());
  EXPECT_EQ(names, (std::vector<std::string>{"api_entry"}));
  // The hidden detail is frozen: linking still works and runs.
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call api_entry
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta(
      "/bin/clean", "(merge /lib/crt0.o /obj/m.o (show \"^api_\" /obj/lib.o))"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/clean", {"clean"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 21);
}


TEST_F(ServerFeatures, RedefiningLibraryInvalidatesDependentImages) {
  ASSERT_OK_AND_ASSIGN(ObjectFile v1, Assemble(R"(
.text
.global answer
answer:
  movi r0, 1
  ret
)", "v1.o"));
  ASSERT_OK(server_->AddFragment("/obj/v1.o", std::move(v1)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call answer
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineLibrary("/lib/ans", "(merge /obj/v1.o)"));
  ASSERT_OK(server_->DefineMeta("/bin/q", "(merge /lib/crt0.o /obj/m.o /lib/ans)"));
  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out1, Run(id1));
  EXPECT_EQ(out1.exit_code, 1);

  // "A library fix is instantly incorporated into all clients" (sec. 2.1):
  // redefine the library; the cached client image must be rebuilt.
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, Assemble(R"(
.text
.global answer
answer:
  movi r0, 2
  ret
)", "v2.o"));
  ASSERT_OK(server_->AddFragment("/obj/v2.o", std::move(v2)));
  ASSERT_OK(server_->DefineLibrary("/lib/ans", "(merge /obj/v2.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out2, Run(id2));
  EXPECT_EQ(out2.exit_code, 2);
}

TEST_F(ServerFeatures, RedefiningFragmentInvalidatesReferencingMetas) {
  ASSERT_OK_AND_ASSIGN(ObjectFile v1,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 10\n  ret\n", "f.o"));
  ASSERT_OK(server_->AddFragment("/obj/f.o", std::move(v1)));
  ASSERT_OK(server_->DefineMeta("/bin/frag", "(merge /lib/crt0.o /obj/f.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out1, Run(id1));
  EXPECT_EQ(out1.exit_code, 10);

  ASSERT_OK_AND_ASSIGN(ObjectFile v2,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 20\n  ret\n", "f.o"));
  ASSERT_OK(server_->AddFragment("/obj/f.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out2, Run(id2));
  EXPECT_EQ(out2.exit_code, 20);
}

TEST_F(ServerFeatures, ExportNamespaceToFsMakesBinExecutable) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 9\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o)"));
  ASSERT_OK_AND_ASSIGN(int exported, server_->ExportNamespaceToFs("/bin", "/usr/bin"));
  EXPECT_EQ(exported, 1);
  // Ordinary path-based exec now reaches the server via the interpreter line.
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->ExecFile("/usr/bin/tool", {"tool"}, true));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 9);
}


TEST_F(ServerFeatures, OptimizePlacementsResolvesConflicts) {
  ASSERT_OK_AND_ASSIGN(ObjectFile a, Assemble(".text\n.global fa\nfa: ret\n", "a.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile b, Assemble(".text\n.global fb\nfb: ret\n", "b.o"));
  ASSERT_OK(server_->AddFragment("/obj/a.o", std::move(a)));
  ASSERT_OK(server_->AddFragment("/obj/b.o", std::move(b)));
  ASSERT_OK(server_->DefineLibrary("/lib/a",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/a.o)"));
  ASSERT_OK(server_->DefineLibrary("/lib/b",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/b.o)"));
  Specialization spec{"lib-constrained", {}};
  ASSERT_OK(server_->Instantiate("/lib/a", spec, nullptr));
  ASSERT_OK(server_->Instantiate("/lib/b", spec, nullptr));
  ASSERT_EQ(server_->conflicts().size(), 1u);

  // The automatic feedback pass (sec. 4.1): conflicts are consumed and every
  // object gets a stable, conflict-free home.
  int evicted = server_->OptimizePlacements();
  EXPECT_GE(evicted, 1);
  EXPECT_TRUE(server_->conflicts().empty());
  // Rebuilt instantiations reuse the optimized placements with no new
  // conflicts, even though the old hints still collide.
  ASSERT_OK_AND_ASSIGN(const CachedImage* la, server_->Instantiate("/lib/a", spec, nullptr));
  ASSERT_OK_AND_ASSIGN(const CachedImage* lb, server_->Instantiate("/lib/b", spec, nullptr));
  EXPECT_NE(la->image.text_base, lb->image.text_base);
  EXPECT_TRUE(server_->conflicts().empty());
}

TEST_F(ServerFeatures, SymbolsForTaskCoversProgramAndLibraries) {
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global lib_fn
lib_fn:
  movi r0, 8
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/l", "(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call lib_fn
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/p", "(merge /lib/crt0.o /obj/m.o /lib/l)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/p", {"p"}));
  ASSERT_OK_AND_ASSIGN(auto symbols, server_->SymbolsForTask(id));
  bool has_main = false;
  bool has_lib_fn = false;
  for (const ImageSymbol& sym : symbols) {
    has_main |= sym.name == "main";
    has_lib_fn |= sym.name == "lib_fn";
  }
  EXPECT_TRUE(has_main);
  EXPECT_TRUE(has_lib_fn);
  EXPECT_FALSE(server_->SymbolsForTask(9999).ok());
}

// ---- Cache integrity ----------------------------------------------------------

TEST_F(ServerFeatures, CorruptedCacheEntryIsRebuiltByteIdentical) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 42
  ret
.data
greeting: .asciiz "hello"
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o)"));

  uint64_t work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* first, server_->Instantiate("/bin/prog", {}, &work));
  std::vector<uint8_t> original_text = first->image.text;
  std::vector<uint8_t> original_data = first->image.data;
  uint32_t original_entry = first->image.entry;
  uint32_t original_base = first->image.text_base;
  ASSERT_EQ(server_->cache_stats().corruption_rebuilds, 0u);

  // Rot one bit of the cached image. The next Get detects the checksum
  // mismatch, evicts, and Instantiate transparently rebuilds.
  uint64_t rebuild_work = 0;
  const CachedImage* rebuilt = nullptr;
  {
    ScopedFaultPlan plan(FaultPlan().Arm("cache.bitrot", FaultSpec::Nth(1)));
    ASSERT_OK_AND_ASSIGN(rebuilt, server_->Instantiate("/bin/prog", {}, &rebuild_work));
  }
  EXPECT_EQ(server_->cache_stats().corruption_rebuilds, 1u);
  EXPECT_GT(rebuild_work, 0u);  // a real rebuild, not a cache hit
  // The placement survived the eviction, so the rebuild is byte-identical.
  EXPECT_EQ(rebuilt->image.text, original_text);
  EXPECT_EQ(rebuilt->image.data, original_data);
  EXPECT_EQ(rebuilt->image.entry, original_entry);
  EXPECT_EQ(rebuilt->image.text_base, original_base);

  // A clean second pass is an ordinary hit: no further rebuild counted.
  uint64_t hit_work = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, &hit_work));
  EXPECT_EQ(server_->cache_stats().corruption_rebuilds, 1u);
}

TEST_F(ServerFeatures, CorruptedProgramStillRunsCorrectly) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 42
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o)"));
  uint64_t work = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, &work));
  ScopedFaultPlan plan(FaultPlan().Arm("cache.bitrot", FaultSpec::Nth(1)));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 42);  // rot never reaches the running program
  EXPECT_EQ(server_->cache_stats().corruption_rebuilds, 1u);
}

// ---- Crash / recovery ---------------------------------------------------------

TEST_F(ServerFeatures, SnapshotRestoreYieldsIdenticalImages) {
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global lib_fn
lib_fn:
  movi r0, 40
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/l", "(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call lib_fn
  pop lr
  addi r0, r0, 2
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o /lib/l)"));

  uint64_t work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* before, server_->Instantiate("/bin/prog", {}, &work));
  std::vector<uint8_t> original_text = before->image.text;
  uint32_t original_entry = before->image.entry;
  ASSERT_OK_AND_ASSIGN(TaskId id_a, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out_a, Run(id_a));
  ASSERT_EQ(out_a.exit_code, 42);

  std::string snapshot = server_->Snapshot();

  // "Crash": a brand-new kernel and server, fed only the snapshot.
  Kernel kernel2;
  OmosServer restored(kernel2);
  ASSERT_OK(restored.Restore(snapshot));
  // The image cache starts cold but rebuilds at the adopted placements, so
  // the restored server serves byte-identical images with the same entry.
  uint64_t rebuild_work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* after,
                       restored.Instantiate("/bin/prog", {}, &rebuild_work));
  EXPECT_EQ(after->image.text, original_text);
  EXPECT_EQ(after->image.entry, original_entry);
  EXPECT_GT(rebuild_work, 0u);

  ASSERT_OK_AND_ASSIGN(TaskId id_b, restored.IntegratedExec("/bin/prog", {"prog"}));
  Task* task_b = kernel2.FindTask(id_b);
  ASSERT_OK(kernel2.RunTask(*task_b));
  EXPECT_EQ(task_b->exit_code(), 42);
}

TEST_F(ServerFeatures, SnapshotRoundTripsPreferredOrder) {
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global f_hot
f_hot:
  ret
.global f_cold
f_cold:
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/l", "(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call f_hot
  call f_hot
  call f_cold
  pop lr
  movi r0, 0
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o /lib/l)"));
  Specialization monitor;
  monitor.name = "monitor";
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}, monitor));
  ASSERT_OK(Run(id));
  ASSERT_OK(server_->DerivePreferredOrder("/bin/prog"));
  ASSERT_TRUE(server_->HasPreferredOrder("/bin/prog"));

  Kernel kernel2;
  OmosServer restored(kernel2);
  ASSERT_OK(restored.Restore(server_->Snapshot()));
  EXPECT_TRUE(restored.HasPreferredOrder("/bin/prog"));
}

TEST_F(ServerFeatures, DamagedSnapshotRejectedWithCorrupted) {
  ASSERT_OK(server_->DefineMeta("/bin/thing", "(merge /lib/crt0.o)"));
  std::string snapshot = server_->Snapshot();

  // Flip a byte anywhere in the body: the trailing checksum must catch it.
  std::string damaged = snapshot;
  damaged[snapshot.size() / 3] ^= 0x01;
  Kernel kernel2;
  OmosServer restored(kernel2);
  auto result = restored.Restore(damaged);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCorrupted);
  // Nothing was applied: the namespace is still empty.
  EXPECT_EQ(restored.name_space().size(), 0u);

  // Truncation (losing the check line entirely) is also rejected.
  auto truncated = restored.Restore(snapshot.substr(0, snapshot.size() / 2));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code(), ErrorCode::kCorrupted);
}

// ---- Teardown edges -----------------------------------------------------------

TEST_F(ServerFeatures, TeardownEdgesAreClean) {
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global plugin_fn
plugin_fn:
  movi r0, 5
  ret
)", "plugin.o"));
  ASSERT_OK(server_->AddFragment("/obj/plugin.o", std::move(plugin)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 0
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/main.o)"));

  // Releasing a task the server never saw is a harmless no-op.
  server_->ReleaseTask(9999);

  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/host", {"host"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_OK_AND_ASSIGN(auto loaded,
                       server_->DynamicLoad(*task, "(merge /obj/plugin.o)", {"plugin_fn"}));

  // Unload, then unload again: the second is a clean kNotFound, not a crash.
  ASSERT_OK(server_->DynamicUnload(*task, loaded.text_base));
  auto again = server_->DynamicUnload(*task, loaded.text_base);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kNotFound);

  // Release the task's runtime state; unloading through the dead runtime is
  // a clean error too, and releasing twice stays a no-op.
  server_->ReleaseTask(id);
  auto after_release = server_->DynamicUnload(*task, loaded.text_base);
  ASSERT_FALSE(after_release.ok());
  EXPECT_EQ(after_release.error().code(), ErrorCode::kNotFound);
  server_->ReleaseTask(id);

  // The server's runtime table is not corrupted: a fresh exec of the same
  // program maps and runs normally.
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/host", {"host"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id2));
  EXPECT_EQ(out.exit_code, 0);
}

TEST_F(ServerFeatures, SnapshotRoundTripsLayoutGeneration) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 1\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/m.o)"));
  uint64_t work = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, &work));

  // Bump the layout generation past its initial value: a conflicting pair
  // plus the administrative re-pack forces at least one live move.
  ASSERT_OK_AND_ASSIGN(ObjectFile a, Assemble(".text\n.global fa\nfa: ret\n", "a.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile b, Assemble(".text\n.global fb\nfb: ret\n", "b.o"));
  ASSERT_OK(server_->AddFragment("/obj/a.o", std::move(a)));
  ASSERT_OK(server_->AddFragment("/obj/b.o", std::move(b)));
  ASSERT_OK(server_->DefineLibrary("/lib/a",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/a.o)"));
  ASSERT_OK(server_->DefineLibrary("/lib/b",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/b.o)"));
  Specialization spec{"lib-constrained", {}};
  ASSERT_OK(server_->Instantiate("/lib/a", spec, nullptr));
  ASSERT_OK(server_->Instantiate("/lib/b", spec, nullptr));
  ASSERT_GE(server_->OptimizePlacements(), 1);

  std::string snapshot = server_->Snapshot();
  size_t tag = snapshot.find("layoutgen ");
  ASSERT_NE(tag, std::string::npos);
  std::string layoutgen_line = snapshot.substr(tag, snapshot.find('\n', tag) - tag);
  EXPECT_NE(layoutgen_line, "layoutgen 1");  // the re-pack advanced it

  // A restored server continues the same generation sequence, so prelink
  // stamps taken before the crash stay comparable after it.
  Kernel kernel2;
  OmosServer restored(kernel2);
  ASSERT_OK(restored.Restore(snapshot));
  std::string again = restored.Snapshot();
  size_t tag2 = again.find("layoutgen ");
  ASSERT_NE(tag2, std::string::npos);
  EXPECT_EQ(again.substr(tag2, again.find('\n', tag2) - tag2), layoutgen_line);
}

// ---- Fleet-wide prelink ---------------------------------------------------------

TEST_F(ServerFeatures, PrelinkedExecHitIsCheaperThanIntegrated) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 7\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o)"));

  ASSERT_OK_AND_ASSIGN(int prelinked, server_->PrelinkNamespace("/bin"));
  EXPECT_EQ(prelinked, 1);
  EXPECT_TRUE(server_->prelink_enabled());

  // Warm integrated exec: pays the cache-lookup round trip.
  ASSERT_OK_AND_ASSIGN(TaskId warm, server_->IntegratedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome warm_out, Run(warm));
  EXPECT_EQ(warm_out.exit_code, 7);
  uint64_t integrated_sys = kernel_.FindTask(warm)->sys_cycles();

  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId fast, server_->PrelinkedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome fast_out, Run(fast));
  EXPECT_EQ(fast_out.exit_code, 7);
  EXPECT_EQ(hits->value(), hits_before + 1);
  // The stamp-valid hit bills only prelink_lookup, strictly less than the
  // integrated path's omos_cache_lookup.
  EXPECT_LT(kernel_.FindTask(fast)->sys_cycles(), integrated_sys);
}

TEST_F(ServerFeatures, PrelinkedExecMissFallsBackAndRecordsEntry) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 3\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o)"));

  Counter* misses = MetricsRegistry::Global().GetCounter("prelink.misses");
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  uint64_t misses_before = misses->value();
  // No PrelinkNamespace ran: the first exec links the image itself, so it
  // counts a miss and bills like an integrated exec.
  ASSERT_OK_AND_ASSIGN(TaskId first, server_->PrelinkedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome first_out, Run(first));
  EXPECT_EQ(first_out.exit_code, 3);
  EXPECT_EQ(misses->value(), misses_before + 1);

  // The second finds the image cached at a current stamp: a hit.
  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId second, server_->PrelinkedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome second_out, Run(second));
  EXPECT_EQ(second_out.exit_code, 3);
  EXPECT_EQ(hits->value(), hits_before + 1);
}

TEST_F(ServerFeatures, PrelinkStaleAfterFragmentRedefineRecovers) {
  ASSERT_OK_AND_ASSIGN(ObjectFile v1,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 10\n  ret\n", "f.o"));
  ASSERT_OK(server_->AddFragment("/obj/f.o", std::move(v1)));
  ASSERT_OK(server_->DefineMeta("/bin/frag", "(merge /lib/crt0.o /obj/f.o)"));
  ASSERT_OK(server_->PrelinkNamespace("/bin"));
  ASSERT_OK_AND_ASSIGN(TaskId warm, server_->PrelinkedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome warm_out, Run(warm));
  EXPECT_EQ(warm_out.exit_code, 10);

  // Redefining the fragment evicts the cached image: the next prelinked
  // exec must NOT serve the stale version. It links the new one itself, so
  // it counts a miss.
  ASSERT_OK_AND_ASSIGN(ObjectFile v2,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 20\n  ret\n", "f.o"));
  ASSERT_OK(server_->AddFragment("/obj/f.o", std::move(v2)));
  Counter* misses = MetricsRegistry::Global().GetCounter("prelink.misses");
  uint64_t misses_before = misses->value();
  ASSERT_OK_AND_ASSIGN(TaskId rebuilt, server_->PrelinkedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome rebuilt_out, Run(rebuilt));
  EXPECT_EQ(rebuilt_out.exit_code, 20);
  EXPECT_EQ(misses->value(), misses_before + 1);

  // The rebuilt image carries a current stamp: after the idle lane drains,
  // the next exec hits again.
  server_->DrainBackgroundWork();
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId again, server_->PrelinkedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome again_out, Run(again));
  EXPECT_EQ(again_out.exit_code, 20);
  EXPECT_EQ(hits->value(), hits_before + 1);
}

TEST_F(ServerFeatures, PlacementCollisionSweepTriggersRepairAndRecovers) {
  // A prelinked program linked against a constrained library, then a seeded
  // sweep of colliding libraries whose hints all contest the same range:
  // every collision schedules the recorded re-solve + re-link repair, and
  // after each idle-lane drain the prelinked exec still hits and still
  // produces the right answer.
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global lib_fn
lib_fn:
  movi r0, 42
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/base",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call lib_fn
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o /lib/base)"));
  ASSERT_OK(server_->PrelinkNamespace("/bin"));

  Counter* repairs = MetricsRegistry::Global().GetCounter("prelink.repairs");
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  uint64_t repairs_before = repairs->value();
  for (int round = 0; round < 3; ++round) {
    // Each rival hints the exact text base the prelinked program's library
    // occupies — a guaranteed placement collision.
    ASSERT_OK_AND_ASSIGN(ObjectFile rival,
                         Assemble(StrCat(".text\n.global rival", round, "\nrival", round,
                                         ": ret\n"),
                                  StrCat("rival", round, ".o")));
    std::string obj_path = StrCat("/obj/rival", round, ".o");
    std::string lib_path = StrCat("/lib/rival", round);
    ASSERT_OK(server_->AddFragment(obj_path, std::move(rival)));
    ASSERT_OK(server_->DefineLibrary(
        lib_path, StrCat("(constraint-list \"T\" 0x3000000)\n(merge ", obj_path, ")")));
    Specialization spec{"collide", {}};
    ASSERT_OK(server_->Instantiate(lib_path, spec, nullptr));

    server_->DrainBackgroundWork();
    uint64_t hits_before = hits->value();
    ASSERT_OK_AND_ASSIGN(TaskId id, server_->PrelinkedExec("/bin/tool", {"tool"}));
    ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
    EXPECT_EQ(out.exit_code, 42) << "round " << round;
    EXPECT_EQ(hits->value(), hits_before + 1) << "round " << round;
  }
  EXPECT_GE(repairs->value(), repairs_before + 1);

  // The administrative re-pack moves live placements wholesale and then
  // immediately re-links the evicted images at the new layout — stamps stay
  // current and the warm path stays relocation-free.
  (void)server_->OptimizePlacements();
  Counter* at_map = MetricsRegistry::Global().GetCounter("link.relocations_at_map");
  uint64_t at_map_before = at_map->value();
  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId final_id, server_->PrelinkedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome final_out, Run(final_id));
  EXPECT_EQ(final_out.exit_code, 42);
  EXPECT_EQ(hits->value(), hits_before + 1);
  EXPECT_EQ(at_map->value(), at_map_before);  // zero relocations at map time
}

// Prelink state in the snapshot is one bare line: images carry their own
// layout stamps and the place lines restore them.
TEST_F(ServerFeatures, PrelinkSnapshotLineRoundTrips) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 5\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o)"));
  EXPECT_EQ(server_->Snapshot().find("\nprelink"), std::string::npos);

  ASSERT_OK(server_->PrelinkNamespace("/bin"));
  std::string snapshot = server_->Snapshot();
  size_t at = snapshot.find("\nprelink");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(snapshot.substr(at, 9), "\nprelink\n");
  EXPECT_EQ(snapshot.find("\nprelink", at + 1), std::string::npos);  // one line, not one per path

  Kernel kernel2;
  OmosServer restored(kernel2);
  ASSERT_OK(restored.Restore(snapshot));
  EXPECT_TRUE(restored.prelink_enabled());
  EXPECT_EQ(restored.Snapshot(), snapshot);
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  ASSERT_OK_AND_ASSIGN(TaskId cold, restored.PrelinkedExec("/bin/tool", {"tool"}));
  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId warm, restored.PrelinkedExec("/bin/tool", {"tool"}));
  EXPECT_EQ(hits->value(), hits_before + 1);
  for (TaskId id : {cold, warm}) {
    Task* task = kernel2.FindTask(id);
    ASSERT_NE(task, nullptr);
    ASSERT_OK(kernel2.RunTask(*task));
    EXPECT_EQ(task->exit_code(), 5);
  }
}

TEST_F(ServerFeatures, PrelinkSnapshotLineWithFieldsRejected) {
  ASSERT_OK(server_->DefineMeta("/bin/thing", "(merge /lib/crt0.o)"));
  std::string snapshot = server_->Snapshot();
  // Swap the check line for a prelink line that carries fields and re-seal
  // the body, so the parse — not the checksum — has to reject it.
  std::string body = snapshot.substr(0, snapshot.rfind("check "));
  body += "prelink /bin/thing /bin/thing\n";
  uint64_t digest = Fnv1a(body);
  std::string sealed = StrCat(body, "check ", Hex32(static_cast<uint32_t>(digest >> 32)),
                              Hex32(static_cast<uint32_t>(digest)).substr(2), "\n");
  Kernel kernel2;
  OmosServer restored(kernel2);
  auto result = restored.Restore(sealed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
  EXPECT_FALSE(restored.prelink_enabled());
}

// A failed exec must not leave its task in the kernel table, nor the frames
// its partial mappings took: an unknown path fails before anything maps,
// oversized argv fails in StartTask after the program and stack mapped.
TEST_F(ServerFeatures, FailedExecReleasesTaskAndFrames) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 9\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o)"));
  ASSERT_OK(server_->PrelinkNamespace("/bin"));

  using ExecFn = std::function<Result<TaskId>(const std::string&, std::vector<std::string>)>;
  std::vector<std::pair<std::string, ExecFn>> schemes = {
      {"bootstrap",
       [&](const std::string& path, std::vector<std::string> args) {
         return server_->BootstrapExec(path, std::move(args));
       }},
      {"integrated",
       [&](const std::string& path, std::vector<std::string> args) {
         return server_->IntegratedExec(path, std::move(args));
       }},
      {"prelinked",
       [&](const std::string& path, std::vector<std::string> args) {
         return server_->PrelinkedExec(path, std::move(args));
       }},
  };
  // One good run per scheme first, so the baseline holds every cached master.
  for (const auto& [name, exec] : schemes) {
    ASSERT_OK_AND_ASSIGN(TaskId id, exec("/bin/tool", {"tool"}));
    ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
    EXPECT_EQ(out.exit_code, 9) << name;
    server_->ReleaseTask(id);
    kernel_.DestroyTask(id);
  }
  uint32_t baseline = kernel_.phys().frames_in_use();

  std::vector<std::pair<std::string, std::vector<std::string>>> failures = {
      {"/bin/no-such-tool", {"no-such-tool"}},
      {"/bin/tool", {"tool", std::string(2 * kStackSize, 'x')}},
  };
  for (const auto& [name, exec] : schemes) {
    for (const auto& [path, args] : failures) {
      TaskId probe = kernel_.CreateTask("probe").id();
      kernel_.DestroyTask(probe);
      EXPECT_FALSE(exec(path, args).ok()) << name << " " << path;
      // The failed exec took the next id and gave it back.
      TaskId failed = probe + 1;
      EXPECT_EQ(kernel_.FindTask(failed), nullptr) << name << " " << path;
      TaskId next = kernel_.CreateTask("probe").id();
      EXPECT_EQ(next, failed + 1) << name << " " << path;
      kernel_.DestroyTask(next);
      EXPECT_EQ(kernel_.phys().frames_in_use(), baseline) << name << " " << path;
    }
  }
}

// ---- Staleness: every image records the namespace paths its build read -----

TEST_F(ServerFeatures, FragmentUnderNestedMetaRedefinitionReachesExec) {
  auto define_f = [&](int value) -> Result<void> {
    OMOS_TRY(ObjectFile f, Assemble(StrCat(".text\n.global main\nmain:\n  movi r0, ", value,
                                           "\n  ret\n"),
                                    "f.o"));
    return server_->AddFragment("/obj/f.o", std::move(f));
  };
  ASSERT_OK(define_f(10));
  ASSERT_OK(server_->DefineMeta("/meta/inner", "(merge /obj/f.o)"));
  ASSERT_OK(server_->DefineMeta("/bin/outer", "(merge /lib/crt0.o /meta/inner)"));
  ASSERT_OK_AND_ASSIGN(TaskId first, server_->IntegratedExec("/bin/outer", {"outer"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome before, Run(first));
  EXPECT_EQ(before.exit_code, 10);

  // /bin/outer's blueprint never names /obj/f.o; only the recorded inputs
  // of its image tie the two together.
  ASSERT_OK(define_f(20));
  ASSERT_OK_AND_ASSIGN(TaskId second, server_->IntegratedExec("/bin/outer", {"outer"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome after, Run(second));
  EXPECT_EQ(after.exit_code, 20);
}

TEST_F(ServerFeatures, LazySlotResolvesInTheVersionTheTaskMapped) {
  ASSERT_OK_AND_ASSIGN(ObjectFile two, Assemble(R"(
.text
.global f1
f1:
  movi r0, 3
  ret
.global f2
f2:
  movi r0, 4
  ret
)", "two.o"));
  ASSERT_OK(server_->AddFragment("/obj/two.o", std::move(two)));
  ASSERT_OK(server_->DefineLibrary("/lib/two", "(merge /obj/two.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call f1
  mov r4, r0
  movi r5, 100
  movi r6, 0
spin:
  addi r5, r5, -1
  bne r5, r6, spin
  call f2
  add r0, r0, r4
  pop lr
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/dyn", "(merge /lib/crt0.o /obj/main.o"
                                            " (specialize \"lib-dynamic\" /lib/two))"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dyn", {"dyn"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  // Budget exhaustion pauses the task in the spin loop: f1's slot is bound
  // and the library is mapped, f2's slot is not bound yet.
  ASSERT_FALSE(kernel_.RunTask(*task, 60).ok());
  ASSERT_EQ(task->state(), TaskState::kRunnable);

  // The redefinition moves the library; the running task must keep calling
  // the version it mapped.
  ASSERT_OK(server_->DefineLibrary("/lib/two",
                                   "(constraint-list \"T\" 0x3800000)\n(merge /obj/two.o)"));
  ASSERT_OK(kernel_.RunTask(*task));
  EXPECT_EQ(task->exit_code(), 7);

  // A new exec binds the moved version.
  ASSERT_OK_AND_ASSIGN(TaskId fresh, server_->IntegratedExec("/bin/dyn", {"dyn"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(fresh));
  EXPECT_EQ(out.exit_code, 7);
}

TEST_F(ServerFeatures, MapProgramNeverMapsAMovedLibraryUnderAnOldProgram) {
  ASSERT_OK_AND_ASSIGN(ObjectFile lib,
                       Assemble(".text\n.global lib_fn\nlib_fn:\n  movi r0, 42\n  ret\n", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/base",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call lib_fn
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o /lib/base)"));

  ImageCache::ReadLease lease(server_->cache());  // keeps the old program valid
  ASSERT_OK_AND_ASSIGN(const CachedImage* program,
                       server_->Instantiate("/bin/tool", Specialization{}, nullptr));
  ASSERT_OK(server_->DefineLibrary("/lib/base",
                                   "(constraint-list \"T\" 0x3800000)\n(merge /obj/lib.o)"));
  Task& task = kernel_.CreateTask("tool");
  size_t regions_before = task.space().Regions().size();
  Result<uint32_t> mapped = server_->MapProgram(task, *program);
  ASSERT_FALSE(mapped.ok()) << "an old program was mapped with the moved library";
  EXPECT_EQ(mapped.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(task.space().Regions().size(), regions_before);
  kernel_.DestroyTask(task.id());

  // The exec path relinks the program against the moved library.
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 42);
}

// A cold build that overlaps a DefineLibrary reads the old version; it must
// never be cached or published. Each round empties the cache, then starts
// a build and a redefinition together and execs: the exit code must be the
// version just defined. The two versions lay `ver` out at different
// addresses, so a program linked against the other one fails too.
class BuildRacingDefine {
 public:
  static Result<std::unique_ptr<OmosServer>> MakeServer(Kernel& kernel) {
    auto server = std::make_unique<OmosServer>(kernel);
    OMOS_TRY_VOID(AddCrt0(*server));
    OMOS_TRY(ObjectFile v0, Assemble(".text\n.global ver\nver:\n  movi r0, 1\n  ret\n", "v0.o"));
    OMOS_TRY(ObjectFile v1, Assemble(".text\npad:\n  ret\n.global ver\nver:\n  movi r0, 2\n  ret\n",
                                     "v1.o"));
    OMOS_TRY_VOID(server->AddFragment("/obj/v0.o", std::move(v0)));
    OMOS_TRY_VOID(server->AddFragment("/obj/v1.o", std::move(v1)));
    OMOS_TRY_VOID(server->DefineLibrary("/lib/ver", Blueprint(0)));
    OMOS_TRY(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call ver
  pop lr
  ret
)", "main.o"));
    OMOS_TRY_VOID(server->AddFragment("/obj/main.o", std::move(main_obj)));
    OMOS_TRY_VOID(server->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o /lib/ver)"));
    return server;
  }

  // Each round's blueprint text is new, so its store fingerprint is too:
  // no build adopts an earlier round's record, every one links cold.
  static std::string Blueprint(int round) {
    return StrCat("; round ", round, "\n(merge /obj/v", round % 2, ".o)");
  }
  static int Expected(int round) { return round % 2 + 1; }

  static Result<int> Exec(Kernel& kernel, OmosServer& server) {
    OMOS_TRY(TaskId id, server.IntegratedExec("/bin/prog", {"prog"}));
    Result<void> ran = kernel.RunTask(*kernel.FindTask(id));
    int exit_code = kernel.FindTask(id)->exit_code();
    server.ReleaseTask(id);
    kernel.DestroyTask(id);
    OMOS_TRY_VOID(ran);
    return exit_code;
  }

  // The build and the redefinition each start after their own delay, and
  // the rounds sweep both, so they overlap in every way over a run.
  static void Delay(int yields) {
    for (int i = 0; i < yields; ++i) {
      std::this_thread::yield();
    }
  }

  // Runs `rounds` rounds; returns how many execs did not see the version
  // their round defined.
  static int StaleExecs(Kernel& kernel, OmosServer& server, int rounds) {
    std::atomic<int> go{0};
    std::atomic<int> built{0};
    std::thread builder([&] {
      for (int round = 1; round <= rounds; ++round) {
        while (go.load(std::memory_order_acquire) < round) {
          std::this_thread::yield();
        }
        Delay(round % 16);
        (void)server.Instantiate("/bin/prog", Specialization{}, nullptr);
        built.store(round, std::memory_order_release);
      }
    });
    Specialization lib_spec;
    lib_spec.name = "lib-constrained";
    int stale = 0;
    for (int round = 1; round <= rounds; ++round) {
      for (const std::string& key : {MakeCacheKey("/bin/prog", Specialization{}.ToKeyString()),
                                     MakeCacheKey("/lib/ver", lib_spec.ToKeyString())}) {
        server.cache().Evict(key);
      }
      go.store(round, std::memory_order_release);
      Delay(round / 16 % 16);
      Result<void> defined = server.DefineLibrary("/lib/ver", Blueprint(round));
      while (built.load(std::memory_order_acquire) < round) {
        std::this_thread::yield();
      }
      Result<int> exit_code = Exec(kernel, server);
      if (!defined.ok() || !exit_code.ok() || *exit_code != Expected(round)) {
        ++stale;
      }
    }
    builder.join();
    return stale;
  }
};

TEST(ServerStaleness, BuildRacingDefineLibraryNeverCachesTheOldVersion) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<OmosServer> server, BuildRacingDefine::MakeServer(kernel));
  EXPECT_EQ(BuildRacingDefine::StaleExecs(kernel, *server, 20000), 0);
}

// The same race with a store attached: a build that read the old version
// must not publish it, so a server restarted from the store execs the
// version defined last.
TEST(ServerStaleness, BuildRacingDefineLibraryNeverPublishesTheOldVersion) {
  constexpr int kRounds = 1000;
  SimFs disk;
  {
    Kernel kernel;
    ImageStore store(disk, "/store", &kernel.costs());
    ASSERT_OK(store.Open());
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<OmosServer> server,
                         BuildRacingDefine::MakeServer(kernel));
    server->AttachStore(&store);
    EXPECT_EQ(BuildRacingDefine::StaleExecs(kernel, *server, kRounds), 0);
    ASSERT_OK(server->PersistTo(store));
  }
  Kernel kernel;
  ImageStore store(disk, "/store", &kernel.costs());
  ASSERT_OK(store.Open());
  OmosServer restarted(kernel);
  ASSERT_OK(restarted.RestoreFromStore(store));
  ASSERT_OK_AND_ASSIGN(int exit_code, BuildRacingDefine::Exec(kernel, restarted));
  EXPECT_EQ(exit_code, BuildRacingDefine::Expected(kRounds));
}

}  // namespace
}  // namespace omos
