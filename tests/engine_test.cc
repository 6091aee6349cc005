// Tests for the predecoded block execution engine (src/engine/): the
// differential suite runs the same programs under the legacy CpuStep
// interpreter and the block engine and requires every simulated observable
// — final registers, pc, cycles, retired counts, output, fault identity,
// profiler sample stream — to be byte-identical; the fault sweeps prove
// mid-block CoW/demand-zero faults leave precise state; the invalidation
// and concurrency tests (TSan-covered) prove redefinition and live-upgrade
// repoint invalidate cached blocks without stale-code execution or frame
// use-after-free.
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/server.h"
#include "src/engine/engine.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"
#include "src/upgrade/upgrade.h"
#include "src/workloads/workloads.h"
#include "tests/helpers.h"

namespace omos {
namespace {

// ---- Differential harness ---------------------------------------------------

// Every simulated observable of one run: how it ended, the final machine
// state, the accounting, and the console output. Two engines agree iff all
// fields match.
struct Observed {
  std::string run_status;  // "ok" or RunTask's error string (budget, fault)
  int state = 0;
  int exit_code = 0;
  uint32_t pc = 0;
  std::array<uint32_t, kNumRegisters> regs{};
  uint64_t user_cycles = 0;
  uint64_t sys_cycles = 0;
  uint64_t retired = 0;
  std::string output;
  std::string fault;
  uint64_t vm_hits = 0;   // FaultSim vm.fault hit count (0 unless a plan is armed)
  uint64_t vm_fires = 0;
};

struct EngineWorld {
  std::unique_ptr<Kernel> kernel;
  Task* task = nullptr;
};

// `mapping` names a kernel page-cache entry to map the image under (text
// shared, data copy-on-write); empty maps both privately.
Result<EngineWorld> SetupWorld(EngineMode mode, const std::string& source,
                               const std::string& mapping = "") {
  EngineWorld w;
  w.kernel = std::make_unique<Kernel>();
  w.kernel->SetEngineMode(mode);
  OMOS_TRY(ObjectFile object, Assemble(source, "engine.o"));
  Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  OMOS_TRY(LinkedImage image, LinkImage(module, layout, "engine"));
  w.task = &w.kernel->CreateTask("engine");
  OMOS_TRY_VOID(MapLinkedImage(*w.kernel, *w.task, image, mapping));
  std::vector<std::string> args{"engine"};
  OMOS_TRY_VOID(StartTask(*w.kernel, *w.task, image.entry, args));
  return w;
}

Observed Capture(EngineWorld& w, const Result<void>& run) {
  Observed o;
  o.run_status = run.ok() ? "ok" : run.error().ToString();
  o.state = static_cast<int>(w.task->state());
  o.exit_code = w.task->exit_code();
  o.pc = w.task->pc();
  for (int i = 0; i < kNumRegisters; ++i) {
    o.regs[static_cast<size_t>(i)] = w.task->reg(i);
  }
  o.user_cycles = w.task->user_cycles();
  o.sys_cycles = w.task->sys_cycles();
  o.retired = w.task->instructions_retired();
  o.output = w.task->output();
  o.fault = w.task->fault() ? w.task->fault()->ToString() : "";
  return o;
}

Result<Observed> RunUnder(EngineMode mode, const std::string& source,
                          uint64_t budget = 200'000'000, const std::string& mapping = "") {
  OMOS_TRY(EngineWorld w, SetupWorld(mode, source, mapping));
  Result<void> run = w.kernel->RunTask(*w.task, budget);
  return Capture(w, run);
}

// Runs with a vm.fault plan armed only around execution (not setup), so the
// fault schedule is identical for both engines.
Result<Observed> RunWithFaultPlan(EngineMode mode, const std::string& source, FaultSpec spec) {
  OMOS_TRY(EngineWorld w, SetupWorld(mode, source));
  Observed o;
  {
    ScopedFaultPlan plan(FaultPlan().Arm("vm.fault", spec));
    Result<void> run = w.kernel->RunTask(*w.task, 200'000'000);
    o = Capture(w, run);
    o.vm_hits = FaultSim::Hits("vm.fault");
    o.vm_fires = FaultSim::Fires("vm.fault");
  }
  return o;
}

void ExpectSame(const Observed& interp, const Observed& blocks, const std::string& label) {
  EXPECT_EQ(interp.run_status, blocks.run_status) << label;
  EXPECT_EQ(interp.state, blocks.state) << label;
  EXPECT_EQ(interp.exit_code, blocks.exit_code) << label;
  EXPECT_EQ(interp.pc, blocks.pc) << label;
  for (int i = 0; i < kNumRegisters; ++i) {
    EXPECT_EQ(interp.regs[static_cast<size_t>(i)], blocks.regs[static_cast<size_t>(i)])
        << label << " r" << i;
  }
  EXPECT_EQ(interp.user_cycles, blocks.user_cycles) << label;
  EXPECT_EQ(interp.sys_cycles, blocks.sys_cycles) << label;
  EXPECT_EQ(interp.retired, blocks.retired) << label;
  EXPECT_EQ(interp.output, blocks.output) << label;
  EXPECT_EQ(interp.fault, blocks.fault) << label;
  EXPECT_EQ(interp.vm_hits, blocks.vm_hits) << label;
  EXPECT_EQ(interp.vm_fires, blocks.vm_fires) << label;
}

void ExpectEnginesAgree(const std::string& source, uint64_t budget = 200'000'000,
                        const std::string& mapping = "") {
  ASSERT_OK_AND_ASSIGN(Observed interp, RunUnder(EngineMode::kInterp, source, budget, mapping));
  ASSERT_OK_AND_ASSIGN(Observed blocks, RunUnder(EngineMode::kBlocks, source, budget, mapping));
  ExpectSame(interp, blocks, StrCat("budget ", budget));
}

// ---- Differential suite -----------------------------------------------------

TEST(EngineDifferential, AluMix) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 37
  movi r6, 0x1234
  movi r7, 7
loop:
  add r1, r1, r6
  sub r2, r1, r4
  mul r3, r2, r6
  div r8, r3, r7
  mod r9, r3, r7
  and r10, r8, r9
  or r11, r8, r9
  xor r12, r11, r10
  shl r1, r12, r7
  shr r2, r12, r7
  addi r4, r4, 1
  blt r4, r5, loop
  mov r0, r12
  sys 0
)");
}

TEST(EngineDifferential, MemoryMix) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 24
  movi r7, 7
  movi r8, 2
loop:
  lea r1, table
  and r2, r4, r7
  shl r2, r2, r8
  add r1, r1, r2
  ld r3, [r1+0]
  addi r3, r3, 5
  st r3, [r1+0]
  ldb r6, [r1+1]
  stb r6, [r1+2]
  addi r4, r4, 1
  blt r4, r5, loop
  ld r0, [r1+0]
  sys 0
.data
.align 4
table:
  .word 1
  .word 2
  .word 3
  .word 4
  .word 5
  .word 6
  .word 7
  .word 8
)");
}

TEST(EngineDifferential, BranchesAndCalls) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 12
loop:
  mov r0, r4
  call twist
  add r6, r6, r0
  addi r4, r4, 1
  bne r4, r5, loop
  mov r0, r6
  sys 0
twist:
  push lr
  push r4
  movi r1, 5
  blt r0, r1, small
  movi r2, 9
  bgeu r0, r2, big
  lea r3, add3
  callr r3
  br join
small:
  call add10
  br join
big:
  movi r3, 4
  bltu r0, r3, join
  bge r0, r1, viajmp
viajmp:
  jmp add3_tail
join:
  pop r4
  pop lr
  ret
add3:
add3_tail:
  addi r0, r0, 3
  beq r0, r0, back
back:
  ret
add10:
  addi r0, r0, 10
  ret
)");
}

TEST(EngineDifferential, PcRelativeForms) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  ldpc r1, value
  leapc r2, value
  ld r3, [r2+0]
  add r0, r1, r3
  callpc bump
  lea r4, fin
  jmpr r4
bump:
  addi r0, r0, 1
  ret
fin:
  sys 0
.data
.align 4
value: .word 20
)");
}

TEST(EngineDifferential, SyscallOutput) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 9
loop:
  movi r0, 1
  lea r1, msg
  movi r2, 3
  sys 1
  addi r4, r4, 1
  blt r4, r5, loop
  movi r0, 7
  sys 0
.data
msg: .asciiz "ab\n"
)");
}

TEST(EngineDifferential, DivideByZeroFaultIsIdentical) {
  // The fault is mid-block: three straight-line instructions precede it.
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r1, 7
  movi r2, 0
  add r3, r1, r1
  div r0, r3, r2
  sys 0
)");
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r1, 7
  movi r2, 0
  add r3, r1, r1
  mod r0, r3, r2
  sys 0
)");
}

TEST(EngineDifferential, FetchFromNonExecPageFaultIsIdentical) {
  // Jumping into the data segment makes the instruction fetch itself fail;
  // the engine's block-probe path must surface the same error as CpuStep.
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  lea r1, blob
  jmpr r1
.data
.align 4
blob: .word 0x11111111
)");
}

TEST(EngineDifferential, MisalignedJumpIntoCachedBlockIsIdentical) {
  // `label` runs (and is cached) first; the jump then lands 4 bytes into
  // it, where the bytes decode as `nop` (addi's immediate + ret's opcode)
  // and then `halt`. Block slots hold aligned instructions only, so the
  // misaligned pc must single-step rather than reuse label's block.
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r4, 0
  call label
  lea r1, label
  addi r1, r1, 4
  jmpr r1
label:
  addi r4, r4, 1
  ret
)", 100'000);
}

// Instruction budgets must stop both engines at exactly the same
// instruction boundary — mid-block for the block engine — with identical
// machine state, including budgets that land inside the loop body.
TEST(EngineDifferential, BudgetStopsAreExact) {
  const std::string spin = R"(
.text
.global _start
_start:
  movi r4, 0
loop:
  addi r4, r4, 1
  xor r5, r4, r6
  add r6, r5, r4
  mul r7, r6, r4
  br loop
)";
  for (uint64_t budget = 1; budget <= 48; ++budget) {
    ASSERT_OK_AND_ASSIGN(Observed interp, RunUnder(EngineMode::kInterp, spin, budget));
    ASSERT_OK_AND_ASSIGN(Observed blocks, RunUnder(EngineMode::kBlocks, spin, budget));
    ASSERT_NE(interp.run_status, "ok") << "budget " << budget;
    EXPECT_NE(interp.run_status.find("exceeded instruction budget"), std::string::npos);
    ExpectSame(interp, blocks, StrCat("budget ", budget));
    EXPECT_EQ(blocks.retired, budget);
  }
}

// One block loads a word from a copy-on-write data page (the data TLB fills
// a read-only entry for it), stores to it (the slow path breaks CoW onto a
// private copy) and loads it again: the second load must see the store, not
// the shared frame the first fill pointed at.
TEST(EngineDifferential, LoadAfterCowBreakInOneBlockSeesTheStore) {
  const std::string prog = R"(
.text
.global _start
_start:
  lea r1, word
  ld r2, [r1+0]
  addi r3, r2, 5
  st r3, [r1+0]
  ld r0, [r1+0]
  sys 0
.data
.align 4
word: .word 37
)";
  Counter* copies = MetricsRegistry::Global().GetCounter("vm.cow_broken_pages");
  uint64_t before = copies->value();
  ASSERT_OK_AND_ASSIGN(Observed blocks,
                       RunUnder(EngineMode::kBlocks, prog, 200'000'000, "pagecache:cow"));
  EXPECT_GT(copies->value(), before);  // the store really broke CoW
  EXPECT_EQ(blocks.exit_code, 42);
  ExpectEnginesAgree(prog, 200'000'000, "pagecache:cow");
}

// kSysTime reads the elapsed cycles after the engine has retired a long
// straight-line block at once. Its value is elapsed / 1000, so the test
// finds, on the interpreter, a program whose elapsed count reaches a
// multiple of 1000 exactly at the syscall: a loop of `iterations` (two
// instructions each) moves the count near a step, and `extra` instructions
// on the 300-instruction straight line move it one at a time. All of it
// stays on one text page, so no page-fault charge jumps over the step.
std::string TimeAfterStraightLine(int iterations, int extra) {
  std::string source = StrCat(".text\n.global _start\n_start:\n  movi r6, 0\n  movi r5, ",
                              iterations + 1, "\nspin:\n  addi r5, r5, -1\n  bne r5, r6, spin\n");
  for (int i = 0; i < 300 + extra; ++i) {
    source += "  addi r4, r4, 1\n";
  }
  return source + "  sys 8\n  sys 0\n";  // r0 := elapsed / 1000; exit
}

TEST(EngineDifferential, SysTimeAfterLongStraightLineBlock) {
  auto time_after = [](int iterations, int extra) -> uint32_t {
    Result<Observed> o =
        RunUnder(EngineMode::kInterp, TimeAfterStraightLine(iterations, extra));
    return o.ok() ? o->regs[0] : 0;
  };
  // 600 iterations add 1200 cycles, so r0 steps in (lo, hi].
  int lo = 0;
  int hi = 600;
  const uint32_t base = time_after(lo, 0);
  ASSERT_GT(time_after(hi, 0), base);
  while (hi - lo > 1) {
    int mid = (lo + hi) / 2;
    (time_after(mid, 0) > base ? hi : lo) = mid;
  }
  // With `lo` iterations the count sits one or two below the step, so it
  // steps at extra == 1 or 2, one instruction at a time.
  ASSERT_EQ(time_after(lo, 0), base);
  ASSERT_GT(time_after(lo, 3), base);
  for (int extra = 0; extra <= 3; ++extra) {
    ExpectEnginesAgree(TimeAfterStraightLine(lo, extra));
  }
}

// ---- Seeded vm.fault sweeps -------------------------------------------------

// The loop body mixes demand-zero fills (a walk down the unmapped stack
// pages) with a CoW break (first store to the data page), all mid-block.
constexpr char kFaultyProgram[] = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 6
  mov r6, r13
loop:
  addi r6, r6, -4096
  st r4, [r6+0]
  lea r1, word
  ld r2, [r1+0]
  add r2, r2, r4
  st r2, [r1+0]
  addi r4, r4, 1
  blt r4, r5, loop
  ld r0, [r1+0]
  sys 0
.data
.align 4
word: .word 3
)";

TEST(EngineFaultSweep, NthFaultLeavesPreciseStateInBothEngines) {
  // k sweeps past the total number of fault resolutions (the last k values
  // fire nothing and the run completes), so both the faulted and clean
  // paths are compared. On a fire the store fails mid-block: the task must
  // be left at exactly the state the legacy interpreter produces.
  bool saw_fault = false;
  bool saw_clean = false;
  for (uint64_t k = 1; k <= 9; ++k) {
    ASSERT_OK_AND_ASSIGN(Observed interp,
                         RunWithFaultPlan(EngineMode::kInterp, kFaultyProgram, FaultSpec::Nth(k)));
    ASSERT_OK_AND_ASSIGN(Observed blocks,
                         RunWithFaultPlan(EngineMode::kBlocks, kFaultyProgram, FaultSpec::Nth(k)));
    ExpectSame(interp, blocks, StrCat("nth ", k));
    if (blocks.vm_fires > 0) {
      saw_fault = true;
      EXPECT_EQ(blocks.state, static_cast<int>(TaskState::kFaulted)) << "nth " << k;
      EXPECT_FALSE(blocks.fault.empty()) << "nth " << k;
    } else {
      saw_clean = true;
      EXPECT_EQ(blocks.state, static_cast<int>(TaskState::kExited)) << "nth " << k;
      EXPECT_EQ(blocks.run_status, "ok") << "nth " << k;
    }
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_clean);
}

TEST(EngineFaultSweep, SeededProbabilisticParity) {
  // Every seed yields one deterministic fault schedule; both engines must
  // hit the sites in the same order and count, so the schedules — and the
  // resulting final states — are identical.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ASSERT_OK_AND_ASSIGN(
        Observed interp,
        RunWithFaultPlan(EngineMode::kInterp, kFaultyProgram, FaultSpec::Prob(0.4, seed)));
    ASSERT_OK_AND_ASSIGN(
        Observed blocks,
        RunWithFaultPlan(EngineMode::kBlocks, kFaultyProgram, FaultSpec::Prob(0.4, seed)));
    ExpectSame(interp, blocks, StrCat("seed ", seed));
  }
}

// ---- Profiler attribution ---------------------------------------------------

// Same convention in both engines (see the note in src/os/cpu.cc): a sample
// records the PRE-execution pc of the retiring instruction. The full sample
// stream must match, not just the histogram.
TEST(EngineProfiler, SampleStreamsAreIdentical) {
  const std::string prog = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 800
loop:
  add r6, r6, r4
  xor r7, r6, r5
  call leaf
  addi r4, r4, 1
  blt r4, r5, loop
  movi r0, 0
  sys 0
leaf:
  addi r7, r7, 1
  ret
)";
  std::vector<CycleProfiler::Sample> streams[2];
  const EngineMode modes[2] = {EngineMode::kInterp, EngineMode::kBlocks};
  for (int i = 0; i < 2; ++i) {
    CycleProfiler::Clear();
    CycleProfiler::Start(16);
    ASSERT_OK_AND_ASSIGN(EngineWorld w, SetupWorld(modes[i], prog));
    ASSERT_OK(w.kernel->RunTask(*w.task));
    CycleProfiler::Stop();
    streams[i] = CycleProfiler::Samples();
  }
  ASSERT_GT(streams[0].size(), 10u);
  ASSERT_EQ(streams[0].size(), streams[1].size());
  for (size_t i = 0; i < streams[0].size(); ++i) {
    EXPECT_EQ(streams[0][i].task_id, streams[1][i].task_id) << "sample " << i;
    EXPECT_EQ(streams[0][i].pc, streams[1][i].pc) << "sample " << i;
  }
}

// A first RunTask slice, profiler off, whose budget runs out inside a block;
// then the profiler is switched on for a second slice of the same task. The
// block engine retires whole blocks at once only while the profiler is off
// and the block fits the budget, so both the stop and the sample stream
// must still equal the interpreter's.
TEST(EngineProfiler, ProfilerEnabledBetweenSlicesMatchesInterpreter) {
  // Blocks per iteration: [add xor add xor call] [addi ret] [addi blt];
  // the first iteration's head block also holds the two movi. The budgets
  // land 2, 3 and 4 instructions into the five-instruction block.
  const std::string prog = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 300
loop:
  add r6, r6, r4
  xor r7, r6, r5
  add r8, r7, r6
  xor r9, r8, r4
  call leaf
  addi r4, r4, 1
  blt r4, r5, loop
  movi r0, 0
  sys 0
leaf:
  addi r7, r7, 1
  ret
)";
  for (uint64_t budget : {913u, 914u, 915u}) {
    Observed first[2];
    Observed last[2];
    std::vector<CycleProfiler::Sample> streams[2];
    const EngineMode modes[2] = {EngineMode::kInterp, EngineMode::kBlocks};
    for (int i = 0; i < 2; ++i) {
      CycleProfiler::Clear();
      ASSERT_OK_AND_ASSIGN(EngineWorld w, SetupWorld(modes[i], prog));
      first[i] = Capture(w, w.kernel->RunTask(*w.task, budget));
      CycleProfiler::Start(16);
      last[i] = Capture(w, w.kernel->RunTask(*w.task));
      CycleProfiler::Stop();
      streams[i] = CycleProfiler::Samples();
    }
    EXPECT_NE(first[1].run_status.find("exceeded instruction budget"), std::string::npos);
    EXPECT_EQ(first[1].retired, budget);
    ExpectSame(first[0], first[1], StrCat("first slice, budget ", budget));
    ExpectSame(last[0], last[1], StrCat("second slice, budget ", budget));
    ASSERT_GT(streams[0].size(), 10u);
    ASSERT_EQ(streams[0].size(), streams[1].size());
    for (size_t k = 0; k < streams[0].size(); ++k) {
      EXPECT_EQ(streams[0][k].task_id, streams[1][k].task_id) << "sample " << k;
      EXPECT_EQ(streams[0][k].pc, streams[1][k].pc) << "sample " << k;
    }
  }
}

// ---- Cache behavior and metrics ---------------------------------------------

constexpr char kLoopProgram[] = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 5000
loop:
  add r6, r6, r4
  lea r1, word
  ld r2, [r1+0]
  addi r4, r4, 1
  blt r4, r5, loop
  movi r0, 0
  sys 0
.data
.align 4
word: .word 1
)";

TEST(EngineCache, CountersAdvanceAndInvalidateAllDropsBlocks) {
  EngineMetrics& em = GetEngineMetrics();
  uint64_t decoded0 = em.blocks_decoded->value();
  uint64_t hits0 = em.block_hits->value();
  uint64_t tlb_hits0 = em.tlb_hits->value();
  uint64_t inval0 = em.invalidations->value();

  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, kLoopProgram));
  EXPECT_EQ(out.exit_code, 0);

  EXPECT_GT(kernel.engine().CachedBlocks(), 0u);
  EXPECT_GT(em.blocks_decoded->value(), decoded0);
  EXPECT_GT(em.block_hits->value(), hits0);       // the loop re-enters its block
  EXPECT_GT(em.tlb_hits->value(), tlb_hits0);     // ld hits the software TLB

  uint64_t epoch_before = kernel.engine().epoch();
  kernel.engine().InvalidateAll("test");
  EXPECT_EQ(kernel.engine().CachedBlocks(), 0u);
  EXPECT_GT(kernel.engine().epoch(), epoch_before);
  EXPECT_GT(em.invalidations->value(), inval0);
}

// InvalidateAll between two slices of one running task: the task's next
// dispatch must see the new engine epoch and look its text page up again
// (re-decoding its blocks), not keep serving the dropped page from its
// instruction TLB.
TEST(EngineCache, InvalidateAllRetiresARunningTasksInstructionTlb) {
  EngineMetrics& em = GetEngineMetrics();
  ASSERT_OK_AND_ASSIGN(EngineWorld w, SetupWorld(EngineMode::kBlocks, kLoopProgram));
  // Stop at the loop head: the head block is 7 instructions, the loop 5.
  EXPECT_FALSE(w.kernel->RunTask(*w.task, 7 + 5 * 199).ok());
  uint64_t decoded = em.blocks_decoded->value();
  w.kernel->engine().InvalidateAll("test");
  ASSERT_OK(w.kernel->RunTask(*w.task));
  EXPECT_EQ(w.task->exit_code(), 0);
  // The loop block again, and the exit block it had not reached.
  EXPECT_EQ(em.blocks_decoded->value() - decoded, 2u);
  EXPECT_EQ(w.kernel->engine().CachedBlocks(), 2u);
}

TEST(EngineCache, BlocksAreSharedAcrossTasksMappingTheSameFrames) {
  // Two tasks mapping the same page-cached text share physical frames, so
  // the second run must decode zero new blocks — the predecode cache is
  // keyed by physical identity, the paper's "shared text, shared decode".
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(kLoopProgram, "shared.o"));
  Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(module, layout, "shared"));

  EngineMetrics& em = GetEngineMetrics();
  uint64_t decoded_before_first = em.blocks_decoded->value();
  for (int i = 0; i < 2; ++i) {
    Task& task = kernel.CreateTask(StrCat("shared", i));
    ASSERT_OK(MapLinkedImage(kernel, task, image, "pagecache:shared"));
    std::vector<std::string> args{"shared"};
    ASSERT_OK(StartTask(kernel, task, image.entry, args));
    ASSERT_OK(kernel.RunTask(task));
    EXPECT_EQ(task.state(), TaskState::kExited);
    if (i == 0) {
      uint64_t first_run = em.blocks_decoded->value() - decoded_before_first;
      EXPECT_GT(first_run, 0u);
      decoded_before_first = em.blocks_decoded->value();
    } else {
      EXPECT_EQ(em.blocks_decoded->value(), decoded_before_first)
          << "second task re-decoded blocks it should share";
    }
  }
}

// Text 1 MiB apart — 256 pages, a multiple of the instruction-TLB size —
// lands in the same slot of any index taken from the page number's low
// bits. The program at 0x00100000 calls into a library at 0x00200000 on
// every iteration, so an aliasing index would miss on nearly every dispatch.
constexpr char kNearCaller[] = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 4000
loop:
  mov r0, r4
  call far_twist
  add r6, r6, r0
  addi r4, r4, 1
  blt r4, r5, loop
  mov r0, r6
  sys 0
)";

constexpr char kFarLibrary[] = R"(
.text
.global far_twist
far_twist:
  addi r0, r0, 3
  movi r1, 7
  and r0, r0, r1
  ret
)";

Result<EngineWorld> SetupAliasedTextWorld(EngineMode mode) {
  OMOS_TRY(ObjectFile lib_obj, Assemble(kFarLibrary, "far.o"));
  LayoutSpec lib_layout;
  lib_layout.text_base = 0x00200000;
  OMOS_TRY(LinkedImage lib, LinkImage(Module::FromObject(std::make_shared<const ObjectFile>(
                                          std::move(lib_obj))),
                                      lib_layout, "far"));
  const ImageSymbol* twist = lib.FindSymbol("far_twist");
  if (twist == nullptr) {
    return Err(ErrorCode::kNotFound, "far_twist");
  }
  OMOS_TRY(ObjectFile prog_obj, Assemble(kNearCaller, "near.o"));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  layout.externals["far_twist"] = twist->addr;
  OMOS_TRY(LinkedImage prog, LinkImage(Module::FromObject(std::make_shared<const ObjectFile>(
                                           std::move(prog_obj))),
                                       layout, "near"));
  EngineWorld w;
  w.kernel = std::make_unique<Kernel>();
  w.kernel->SetEngineMode(mode);
  w.task = &w.kernel->CreateTask("near");
  OMOS_TRY_VOID(MapLinkedImage(*w.kernel, *w.task, prog, ""));
  OMOS_TRY_VOID(MapLinkedImage(*w.kernel, *w.task, lib, ""));
  std::vector<std::string> args{"near"};
  OMOS_TRY_VOID(StartTask(*w.kernel, *w.task, prog.entry, args));
  return w;
}

TEST(EngineCache, TextPagesOneMegabyteApartDoNotAliasInTheInstructionTlb) {
  EngineMetrics& em = GetEngineMetrics();
  ASSERT_OK_AND_ASSIGN(EngineWorld interp_world, SetupAliasedTextWorld(EngineMode::kInterp));
  Result<void> interp_run = interp_world.kernel->RunTask(*interp_world.task);
  Observed interp = Capture(interp_world, interp_run);

  ASSERT_OK_AND_ASSIGN(EngineWorld w, SetupAliasedTextWorld(EngineMode::kBlocks));
  uint64_t lookups0 = em.page_lookups->value();
  uint64_t hits0 = em.block_hits->value();
  Result<void> run = w.kernel->RunTask(*w.task);
  Observed blocks = Capture(w, run);
  ExpectSame(interp, blocks, "aliased text");
  EXPECT_EQ(blocks.state, static_cast<int>(TaskState::kExited));

  uint64_t lookups = em.page_lookups->value() - lookups0;
  uint64_t dispatches = em.block_hits->value() - hits0;
  EXPECT_GT(dispatches, 2u * 4000u);  // 3 cached block dispatches per iteration
  // Two text pages, each looked up once per flush (the stack and data page
  // faults at startup bump the map epoch a few times) — not per dispatch.
  EXPECT_LE(lookups, 2u * 8u) << "instruction-TLB misses over " << dispatches << " dispatches";
}

// Four tasks start cold on one freshly mapped (shared-frame) image at the
// same moment, so they race to decode and publish every block. Each block
// must be published exactly once (losers free their copy — the ASan lane
// checks for leaks) and every task must compute exactly what a lone task
// computes.
std::string ManyBlocksProgram() {
  std::string source = ".text\n.global _start\n_start:\n  movi r4, 0\n  movi r5, 40\nouter:\n";
  for (int i = 0; i < 300; ++i) {
    source += StrCat("  addi r6, r6, ", i + 1, "\n  xor r7, r7, r6\n  bne r4, r5, b", i, "\nb",
                     i, ":\n");
  }
  source += R"(  addi r4, r4, 1
  blt r4, r5, outer
  movi r0, 1
  lea r1, msg
  movi r2, 5
  sys 1
  mov r0, r7
  sys 0
.data
msg: .asciiz "done\n"
)";
  return source;
}

// Maps `n` tasks onto the image's page-cached (shared) frames.
std::vector<Task*> MapSharedTasks(Kernel& kernel, const LinkedImage& image, int n) {
  std::vector<Task*> tasks;
  for (int i = 0; i < n; ++i) {
    Task& task = kernel.CreateTask(StrCat("cold", i));
    std::vector<std::string> args{"engine"};
    if (!MapLinkedImage(kernel, task, image, "pagecache:many").ok() ||
        !StartTask(kernel, task, image.entry, args).ok()) {
      return {};
    }
    tasks.push_back(&task);
  }
  return tasks;
}

TEST(EngineConcurrency, ConcurrentColdDecodePublishesEachBlockOnce) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(ManyBlocksProgram(), "many.o"));
  Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(module, layout, "many"));
  ASSERT_GT(image.text.size(), size_t{kPageSize});  // blocks on more than one page

  Kernel lone_kernel;
  lone_kernel.SetEngineMode(EngineMode::kBlocks);
  std::vector<Task*> lone_tasks = MapSharedTasks(lone_kernel, image, 1);
  ASSERT_EQ(lone_tasks.size(), 1u);
  const Task& lone = *lone_tasks[0];
  ASSERT_OK(lone_kernel.RunTask(*lone_tasks[0]));
  ASSERT_EQ(lone.output(), "done\n");

  constexpr int kWorkers = 4;
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  std::vector<Task*> tasks = MapSharedTasks(kernel, image, kWorkers);
  ASSERT_EQ(tasks.size(), size_t{kWorkers});
  ASSERT_EQ(kernel.engine().CachedBlocks(), 0u);

  EngineMetrics& em = GetEngineMetrics();
  uint64_t decoded0 = em.blocks_decoded->value();
  std::atomic<bool> go{false};
  std::vector<std::string> status(kWorkers);
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Result<void> run = kernel.RunTask(*tasks[static_cast<size_t>(i)]);
      status[static_cast<size_t>(i)] = run.ok() ? "ok" : run.error().ToString();
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : workers) {
    t.join();
  }

  for (int i = 0; i < kWorkers; ++i) {
    const Task& task = *tasks[static_cast<size_t>(i)];
    EXPECT_EQ(status[static_cast<size_t>(i)], "ok") << i;
    EXPECT_EQ(task.state(), TaskState::kExited) << i;
    EXPECT_EQ(task.exit_code(), lone.exit_code()) << i;
    EXPECT_EQ(task.output(), lone.output()) << i;
    EXPECT_EQ(task.user_cycles(), lone.user_cycles()) << i;
    EXPECT_EQ(task.sys_cycles(), lone.sys_cycles()) << i;
    EXPECT_EQ(task.instructions_retired(), lone.instructions_retired()) << i;
  }
  uint64_t decoded = em.blocks_decoded->value() - decoded0;
  EXPECT_GT(decoded, 300u);
  EXPECT_EQ(decoded, kernel.engine().CachedBlocks());
}

// ---- Invalidation on redefinition and upgrade -------------------------------

constexpr char kCrt0[] = R"(
.text
.global _start
_start:
  call main
  sys 0
)";

// v1: (5 + 2) * 3 = 21; v2: (5 + 12) * 3 = 51.
constexpr char kAddLibV1[] = R"(
.text
.global add2
add2:
  addi r0, r0, 2
  ret
.global mul3
mul3:
  movi r1, 3
  mul r0, r0, r1
  ret
)";

constexpr char kAddLibV2[] = R"(
.text
.global add2
add2:
  addi r0, r0, 12
  ret
.global mul3
mul3:
  movi r1, 3
  mul r0, r0, r1
  ret
)";

// The client loops so redefinitions and repoints land while tasks are
// mid-execution; the exit code is the final iteration's result, so any
// consistent version yields exactly 21 or 51.
constexpr char kLoopingClient[] = R"(
.text
.global main
main:
  push lr
  movi r4, 0
  movi r5, 20000
mloop:
  movi r0, 5
  call add2
  call mul3
  addi r4, r4, 1
  blt r4, r5, mloop
  pop lr
  ret
)";

class EngineInvalidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // These tests assert on block-cache occupancy, so pin the block engine
    // even when the suite runs under OMOS_ENGINE=interp.
    kernel_.SetEngineMode(EngineMode::kBlocks);
    server_ = std::make_unique<OmosServer>(kernel_);
    ASSERT_OK_AND_ASSIGN(ObjectFile crt0, Assemble(kCrt0, "crt0.o"));
    ASSERT_OK(server_->AddFragment("/lib/crt0.o", std::move(crt0)));
    ASSERT_OK_AND_ASSIGN(ObjectFile v1, Assemble(kAddLibV1, "addlib.o"));
    ASSERT_OK(server_->AddFragment("/obj/addlib.o", std::move(v1)));
    ASSERT_OK_AND_ASSIGN(ObjectFile v2, Assemble(kAddLibV2, "addlib2.o"));
    ASSERT_OK(server_->AddFragment("/obj/addlib2.o", std::move(v2)));
    ASSERT_OK_AND_ASSIGN(ObjectFile client, Assemble(kLoopingClient, "client.o"));
    ASSERT_OK(server_->AddFragment("/obj/client.o", std::move(client)));
    ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib.o)"));
  }

  Result<int> ExecAndRun(const std::string& path) {
    OMOS_TRY(TaskId id, server_->IntegratedExec(path, {"prog"}));
    Task* task = kernel_.FindTask(id);
    OMOS_TRY_VOID(kernel_.RunTask(*task));
    int code = task->exit_code();
    server_->ReleaseTask(id);
    kernel_.DestroyTask(id);
    return code;
  }

  OmosServer::UpgradeStatus DrainToTerminal() {
    OmosServer::UpgradeStatus status = server_->DrainUpgrade();
    for (int round = 0; round < 64 && !status.terminal(); ++round) {
      status = server_->DrainUpgrade();
    }
    return status;
  }

  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
};

TEST_F(EngineInvalidationTest, RedefinitionDropsCachedBlocks) {
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/client.o /lib/addlib)"));
  ASSERT_OK_AND_ASSIGN(int before, ExecAndRun("/bin/prog"));
  EXPECT_EQ(before, 21);
  EXPECT_GT(kernel_.engine().CachedBlocks(), 0u);

  EngineMetrics& em = GetEngineMetrics();
  uint64_t inval_before = em.invalidations->value();
  uint64_t epoch_before = kernel_.engine().epoch();
  ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib2.o)"));
  EXPECT_EQ(kernel_.engine().CachedBlocks(), 0u);
  EXPECT_GT(kernel_.engine().epoch(), epoch_before);
  EXPECT_GT(em.invalidations->value(), inval_before);

  ASSERT_OK_AND_ASSIGN(int after, ExecAndRun("/bin/prog"));
  EXPECT_EQ(after, 51);
}

TEST_F(EngineInvalidationTest, UpgradeRepointInvalidatesCachedBlocks) {
  ASSERT_OK(server_->DefineMeta("/bin/dynprog",
                                "(merge /lib/crt0.o /obj/client.o"
                                " (specialize \"lib-dynamic\" /lib/addlib))"));
  ASSERT_OK_AND_ASSIGN(int before, ExecAndRun("/bin/dynprog"));
  EXPECT_EQ(before, 21);

  EngineMetrics& em = GetEngineMetrics();
  uint64_t inval_before = em.invalidations->value();
  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib2.o)"));
  OmosServer::UpgradeStatus status = DrainToTerminal();
  EXPECT_EQ(status.phase, UpgradePhase::kDone) << status.error;
  EXPECT_GT(em.invalidations->value(), inval_before);

  ASSERT_OK_AND_ASSIGN(int after, ExecAndRun("/bin/dynprog"));
  EXPECT_EQ(after, 51);
}

// Between two RunTask slices of one task, its text is unmapped and other
// code is mapped at the same address. The instruction-TLB entry for that
// page still names the old decoded page; only the map epoch says it is
// stale, so the warm dispatch probe must check it.
TEST(EngineCache, TextRemappedAtTheSameAddressIsNotServedStale) {
  ASSERT_OK_AND_ASSIGN(ObjectFile spin, Assemble(R"(
.text
.global _start
_start:
  movi r0, 1
  br _start
)", "spin.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile quit, Assemble(R"(
.text
.global _start
_start:
  movi r0, 2
  sys 0
)", "quit.o"));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(
      LinkedImage first,
      LinkImage(Module::FromObject(std::make_shared<const ObjectFile>(std::move(spin))), layout,
                "spin"));
  ASSERT_OK_AND_ASSIGN(
      LinkedImage second,
      LinkImage(Module::FromObject(std::make_shared<const ObjectFile>(std::move(quit))), layout,
                "quit"));
  ASSERT_EQ(first.text_base, second.text_base);
  for (EngineMode mode : {EngineMode::kInterp, EngineMode::kBlocks}) {
    Kernel kernel;
    kernel.SetEngineMode(mode);
    Task& task = kernel.CreateTask("remap");
    ASSERT_OK(MapLinkedImage(kernel, task, first, ""));
    std::vector<std::string> args{"remap"};
    ASSERT_OK(StartTask(kernel, task, first.entry, args));
    EXPECT_FALSE(kernel.RunTask(task, 100).ok());  // spins to the budget
    ASSERT_OK(task.space().Unmap(first.text_base));
    ASSERT_OK(kernel.MapPrivate(task, second.text_base,
                                static_cast<uint32_t>(second.text.size()), second.text,
                                kProtRead | kProtExec, "quit.text"));
    task.set_pc(second.entry);
    ASSERT_OK(kernel.RunTask(task, 100));
    EXPECT_EQ(task.state(), TaskState::kExited);
    EXPECT_EQ(task.exit_code(), 2);
  }
}

// ---- Engine switches and libc updates on one idle server ---------------------

// The benchmark's traced pass runs one server through every state the
// engine's cross-block caches must survive: a switch to the interpreter and
// back, and alternating libc redefinitions and live upgrades, each followed
// by fresh execs. Every exec must match the same exec (first, cold, or
// second, warm: a cold exec also bills the link) on a fresh server that runs
// the interpreter and only ever saw the same libc version.
struct ExecOutcome {
  int exit_code = 0;
  std::string output;
  uint64_t user_cycles = 0;
  uint64_t sys_cycles = 0;
};

const Workloads& LsWorkloads() {
  static const Workloads* workloads = [] {
    Result<Workloads> built = BuildWorkloads();
    if (!built.ok()) {
      std::abort();
    }
    return new Workloads(std::move(*built));
  }();
  return *workloads;
}

std::string LibcBlueprint(int version) {
  std::string blueprint = "(constraint-list \"T\" 0x2000000)\n(merge /libc)";
  return version == 0 ? blueprint : blueprint + "\n; revision b\n";
}

// ls over a constrained libc, and a lib-dynamic ls whose libc is the live
// upgrade target.
Result<void> DefineLsServer(OmosServer& server, int libc_version) {
  const Workloads& w = LsWorkloads();
  OMOS_TRY_VOID(server.AddFragment("/lib/crt0.o", w.crt0));
  OMOS_TRY_VOID(server.AddFragment("/obj/ls.o", w.ls_obj));
  OMOS_TRY_VOID(server.AddArchive("/libc", w.libc));
  OMOS_TRY_VOID(server.DefineLibrary("/lib/libc", LibcBlueprint(libc_version)));
  OMOS_TRY_VOID(server.DefineMeta("/bin/ls", "(merge /lib/crt0.o /obj/ls.o /lib/libc)"));
  return server.DefineMeta(
      "/bin/lsdyn", "(merge /lib/crt0.o /obj/ls.o (specialize \"lib-dynamic\" /lib/libc))");
}

Result<ExecOutcome> ExecLs(Kernel& kernel, OmosServer& server, const std::string& path) {
  OMOS_TRY(TaskId id, server.IntegratedExec(path, {"ls", "/data"}));
  Task* task = kernel.FindTask(id);
  Result<void> ran = kernel.RunTask(*task);
  ExecOutcome out{task->exit_code(), task->output(), task->user_cycles(), task->sys_cycles()};
  server.ReleaseTask(id);
  kernel.DestroyTask(id);
  OMOS_TRY_VOID(ran);
  return out;
}

Result<ExecOutcome> FreshServerExec(const std::string& path, int libc_version, bool warm) {
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kInterp);
  PopulateLsData(kernel.fs());
  OmosServer server(kernel);
  OMOS_TRY_VOID(DefineLsServer(server, libc_version));
  if (warm) {
    OMOS_TRY_VOID(ExecLs(kernel, server, path));
  }
  return ExecLs(kernel, server, path);
}

TEST(EngineServer, EngineSwitchesAndLibcUpdatesMatchAFreshServer) {
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  PopulateLsData(kernel.fs());
  OmosServer server(kernel);
  ASSERT_OK(DefineLsServer(server, 0));
  int version = 0;
  auto expect_fresh = [&](const std::string& path, bool warm, const std::string& label) {
    ASSERT_OK_AND_ASSIGN(ExecOutcome want, FreshServerExec(path, version, warm));
    ASSERT_OK_AND_ASSIGN(ExecOutcome got, ExecLs(kernel, server, path));
    EXPECT_EQ(got.exit_code, want.exit_code) << label;
    EXPECT_EQ(got.output, want.output) << label;
    EXPECT_EQ(got.user_cycles, want.user_cycles) << label;
    EXPECT_EQ(got.sys_cycles, want.sys_cycles) << label;
  };

  expect_fresh("/bin/ls", false, "blocks");
  kernel.SetEngineMode(EngineMode::kInterp);
  expect_fresh("/bin/ls", true, "interp");
  kernel.SetEngineMode(EngineMode::kBlocks);
  expect_fresh("/bin/ls", true, "blocks again");

  for (int update = 0; update < 8; ++update) {
    version = 1 - version;
    if (update % 2 == 0) {
      ASSERT_OK(server.DefineLibrary("/lib/libc", LibcBlueprint(version)));
    } else {
      ASSERT_OK(server.BeginUpgrade("/lib/libc", LibcBlueprint(version)));
      OmosServer::UpgradeStatus status = server.DrainUpgrade();
      for (int round = 0; round < 64 && !status.terminal(); ++round) {
        status = server.DrainUpgrade();
      }
      ASSERT_EQ(status.phase, UpgradePhase::kDone) << status.error;
    }
    const std::string path = update % 4 < 2 ? "/bin/ls" : "/bin/lsdyn";
    expect_fresh(path, false, StrCat("update ", update, ", first ", path));
    expect_fresh(path, true, StrCat("update ", update, ", second ", path));
  }
}

// ---- Concurrency (run under TSan in CI) -------------------------------------

// Redefinition while worker threads execute cached blocks: each task was
// linked against the version current at exec time and its frames stay
// alive (refcounted) through the redefinition, so it must exit with
// exactly that version's value — a stale or torn decode would break the
// arithmetic. The InvalidateAll storm races block decode/lookup on the
// workers.
TEST_F(EngineInvalidationTest, RedefinitionWhileTasksExecute) {
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/client.o /lib/addlib)"));
  constexpr int kWorkers = 4;
  constexpr int kRounds = 4;
  std::atomic<int> bad{0};
  for (int round = 0; round < kRounds; ++round) {
    const bool v2 = (round % 2) != 0;
    ASSERT_OK(server_->DefineLibrary(
        "/lib/addlib", v2 ? "(merge /obj/addlib2.o)" : "(merge /obj/addlib.o)"));
    const int expected = v2 ? 51 : 21;

    std::vector<TaskId> ids;
    for (int i = 0; i < kWorkers; ++i) {
      ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}));
      ids.push_back(id);
    }
    std::atomic<int> finished{0};
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int i = 0; i < kWorkers; ++i) {
      workers.emplace_back([&, i] {
        Task* task = kernel_.FindTask(ids[static_cast<size_t>(i)]);
        if (task == nullptr || !kernel_.RunTask(*task).ok() || task->exit_code() != expected) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
        finished.fetch_add(1, std::memory_order_release);
      });
    }
    // Redefine back and forth while the workers run: every flip clears the
    // block cache under their feet.
    while (finished.load(std::memory_order_acquire) < kWorkers) {
      ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib2.o)"));
      ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib.o)"));
      std::this_thread::yield();
    }
    for (std::thread& t : workers) {
      t.join();
    }
    for (TaskId id : ids) {
      server_->ReleaseTask(id);
      kernel_.DestroyTask(id);
    }
  }
  EXPECT_EQ(bad.load(), 0);
}

// Raw InvalidateAll storm against concurrently executing tasks: the
// shared_ptr discipline must keep in-flight blocks alive (no use-after-free
// under ASan/TSan) and re-decoded blocks must compute the same results.
TEST(EngineConcurrency, InvalidateAllWhileTasksExecute) {
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  // 200 times kLoopProgram's iterations, so each run is long enough for the
  // storm to reach it even on a loaded host.
  std::string source = kLoopProgram;
  source.replace(source.find("movi r5, 5000"), 13, "movi r5, 1000000");
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(source, "loop.o"));
  Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(module, layout, "loop"));

  constexpr int kWorkers = 4;
  std::vector<Task*> tasks;
  for (int i = 0; i < kWorkers; ++i) {
    Task& task = kernel.CreateTask(StrCat("worker", i));
    ASSERT_OK(MapLinkedImage(kernel, task, image, "pagecache:loop"));
    std::vector<std::string> args{"loop"};
    ASSERT_OK(StartTask(kernel, task, image.entry, args));
    tasks.push_back(&task);
  }

  std::atomic<int> bad{0};
  std::atomic<int> finished{0};
  // Runs during which the engine epoch moved: a storm hit a running task.
  std::atomic<int> overlapped{0};
  // The workers start only once the storm has begun: a short run could
  // otherwise finish before the first InvalidateAll under a loaded host.
  std::atomic<bool> storming{false};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&, i] {
      while (!storming.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Task* task = tasks[static_cast<size_t>(i)];
      uint64_t epoch0 = kernel.engine().epoch();
      if (!kernel.RunTask(*task).ok() || task->state() != TaskState::kExited ||
          task->exit_code() != 0) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
      if (kernel.engine().epoch() != epoch0) {
        overlapped.fetch_add(1, std::memory_order_relaxed);
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  storming.store(true, std::memory_order_release);
  while (finished.load(std::memory_order_acquire) < kWorkers) {
    kernel.engine().InvalidateAll("test.storm");
    std::this_thread::yield();
  }
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(overlapped.load(), 0);
}

}  // namespace
}  // namespace omos
