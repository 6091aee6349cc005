// Interpreter throughput: host-seconds per simulated instruction, legacy
// per-instruction interpreter vs. the predecoded block engine, for the
// three dominant instruction mixes.
//
// Steady-state methodology: each mix is an infinite loop, mapped ONCE into
// a warm kernel; measurement slices re-enter RunTask with an instruction
// budget, so the numbers cover pure execution (warm block cache, warm TLB)
// with no per-iteration kernel/map setup. The gates CI enforces:
//
//   PASS: interp alu speedup >= 3x       (engine vs legacy, ALU mix)
//   PASS: interp memory speedup >= 2x    (engine vs legacy, ld/st mix)
//   PASS: interp cycle identity          (simulated results byte-identical)
//   PASS: engine page lookups per 1k block dispatches <= 1
//                                        (a count: warm dispatch never reaches
//                                         the shared page map)
//
// An INFO row times 2 tasks sharing one image's text on 2 threads against 1
// task on 1 thread: warm dispatch takes no lock, so the aggregate should
// scale with threads.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/engine/engine.h"
#include "src/os/loader.h"
#include "src/support/metrics.h"
#include "src/vasm/assembler.h"

namespace omos {
namespace {

struct Mix {
  const char* name;
  const char* body;  // loop body; r4/r5 are the induction registers
};

const Mix kMixes[] = {
    {"alu", "  add r1, r1, r4\n  xor r2, r1, r4\n  mul r3, r2, r4\n"},
    {"memory", "  lea r1, word\n  ld r2, [r1+0]\n  st r2, [r1+0]\n"},
    {"calls", "  call helper\n  call helper\n"},
};

LinkedImage BuildImage(const Mix& mix, int iterations) {
  // iterations == 0 builds the steady-state variant: an unbounded loop the
  // harness slices with RunTask instruction budgets.
  std::string loop_exit = iterations == 0
                              ? std::string("  br loop\n")
                              : StrCat("  addi r4, r4, 1\n  movi r5, ", iterations,
                                       "\n  blt r4, r5, loop\n  movi r0, 0\n  sys 0\n");
  std::string source = StrCat(R"(
.text
.global _start
_start:
  movi r4, 0
loop:
)", mix.body, loop_exit, R"(
helper:
  ret
.data
.align 4
word: .word 7
)");
  ObjectFile obj = BENCH_UNWRAP(Assemble(source, "loop.o"));
  Module m = Module::FromObject(std::make_shared<const ObjectFile>(std::move(obj)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  return BENCH_UNWRAP(LinkImage(m, layout, "loop"));
}

struct World {
  std::unique_ptr<Kernel> kernel;
  Task* task = nullptr;
};

World MapOnce(const LinkedImage& image, EngineMode mode) {
  World w;
  w.kernel = std::make_unique<Kernel>();
  w.kernel->SetEngineMode(mode);
  w.task = &w.kernel->CreateTask("bench");
  BENCH_CHECK(MapLinkedImage(*w.kernel, *w.task, image, ""));
  std::vector<std::string> args{"bench"};
  BENCH_CHECK(StartTask(*w.kernel, *w.task, image.entry, args));
  return w;
}

constexpr uint64_t kSlice = 2'000'000;

// One budgeted slice of the steady-state loop. The budget error is the
// expected outcome; anything else is a bench bug.
void RunSlice(Kernel& kernel, Task& task, uint64_t insns) {
  Result<void> run = kernel.RunTask(task, insns);
  if (run.ok() || task.state() != TaskState::kRunnable) {
    std::fprintf(stderr, "steady-state loop stopped unexpectedly\n");
    std::abort();
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Steady-state throughput in simulated instructions per host second,
// summed over `n` tasks that each map the image under `mapping` (a
// "pagecache:" name makes them share frames and decoded pages), each driven
// from its own thread over the same window.
double MeasureRate(const LinkedImage& image, EngineMode mode, const std::string& mapping = "",
                   int n = 1) {
  Kernel kernel;
  kernel.SetEngineMode(mode);
  std::vector<Task*> tasks;
  for (int i = 0; i < n; ++i) {
    Task& task = kernel.CreateTask(StrCat("bench", i));
    BENCH_CHECK(MapLinkedImage(kernel, task, image, mapping));
    std::vector<std::string> args{"bench"};
    BENCH_CHECK(StartTask(kernel, task, image.entry, args));
    RunSlice(kernel, task, kSlice);  // warm-up: decode blocks, fill TLB, touch pages
    tasks.push_back(&task);
  }
  std::vector<uint64_t> retired(tasks.size());
  std::vector<std::thread> threads;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < tasks.size(); ++i) {
    threads.emplace_back([&, i] {
      uint64_t before = tasks[i]->instructions_retired();
      do {
        RunSlice(kernel, *tasks[i], kSlice);
      } while (SecondsSince(start) < 0.25);
      retired[i] = tasks[i]->instructions_retired() - before;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  double elapsed = SecondsSince(start);
  uint64_t total = 0;
  for (uint64_t r : retired) {
    total += r;
  }
  return static_cast<double>(total) / elapsed;
}

struct SimResult {
  int exit_code = 0;
  uint64_t user = 0;
  uint64_t sys = 0;
  uint64_t retired = 0;
  std::string output;

  bool operator==(const SimResult&) const = default;
};

// Run the bounded variant to completion and capture every simulated-side
// observable the paper's tables are built from.
SimResult RunBounded(const LinkedImage& image, EngineMode mode) {
  World w = MapOnce(image, mode);
  BENCH_CHECK(w.kernel->RunTask(*w.task));
  return SimResult{w.task->exit_code(), w.task->user_cycles(), w.task->sys_cycles(),
                   w.task->instructions_retired(), w.task->output()};
}

int Main() {
  std::printf("Interpreter throughput: legacy CpuStep vs predecoded block engine\n");
  std::printf("(steady state: map once, budgeted RunTask slices; Minsns/s = simulated\n");
  std::printf(" instructions retired per host second)\n\n");
  std::printf("%-8s %14s %14s %9s\n", "mix", "interp Mi/s", "blocks Mi/s", "speedup");

  EngineMetrics& em = GetEngineMetrics();
  uint64_t tlb_hits0 = em.tlb_hits->value();
  uint64_t tlb_misses0 = em.tlb_misses->value();
  uint64_t decoded0 = em.blocks_decoded->value();
  uint64_t hits0 = em.block_hits->value();
  uint64_t lookups0 = em.page_lookups->value();

  bool ok = true;
  double speedup_by_mix[3] = {0, 0, 0};
  double calls_blocks = 0;  // kMixes[2], 1 task on 1 thread
  for (size_t i = 0; i < 3; ++i) {
    LinkedImage image = BuildImage(kMixes[i], 0);
    double interp = MeasureRate(image, EngineMode::kInterp);
    double blocks = MeasureRate(image, EngineMode::kBlocks);
    speedup_by_mix[i] = blocks / interp;
    if (i == 2) {
      calls_blocks = blocks;
    }
    std::printf("%-8s %14.1f %14.1f %8.2fx\n", kMixes[i].name, interp / 1e6, blocks / 1e6,
                speedup_by_mix[i]);
  }

  // The calls mix dispatches the most blocks per instruction, so it is the
  // one that would contend on a shared lock.
  double shared2 = MeasureRate(BuildImage(kMixes[2], 0), EngineMode::kBlocks, "pagecache:bench", 2);
  std::printf("\nINFO: shared text (calls mix) 2 tasks on 2 threads %.1f Mi/s vs 1 task on "
              "1 thread %.1f Mi/s: %.2fx (not gated)\n",
              shared2 / 1e6, calls_blocks / 1e6, shared2 / calls_blocks);

  uint64_t decoded = em.blocks_decoded->value() - decoded0;
  uint64_t dispatches = decoded + em.block_hits->value() - hits0;
  uint64_t lookups = em.page_lookups->value() - lookups0;
  std::printf("\nengine counters over the blocks runs: %llu blocks decoded, "
              "tlb %llu hits / %llu misses, %llu page lookups / %llu block dispatches\n",
              static_cast<unsigned long long>(decoded),
              static_cast<unsigned long long>(em.tlb_hits->value() - tlb_hits0),
              static_cast<unsigned long long>(em.tlb_misses->value() - tlb_misses0),
              static_cast<unsigned long long>(lookups),
              static_cast<unsigned long long>(dispatches));

  // Differential check: the simulated-cycle results the other benches
  // report must be byte-identical between engines.
  bool identical = true;
  for (const Mix& mix : kMixes) {
    LinkedImage image = BuildImage(mix, 2000);
    SimResult interp = RunBounded(image, EngineMode::kInterp);
    SimResult blocks = RunBounded(image, EngineMode::kBlocks);
    if (!(interp == blocks)) {
      identical = false;
      std::printf("MISMATCH %s: interp{exit=%d user=%llu sys=%llu retired=%llu} "
                  "blocks{exit=%d user=%llu sys=%llu retired=%llu}\n",
                  mix.name, interp.exit_code, static_cast<unsigned long long>(interp.user),
                  static_cast<unsigned long long>(interp.sys),
                  static_cast<unsigned long long>(interp.retired), blocks.exit_code,
                  static_cast<unsigned long long>(blocks.user),
                  static_cast<unsigned long long>(blocks.sys),
                  static_cast<unsigned long long>(blocks.retired));
    }
  }

  std::printf("\n");
  auto gate = [&](bool pass, const std::string& what) {
    std::printf("%s: %s\n", pass ? "PASS" : "FAIL", what.c_str());
    ok = ok && pass;
  };
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", speedup_by_mix[0]);
  gate(speedup_by_mix[0] >= 3.0, StrCat("interp alu speedup ", buf, "x >= 3x"));
  std::snprintf(buf, sizeof buf, "%.2f", speedup_by_mix[1]);
  gate(speedup_by_mix[1] >= 2.0, StrCat("interp memory speedup ", buf, "x >= 2x"));
  std::snprintf(buf, sizeof buf, "%.2f", speedup_by_mix[2]);
  std::printf("INFO: interp calls speedup %sx (not gated)\n", buf);
  gate(identical, "interp cycle identity across engines");
  double lookups_per_1k = dispatches == 0 ? 1e9 : 1000.0 * lookups / dispatches;
  std::snprintf(buf, sizeof buf, "%.4f", lookups_per_1k);
  gate(lookups_per_1k <= 1.0, StrCat("engine page lookups per 1k block dispatches ", buf, " <= 1"));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace omos

int main() { return omos::Main(); }
