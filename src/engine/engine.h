// Predecoded direct-threaded execution engine.
//
// CpuStep() re-fetches and re-decodes 8 bytes on every instruction. For the
// paper's workloads — tight benchmark loops executing the same cached text
// in many tasks — that decode work is pure overhead: text pages are
// immutable once mapped (read|exec, never writable), so each page's
// instructions can be decoded once and reused by every task that maps the
// same frames.
//
// The engine keeps two cache levels:
//
//   - A per-kernel decoded-page cache (L2) keyed by *physical* identity,
//     (frame id, frame generation): two tasks that MapShared the same
//     SegmentImage map the same frames and so share one DecodedPage, and a
//     recycled frame's bumped generation (PhysMemory::FrameGen) retires its
//     stale page. A page holds one atomic block slot per instruction offset,
//     filled once by compare-and-swap (a losing decoder frees its copy).
//
//   - Per task, an instruction TLB, indexed by a hash of the virtual page
//     (low bits alone alias text mapped 1 MiB apart), holding each text
//     page's frame bytes and a shared_ptr to its DecodedPage that keeps the
//     running block alive across InvalidateAll; plus a small data TLB. Both
//     are tagged with AddressSpace::map_epoch() (the instruction TLB also
//     with the engine's invalidation epoch) and self-flush on mismatch. The
//     L2 map and its mutex are consulted only on an instruction-TLB miss.
//
// A block is a run of instructions within one text page ending at the first
// control-flow instruction (branch, jump, call, ret, sys, halt), the page
// edge, or an undecodable instruction. Pages mapped writable+executable are
// never cached; they, and misaligned pcs, fall back to CpuStep.
//
// What is checked per block, at dispatch in Run():
//   - the instruction-TLB hit, inline: both epochs, pc alignment, the entry
//     and its block slot (one acquire load; no lock, no refcount write, so
//     tasks sharing text do not contend); LookupBlock only on a miss;
//   - first-touch text-page billing, once per instruction-TLB entry fill;
//   - the data-TLB map epoch, at block entry and again after every
//     slow-path access (a demand-zero fill or CoW break is the only way the
//     map changes inside a block), so a CoW break never leaves a stale entry;
//   - the mode: with the profiler off and the whole block inside the
//     budget, the block's instructions, user cycles and budget count are
//     retired at once at entry, and a mid-block exit (divide by zero, a
//     failed slow-path access) gives back the ones it did not reach.
//
// What is checked per instruction: in that fast mode, only the data-TLB hit
// of a memory access (a page compare and a permission bit set at fill
// time). Otherwise (exact mode: profiler on, or the budget ends inside the
// block) CpuStep's per-instruction order is replicated — budget stop,
// CountInstruction, profiler sample at the pre-execution pc, pc update.
// Either way retired counts, simulated cycles, fault state and profile
// sample streams are byte-identical between engines at every point the rest
// of the system can observe them (block exits, syscalls, faults).
#ifndef OMOS_SRC_ENGINE_ENGINE_H_
#define OMOS_SRC_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include "src/support/flat_map.h"
#include "src/support/result.h"
#include "src/vm/phys_memory.h"

namespace omos {

class Kernel;
class Task;

// Which execution loop Kernel::RunTask drives.
enum class EngineMode : uint8_t {
  kBlocks,  // predecoded block engine (default)
  kInterp,  // legacy per-instruction CpuStep — the differential oracle
};

// Session default: OMOS_ENGINE=interp selects the legacy interpreter
// (CI runs the full test suite once this way); anything else — including
// unset — selects the block engine.
EngineMode DefaultEngineMode();

// engine.* counters (stable registry pointers, looked up once).
struct EngineMetrics {
  class Counter* blocks_decoded;  // engine.blocks_decoded
  class Counter* block_hits;      // engine.block_hits (dispatches of cached blocks)
  class Counter* invalidations;   // engine.invalidations
  class Counter* tlb_hits;        // engine.tlb_hits
  class Counter* tlb_misses;      // engine.tlb_misses (slow-path accesses)
  class Counter* page_lookups;    // engine.page_lookups (instruction-TLB misses)
};
EngineMetrics& GetEngineMetrics();

// One engine per Kernel: block keys are physical frame ids, which are only
// unique within one PhysMemory, so the cache must not outlive or span
// kernels.
class ExecEngine {
 public:
  explicit ExecEngine(Kernel& kernel);
  ~ExecEngine();
  ExecEngine(const ExecEngine&) = delete;
  ExecEngine& operator=(const ExecEngine&) = delete;

  // Run `task` until it exits/faults, `*executed` reaches `budget`, or a
  // safepoint is requested. Increments `*executed` once per retired
  // instruction and stops exactly at the budget, mid-block if necessary, so
  // RunTask's budget semantics match the legacy loop. Errors are returned
  // un-Faulted, like CpuStep: the caller owns task.Fault().
  Result<void> Run(Task& task, uint64_t budget, uint64_t* executed);

  // Drop every decoded page and bump the invalidation epoch so per-task
  // instruction TLBs self-flush. Called on library redefinition and
  // live-upgrade repoint; `reason` labels the trace event.
  void InvalidateAll(std::string_view reason);

  // Forget a destroyed task's TLB state.
  void DropTask(uint32_t task_id);

  // Introspection (tests).
  size_t CachedBlocks() const;
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  struct DecodedInsn;
  struct Block;
  struct DecodedPage;
  // Named TaskCache, not TaskState: the os layer already uses TaskState for
  // the run-state enum and these methods see both scopes.
  struct TaskCache;

  TaskCache& StateFor(const Task& task);
  // Find or decode the block starting at `pc`. Returns nullptr (ok) when the
  // pc is not cacheable (misaligned fetch, writable text) and the caller
  // should single-step; returns the error FetchBytes/DecodeInsn would raise
  // so the fault surfaces exactly once, with the legacy message.
  Result<const Block*> LookupBlock(Task& task, TaskCache& st, uint32_t pc);
  // The shared page for (frame, current generation), created on first use.
  std::shared_ptr<DecodedPage> PageFor(FrameId frame);
  // Drop every page and bump the epoch. Requires mu_.
  void ClearLocked();
  // kExact: per-instruction budget stop, retire count and profiler sample,
  // as CpuStep. Otherwise (profiler off, block within budget) the block is
  // retired at entry and a mid-block exit gives back what it did not reach.
  template <bool kExact>
  Result<void> ExecuteBlock(Task& task, TaskCache& st, const Block& block, uint64_t budget,
                            uint64_t* executed);

  Kernel& kernel_;
  std::atomic<uint64_t> epoch_{1};

  mutable std::mutex mu_;  // guards pages_ and cached_blocks_
  FlatMap<uint64_t, std::shared_ptr<DecodedPage>> pages_;  // (frame, gen) -> page
  size_t cached_blocks_ = 0;  // blocks published into pages_ since the last clear

  std::mutex tasks_mu_;  // guards tasks_ (map shape only; states are per-driver)
  std::map<uint32_t, std::unique_ptr<TaskCache>> tasks_;
};

}  // namespace omos

#endif  // OMOS_SRC_ENGINE_ENGINE_H_
