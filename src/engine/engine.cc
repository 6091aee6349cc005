#include "src/engine/engine.h"

#include <array>
#include <cstdlib>
#include <cstring>

#include "src/isa/isa.h"
#include "src/os/cpu.h"
#include "src/os/kernel.h"
#include "src/os/task.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

// Direct-threaded dispatch (computed goto) on GNU-compatible compilers;
// elsewhere the same op bodies compile as a switch in a loop.
#if defined(__GNUC__) || defined(__clang__)
#define OMOS_ENGINE_DIRECT_THREADED 1
#else
#define OMOS_ENGINE_DIRECT_THREADED 0
#endif

namespace omos {

namespace {

// Wholesale-eviction thresholds for the shared page cache (4 KiB of slots a
// page). The workloads decode a few hundred blocks on a few dozen pages;
// these only guard against pathological text churn.
constexpr size_t kMaxCachedBlocks = 1u << 16;
constexpr size_t kMaxCachedPages = 1u << 11;

constexpr uint32_t kInvalidPage = 0xFFFFFFFFu;

inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline void Store32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

}  // namespace

EngineMode DefaultEngineMode() {
  const char* env = std::getenv("OMOS_ENGINE");
  if (env != nullptr && std::string_view(env) == "interp") {
    return EngineMode::kInterp;
  }
  return EngineMode::kBlocks;
}

EngineMetrics& GetEngineMetrics() {
  static EngineMetrics metrics{
      MetricsRegistry::Global().GetCounter("engine.blocks_decoded"),
      MetricsRegistry::Global().GetCounter("engine.block_hits"),
      MetricsRegistry::Global().GetCounter("engine.invalidations"),
      MetricsRegistry::Global().GetCounter("engine.tlb_hits"),
      MetricsRegistry::Global().GetCounter("engine.tlb_misses"),
      MetricsRegistry::Global().GetCounter("engine.page_lookups"),
  };
  return metrics;
}

// Predecoded instruction: DecodeInsn's output, flattened so the dispatch
// loop touches one 8-byte-ish record instead of re-parsing raw bytes.
struct ExecEngine::DecodedInsn {
  Opcode op;
  uint8_t r1;
  uint8_t r2;
  uint8_t r3;
  uint32_t imm;
};

// A superblock: consecutive instructions within one text page, ending at
// the first control-flow instruction, the page edge, or the first
// undecodable instruction. Immutable once published.
struct ExecEngine::Block {
  std::vector<DecodedInsn> insns;
};

// The decoded blocks of one physical (frame, generation): one slot per
// instruction offset, each published once by compare-and-swap. The page owns
// its blocks; tasks hold the page through their instruction TLB.
struct ExecEngine::DecodedPage {
  explicit DecodedPage(uint64_t created) : epoch(created) {}
  ~DecodedPage() {
    for (std::atomic<const Block*>& slot : slots) {
      delete slot.load(std::memory_order_relaxed);
    }
  }
  const uint64_t epoch;  // engine epoch at creation; a clear retires the page
  std::array<std::atomic<const Block*>, kPageSize / kInsnSize> slots{};
};

// Cache-line aligned, like Task: its counters are written on every block
// and must not share a line with another task's state.
struct alignas(64) ExecEngine::TaskCache {
  static constexpr uint32_t kTlbEntries = 32;    // data TLB, direct-mapped by virtual page
  static constexpr uint32_t kItlbBits = 8;  // instruction TLB: 256 entries, indexed by a page hash
  // TlbEntry::perm bits: what a hit may do without the slow path.
  static constexpr uint8_t kTlbRead = 1;
  static constexpr uint8_t kTlbWrite = 2;  // clear while the page is CoW

  struct TlbEntry {
    uint32_t page = kInvalidPage;  // virtual page number (addr / kPageSize)
    uint8_t perm = 0;              // kTlbRead | kTlbWrite, computed at fill time
    uint8_t* data = nullptr;       // frame bytes
  };
  struct ItlbEntry {
    uint32_t page = kInvalidPage;  // virtual page number
    bool touched = false;          // the task's first-touch billing for `page` is done
    uint64_t flush = 0;            // valid only while equal to itlb_flush
    const uint8_t* data = nullptr;  // frame bytes, for decoding
    std::shared_ptr<DecodedPage> decoded;  // keeps its blocks alive vs. eviction
  };
  // Fibonacci hash of the page number: plain low bits would alias text
  // mapped a multiple of 1 MiB apart (program and libraries).
  static uint32_t ItlbIndex(uint32_t page) { return (page * 0x9E3779B1u) >> (32 - kItlbBits); }

  std::array<TlbEntry, kTlbEntries> tlb{};
  std::array<ItlbEntry, 1u << kItlbBits> itlb{};
  // The data TLB is synced to the map epoch at block entry and after every
  // slow-path access (the only in-block map changes); the instruction TLB
  // is flushed (itlb_flush bumped, retiring every entry) only between
  // blocks, as an entry holds the page keeping the executing block alive.
  uint64_t tlb_epoch = 0;
  uint64_t itlb_space_epoch = 0;
  uint64_t itlb_engine_epoch = 0;
  uint64_t itlb_flush = 1;
  // engine.* counts, batched per Run() call (Counter::Add is an atomic).
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t block_hits = 0;
  uint64_t page_lookups = 0;

  void SyncTlb(uint64_t map_epoch) {
    if (tlb_epoch != map_epoch) {
      for (TlbEntry& e : tlb) {
        e.page = kInvalidPage;
      }
      tlb_epoch = map_epoch;
    }
  }

  // Data-TLB miss path: (re)fill the entry for `addr`'s page and return the
  // frame byte pointer if the access may proceed there, or nullptr to route
  // it through the billing/faulting slow path (absent page, CoW write,
  // protection mismatch, page-crossing). Kept out of line so the inlined hit
  // probe stays small.
  [[gnu::noinline]] uint8_t* TlbFill(const AddressSpace& space, uint32_t addr, uint32_t size,
                                     uint8_t need) {
    if ((addr & kPageMask) <= kPageSize - size) {
      uint32_t page = addr / kPageSize;
      TlbEntry& e = tlb[page & (kTlbEntries - 1)];
      AddressSpace::PageLookup pl;
      if (space.LookupPage(addr, &pl) && pl.present) {
        e.page = page;
        e.data = pl.data;
        e.perm = static_cast<uint8_t>(((pl.prot & kProtRead) != 0 ? kTlbRead : 0) |
                                      ((pl.prot & kProtWrite) != 0 && !pl.cow ? kTlbWrite : 0));
        if ((e.perm & need) != 0) {
          ++tlb_hits;
          return e.data + (addr & kPageMask);
        }
      }
    }
    ++tlb_misses;
    return nullptr;
  }
};

ExecEngine::ExecEngine(Kernel& kernel) : kernel_(kernel) {}

ExecEngine::~ExecEngine() = default;

ExecEngine::TaskCache& ExecEngine::StateFor(const Task& task) {
  std::lock_guard<std::mutex> lock(tasks_mu_);
  std::unique_ptr<TaskCache>& slot = tasks_[task.id()];
  if (slot == nullptr) {
    slot = std::make_unique<TaskCache>();
  }
  return *slot;
}

void ExecEngine::DropTask(uint32_t task_id) {
  std::lock_guard<std::mutex> lock(tasks_mu_);
  tasks_.erase(task_id);
}

void ExecEngine::InvalidateAll(std::string_view reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ClearLocked();
  }
  if (TraceEnabled()) {
    TraceInstant("engine.invalidate", reason);
  }
}

void ExecEngine::ClearLocked() {
  pages_.clear();
  cached_blocks_ = 0;
  // Bumped under mu_, so a page whose creation epoch is current is in pages_.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  GetEngineMetrics().invalidations->Add(1);
}

size_t ExecEngine::CachedBlocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_blocks_;
}

std::shared_ptr<ExecEngine::DecodedPage> ExecEngine::PageFor(FrameId frame) {
  // Physical frame identity + reuse generation: two tasks mapping the same
  // image frames share one page; a recycled frame's bumped generation
  // retires its stale page.
  uint64_t key = static_cast<uint64_t>(frame) << 32 | kernel_.phys().FrameGen(frame);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(key);
  if (it != pages_.end()) {
    return it->second;
  }
  if (pages_.size() >= kMaxCachedPages) {
    ClearLocked();
  }
  auto page = std::make_shared<DecodedPage>(epoch_.load(std::memory_order_relaxed));
  pages_.insert_or_assign(key, page);
  return page;
}

Result<const ExecEngine::Block*> ExecEngine::LookupBlock(Task& task, TaskCache& st, uint32_t pc) {
  AddressSpace& space = task.space();
  uint64_t sepoch = space.map_epoch();
  uint64_t eepoch = epoch_.load(std::memory_order_acquire);
  if (st.itlb_engine_epoch != eepoch) {
    // A clear dropped the shared pages; let go of them too, so the page and
    // block bounds also bound what tasks retain. Only between blocks, so no
    // executing block is freed. (A map-epoch flush stays O(1).)
    for (TaskCache::ItlbEntry& e : st.itlb) {
      e.decoded.reset();
    }
  }
  if (st.itlb_space_epoch != sepoch || st.itlb_engine_epoch != eepoch) {
    ++st.itlb_flush;
    st.itlb_space_epoch = sepoch;
    st.itlb_engine_epoch = eepoch;
  }
  uint32_t offset = pc & kPageMask;
  if (offset % kInsnSize != 0) {
    // Misaligned: the 8-byte fetch may cross a page, and slots hold aligned
    // instructions only; single-step it.
    return static_cast<const Block*>(nullptr);
  }
  uint32_t vpage = pc / kPageSize;
  TaskCache::ItlbEntry& entry = st.itlb[TaskCache::ItlbIndex(vpage)];
  if (entry.page != vpage || entry.flush != st.itlb_flush) {
    AddressSpace::PageLookup pl;
    if (!space.LookupPage(pc, &pl) || !pl.present || (pl.prot & kProtExec) == 0) {
      // Unmapped, non-executable, or demand-zero text: take the exact fetch
      // CpuStep would issue so the fault is billed — and any fault-injection
      // plan evaluated — exactly once, with the legacy error message.
      uint8_t raw[kInsnSize];
      OMOS_TRY_VOID(space.FetchBytes(pc, raw, kInsnSize));
      // The fetch resolved a fault (and bumped the map epoch); re-probe.
      ++st.itlb_flush;
      st.itlb_space_epoch = space.map_epoch();
      if (!space.LookupPage(pc, &pl) || !pl.present) {
        return static_cast<const Block*>(nullptr);
      }
    }
    if ((pl.prot & kProtWrite) != 0) {
      // Writable text can change under a cached block; never cache it.
      return static_cast<const Block*>(nullptr);
    }
    ++st.page_lookups;
    entry.page = vpage;
    entry.touched = false;
    entry.flush = st.itlb_flush;
    entry.data = pl.data;
    entry.decoded = PageFor(pl.frame);
  }
  std::atomic<const Block*>& slot = entry.decoded->slots[offset / kInsnSize];
  if (const Block* block = slot.load(std::memory_order_acquire)) {
    ++st.block_hits;
    return block;
  }

  TraceSpan span("engine.decode");
  auto built = std::make_unique<Block>();
  for (uint32_t off = offset; off + kInsnSize <= kPageSize; off += kInsnSize) {
    Result<Instruction> insn = DecodeInsn(entry.data + off);
    if (!insn.ok()) {
      if (built->insns.empty()) {
        // The faulting instruction is the block head: surface DecodeInsn's
        // error exactly as CpuStep would.
        return insn.error();
      }
      break;  // end the block before the undecodable instruction
    }
    built->insns.push_back(DecodedInsn{insn->op, insn->r1, insn->r2, insn->r3, insn->imm});
    switch (insn->op) {
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
      case Opcode::kJmp:
      case Opcode::kBr:
      case Opcode::kJmpR:
      case Opcode::kCall:
      case Opcode::kCallPc:
      case Opcode::kCallR:
      case Opcode::kRet:
      case Opcode::kSys:
      case Opcode::kHalt:
        off = kPageSize;  // control flow (or exit) ends the block
        break;
      default:
        break;
    }
  }
  if (span.armed()) {
    span.SetDetail(StrCat(Hex32(pc), " ", built->insns.size(), " insns"));
  }
  const Block* published = nullptr;
  if (!slot.compare_exchange_strong(published, built.get(), std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    ++st.block_hits;  // another task published this block first; ours is freed
    return published;
  }
  published = built.release();  // the page owns it now
  GetEngineMetrics().blocks_decoded->Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  // Count it only if no clear dropped the page since it was looked up.
  if (entry.decoded->epoch == epoch_.load(std::memory_order_relaxed) &&
      ++cached_blocks_ > kMaxCachedBlocks) {
    ClearLocked();
  }
  return published;
}

template <bool kExact>
Result<void> ExecEngine::ExecuteBlock(Task& task, TaskCache& st, const Block& block,
                                      uint64_t budget, uint64_t* executed) {
  AddressSpace& space = task.space();
  uint32_t pc = task.pc();
  uint32_t next = 0;
  const DecodedInsn* d = block.insns.data();
  const DecodedInsn* dend = d + block.insns.size();
  if constexpr (!kExact) {
    // Run() chose fast mode: no profiler and the whole block fits in the
    // budget, so retire it now; a mid-block exit gives back the rest.
    task.RetireInstructions(block.insns.size());
    *executed += block.insns.size();
  }
  // A mid-block exit (divide by zero, failed slow-path access) leaves the
  // faulting instruction retired and pc past it, as CpuStep does.
  auto fail = [&](Error error) -> Result<void> {
    task.set_pc(next);
    if constexpr (!kExact) {
      uint64_t unreached = static_cast<uint64_t>(dend - d) - 1;
      task.UnretireInstructions(unreached);
      *executed -= unreached;
    }
    return error;
  };
  auto r = [&](uint8_t i) { return task.reg(i); };
  auto w = [&](uint8_t i, uint32_t v) { task.set_reg(i, v); };
  // Software TLB probe for a `size`-byte access that must not cross a page:
  // the frame byte pointer on a hit, or nullptr for the slow path. The hit
  // is a page compare and a permission bit; the epoch was checked at block
  // entry and is re-checked after each slow-path access (sync), whose fault
  // resolution — a demand-zero fill or CoW break — is the only way the map
  // changes inside a block.
  auto sync = [&] { st.SyncTlb(space.map_epoch()); };
  sync();
  auto tlb = [&](uint32_t addr, uint32_t size, uint8_t need) -> uint8_t* {
    uint32_t page = addr / kPageSize;
    TaskCache::TlbEntry& e = st.tlb[page & (TaskCache::kTlbEntries - 1)];
    if (e.page == page && (e.perm & need) != 0 && (addr & kPageMask) <= kPageSize - size) {
      ++st.tlb_hits;
      return e.data + (addr & kPageMask);
    }
    return st.TlbFill(space, addr, size, need);
  };

// Per-instruction prologue. Exact mode replicates CpuStep's order: budget
// stop at the boundary (pc already points at the unexecuted instruction),
// retire count, profiler sample at the pre-execution pc, pc := pc_next.
// Fast mode only computes pc_next; every exit stores the task's pc.
#define OMOS_PROLOGUE()                                                      \
  do {                                                                       \
    next = pc + kInsnSize;                                                   \
    if constexpr (kExact) {                                                  \
      if (*executed >= budget) {                                             \
        return OkResult();                                                   \
      }                                                                      \
      task.CountInstruction();                                               \
      ++*executed;                                                           \
      if (CycleProfiler::enabled() &&                                        \
          (task.instructions_retired() & CycleProfiler::mask()) == 0) {      \
        CycleProfiler::RecordSample(task.id(), pc);                          \
      }                                                                      \
      task.set_pc(next);                                                     \
    }                                                                        \
  } while (0)

#if OMOS_ENGINE_DIRECT_THREADED
  // Label table indexed by Opcode (kCount excluded: DecodeInsn rejects it).
  static const void* const kOps[] = {
      &&L_kHalt, &&L_kNop,  &&L_kMovI,  &&L_kMov,   &&L_kLea,  &&L_kLeaPc, &&L_kAdd,
      &&L_kSub,  &&L_kMul,  &&L_kDiv,   &&L_kMod,   &&L_kAnd,  &&L_kOr,    &&L_kXor,
      &&L_kShl,  &&L_kShr,  &&L_kAddI,  &&L_kLd,    &&L_kSt,   &&L_kLdB,   &&L_kStB,
      &&L_kLdPc, &&L_kBeq,  &&L_kBne,   &&L_kBlt,   &&L_kBge,  &&L_kBltu,  &&L_kBgeu,
      &&L_kJmp,  &&L_kBr,   &&L_kJmpR,  &&L_kCall,  &&L_kCallPc, &&L_kCallR, &&L_kRet,
      &&L_kPush, &&L_kPop,  &&L_kSys};
  static_assert(static_cast<size_t>(Opcode::kCount) == 38, "keep kOps in sync with Opcode");

#define OMOS_OP(name) L_##name
#define OMOS_NEXT()                                                          \
  do {                                                                       \
    if (++d == dend) {                                                       \
      task.set_pc(next);                                                     \
      return OkResult();                                                     \
    }                                                                        \
    pc = next;                                                               \
    OMOS_PROLOGUE();                                                         \
    goto* kOps[static_cast<size_t>(d->op)];                                  \
  } while (0)

  OMOS_PROLOGUE();
  goto* kOps[static_cast<size_t>(d->op)];
#else
#define OMOS_OP(name) case Opcode::name
#define OMOS_NEXT() break

  for (;;) {
    OMOS_PROLOGUE();
    switch (d->op) {
#endif

  OMOS_OP(kHalt):
    task.set_pc(next);
    task.Exit(0);
    return OkResult();
  OMOS_OP(kNop):
    OMOS_NEXT();
  OMOS_OP(kMovI):
  OMOS_OP(kLea):
    w(d->r1, d->imm);
    OMOS_NEXT();
  OMOS_OP(kLeaPc):
    w(d->r1, next + d->imm);
    OMOS_NEXT();
  OMOS_OP(kMov):
    w(d->r1, r(d->r2));
    OMOS_NEXT();
  OMOS_OP(kAdd):
    w(d->r1, r(d->r2) + r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kSub):
    w(d->r1, r(d->r2) - r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kMul):
    w(d->r1, r(d->r2) * r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kDiv):
    if (r(d->r3) == 0) {
      return fail(Err(ErrorCode::kExecFault, StrCat("divide by zero at ", Hex32(pc))));
    }
    w(d->r1, static_cast<uint32_t>(static_cast<int32_t>(r(d->r2)) /
                                   static_cast<int32_t>(r(d->r3))));
    OMOS_NEXT();
  OMOS_OP(kMod):
    if (r(d->r3) == 0) {
      return fail(Err(ErrorCode::kExecFault, StrCat("mod by zero at ", Hex32(pc))));
    }
    w(d->r1, static_cast<uint32_t>(static_cast<int32_t>(r(d->r2)) %
                                   static_cast<int32_t>(r(d->r3))));
    OMOS_NEXT();
  OMOS_OP(kAnd):
    w(d->r1, r(d->r2) & r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kOr):
    w(d->r1, r(d->r2) | r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kXor):
    w(d->r1, r(d->r2) ^ r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kShl):
    w(d->r1, r(d->r2) << (r(d->r3) & 31));
    OMOS_NEXT();
  OMOS_OP(kShr):
    w(d->r1, r(d->r2) >> (r(d->r3) & 31));
    OMOS_NEXT();
  OMOS_OP(kAddI):
    w(d->r1, r(d->r2) + d->imm);
    OMOS_NEXT();
  OMOS_OP(kLd): {
    uint32_t addr = r(d->r2) + d->imm;
    if (const uint8_t* p = tlb(addr, 4, TaskCache::kTlbRead)) {
      w(d->r1, Load32(p));
    } else {
      Result<uint32_t> v = space.Read32(addr);
      if (!v.ok()) {
        return fail(v.error());
      }
      sync();
      w(d->r1, *v);
    }
    OMOS_NEXT();
  }
  OMOS_OP(kSt): {
    uint32_t addr = r(d->r2) + d->imm;
    if (uint8_t* p = tlb(addr, 4, TaskCache::kTlbWrite)) {
      Store32(p, r(d->r1));
    } else {
      Result<void> res = space.Write32(addr, r(d->r1));
      if (!res.ok()) {
        return fail(res.error());
      }
      sync();
    }
    OMOS_NEXT();
  }
  OMOS_OP(kLdB): {
    uint32_t addr = r(d->r2) + d->imm;
    if (const uint8_t* p = tlb(addr, 1, TaskCache::kTlbRead)) {
      w(d->r1, *p);
    } else {
      Result<uint8_t> v = space.Read8(addr);
      if (!v.ok()) {
        return fail(v.error());
      }
      sync();
      w(d->r1, *v);
    }
    OMOS_NEXT();
  }
  OMOS_OP(kStB): {
    uint32_t addr = r(d->r2) + d->imm;
    if (uint8_t* p = tlb(addr, 1, TaskCache::kTlbWrite)) {
      *p = static_cast<uint8_t>(r(d->r1));
    } else {
      Result<void> res = space.Write8(addr, static_cast<uint8_t>(r(d->r1)));
      if (!res.ok()) {
        return fail(res.error());
      }
      sync();
    }
    OMOS_NEXT();
  }
  OMOS_OP(kLdPc): {
    uint32_t addr = next + d->imm;
    if (const uint8_t* p = tlb(addr, 4, TaskCache::kTlbRead)) {
      w(d->r1, Load32(p));
    } else {
      Result<uint32_t> v = space.Read32(addr);
      if (!v.ok()) {
        return fail(v.error());
      }
      sync();
      w(d->r1, *v);
    }
    OMOS_NEXT();
  }
  OMOS_OP(kBeq):
    task.set_pc(r(d->r1) == r(d->r2) ? next + d->imm : next);
    return OkResult();
  OMOS_OP(kBne):
    task.set_pc(r(d->r1) != r(d->r2) ? next + d->imm : next);
    return OkResult();
  OMOS_OP(kBlt):
    task.set_pc(static_cast<int32_t>(r(d->r1)) < static_cast<int32_t>(r(d->r2)) ? next + d->imm
                                                                                : next);
    return OkResult();
  OMOS_OP(kBge):
    task.set_pc(static_cast<int32_t>(r(d->r1)) >= static_cast<int32_t>(r(d->r2)) ? next + d->imm
                                                                                 : next);
    return OkResult();
  OMOS_OP(kBltu):
    task.set_pc(r(d->r1) < r(d->r2) ? next + d->imm : next);
    return OkResult();
  OMOS_OP(kBgeu):
    task.set_pc(r(d->r1) >= r(d->r2) ? next + d->imm : next);
    return OkResult();
  OMOS_OP(kJmp):
    task.set_pc(d->imm);
    return OkResult();
  OMOS_OP(kBr):
    task.set_pc(next + d->imm);
    return OkResult();
  OMOS_OP(kJmpR):
    task.set_pc(r(d->r1));
    return OkResult();
  OMOS_OP(kCall):
    w(kRegLr, next);
    task.set_pc(d->imm);
    return OkResult();
  OMOS_OP(kCallPc):
    w(kRegLr, next);
    task.set_pc(next + d->imm);
    return OkResult();
  OMOS_OP(kCallR):
    w(kRegLr, next);
    task.set_pc(r(d->r1));
    return OkResult();
  OMOS_OP(kRet):
    task.set_pc(r(kRegLr));
    return OkResult();
  OMOS_OP(kPush): {
    uint32_t sp = r(kRegSp) - 4;
    w(kRegSp, sp);
    if (uint8_t* p = tlb(sp, 4, TaskCache::kTlbWrite)) {
      Store32(p, r(d->r1));
    } else {
      Result<void> res = space.Write32(sp, r(d->r1));
      if (!res.ok()) {
        return fail(res.error());
      }
      sync();
    }
    OMOS_NEXT();
  }
  OMOS_OP(kPop): {
    uint32_t sp = r(kRegSp);
    uint32_t v;
    if (const uint8_t* p = tlb(sp, 4, TaskCache::kTlbRead)) {
      v = Load32(p);
    } else {
      Result<uint32_t> res = space.Read32(sp);
      if (!res.ok()) {
        return fail(res.error());
      }
      sync();
      v = *res;
    }
    w(d->r1, v);
    w(kRegSp, sp + 4);
    OMOS_NEXT();
  }
  OMOS_OP(kSys):
    // The syscall may remap, exit, or request a safepoint; end the block.
    task.set_pc(next);
    return kernel_.Syscall(task, d->imm);

#if !OMOS_ENGINE_DIRECT_THREADED
      case Opcode::kCount:
        return fail(Err(ErrorCode::kExecFault, StrCat("illegal opcode at ", Hex32(pc))));
    }
    if (++d == dend) {
      task.set_pc(next);
      return OkResult();
    }
    pc = next;
  }
#endif

#undef OMOS_OP
#undef OMOS_NEXT
#undef OMOS_PROLOGUE
}

Result<void> ExecEngine::Run(Task& task, uint64_t budget, uint64_t* executed) {
  TaskCache& st = StateFor(task);
  EngineMetrics& metrics = GetEngineMetrics();
  struct FlushCounts {
    TaskCache& st;
    EngineMetrics& metrics;
    ~FlushCounts() {
      if (st.tlb_hits != 0) {
        metrics.tlb_hits->Add(st.tlb_hits);
      }
      if (st.tlb_misses != 0) {
        metrics.tlb_misses->Add(st.tlb_misses);
      }
      if (st.block_hits != 0) {
        metrics.block_hits->Add(st.block_hits);
      }
      if (st.page_lookups != 0) {
        metrics.page_lookups->Add(st.page_lookups);
      }
      st.tlb_hits = st.tlb_misses = st.block_hits = st.page_lookups = 0;
    }
  } flush{st, metrics};

  AddressSpace& space = task.space();
  while (task.state() == TaskState::kRunnable && *executed < budget &&
         !task.safepoint_pending()) {
    uint32_t pc = task.pc();
    uint32_t vpage = pc / kPageSize;
    TaskCache::ItlbEntry& entry = st.itlb[TaskCache::ItlbIndex(vpage)];
    // Warm dispatch, inline: both epochs current, an aligned pc, a live
    // instruction-TLB entry for its page and a published block slot.
    // Anything else goes to LookupBlock, which flushes, fills or decodes.
    const Block* block = nullptr;
    if (entry.page == vpage && entry.flush == st.itlb_flush && pc % kInsnSize == 0 &&
        st.itlb_space_epoch == space.map_epoch() &&
        st.itlb_engine_epoch == epoch_.load(std::memory_order_acquire)) {
      block = entry.decoded->slots[(pc & kPageMask) / kInsnSize].load(std::memory_order_acquire);
    }
    if (block != nullptr) {
      ++st.block_hits;
    } else {
      OMOS_TRY(block, LookupBlock(task, st, pc));
      if (block == nullptr) {
        // Uncacheable pc (page-crossing fetch, writable or still-absent
        // text): single-step the legacy way.
        OMOS_TRY_VOID(CpuStep(kernel_, task));
        ++*executed;
        continue;
      }
    }
    // First-touch accounting for the block's text page, once per entry
    // fill. CpuStep checks this per instruction, but a block never crosses
    // a page, so billing at block entry is identical (the loop guarantees
    // at least one instruction of budget, matching CpuStep's
    // bill-on-first-instruction); the flag only skips re-probing the set.
    if (!entry.touched) {
      entry.touched = true;
      if (task.TouchTextPage(vpage)) {
        task.BillSys(kernel_.costs().page_fault);
      }
    }
    if (!CycleProfiler::enabled() && budget - *executed >= block->insns.size()) {
      OMOS_TRY_VOID(ExecuteBlock<false>(task, st, *block, budget, executed));
    } else {
      OMOS_TRY_VOID(ExecuteBlock<true>(task, st, *block, budget, executed));
    }
  }
  return OkResult();
}

}  // namespace omos
