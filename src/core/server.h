// OmosServer — the persistent object/meta-object server (§3).
//
// The server owns: the hierarchical namespace of meta-objects and fragments,
// the blueprint evaluator (m-graph execution), the address-constraint
// solver, and the image cache. Program loading is a special case of class
// instantiation: clients ask for a meta-object by name (plus an optional
// specialization) and get back mapped segments and an entry point.
//
// Exec paths (§5):
//  * BootstrapExec   — models `#! /bin/omos`: a tiny bootstrap program plus
//                      one IPC round trip to the server.
//  * IntegratedExec  — OMOS wired into the kernel's exec(): no bootstrap
//                      load, no IPC round trip (the OSF/1 configuration that
//                      wins by 56% in Table 1).
// Both end with the server mapping cached segments into the task.
#ifndef OMOS_SRC_CORE_SERVER_H_
#define OMOS_SRC_CORE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cache.h"
#include "src/core/constraints.h"
#include "src/core/namespace.h"
#include "src/core/sexpr.h"
#include "src/ipc/channel.h"
#include "src/ipc/message.h"
#include "src/linker/link.h"
#include "src/linker/module.h"
#include "src/objfmt/archive.h"
#include "src/os/kernel.h"
#include "src/os/loader.h"
#include "src/store/image_store.h"
#include "src/support/result.h"
#include "src/upgrade/upgrade.h"

namespace omos {

// How an instantiation is specialized (§3.4). Well-known names:
//   ""                  — meta-object default (self-contained)
//   "lib-constrained"   — fixed-address self-contained library (§4.1)
//   "lib-dynamic"       — partial-image client stubs (§4.2)
//   "lib-dynamic-impl"  — the demand-loaded library implementation (§4.2)
//   "monitor"           — interpose call-logging wrappers (§4.1, §6)
//   "reorder"           — lay out routines by recorded usage (§4.1)
struct Specialization {
  std::string name;
  PlacementHints hints;

  // Stable string form used in cache keys and IPC ("lib-constrained;T=0x...").
  std::string ToKeyString() const;
  static Specialization FromKeyString(std::string_view text);
};

struct OmosServerConfig {
  SolverArenas arenas;
  uint64_t cache_capacity_bytes = 256ull << 20;
  // Extra user cycles modelling the bootstrap program's own execution.
  uint64_t bootstrap_user_cycles = 300;
};

// Concurrency model (PR 3): many worker threads may call Instantiate /
// GetOrRebuild / ServeMessage / the exec paths at once. The cache and the
// namespace synchronize themselves; the server's own state is guarded by a
// strict lock hierarchy (acquire downward only, release before recursing
// into Instantiate):
//
//   admin_mu_    — serializes namespace mutations (Define*, AddFragment,
//                  Restore, OptimizePlacements, prelink repair)
//   monitor_mu_  — monitor_names_ / monitor_counts_ / preferred_order_
//   solver_mu_   — every ConstraintSolver call
//   upgrade_mu_  — the live-upgrade job (phase, pending tasks, plan)
//   runtimes_mu_ — runtimes_ (per-task stub/dyn state)
//   kernel_mu_   — kernel and task mutation (CreateTask, mapping, billing,
//                  SimFs writes); never held across a build
//
// Cache misses are single-flight: concurrent Instantiates of one key elect
// a leader via ImageCache::JoinBuild and everyone shares its image. Callers
// that use a returned CachedImage* concurrently with possible eviction
// (redefinition under load) must hold an ImageCache::ReadLease across the
// call and every use of the pointer; the request paths below do.
//
// `solver()`, `cache()` and `conflicts()` hand out raw references for tests
// and tools — use them only while no worker threads are in flight.
class OmosServer {
 public:
  using Config = OmosServerConfig;

  OmosServer(Kernel& kernel, Config config = Config());
  ~OmosServer();

  Kernel& kernel() { return *kernel_; }

  // ---- Namespace administration --------------------------------------------
  // Define or redefine a meta-object. Redefinition invalidates every cached
  // image built from the old blueprint ("a library fix is instantly
  // incorporated into all clients", §2.1): every image whose recorded
  // inputs include the path is evicted, and its address placement
  // released, so the next instantiation rebuilds against the new version.
  Result<void> DefineMeta(std::string_view path, std::string_view blueprint);
  Result<void> DefineLibrary(std::string_view path, std::string_view blueprint);
  Result<void> AddFragment(std::string_view path, ObjectFile object);
  // Registers each member at `<dir>/<member-name>` and a meta-object at
  // `<dir>` merging all of them.
  Result<void> AddArchive(std::string_view dir, const Archive& archive);
  std::vector<std::string> ListNamespace(std::string_view path) const {
    return namespace_.List(path);
  }
  const OmosNamespace& name_space() const { return namespace_; }

  // ---- Instantiation --------------------------------------------------------
  // Instantiate `path` under `spec`. On a cache miss the construction work
  // (parsing, module ops, linking) is performed and its simulated cost is
  // added to `*work_cycles` (may be null). Cache hits add only lookup cost.
  Result<const CachedImage*> Instantiate(const std::string& path, const Specialization& spec,
                                         uint64_t* work_cycles);

  // Evaluate an anonymous blueprint into a Module (library dependencies are
  // resolved self-contained and merged as externals are not possible here,
  // so blueprints passed to this must be closed or rely on merge operands).
  Result<Module> EvaluateBlueprint(std::string_view text, uint64_t* work_cycles = nullptr);

  // ---- Exec paths -----------------------------------------------------------
  Result<TaskId> BootstrapExec(const std::string& path, std::vector<std::string> args,
                               const Specialization& spec = {});
  Result<TaskId> IntegratedExec(const std::string& path, std::vector<std::string> args,
                                const Specialization& spec = {});
  // Fleet-wide prelink exec: the warm path with the cached image's layout
  // stamp checked. When this exec found the image already linked (a cache
  // hit or a store adoption) and its layout_generation still matches the
  // solver, the image maps with zero per-exec relocation and the lookup
  // bills `prelink_lookup` (< omos_cache_lookup). Otherwise it bills like
  // IntegratedExec; a cached image whose stamp is behind also queues the
  // background re-link on the idle lane.
  Result<TaskId> PrelinkedExec(const std::string& path, std::vector<std::string> args);
  // `#! /bin/omos <meta-path>` interpreter-style exec from a SimFs file.
  Result<TaskId> ExecFile(const std::string& fs_path, std::vector<std::string> args,
                          bool integrated);

  // §5: "/bin, for example, can become a 'filesystem' backed only by OMOS".
  // Writes a `#!omos <meta>` interpreter file into the kernel's SimFs for
  // every meta-object under `namespace_dir`, so ordinary path-based exec
  // reaches the server. Returns the number of entries exported.
  Result<int> ExportNamespaceToFs(std::string_view namespace_dir, std::string_view fs_dir);

  // Map a cached program image (plus its constrained library deps) into a
  // task, pin its lazy deps and register lazy-stub state. Returns the entry
  // address. Maps nothing and fails with kUnavailable when a dependency is
  // no longer the version the program linked against (LibDep::Matches):
  // the program is stale and must be instantiated again.
  Result<uint32_t> MapProgram(Task& task, const CachedImage& program);

  // Drop per-task runtime state (call when a task is destroyed).
  void ReleaseTask(TaskId id);

  // ---- Live upgrade (src/upgrade/, docs/upgrade.md) -------------------------
  // Hot-patch `path` (a lib-dynamic library) to `new_blueprint` without
  // restarting its clients: the new version links in the background (idle
  // lane — no foreground stall), every live task's stub slots are repointed
  // to it, frames still executing old code migrate OSR-style at the next
  // safepoint, and the old version's frames are reclaimed once nothing
  // references them. Constrained (non-lazy) clients pick the new version up
  // at their next Instantiate, exactly like an ordinary redefinition.
  // Returns the upgrade id; kUnavailable while another upgrade is in flight.
  Result<uint64_t> BeginUpgrade(const std::string& path, const std::string& new_blueprint);

  struct UpgradeStatus {
    uint64_t id = 0;
    std::string path;
    UpgradePhase phase = UpgradePhase::kIdle;
    size_t tasks_pending = 0;
    std::string error;
    bool terminal() const {
      return phase == UpgradePhase::kDone || phase == UpgradePhase::kAborted;
    }
  };
  UpgradeStatus UpgradeStatusNow() const;
  // Drive the upgrade as far as it can go from this thread: run queued
  // background work and, when every task has migrated, perform the
  // reclamation. Tasks still running old frames on other threads migrate on
  // their own threads (safepoints); callers poll until terminal().
  UpgradeStatus DrainUpgrade();

  // ---- Dynamic loading (dld-style, §5) --------------------------------------
  struct DynLoadResult {
    uint32_t text_base = 0;
    std::vector<uint32_t> symbol_values;
  };
  Result<DynLoadResult> DynamicLoad(Task& task, const std::string& blueprint_or_path,
                                    const std::vector<std::string>& symbols);

  // Dynamic unlinking (paper §9: dld offers it; "since OMOS retains access
  // to the symbol table and relocation information for loaded modules,
  // unlinking support could be added" — here it is). Unmaps a class
  // previously loaded into `task` by DynamicLoad, identified by the text
  // base DynamicLoad returned. The cached image survives for other tasks.
  Result<void> DynamicUnload(Task& task, uint32_t text_base);

  // ---- Monitoring / reordering (§4.1) ---------------------------------------
  // Call counts recorded for a "monitor"-specialized instantiation of `path`.
  Result<std::vector<std::pair<std::string, uint64_t>>> MonitorCounts(
      const std::string& path) const;
  // Record the preferred routine order for `path` from monitor counts; the
  // "reorder" specialization consumes it.
  Result<void> DerivePreferredOrder(const std::string& path);
  bool HasPreferredOrder(const std::string& path) const;

  // ---- Idle-time background optimization (§4.1) -----------------------------
  // "During idle periods, OMOS may re-link the module using the profile
  // information gathered in monitoring mode." When enabled, the server
  // counts warm hits per cached image; once an image with a recorded
  // routine order (DerivePreferredOrder) reaches `hot_threshold` hits, a
  // low-priority job is queued on the shared pool's background lane — it
  // runs only when no foreground request is waiting. The job re-links the
  // image under the "reorder" specialization and registers an alias; the
  // next Instantiate of the original key atomically swaps to the optimized
  // image. The job also speculatively re-instantiates the hot image's
  // declared library dependencies so they are warm in the cache.
  // Redefinition of the underlying path drops the alias with the images.
  void EnableBackgroundOptimizer(uint64_t hot_threshold = 8);

  // Runs queued idle-time jobs on the caller and waits for any a worker
  // already picked up; returns how many the caller ran. Gives tests (and
  // shutdown) a deterministic "all background work done" point.
  size_t DrainBackgroundWork();

  // ---- Fleet-wide prelink (§4.1 feedback loop) ------------------------------
  // Turn on prelink repair: placement conflicts observed during builds
  // trigger a recorded namespace re-solve plus a background re-link of every
  // image whose home moved (idle lane), so prelinked execs converge back to
  // 100% zero-relocation without blocking any foreground request.
  void EnablePrelink();
  bool prelink_enabled() const { return prelink_enabled_.load(std::memory_order_relaxed); }
  // Instantiate every executable meta-object under `prefix` (default spec)
  // and arm prelink repair. Returns the number of images instantiated.
  Result<int> PrelinkNamespace(const std::string& prefix);

  // ---- Crash / recovery -----------------------------------------------------
  // Serialize the server's durable state — the namespace (blueprints and
  // fragments), preferred routine orders, and the constraint solver's
  // placement assignments — into a self-checking text snapshot. The image
  // cache is deliberately NOT serialized here: a restarted server
  // repopulates it on demand — from the attached ImageStore when one holds
  // a matching record (no re-link), or by rebuilding from the blueprint.
  // Because the placements are restored, both paths produce images
  // byte-identical (same bases, same entry points) to the pre-crash
  // counterparts. Snapshot()/Restore() are the inner codec of the
  // store-backed restart (PersistTo/RestoreFromStore).
  std::string Snapshot() const;
  // Repopulate a (typically fresh) server from Snapshot() output. Damaged
  // snapshots are rejected with kCorrupted before any state is applied.
  Result<void> Restore(std::string_view snapshot);

  // ---- Persistent image store (PR 6) ----------------------------------------
  // Attach an opened ImageStore as the image cache's second tier: cache
  // misses probe the store by (cache key, content fingerprint) and adopt
  // hits without re-linking; successful cold builds are published back.
  // Call at startup, before serving traffic; the store must outlive the
  // server. Pass nullptr to detach.
  void AttachStore(ImageStore* store) { store_ = store; }
  ImageStore* store() const { return store_; }
  // Durably persist Snapshot() into `store` (tmp + fsync + atomic rename).
  Result<void> PersistTo(ImageStore& store);
  // Store-backed restart: load the persisted snapshot out of `store`,
  // Restore() it, and attach the store so instantiations re-use the
  // persisted images. kNotFound when the store holds no snapshot yet.
  Result<void> RestoreFromStore(ImageStore& store);

  // ---- Administration ---------------------------------------------------------
  // Feed recorded placement conflicts back into the constraint system
  // (§4.1, "this could be done fully automatically"): re-pack every known
  // object and evict cached images whose addresses changed; they rebuild at
  // their new homes (at once under prelink). Returns the number evicted.
  int OptimizePlacements();

  // Debugger support (§4.1: "we plan to enhance gdb to interface directly
  // with OMOS"): the full symbol table visible in `task` — its program
  // image plus every library image mapped so far.
  Result<std::vector<ImageSymbol>> SymbolsForTask(TaskId id) const;

  // Symbol-level profile of the CycleProfiler samples attributed to `id`
  // (0 = every task with runtime state), resolved through the cached
  // images' symbol indexes. Human-readable text; see docs/observability.md.
  Result<std::string> ProfileForTask(TaskId id) const;

  // ---- IPC ------------------------------------------------------------------
  // Which transport exec-protocol clients (BootstrapExec, MakeChannel)
  // speak. The cost shapes differ by ~20x (docs/perf.md#transports):
  //   kPort   — message queue, flat ipc_round_trip per trip (the default;
  //             the paper's measured configuration)
  //   kStream — byte stream, ipc_round_trip base + per-byte framing
  //   kRing   — doors-style shared-memory ring, ring_handoff + per-slot
  enum class ExecTransport { kPort, kStream, kRing };
  void SetExecTransport(ExecTransport transport) {
    exec_transport_.store(transport, std::memory_order_relaxed);
  }
  ExecTransport exec_transport() const {
    return exec_transport_.load(std::memory_order_relaxed);
  }

  // Monotonic namespace generation. Every mutation that can change what
  // Instantiate returns (Define*, AddFragment/Archive, Restore, a layout
  // move) advances it once before it updates the namespace and once after
  // it has evicted what the update made stale, so it is odd while one is in
  // progress. A cold build reads it before it evaluates and caches or
  // publishes its image only if it has not moved since. Piggybacked on
  // every IPC reply.
  uint64_t namespace_generation() const {
    return namespace_generation_.load(std::memory_order_acquire);
  }

  // Handles single-message frames AND batch frames (EncodeRequestBatch):
  // batch members execute in parallel on the shared pool and their replies
  // come back in one frame, so a batch costs its clients one round trip.
  std::vector<uint8_t> ServeMessage(const std::vector<uint8_t>& request_bytes);
  // Request executor: decode + handle + encode on the shared thread pool, so
  // multiple clients' Instantiate/Get calls proceed in parallel. `done` is
  // invoked with the encoded reply on a pool thread (or inline when the
  // pool has no workers). Safe to call from many threads.
  void ServeAsync(std::vector<uint8_t> request_bytes,
                  std::function<void(std::vector<uint8_t>)> done);
  // A client channel bound to this server over exec_transport(), billing
  // that transport's cost shape from the kernel's cost model.
  Channel MakeChannel();
  // Same, with an explicit transport choice (benches compare all three).
  Channel MakeChannel(ExecTransport transport);

  const CacheStats& cache_stats() const { return cache_.stats(); }
  const std::vector<ConflictRecord>& conflicts() const { return solver_.conflicts(); }
  ConstraintSolver& solver() { return solver_; }
  ImageCache& cache() { return cache_; }

 private:
  // A library mention picked up while evaluating a blueprint.
  struct LibraryUse {
    std::string path;
    Specialization spec;
  };
  // The value lattice of blueprint evaluation.
  struct EvalValue {
    std::optional<Module> module;
    std::vector<LibraryUse> libs;
    PlacementHints hints;
  };
  struct BuildTracker {
    uint64_t work = 0;
    // Namespace generation read before the build evaluated anything (see
    // BuildStamp); the image is cached only if it still matches.
    uint64_t stamp = 0;
    std::set<std::string> inputs;  // becomes CachedImage::inputs
  };
  struct TaskRuntime {
    struct Slot {
      uint32_t slot_addr = 0;
      std::string lib_path;
      std::string symbol;
    };
    struct DynRegion {
      uint32_t text_base = 0;
      uint32_t data_base = 0;
      bool has_text = false;
      bool has_data = false;
    };
    std::string program_key;
    std::vector<Slot> slots;
    // The lazy deps' images in the versions the program linked against,
    // pinned at exec by cache key; the first call through a slot maps it.
    std::map<std::string, std::shared_ptr<const CachedImage>> lazy_libs;
    // Library images mapped into the task after exec (lazy impls, upgrade
    // versions, degradation stubs), by cache key. The task pins the version
    // it mapped: later lazy slots resolve in it, not by looking the key up
    // again.
    std::map<std::string, std::shared_ptr<const CachedImage>> mapped_libs;
    std::vector<DynRegion> dyn_loaded;
  };

  Result<EvalValue> Eval(const Sexpr& expr, BuildTracker& tracker, int depth);
  Result<EvalValue> EvalName(const std::string& name, BuildTracker& tracker, int depth);
  Result<Module> RequireModule(EvalValue value, std::string_view op) const;
  static Result<Module> MergeValues(std::vector<EvalValue> values, EvalValue& out,
                                    bool override_mode);

  // Build the full (merged) module for a path, folding its libraries in —
  // used by monitor/reorder monolithic instantiations.
  Result<Module> BuildMonolithicModule(const std::string& path, BuildTracker& tracker);

  // Instantiate that also reports whether this call linked the image
  // (false for a cache hit, a single-flight follower or a store adoption).
  Result<const CachedImage*> Instantiate(const std::string& path, const Specialization& spec,
                                         uint64_t* work_cycles, bool* linked);

  // How an exec bills its image lookup: always omos_cache_lookup, or
  // prelink_lookup on a stamp-current hit (see PrelinkedExec).
  enum class ExecLookup { kCache, kPrelink };
  // The one exec body: lease → Instantiate → bill work + lookup →
  // MapProgram into `task`. A program whose deps moved on is evicted and
  // instantiated again, once. Returns the entry address.
  Result<uint32_t> LoadProgram(Task& task, const std::string& path, const Specialization& spec,
                               ExecLookup lookup);
  // Create a task named `name`, let `load` map a program into it, and start
  // it with `args`. Any failure releases and destroys the task, so a failed
  // exec leaves no task and no frames behind.
  Result<TaskId> ExecInNewTask(std::string name, const std::vector<std::string>& args,
                               const std::function<Result<uint32_t>(Task&)>& load);

  Result<const CachedImage*> BuildImage(const std::string& path, const Specialization& spec,
                                        const std::string& key, BuildTracker& tracker);

  // Frame-backed master segments (shared text + CoW data) for a freshly
  // linked or store-adopted image. One copy into phys memory; every client
  // task maps against these masters.
  Result<void> MaterializeSegments(CachedImage& cached);

  // ---- Persistent store plumbing (all no-ops when store_ == nullptr) -------
  // Whether (path, spec) links from deterministic inputs only. Monitor and
  // reorder builds depend on runtime profile state, so they are never
  // stored or adopted.
  static bool StorableSpec(const Specialization& spec);
  // Content fingerprint over everything that goes into the link: the path,
  // the spec string, and the transitive closure of blueprint texts and
  // object-file bytes reachable from the construction expression. Matching
  // fingerprints ⇒ a stored image was linked from identical inputs. The
  // closure's paths are added to `closure`.
  uint64_t StoreFingerprint(const std::string& norm, const Specialization& spec,
                            std::set<std::string>& closure) const;
  // Probe the store on a cache miss; on a hit, verify dependency placements,
  // re-reserve the stored bases, materialize segments and insert into the
  // cache (inputs: tracker.inputs, the fingerprint's closure). nullptr on
  // miss or any verification failure (caller cold-builds).
  const CachedImage* TryAdoptFromStore(const std::string& key, uint64_t fingerprint,
                                       BuildTracker& tracker);
  // Publish a freshly built image under the fingerprint computed before
  // its build; failures are counted, never fatal.
  void PublishToStore(uint64_t fingerprint, const CachedImage& image, BuildTracker& tracker);

  // Cache lookup that survives eviction and bit-rot: a missing or corrupted
  // entry is transparently rebuilt from its blueprint via the cache key
  // ("<path>§<spec>"). Work cycles for a rebuild accumulate in *work.
  Result<const CachedImage*> GetOrRebuild(const std::string& cache_key, uint64_t* work);

  // Charge linking work for an image build.
  void ChargeLinkWork(const LinkStats& stats, uint32_t symbol_count, BuildTracker& tracker) const;

  // Run `update`, then evict every cached image that read one of `paths`,
  // as one namespace mutation (see namespace_generation). Holds admin_mu_.
  Result<void> Redefine(std::vector<std::string> paths, const std::function<Result<void>()>& update);
  // The stamp a cold build starting now records: the generation, or 0
  // (which never matches) while a mutation is in progress.
  uint64_t BuildStamp() const {
    uint64_t generation = namespace_generation();
    return (generation & 1) != 0 ? 0 : generation;
  }
  // Redefinition of `paths` (sorted): evict every cached image whose
  // recorded inputs include one of them (EvictStale), then release the
  // victims' placements, stored records, optimizer state and decoded blocks.
  void InvalidateImagesOf(const std::vector<std::string>& paths);
  // The one staleness walk, for redefinitions and layout moves alike: evicts
  // every cached image that read one of `paths` (sorted) or that sits at, or
  // linked against, one of the `moved` placements. Placements are kept.
  // Returns the evicted keys, sorted.
  std::vector<std::string> EvictStale(const std::vector<std::string>& paths,
                                      const std::vector<std::string>& moved);
  // Re-link `keys` at the current layout, counting prelink.relinks.
  void RelinkEvicted(const std::vector<std::string>& keys);

  // The image `key` as `task` has it mapped: the version the task mapped
  // earlier, or else the one it pinned at exec, or else the cached one; the
  // latter two are mapped and pinned now. `.second` is true when this call
  // mapped it.
  Result<std::pair<const CachedImage*, bool>> MapPinned(Task& task, const std::string& key,
                                                        uint64_t* work);
  Result<void> HandleDload(Kernel& kernel, Task& task);
  Result<void> HandleMonLog(Kernel& kernel, Task& task);
  Result<void> HandleOmosLoadSys(Kernel& kernel, Task& task);
  Result<void> HandleOmosUnloadSys(Kernel& kernel, Task& task);

  OmosReply HandleRequest(const OmosRequest& request);
  OmosReply HandleRequestImpl(const OmosRequest& request);
  OmosReply HandleIntrospect(const OmosRequest& request);
  // Decode + execute a batch frame: members run in parallel on the shared
  // pool (ParallelFor, caller participates); a bad member yields an
  // ok=false reply in its slot without touching the other N-1.
  std::vector<uint8_t> ServeBatch(const std::vector<uint8_t>& request_bytes);

  // Shared between the server and its queued background jobs, so a job that
  // outlives the server (still parked on the pool's background lane) sees
  // server == nullptr and becomes a no-op. job_mu serializes job execution
  // against server destruction (and jobs against each other — idle-time
  // work has no concurrency claim to make).
  struct OptimizerState {
    std::mutex job_mu;
    OmosServer* server = nullptr;

    std::mutex mu;  // guards everything below
    bool enabled = false;
    uint64_t hot_threshold = 8;
    std::map<std::string, uint64_t> warm_hits;     // original key -> hits
    std::set<std::string> attempted;               // keys already queued
    std::map<std::string, std::string> alias;      // original -> optimized key
  };

  // ---- Live upgrade internals ----------------------------------------------
  // One upgrade in flight at a time. Mutable fields (phase, pending,
  // retry_at, error) are guarded by upgrade_mu_; the immutable plan (keys,
  // transfer map, degradation addresses) is written before the job becomes
  // visible to safepoints and read-only after.
  struct UpgradeJob {
    uint64_t id = 0;
    std::string path;           // normalized library path
    std::string new_blueprint;
    std::string old_impl_key;   // lib-dynamic-impl cache key being replaced
    std::string new_impl_key;   // shadow-path impl key of the new version
    std::string degrade_key;    // degradation-stub image key ("" if none)
    std::shared_ptr<const FrameTransferMap> map;
    std::map<std::string, uint32_t> degrade_addrs;  // deleted symbol -> stub

    UpgradePhase phase = UpgradePhase::kIdle;       // guarded by upgrade_mu_
    std::set<TaskId> pending;                       // guarded by upgrade_mu_
    // Deferral backoff: task -> instructions_retired before the next
    // transfer attempt (a failed attempt scanned the whole stack; don't
    // re-scan every instruction).
    std::map<TaskId, uint64_t> retry_at;            // guarded by upgrade_mu_
    std::string error;                              // guarded by upgrade_mu_
  };

  // Background-link body (idle lane), then the atomic runtime repoint.
  void RunUpgradeLink(std::shared_ptr<UpgradeJob> job);
  void RunUpgradeRepoint(std::shared_ptr<UpgradeJob> job);
  // Safepoint hook body: attempt the OSR frame transfer for `task`.
  Result<void> HandleSafepoint(Kernel& kernel, Task& task);
  Result<void> TryTransferTask(Kernel& kernel, Task& task,
                               const std::shared_ptr<UpgradeJob>& job);
  // Reclaim the old version (evict + release placements) once no task
  // references it; retried by DrainUpgrade when killed by fault injection.
  void RunUpgradeReclaim(std::shared_ptr<UpgradeJob> job);
  void AbortUpgrade(const std::shared_ptr<UpgradeJob>& job, std::string why);
  // Old-impl-key -> new-impl-key redirect while an upgrade is repointing, so
  // tasks exec'd mid-roll resolve their lazy slots against the new version.
  std::string RedirectLibKey(const std::string& key) const;
  // Degradation-stub binding for `symbol` of `impl_key`, or 0.
  uint32_t DegradeBindingFor(const std::string& impl_key, const std::string& symbol,
                             std::string* degrade_key) const;
  void ScheduleUpgradeReclaim(const std::shared_ptr<UpgradeJob>& job);

  // Queue the conflict-repair job on the idle lane (at most one in flight).
  void SchedulePrelinkRepair();
  // Body of the repair job: SolveNamespace under solver_mu_, then evict the
  // moved images + dependents and re-link them at the solved layout.
  void RunPrelinkRepair();

  // Queue `job` on the shared pool's idle lane: it runs only when no
  // foreground request is waiting, and is skipped if the server is gone.
  void SubmitIdleJob(std::function<void(OmosServer&)> job);

  // Warm-hit bookkeeping for `key` (path `norm`, default spec only); queues
  // an optimization job at the hot threshold.
  void NoteWarmHit(const std::string& key, const std::string& norm, const Specialization& spec);
  // The optimized image to serve instead of `key`, or nullptr. Drops the
  // alias if the optimized image fell out of the cache.
  const CachedImage* OptimizedAlias(const std::string& key);
  // Body of one background job: reorder-relink `norm` and alias it to
  // `key`; speculatively re-instantiate the image's library deps.
  void RunOptimizeJob(const std::string& key, const std::string& norm);

  Kernel* kernel_;
  Config config_;
  OmosNamespace namespace_;   // internally synchronized
  ImageCache cache_;          // internally synchronized
  // Second cache tier; set at startup (AttachStore/RestoreFromStore), read
  // on miss paths. Not owned.
  ImageStore* store_ = nullptr;

  // Lock hierarchy (see class comment): acquire strictly downward, never
  // hold any of these across a recursive Instantiate or a cache call that
  // can build (JoinBuild leadership is not a lock).
  mutable std::mutex admin_mu_;
  mutable std::mutex monitor_mu_;
  mutable std::mutex solver_mu_;
  mutable std::mutex upgrade_mu_;
  mutable std::mutex runtimes_mu_;
  mutable std::mutex kernel_mu_;

  ConstraintSolver solver_;             // guarded by solver_mu_
  std::map<TaskId, TaskRuntime> runtimes_;  // guarded by runtimes_mu_
  // Monitoring: program path -> function names (slot order) and counts.
  // All three guarded by monitor_mu_.
  std::map<std::string, std::vector<std::string>> monitor_names_;
  std::map<std::string, std::vector<uint64_t>> monitor_counts_;
  std::map<std::string, std::vector<std::string>> preferred_order_;

  std::shared_ptr<OptimizerState> optimizer_ = std::make_shared<OptimizerState>();

  // Live upgrade: at most one job; the pointer itself is guarded by
  // upgrade_mu_ (safepoints copy the shared_ptr out under the lock).
  std::shared_ptr<UpgradeJob> upgrade_job_;  // guarded by upgrade_mu_
  uint64_t upgrade_counter_ = 0;             // guarded by upgrade_mu_

  std::atomic<bool> prelink_repair_queued_{false};
  std::atomic<bool> prelink_enabled_{false};

  // See namespace_generation(); starts at 2 so the stamp 0 never matches.
  std::atomic<uint64_t> namespace_generation_{2};
  std::atomic<ExecTransport> exec_transport_{ExecTransport::kPort};
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_SERVER_H_
