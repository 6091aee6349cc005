// Closed-loop load generator: client threads invoke programs through the
// public OMOS API, an admin thread applies library updates, and every
// invocation is checked against the baseline reference.
//
// Kernel::CreateTask/DestroyTask/FindTask take no lock of their own, and
// the server guards them only with its private kernel mutex. The generator
// therefore serializes every exec, release and destroy under its own
// task-table mutex and runs Kernel::RunTask in parallel, as the repo's
// concurrency tests do. The time clients wait for that mutex is reported
// as bench.task_table_wait_us; it hides any contention inside the server's
// own exec path.
#ifndef OMOSBENCH_LOADGEN_H_
#define OMOSBENCH_LOADGEN_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "omosbench/report.h"
#include "omosbench/world.h"

namespace omosbench {

struct Class {
  Prog prog;
  Scheme scheme;
  int weight = 1;  // copies of the class in each client's schedule
};

struct Workload {
  std::string name;
  std::vector<Class> classes;  // a fixed weighted mix; the seed fixes the order
  int clients = 1;
  // lib_update_churn: the admin updates libraries throughout the window.
  bool churn = false;
  int total_weight() const;
};

// The named workload sized for `hw` hardware threads, or nullptr.
const Workload* FindWorkload(const std::string& name, int hw);

// Bench-side spans around each public call into a layer.
enum Layer : uint8_t {
  kWait,             // bench.task_table_wait_us: the generator's own lock
  kExecIntegrated,   // core.exec_integrated_us: IntegratedExec
  kExecPrelinked,    // core.exec_prelinked_us: PrelinkedExec
  kExecBootstrap,    // core.exec_bootstrap_us: BootstrapExec
  kRunTask,          // os.run_task_us: Kernel::RunTask
  kTeardown,         // core.teardown_us: ReleaseTask + DestroyTask
  kIpcCall,          // ipc.call_us: Channel::Call of a bootstrap request (probe)
  kDefine,           // core.define_us: DefineLibrary
  kUpgradeBegin,     // upgrade.begin_us: BeginUpgrade up to the repoint
  kUpgradeDrain,     // upgrade.drain_us: DrainUpgrade polling until done
  kNumLayers,
};
const char* LayerName(Layer layer);
// Spans that are part of an invocation (the others run beside the clients).
inline bool InInvocation(Layer layer) { return layer < kIpcCall; }

enum class Phase : uint8_t { kWarmup, kWindow, kTracedWindow, kStopped };

// The untraced window is cut into this many equal slices by exec start;
// an odd count, so the median over slices is one slice's figure.
inline constexpr int kSlices = 25;

// Per-layer spans of one client (traced invocations only).
struct LayerLog {
  std::array<Histogram, kNumLayers> ns;
  std::array<uint64_t, kNumLayers> sim_cycles{};  // cycles billed inside the layer
  uint64_t traced_total_ns = 0;                   // sum of traced invocations
  uint64_t traced_invocations = 0;
  void Merge(const LayerLog& other);
};

// What one client did. Every figure is a count or a fixed-size histogram,
// so a client's memory does not depend on how many invocations it runs.
struct ClientLog {
  uint64_t attempted = 0, failed = 0;  // every phase
  // Untraced window, by slice: invocation host time and correct completions.
  std::array<Histogram, kSlices> slice_ns;
  std::array<uint64_t, kSlices> slice_ok{};
  uint64_t traced_ok = 0;  // correct completions in the traced window
  LayerLog layers;
  // Window invocations: per class, simulated cost -> count.
  std::vector<std::map<std::pair<uint64_t, uint64_t>, uint64_t>> sim;
  std::string first_failure;
};

struct Update {
  bool upgrade = false;  // BeginUpgrade+DrainUpgrade, else DefineLibrary
  int lib = 0;           // index into UpdatableLibs()
  int64_t call_ns = 0;   // update call issued
  int64_t visible_ns = 0;  // a fresh exec of a lib-dynamic client gets the new version
  int64_t done_ns = 0;     // ... and of any client (upgrades: reclaimed, kDone)
  // The first correct invocation that used it (exec began once the new
  // version was visible to its program) completed; 0 if none did in time.
  int64_t first_use_end_ns = 0;
  bool ok = false;       // applied (and, for upgrades, drained to kDone)
  bool effective = false;  // some relevant invocation used it in time
  std::string error;
};

// Whether `prog` sees `update`, and from which exec start on. A live
// upgrade repoints lib-dynamic clients (ls-dyn) at once; constrained ones
// relink against the new version only after the reclaim redefines the path.
bool UpdateReaches(const Update& update, Prog prog);
int64_t VisibleTo(const Update& update, Prog prog);

struct RunConfig {
  double warmup_s = 0;
  double window_s = 0;         // untraced window
  double traced_window_s = 0;  // traced window after it
};

struct RunLog {
  std::vector<ClientLog> clients;
  std::vector<Update> updates;
  int64_t window_begin_ns = 0, window_end_ns = 0;
  int64_t traced_begin_ns = 0, traced_end_ns = 0;
  // Registry counters at the traced window's edges.
  std::map<std::string, uint64_t> counters_traced_begin, counters_traced_end;
};

// Library updates applied with no client traffic, each followed by one
// invocation that uses the new version (traced run only).
struct QuiescentLog {
  std::vector<Update> updates;
  std::vector<double> latency_ms;  // update call -> that invocation done
  uint64_t failed = 0;             // updates or invocations that failed
  std::map<std::string, uint64_t> counters_begin, counters_end;
  LayerLog layers;
};

class LoadGen {
 public:
  LoadGen(World& world, const Workload& workload, uint64_t seed);
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // The measured run: warm-up, then the untraced and traced windows.
  RunLog Run(const RunConfig& config);

  // `count` libc updates, alternating DefineLibrary and a live upgrade,
  // each on an idle server followed by one invocation that reaches it: the
  // miss path (linker, solver, store, upgrade) without concurrent traffic.
  QuiescentLog QuiescentUpdates(int count);

  // Closed-loop throughput of `clients` clients over `seconds`, no admin,
  // traced; also returns the median Kernel::RunTask time.
  struct Throughput {
    double execs_per_s = 0;
    double run_task_p50_us = 0;
    uint64_t attempted = 0;  // every invocation run, warm-up included
    uint64_t failed = 0;
  };
  Throughput MeasureThroughput(int clients, double seconds);

  // Warm Instantiate calls per second from `threads` threads.
  double InstantiateRate(int threads, double seconds);

  // `count` bootstrap kInstantiate requests for the workload's first
  // program, each over a fresh channel of the server's exec transport as
  // BootstrapExec makes them, timed around Channel::Call (ipc.call_us).
  // Failed calls are added to *failed.
  Histogram ProbeIpcCall(int count, uint64_t* failed);

  int64_t NowNs() const;

 private:
  // One invocation's host times, ns since the load generator's epoch.
  struct Timing {
    int64_t start_ns = 0;  // before the exec (including the lock wait)
    int64_t exec_ns = 0;   // the exec call
    int64_t end_ns = 0;    // teardown done
  };
  void ClientLoop(int index, ClientLog& log);
  bool Invoke(uint8_t cls, Phase phase, bool traced, ClientLog& log, Timing& timing);
  // Admin side: one update; returns once its new version is visible and
  // drained, and (with `wait_for_effect`) used by a client invocation.
  Update ApplyUpdate(bool upgrade, int lib, bool traced, bool wait_for_effect,
                     LayerLog& admin_log);
  // Watch each program `update` reaches for a correct invocation whose exec
  // began at VisibleTo(update, program) or later. A program the update is
  // not yet visible to (VisibleTo is 0) is left to a later call.
  void Watch(const Update& update);
  void StopWatching();
  void RecordUse(Prog prog, const Timing& timing);
  // The end of the first watched invocation, or 0 if none by the deadline.
  int64_t WaitForUse(int64_t deadline_ns);
  void AdminLoop(const RunConfig& config, RunLog& log, LayerLog& admin_log);
  static std::map<std::string, uint64_t> Counters();

  World& world_;
  const Workload& workload_;
  uint64_t seed_;
  int64_t epoch_ns_;
  std::mutex table_mu_;  // serializes task-table mutation (see file comment)
  std::atomic<Phase> phase_{Phase::kWarmup};
  std::atomic<bool> traced_{false};
  std::atomic<bool> stop_{false};
  // The untraced window's first slice begins at window_begin_ns_; set
  // before phase_ turns to kWindow.
  std::atomic<int64_t> window_begin_ns_{0};
  int64_t slice_ns_ = 1;
  // Per program, while lib_update_churn's admin watches an update:
  // invocations whose exec begins at `from_ns` or later use it;
  // `first_end_ns` is the earliest such correct one's end.
  struct Watched {
    int64_t from_ns = INT64_MAX;
    int64_t first_end_ns = INT64_MAX;
  };
  std::mutex watch_mu_;
  std::array<Watched, kNumProgs> watched_;
};

}  // namespace omosbench

#endif  // OMOSBENCH_LOADGEN_H_
