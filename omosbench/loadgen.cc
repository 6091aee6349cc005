#include "omosbench/loadgen.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "src/support/metrics.h"
#include "src/support/strings.h"

namespace omosbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepeatsPerClass = 100;
constexpr int64_t kEffectTimeoutNs = 5'000'000'000;
constexpr int64_t kUpgradeTimeoutNs = 5'000'000'000;

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// A seeded permutation of every class repeated weight x kRepeatsPerClass
// times: the mix is fixed, only the order depends on the seed. The schedule
// is long so seeds stay comparable: with 8 copies per class, one seed's
// order alone ran ls_fleet ~15% faster than the others, run after run.
std::vector<uint8_t> Schedule(const std::vector<Class>& classes, uint64_t seed, int client) {
  std::vector<uint8_t> order;
  for (int r = 0; r < kRepeatsPerClass; ++r) {
    for (size_t c = 0; c < classes.size(); ++c) {
      order.insert(order.end(), static_cast<size_t>(classes[c].weight), static_cast<uint8_t>(c));
    }
  }
  uint64_t state = seed * 0x100000001B3ull + static_cast<uint64_t>(client) + 1;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[SplitMix64(state) % i]);
  }
  return order;
}

uint32_t Clamp32(int64_t ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX));
}

void SleepNs(int64_t ns) {
  if (ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }
}

}  // namespace

int Workload::total_weight() const {
  int total = 0;
  for (const Class& c : classes) {
    total += c.weight;
  }
  return total;
}

bool UpdateReaches(const Update& update, Prog prog) {
  return ProgUsesLib(prog, UpdatableLibs()[static_cast<size_t>(update.lib)].path);
}

int64_t VisibleTo(const Update& update, Prog prog) {
  return update.upgrade && prog != Prog::kLsDyn ? update.done_ns : update.visible_ns;
}

const Workload* FindWorkload(const std::string& name, int hw) {
  // At most 4 clients, and half the hardware threads at most: the other
  // half runs the admin thread, the server's pool workers and the
  // OS, so lock holders are not preempted by the benchmark's own threads.
  static const int kClients = std::max(1, std::min(4, hw / 2));
  static const std::vector<Workload> workloads = {
      // ls twice as often as ls -laF, so the median sits inside one mode of
      // the latency distribution rather than between the two.
      {"ls_fleet",
       {{Prog::kLs, Scheme::kIntegrated, 2},
        {Prog::kLs, Scheme::kPrelinked, 2},
        {Prog::kLs, Scheme::kBootstrap, 2},
        {Prog::kLsLaF, Scheme::kIntegrated, 1},
        {Prog::kLsLaF, Scheme::kPrelinked, 1},
        {Prog::kLsLaF, Scheme::kBootstrap, 1}},
       kClients,
       false},
      {"codegen_batch", {{Prog::kCodegen, Scheme::kIntegrated, 1}}, kClients, false},
      {"lib_update_churn",
       {{Prog::kLs, Scheme::kIntegrated, 1},
        {Prog::kLsDyn, Scheme::kIntegrated, 1},
        {Prog::kLs, Scheme::kBootstrap, 1}},
       kClients,
       true},
  };
  for (const Workload& w : workloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {
      "bench.task_table_wait_us", "core.exec_integrated_us", "core.exec_prelinked_us",
      "core.exec_bootstrap_us",   "os.run_task_us",          "core.teardown_us",
      "ipc.call_us",              "core.define_us",          "upgrade.begin_us",
      "upgrade.drain_us",
  };
  return kNames[layer];
}

void LayerLog::Merge(const LayerLog& other) {
  for (int i = 0; i < kNumLayers; ++i) {
    ns[i].Merge(other.ns[i]);
    sim_cycles[i] += other.sim_cycles[i];
  }
  traced_total_ns += other.traced_total_ns;
  traced_invocations += other.traced_invocations;
}

LoadGen::LoadGen(World& world, const Workload& workload, uint64_t seed)
    : world_(world),
      workload_(workload),
      seed_(seed),
      epoch_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count()) {}

int64_t LoadGen::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
             .count() -
         epoch_ns_;
}

std::map<std::string, uint64_t> LoadGen::Counters() {
  std::map<std::string, uint64_t> out;
  for (auto& [name, value] : omos::MetricsRegistry::Global().Snapshot()) {
    out[name] = value;
  }
  return out;
}

bool LoadGen::Invoke(uint8_t cls, Phase phase, bool traced, ClientLog& log, Timing& timing) {
  const Class& c = workload_.classes[cls];
  omos::OmosServer& server = *world_.server;
  omos::Kernel& kernel = *world_.kernel;
  LayerLog& layers = log.layers;

  const int64_t t0 = NowNs();
  timing.start_ns = t0;
  omos::Task* task = nullptr;
  omos::Result<omos::TaskId> exec = omos::Err(omos::ErrorCode::kInternal, "not run");
  uint64_t exec_sim = 0;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    timing.exec_ns = NowNs();
    exec = Exec(world_, c.prog, c.scheme);
    if (exec.ok()) {
      task = kernel.FindTask(*exec);
      exec_sim = task->user_cycles() + task->sys_cycles();
    }
    if (traced) {
      Layer layer = c.scheme == Scheme::kIntegrated  ? kExecIntegrated
                    : c.scheme == Scheme::kPrelinked ? kExecPrelinked
                                                     : kExecBootstrap;
      layers.ns[kWait].Add(Clamp32(timing.exec_ns - t0));
      layers.ns[layer].Add(Clamp32(NowNs() - timing.exec_ns));
      layers.sim_cycles[layer] += exec_sim;
    }
  }
  if (task == nullptr) {
    if (log.first_failure.empty()) {
      log.first_failure = omos::StrCat(ProgName(c.prog), " ", SchemeName(c.scheme),
                                       ": exec failed: ", exec.error().ToString());
    }
    timing.end_ns = NowNs();
    return false;
  }

  const int64_t t_run = traced ? NowNs() : 0;
  omos::Result<void> ran = kernel.RunTask(*task);
  RunResult got{task->state(), task->exit_code(), task->output(),
                SimCost{task->user_cycles(), task->sys_cycles()}};
  if (traced) {
    layers.ns[kRunTask].Add(Clamp32(NowNs() - t_run));
    layers.sim_cycles[kRunTask] += got.cost.total() - exec_sim;
  }
  std::string why;
  bool ok = ran.ok() && MatchesReference(world_.refs[static_cast<size_t>(c.prog)], got, &why);
  if (!ok && log.first_failure.empty()) {
    log.first_failure = omos::StrCat(ProgName(c.prog), " ", SchemeName(c.scheme), ": ",
                                     ran.ok() ? why : ran.error().ToString());
  }

  const int64_t t_wait = traced ? NowNs() : 0;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    const int64_t t_locked = traced ? NowNs() : 0;
    server.ReleaseTask(*exec);
    kernel.DestroyTask(*exec);
    if (traced) {
      layers.ns[kWait].Add(Clamp32(t_locked - t_wait));
      layers.ns[kTeardown].Add(Clamp32(NowNs() - t_locked));
    }
  }
  timing.end_ns = NowNs();
  if (traced) {
    layers.traced_total_ns += static_cast<uint64_t>(timing.end_ns - t0);
    ++layers.traced_invocations;
  }
  if (ok && (phase == Phase::kWindow || phase == Phase::kTracedWindow)) {
    ++log.sim[cls][{got.cost.user, got.cost.sys}];
  }
  return ok;
}

void LoadGen::ClientLoop(int index, ClientLog& log) {
  std::vector<uint8_t> order = Schedule(workload_.classes, seed_, index);
  log.sim.resize(workload_.classes.size());
  for (size_t k = 0; !stop_.load(std::memory_order_relaxed); ++k) {
    const uint8_t cls = order[k % order.size()];
    const Phase phase = phase_.load(std::memory_order_acquire);
    Timing timing;
    const bool ok = Invoke(cls, phase, traced_.load(std::memory_order_relaxed), log, timing);
    ++log.attempted;
    log.failed += ok ? 0 : 1;
    if (phase == Phase::kWindow) {
      const int64_t since = timing.start_ns - window_begin_ns_.load(std::memory_order_relaxed);
      const size_t slice = static_cast<size_t>(std::clamp<int64_t>(since / slice_ns_, 0, kSlices - 1));
      log.slice_ns[slice].Add(Clamp32(timing.end_ns - timing.start_ns));
      log.slice_ok[slice] += ok ? 1 : 0;
    } else if (phase == Phase::kTracedWindow) {
      log.traced_ok += ok ? 1 : 0;
    }
    if (ok && workload_.churn) {
      RecordUse(workload_.classes[cls].prog, timing);
    }
  }
}

void LoadGen::Watch(const Update& update) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  for (int p = 0; p < kNumProgs; ++p) {
    const Prog prog = static_cast<Prog>(p);
    const int64_t from = VisibleTo(update, prog);
    Watched& w = watched_[static_cast<size_t>(p)];
    if (UpdateReaches(update, prog) && from != 0 && w.from_ns == INT64_MAX) {
      w = Watched{from, INT64_MAX};
    }
  }
}

void LoadGen::StopWatching() {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_.fill(Watched{});
}

void LoadGen::RecordUse(Prog prog, const Timing& timing) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  Watched& w = watched_[static_cast<size_t>(prog)];
  if (timing.exec_ns >= w.from_ns) {
    w.first_end_ns = std::min(w.first_end_ns, timing.end_ns);
  }
}

int64_t LoadGen::WaitForUse(int64_t deadline_ns) {
  while (true) {
    int64_t first = INT64_MAX;
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      for (const Watched& w : watched_) {
        first = std::min(first, w.first_end_ns);
      }
    }
    if (first != INT64_MAX) {
      return first;
    }
    if (NowNs() >= deadline_ns) {
      return 0;
    }
    SleepNs(20'000);
  }
}

Update LoadGen::ApplyUpdate(bool upgrade, int lib, bool traced, bool wait_for_effect,
                           LayerLog& admin_log) {
  omos::OmosServer& server = *world_.server;
  const LibVersions& versions = UpdatableLibs()[static_cast<size_t>(lib)];
  int next = 1 - world_.lib_version[static_cast<size_t>(lib)];
  const std::string& blueprint = versions.blueprints[static_cast<size_t>(next)];
  Update update;
  update.upgrade = upgrade;
  update.lib = lib;
  StopWatching();
  if (!upgrade) {
    update.call_ns = NowNs();
    omos::Result<void> defined = server.DefineLibrary(versions.path, blueprint);
    update.visible_ns = NowNs();
    update.done_ns = update.visible_ns;
    Watch(update);
    if (traced) {
      admin_log.ns[kDefine].Add(Clamp32(update.visible_ns - update.call_ns));
    }
    update.ok = defined.ok();
    if (!defined.ok()) {
      update.error = defined.error().ToString();
    }
  } else {
    omos::OmosServer::UpgradeStatus status;
    {
      // The upgrade's link and repoint run on the server's idle lane and
      // look tasks up in the kernel; hold the task-table lock until the
      // repoint is done so no client mutates the table meanwhile.
      std::lock_guard<std::mutex> lock(table_mu_);
      update.call_ns = NowNs();
      omos::Result<uint64_t> begun = server.BeginUpgrade(versions.path, blueprint);
      if (!begun.ok()) {
        update.error = begun.error().ToString();
      } else {
        int64_t deadline = update.call_ns + kUpgradeTimeoutNs;
        do {
          status = server.DrainUpgrade();
        } while (!status.terminal() &&
                 (status.phase == omos::UpgradePhase::kLinking ||
                  status.phase == omos::UpgradePhase::kRepointing) &&
                 NowNs() < deadline);
      }
      update.visible_ns = NowNs();
      Watch(update);
    }
    int64_t drain_start = NowNs();
    if (update.error.empty()) {
      int64_t deadline = drain_start + kUpgradeTimeoutNs;
      while (!status.terminal() && NowNs() < deadline) {
        SleepNs(50'000);
        status = server.DrainUpgrade();
      }
      update.ok = status.phase == omos::UpgradePhase::kDone;
      update.done_ns = NowNs();
      Watch(update);
      if (!update.ok) {
        update.error = status.error.empty() ? "upgrade did not finish in time" : status.error;
      }
    }
    if (traced) {
      admin_log.ns[kUpgradeBegin].Add(Clamp32(update.visible_ns - update.call_ns));
      admin_log.ns[kUpgradeDrain].Add(Clamp32(NowNs() - drain_start));
    }
  }
  if (update.ok) {
    world_.lib_version[static_cast<size_t>(lib)] = next;
    if (wait_for_effect) {
      update.first_use_end_ns = WaitForUse(NowNs() + kEffectTimeoutNs);
    }
    update.effective = !wait_for_effect || update.first_use_end_ns != 0;
    if (!update.effective) {
      update.error = "no invocation used the new version in time";
    }
  }
  return update;
}

void LoadGen::AdminLoop(const RunConfig& config, RunLog& log, LayerLog& admin_log) {
  uint64_t rng = seed_ * 0x2545F4914F6CDD1Dull + 7;
  auto ns = [](double seconds) { return static_cast<int64_t>(seconds * 1e9); };
  SleepNs(ns(config.warmup_s));

  log.window_begin_ns = NowNs();
  window_begin_ns_.store(log.window_begin_ns, std::memory_order_relaxed);
  phase_.store(Phase::kWindow, std::memory_order_release);
  const int64_t traced_begin = log.window_begin_ns + ns(config.window_s);
  const int64_t window_end = traced_begin + ns(config.traced_window_s);
  bool in_traced = false;
  auto enter_traced_if_due = [&] {
    if (!in_traced && config.traced_window_s > 0 && NowNs() >= traced_begin) {
      in_traced = true;
      log.counters_traced_begin = Counters();
      log.traced_begin_ns = NowNs();
      phase_.store(Phase::kTracedWindow);
      traced_.store(true);
    }
  };
  if (workload_.churn) {
    // Alternate a DefineLibrary of a seeded library with a live upgrade of
    // libc, a seeded 10-30 ms pause after each has taken effect.
    for (int n = 0; NowNs() < window_end; ++n) {
      enter_traced_if_due();
      bool upgrade = n % 2 == 1;
      int lib = upgrade ? 0 : static_cast<int>(SplitMix64(rng) % UpdatableLibs().size());
      log.updates.push_back(ApplyUpdate(upgrade, lib, in_traced, true, admin_log));
      int64_t gap = 10'000'000 + static_cast<int64_t>(SplitMix64(rng) % 20'000'001);
      SleepNs(std::min(gap, window_end - NowNs()));
    }
  } else {
    if (config.traced_window_s > 0) {
      SleepNs(traced_begin - NowNs());
      enter_traced_if_due();
    }
    SleepNs(window_end - NowNs());
  }
  enter_traced_if_due();
  log.window_end_ns = NowNs();
  if (in_traced) {
    log.traced_end_ns = log.window_end_ns;
    log.counters_traced_end = Counters();
  }
}

RunLog LoadGen::Run(const RunConfig& config) {
  RunLog log;
  log.clients.resize(static_cast<size_t>(workload_.clients));
  LayerLog admin_log;
  slice_ns_ = std::max<int64_t>(1, static_cast<int64_t>(config.window_s * 1e9 / kSlices));
  stop_.store(false);
  traced_.store(false);
  phase_.store(Phase::kWarmup);
  std::vector<std::thread> threads;
  for (int i = 0; i < workload_.clients; ++i) {
    threads.emplace_back([this, i, &log] { ClientLoop(i, log.clients[static_cast<size_t>(i)]); });
  }
  AdminLoop(config, log, admin_log);
  stop_.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  phase_.store(Phase::kStopped);
  traced_.store(false);
  // Leave no upgrade half done for whatever runs next.
  for (int i = 0; i < 64 && world_.server->UpgradeStatusNow().id != 0 &&
                  !world_.server->DrainUpgrade().terminal();
       ++i) {
  }
  log.clients[0].layers.Merge(admin_log);
  return log;
}

QuiescentLog LoadGen::QuiescentUpdates(int count) {
  QuiescentLog out;
  out.counters_begin = Counters();
  ClientLog client;
  client.sim.resize(workload_.classes.size());
  phase_.store(Phase::kStopped);
  for (int n = 0; n < count; ++n) {
    Update update = ApplyUpdate(n % 2 == 1, 0, true, false, out.layers);
    // One invocation of the first class the update reaches.
    bool ran = false;
    for (size_t c = 0; c < workload_.classes.size() && update.ok && !ran; ++c) {
      if (!UpdateReaches(update, workload_.classes[c].prog)) {
        continue;
      }
      Timing timing;
      ran = Invoke(static_cast<uint8_t>(c), Phase::kStopped, false, client, timing);
      if (ran) {
        out.latency_ms.push_back((timing.end_ns - update.call_ns) / 1e6);
      }
    }
    out.failed += update.ok && ran ? 0 : 1;
    out.updates.push_back(std::move(update));
  }
  out.counters_end = Counters();
  return out;
}

LoadGen::Throughput LoadGen::MeasureThroughput(int clients, double seconds) {
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  stop_.store(false);
  phase_.store(Phase::kWarmup);
  traced_.store(false);
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([this, i, &logs] { ClientLoop(i, logs[static_cast<size_t>(i)]); });
  }
  SleepNs(static_cast<int64_t>(seconds * 0.2e9));
  int64_t begin = NowNs();
  phase_.store(Phase::kTracedWindow);
  traced_.store(true);
  SleepNs(static_cast<int64_t>(seconds * 0.8e9));
  int64_t end = NowNs();
  phase_.store(Phase::kStopped);
  stop_.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  traced_.store(false);
  Throughput out;
  uint64_t done = 0;
  Histogram run_ns;
  for (const ClientLog& log : logs) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    done += log.traced_ok;
    run_ns.Merge(log.layers.ns[kRunTask]);
  }
  out.execs_per_s = static_cast<double>(done) / (static_cast<double>(end - begin) / 1e9);
  out.run_task_p50_us = run_ns.SummaryUs().p50;
  return out;
}

Histogram LoadGen::ProbeIpcCall(int count, uint64_t* failed) {
  omos::OmosServer& server = *world_.server;
  omos::Kernel& kernel = *world_.kernel;
  omos::OmosRequest request;
  request.op = omos::OmosOp::kInstantiate;
  request.path = ProgMeta(workload_.classes[0].prog);
  Histogram out;
  for (int i = 0; i < count; ++i) {
    std::lock_guard<std::mutex> lock(table_mu_);
    omos::Task& task = kernel.CreateTask("bench-ipc-probe");
    request.task_handle = task.id();
    omos::Channel channel = server.MakeChannel();
    const int64_t start = NowNs();
    omos::Result<omos::OmosReply> reply = channel.Call(request, &task);
    out.Add(Clamp32(NowNs() - start));
    *failed += reply.ok() && reply->ok ? 0 : 1;
    server.ReleaseTask(task.id());
    kernel.DestroyTask(task.id());
  }
  return out;
}

double LoadGen::InstantiateRate(int threads, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> calls{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&] {
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        omos::ImageCache::ReadLease lease(world_.server->cache());
        uint64_t work = 0;
        if (world_.server->Instantiate("/bin/ls", {}, &work).ok()) {
          ++n;
        }
      }
      calls.fetch_add(n);
    });
  }
  int64_t begin = NowNs();
  SleepNs(static_cast<int64_t>(seconds * 1e9));
  stop.store(true);
  for (std::thread& t : workers) {
    t.join();
  }
  return static_cast<double>(calls.load()) / (static_cast<double>(NowNs() - begin) / 1e9);
}

}  // namespace omosbench
