// omos_e2e: the end-to-end benchmark. Whole program invocations (exec
// request -> task run to exit -> release and destroy) on a fully
// configured OMOS server, every output checked against the traditional
// shared-library world. See omosbench/README.md.
//
//   omos_e2e --workload ls_fleet|codegen_batch|lib_update_churn
//            --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the workload
// with bench-side spans and registry counter snapshots and prints the
// per-layer metrics. The last stdout line is one JSON object.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "omosbench/loadgen.h"
#include "omosbench/report.h"
#include "omosbench/world.h"
#include "src/support/strings.h"

namespace omosbench {
namespace {

// Set-up time moves with outside load on a scale of about a second; 25
// set-ups (about 3 s) keep their median steady where 9 did not.
constexpr int kSetupRepeats = 25;
constexpr int kQuiescentUpdates = 12;
constexpr int kIpcProbes = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      out->trace = value == "1";
      if (value != "0" && value != "1") {
        return false;
      }
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload && (argc % 2) == 1 && out->seconds > 0;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The peak resident set of this program's own address space (VmHWM).
// getrusage's ru_maxrss is not used: it survives execve, so the resident
// set of the launcher at fork (run.py's Python) would read as this program's.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  return 0;
}

// The oracle must reject a wrong answer: run one real invocation and check
// it against a reference with the wrong output, then the wrong exit code.
bool OracleSelfTest(World& world) {
  omos::Result<RunResult> run = RunOnce(world, Prog::kLs, Scheme::kIntegrated);
  if (!run.ok()) {
    return false;
  }
  std::string why;
  Reference wrong_output = world.refs[static_cast<size_t>(Prog::kLs)];
  wrong_output.output += "x";
  Reference wrong_exit = world.refs[static_cast<size_t>(Prog::kLs)];
  wrong_exit.exit_code += 1;
  bool rejects_output = !MatchesReference(wrong_output, *run, &why);
  bool rejects_exit = !MatchesReference(wrong_exit, *run, &why);
  bool accepts_right = MatchesReference(world.refs[static_cast<size_t>(Prog::kLs)], *run, &why);
  std::printf("oracle self-test: %s (wrong output %s, wrong exit %s, right answer %s)\n",
              rejects_output && rejects_exit && accepts_right ? "PASS" : "FAIL",
              rejects_output ? "rejected" : "ACCEPTED", rejects_exit ? "rejected" : "ACCEPTED",
              accepts_right ? "accepted" : "REJECTED");
  return rejects_output && rejects_exit && accepts_right;
}

// Table 1: OMOS / traditional elapsed simulated cycles per program, from
// the warm calibration. Shapes: integrated < bootstrap, prelinked <=
// integrated, codegen markedly (<= 0.9) below 1.
bool PrintTable1(const World& world) {
  std::printf("\nTable 1 (simulated cycles; ratio = OMOS / traditional shared libraries)\n");
  std::printf("  %-8s %12s %12s %12s %12s   %6s %6s %6s\n", "program", "traditional",
              "integrated", "prelinked", "bootstrap", "integ", "prel", "boot");
  bool shapes = true;
  for (Prog prog : {Prog::kLs, Prog::kLsLaF, Prog::kCodegen}) {
    const auto& warm = world.warm[static_cast<size_t>(prog)];
    double base = static_cast<double>(world.refs[static_cast<size_t>(prog)].cycles);
    uint64_t integ = warm[static_cast<size_t>(Scheme::kIntegrated)].total();
    uint64_t prel = warm[static_cast<size_t>(Scheme::kPrelinked)].total();
    uint64_t boot = warm[static_cast<size_t>(Scheme::kBootstrap)].total();
    std::printf("  %-8s %12.0f %12llu %12llu %12llu   %6.3f %6.3f %6.3f\n", ProgName(prog), base,
                static_cast<unsigned long long>(integ), static_cast<unsigned long long>(prel),
                static_cast<unsigned long long>(boot), integ / base, prel / base, boot / base);
    shapes = shapes && integ < boot && prel <= integ;
    if (prog == Prog::kCodegen) {
      shapes = shapes && integ / base <= 0.9;
    }
  }
  std::printf("  shapes (integrated < bootstrap, prelinked <= integrated, codegen <= 0.9): %s\n",
              shapes ? "PASS" : "FAIL");
  return shapes;
}

uint64_t Delta(const std::map<std::string, uint64_t>& begin,
               const std::map<std::string, uint64_t>& end, const std::string& name) {
  auto b = begin.find(name);
  auto e = end.find(name);
  uint64_t before = b == begin.end() ? 0 : b->second;
  uint64_t after = e == end.end() ? 0 : e->second;
  return after >= before ? after - before : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Registry counters reported per traced invocation.
constexpr const char* kCounters[] = {
    "ipc.calls",
    "ipc.retries",
    "ipc.failures",
    "ipc.ring.handoffs",
    "ipc.ring.stalls",
    "ipc.bytes_sent",
    "ipc.stub_cache.hits",
    "ipc.stub_cache.invalidations",
    "cache.hits",
    "cache.misses",
    "cache.inserts",
    "cache.evictions",
    "cache.single_flight_waits",
    "cache.full_verifies",
    "cache.pages_verified",
    "prelink.hits",
    "prelink.stale",
    "prelink.misses",
    "prelink.repairs",
    "solver.places",
    "solver.conflicts",
    "solver.moves",
    "server.requests",
    "link.relocations_at_map",
    "store.puts",
    "store.hits",
    "upgrade.completed",
    "upgrade.aborted",
    "upgrade.tasks_repointed",
    "upgrade.images_reclaimed",
    "engine.blocks_decoded",
    "engine.block_hits",
    "engine.invalidations",
    "engine.tlb_hits",
    "engine.tlb_misses",
    "vm.cow_faults",
    "vm.cow_broken_pages",
    "vm.demand_zero_fills",
    "vm.frames_saved",
};

// Linker/store work per library update (reached only on a miss).
constexpr const char* kPerUpdate[] = {"cache.inserts", "link.relocations_at_map", "store.puts",
                                      "store.hits"};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: omos_e2e --workload ls_fleet|codegen_batch|lib_update_churn "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const Workload* workload = FindWorkload(args.workload, hw);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("== omos_e2e: workload %s, seed %llu, %.0f s, trace %d, %d client(s)%s ==\n",
              workload->name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, workload->clients, workload->churn ? " + admin" : "");

  // ---- Set-up, repeated; the median is setup_s and the last world is used.
  std::vector<double> setup_times;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    auto start = std::chrono::steady_clock::now();
    omos::Result<std::unique_ptr<World>> built = BuildWorld();
    setup_times.push_back(SecondsSince(start));
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", built.error().ToString().c_str());
      return 1;
    }
    world = std::move(*built);
  }
  Summary setup = Summarize(setup_times);
  std::printf("setup_s %.4f (median of %zu set-ups: workloads, baseline references, namespace, "
              "warm, prelink, store, calibration)\n",
              setup.p50, setup.n);

  bool oracle_ok = OracleSelfTest(*world);
  bool shapes_ok = PrintTable1(*world);

  // ---- The measured run.
  const double s = args.seconds;
  RunConfig config;
  config.warmup_s = 0.1 * s;
  if (args.trace) {
    config.window_s = 0.3 * s;
    config.traced_window_s = 0.3 * s;
  } else {
    config.window_s = 0.9 * s;
  }
  LoadGen loadgen(*world, *workload, args.seed);
  RunLog log = loadgen.Run(config);

  // ---- Failure accounting over everything run, every phase.
  uint64_t attempted = 0, failed = 0;
  std::string first_failure;
  // The untraced window in kSlices equal slices by exec start: each
  // end-to-end figure is the median over slices, so a burst of outside
  // interference moves one slice, not the result. The last slice ends when
  // the window did.
  const int64_t untraced_end = log.traced_begin_ns != 0 ? log.traced_begin_ns : log.window_end_ns;
  const double untraced_s = (untraced_end - log.window_begin_ns) / 1e9;
  const double slice_s = config.window_s / kSlices;
  std::array<Histogram, kSlices> slice_ns;
  std::array<uint64_t, kSlices> slice_ok{};
  uint64_t window_ok = 0, traced_ok = 0;
  const size_t num_classes = workload->classes.size();
  std::vector<std::map<std::pair<uint64_t, uint64_t>, uint64_t>> sim(num_classes);
  LayerLog layers;
  for (const ClientLog& client : log.clients) {
    attempted += client.attempted;
    failed += client.failed;
    for (size_t i = 0; i < kSlices; ++i) {
      slice_ns[i].Merge(client.slice_ns[i]);
      slice_ok[i] += client.slice_ok[i];
      window_ok += client.slice_ok[i];
    }
    traced_ok += client.traced_ok;
    for (size_t c = 0; c < num_classes && c < client.sim.size(); ++c) {
      for (const auto& [cost, count] : client.sim[c]) {
        sim[c][cost] += count;
      }
    }
    if (first_failure.empty()) {
      first_failure = client.first_failure;
    }
    layers.Merge(client.layers);
  }

  // Update latency: call -> the first correct invocation that used it done.
  std::vector<double> update_ms;
  for (const Update& update : log.updates) {
    ++attempted;
    if (!update.ok || !update.effective) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = "update of " + UpdatableLibs()[static_cast<size_t>(update.lib)].path +
                        ": " + update.error;
      }
      continue;
    }
    update_ms.push_back((update.first_use_end_ns - update.call_ns) / 1e6);
  }
  Summary update = Summarize(update_ms);

  // ---- Simulated clock: per class, the window's costs.
  bool sim_modes_ok = true;   // every class's usual cost == its calibration
  uint64_t sim_deviating = 0, sim_total = 0;
  double sim_cycles = 0, sim_user = 0, sim_sys = 0;
  std::printf("\nSimulated cycles per invocation (window), per program x scheme:\n");
  std::printf("  %-8s %-11s %10s %10s %10s %12s  %s\n", "program", "scheme", "user", "sys",
              "n", "calibrated", "exact");
  for (size_t c = 0; c < num_classes; ++c) {
    const Class& cls = workload->classes[c];
    uint64_t n = 0, best = 0;
    SimCost mode;  // the most frequent cost among the window's invocations
    for (const auto& [cost, count] : sim[c]) {
      n += count;
      if (count > best) {
        best = count;
        mode = SimCost{cost.first, cost.second};
      }
    }
    const SimCost& calibrated =
        world->warm[static_cast<size_t>(cls.prog)][static_cast<size_t>(cls.scheme)];
    bool exact = sim[c].size() == 1 && mode == calibrated;
    sim_modes_ok = sim_modes_ok && mode == calibrated;
    sim_total += n;
    auto same = sim[c].find({calibrated.user, calibrated.sys});
    sim_deviating += n - (same == sim[c].end() ? 0 : same->second);
    std::printf("  %-8s %-11s %10llu %10llu %10llu %12llu  %s\n", ProgName(cls.prog),
                SchemeName(cls.scheme), static_cast<unsigned long long>(mode.user),
                static_cast<unsigned long long>(mode.sys),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(calibrated.total()),
                exact ? "yes" : (workload->churn ? "no (misses after updates)" : "NO"));
    if (!exact) {
      // The most frequent other costs; a miss after an update bills its
      // rebuild, a copy-on-write fault resolved by adoption bills 400 less.
      std::vector<std::pair<uint64_t, std::pair<uint64_t, uint64_t>>> others;
      for (const auto& [cost, count] : sim[c]) {
        if (!(SimCost{cost.first, cost.second} == mode)) {
          others.push_back({count, cost});
        }
      }
      std::sort(others.rbegin(), others.rend());
      for (size_t i = 0; i < others.size() && i < 4; ++i) {
        std::printf("  %20s %10llu %10llu %10llu\n", "also seen:",
                    static_cast<unsigned long long>(others[i].second.first),
                    static_cast<unsigned long long>(others[i].second.second),
                    static_cast<unsigned long long>(others[i].first));
      }
      if (others.size() > 4) {
        std::printf("  %20s %zu more distinct costs\n", "", others.size() - 4);
      }
    }
    // The mean over the fixed weighted mix, not over the timing-dependent
    // realized counts.
    const double share = static_cast<double>(cls.weight) / workload->total_weight();
    sim_cycles += static_cast<double>(mode.total()) * share;
    sim_user += static_cast<double>(mode.user) * share;
    sim_sys += static_cast<double>(mode.sys) * share;
  }
  // The per-class cost must repeat exactly across runs and seeds. Beyond
  // that, on workloads without updates every single invocation should bill
  // its calibrated cost; one that does not is a timing-dependent charge.
  std::printf("  simulated-clock check (per-class cost == calibration): %s\n",
              sim_modes_ok ? "PASS" : "FAIL");
  if (!workload->churn) {
    std::printf("  every invocation == calibration: %s (%llu of %llu billed differently)\n",
                sim_deviating == 0 ? "PASS" : "FAIL",
                static_cast<unsigned long long>(sim_deviating),
                static_cast<unsigned long long>(sim_total));
  }

  bool correct = oracle_ok && shapes_ok && sim_modes_ok && failed == 0;
  std::vector<Metric> metrics;
  const double untraced_rate = Ratio(static_cast<double>(window_ok), untraced_s);

  if (!args.trace) {
    std::vector<double> p50s, p99s, rates;
    std::printf("\nPer slice of the untraced window (%d x %.3f s):\n", kSlices, slice_s);
    std::printf("  %5s %9s %10s %10s %12s\n", "slice", "n", "p50_us", "p99_us", "execs/s");
    uint64_t window_n = 0;
    for (size_t i = 0; i < kSlices; ++i) {
      Summary slice = slice_ns[i].SummaryUs();
      double length_s = i + 1 < kSlices ? slice_s : untraced_s - (kSlices - 1) * slice_s;
      double rate = Ratio(static_cast<double>(slice_ok[i]), length_s);
      window_n += slice.n;
      p50s.push_back(slice.p50);
      p99s.push_back(slice.p99);
      rates.push_back(rate);
      std::printf("  %5zu %9zu %10.3f %10.3f %12.1f\n", i, slice.n, slice.p50, slice.p99, rate);
    }
    const double p50 = Summarize(p50s).p50, p99 = Summarize(p99s).p50;
    const double rate = Summarize(rates).p50;
    std::printf("\nEnd-to-end (host clock, untraced window of %.2f s; median over slices):\n",
                untraced_s);
    std::printf("  exec_p50_us         %.3f  (n=%llu, %d slices)\n", p50,
                static_cast<unsigned long long>(window_n), kSlices);
    std::printf("  exec_p99_us         %.3f  (n=%llu, %d slices)\n", p99,
                static_cast<unsigned long long>(window_n), kSlices);
    std::printf("  execs_per_s         %.1f  (whole window: %.1f)\n", rate, untraced_rate);
    std::printf("  sim_cycles_per_exec %.1f  (mean over the fixed mix of %zu classes)\n",
                sim_cycles, num_classes);
    if (workload->churn) {
      std::printf("  update_p50_ms       %.3f  (n=%zu updates during the window)\n", update.p50,
                  update.n);
    }
    std::printf("  failed_ratio        %.6f  (%llu of %llu)\n",
                Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("  peak_rss_mb         %.1f\n", PeakRssMb());
    std::printf("  setup_s             %.4f\n", setup.p50);
    metrics = {
        {"exec_p50_us", p50, "us"},
        {"exec_p99_us", p99, "us"},
        {"execs_per_s", rate, "1/s"},
        {"sim_cycles_per_exec", sim_cycles, "cycles"},
        {"ok_ratio", 1.0 - Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", setup.p50, "s"},
    };
  } else {
    // ---- Per-layer split of the traced window.
    const double traced_s = (log.traced_end_ns - log.traced_begin_ns) / 1e9;
    const double traced_rate = Ratio(static_cast<double>(traced_ok), traced_s);
    const double invocations = static_cast<double>(layers.traced_invocations);
    std::printf("\nPer-layer self time, traced window of %.2f s (%llu invocations; bench-side "
                "spans around public calls)\n",
                traced_s, static_cast<unsigned long long>(layers.traced_invocations));
    std::printf("  %-26s %9s %10s %10s %11s %7s %14s\n", "layer span", "count", "p50_us",
                "p99_us", "busy_ms", "share", "sim_cyc/call");
    const double total_ns = static_cast<double>(layers.traced_total_ns);
    std::vector<Summary> spans(kNumLayers);
    double covered_ns = 0;
    for (int l = 0; l < kNumLayers; ++l) {
      spans[l] = layers.ns[l].SummaryUs();
      // Update spans run beside the invocations, not inside them.
      char share[16] = "admin";
      if (InInvocation(static_cast<Layer>(l))) {
        covered_ns += spans[l].sum * 1e3;
        std::snprintf(share, sizeof share, "%.3f", Ratio(spans[l].sum * 1e3, total_ns));
      }
      if (spans[l].n == 0) {
        continue;
      }
      std::printf("  %-26s %9zu %10.3f %10.3f %11.2f %7s %14.0f\n",
                  LayerName(static_cast<Layer>(l)), spans[l].n, spans[l].p50, spans[l].p99,
                  spans[l].sum / 1e3, share,
                  Ratio(static_cast<double>(layers.sim_cycles[l]),
                        static_cast<double>(spans[l].n)));
    }
    const double unattributed = 1.0 - Ratio(covered_ns, total_ns);
    const double overhead_pct = (Ratio(untraced_rate, traced_rate) - 1.0) * 100.0;
    std::printf("  unattributed_share %.4f   tracing overhead %.2f%% (untraced %.1f/s vs traced "
                "%.1f/s)\n",
                unattributed, overhead_pct, untraced_rate, traced_rate);
    auto share = [&](std::initializer_list<Layer> ls) {
      double sum = 0;
      for (Layer l : ls) {
        sum += spans[l].sum * 1e3;
      }
      return Ratio(sum, total_ns);
    };

    std::printf("\nRegistry counters per traced invocation (deltas over the traced window):\n");
    std::vector<Metric> counters;
    for (const char* name : kCounters) {
      double per = Ratio(
          static_cast<double>(Delta(log.counters_traced_begin, log.counters_traced_end, name)),
          invocations);
      counters.push_back({name, per, "count"});
      std::printf("  %-30s %14.4f\n", name, per);
    }
    auto delta = [&](const char* name) {
      return static_cast<double>(Delta(log.counters_traced_begin, log.counters_traced_end, name));
    };
    double cache_hit_ratio =
        Ratio(delta("cache.hits"), delta("cache.hits") + delta("cache.misses"));
    double prelink_hit_ratio =
        Ratio(delta("prelink.hits"),
              delta("prelink.hits") + delta("prelink.stale") + delta("prelink.misses"));
    double stub_hit_ratio =
        Ratio(delta("ipc.stub_cache.hits"), delta("ipc.stub_cache.hits") + delta("ipc.calls"));
    double decode_ratio =
        Ratio(delta("engine.blocks_decoded"),
              delta("engine.blocks_decoded") + delta("engine.block_hits"));
    std::printf("  cache.hit_ratio %.4f  prelink.hit_ratio %.4f  ipc.stub_hit_ratio %.4f  "
                "engine.decode_ratio %.6f\n",
                cache_hit_ratio, prelink_hit_ratio, stub_hit_ratio, decode_ratio);

    // ---- Scaling: 1 client vs all clients, block engine vs interpreter.
    const int n = workload->clients;
    const double d = std::max(0.2, 0.05 * s);
    LoadGen::Throughput b1 = loadgen.MeasureThroughput(1, d);
    LoadGen::Throughput bn = loadgen.MeasureThroughput(n, d);
    world->kernel->SetEngineMode(omos::EngineMode::kInterp);
    LoadGen::Throughput i1 = loadgen.MeasureThroughput(1, d);
    LoadGen::Throughput in = loadgen.MeasureThroughput(n, d);
    world->kernel->SetEngineMode(omos::EngineMode::kBlocks);
    double inst1 = loadgen.InstantiateRate(1, d / 2);
    double instn = loadgen.InstantiateRate(n, d / 2);
    for (const LoadGen::Throughput& t : {b1, bn, i1, in}) {
      attempted += t.attempted;
      failed += t.failed;
    }
    std::printf("\nScaling, 1 -> %d client(s), %.2f s each (traced spans on):\n", n, d);
    std::printf("  %-14s %12s %12s %9s %16s %16s\n", "engine", "1: execs/s", "n: execs/s",
                "speedup", "1: run_task p50", "n: run_task p50");
    std::printf("  %-14s %12.1f %12.1f %8.2fx %13.2f us %13.2f us\n", "blocks", b1.execs_per_s,
                bn.execs_per_s, Ratio(bn.execs_per_s, b1.execs_per_s), b1.run_task_p50_us,
                bn.run_task_p50_us);
    std::printf("  %-14s %12.1f %12.1f %8.2fx %13.2f us %13.2f us\n", "interp", i1.execs_per_s,
                in.execs_per_s, Ratio(in.execs_per_s, i1.execs_per_s), i1.run_task_p50_us,
                in.run_task_p50_us);
    std::printf("  warm Instantiate(/bin/ls): %.0f/s on 1 thread, %.0f/s on %d (%.2fx)\n", inst1,
                instn, n, Ratio(instn, inst1));

    // ---- ipc: the round trip inside every bootstrap exec, timed on its own
    // (BootstrapExec makes its Channel::Call where no bench-side span reaches).
    uint64_t ipc_failed = 0;
    Summary ipc = loadgen.ProbeIpcCall(kIpcProbes, &ipc_failed).SummaryUs();
    attempted += kIpcProbes;
    failed += ipc_failed;
    if (ipc_failed != 0 && first_failure.empty()) {
      first_failure = omos::StrCat("ipc probe: ", ipc_failed, " bootstrap requests failed");
    }
    std::printf("\n%s: Channel::Call of a bootstrap request for %s over a fresh ring channel: "
                "p50 %.3f us  p99 %.3f us  (n=%zu)\n",
                LayerName(kIpcCall), ProgMeta(workload->classes[0].prog).c_str(), ipc.p50,
                ipc.p99, ipc.n);

    // ---- The miss path on an idle server: linker, solver, store, upgrade.
    QuiescentLog quiet = loadgen.QuiescentUpdates(kQuiescentUpdates);
    attempted += quiet.updates.size();
    failed += quiet.failed;
    for (const Update& u : quiet.updates) {
      if (!u.ok && first_failure.empty()) {
        first_failure = "quiescent update: " + u.error;
      }
    }
    Summary quiet_ms = Summarize(quiet.latency_ms);
    std::printf("\nlibc updates on an idle server (%zu, alternating DefineLibrary and live "
                "upgrade; each then one invocation):\n",
                quiet.updates.size());
    std::printf("  update -> first invocation done: p50 %.3f ms  p99 %.3f ms  (n=%zu)\n",
                quiet_ms.p50, quiet_ms.p99, quiet_ms.n);
    std::vector<Summary> admin(kNumLayers);
    for (Layer l : {kDefine, kUpgradeBegin, kUpgradeDrain}) {
      admin[l] = quiet.layers.ns[l].SummaryUs();
      std::printf("  %-24s count %3zu  p50 %10.3f us  p99 %10.3f us\n",
                  LayerName(l), admin[l].n, admin[l].p50, admin[l].p99);
    }
    std::vector<Metric> per_update;
    for (const char* name : kPerUpdate) {
      double per = Ratio(static_cast<double>(Delta(quiet.counters_begin, quiet.counters_end, name)),
                         static_cast<double>(quiet.updates.size()));
      per_update.push_back({std::string(name) + "_per_update", per, "count"});
      std::printf("  %-30s %10.2f per update\n", name, per);
    }
    if (workload->churn) {
      std::printf("  (under traffic, traced window: update -> first invocation done p50 %.3f ms, "
                  "p99 %.3f ms, n=%zu)\n",
                  update.p50, update.p99, update.n);
    }

    metrics = {
        {"core.exec_integrated_us", spans[kExecIntegrated].p50, "us"},
        {"core.exec_prelinked_us", spans[kExecPrelinked].p50, "us"},
        {"core.exec_bootstrap_us", spans[kExecBootstrap].p50, "us"},
        {"ipc.call_us", ipc.p50, "us"},
        {"os.run_task_us", spans[kRunTask].p50, "us"},
        {"core.teardown_us", spans[kTeardown].p50, "us"},
        {"core.define_us", admin[kDefine].p50, "us"},
        {"upgrade.begin_us", admin[kUpgradeBegin].p50, "us"},
        {"upgrade.drain_us", admin[kUpgradeDrain].p50, "us"},
        {"update.quiescent_p50_ms", quiet_ms.p50, "ms"},
        {"bench.task_table_wait_us", Ratio(spans[kWait].sum, invocations), "us"},
        {"core.exec_share",
         share({kExecIntegrated, kExecPrelinked, kExecBootstrap}), "share"},
        {"os.run_task_share", share({kRunTask}), "share"},
        {"core.teardown_share", share({kTeardown}), "share"},
        {"bench.wait_share", share({kWait}), "share"},
        {"unattributed_share", unattributed, "share"},
        {"tracing_overhead_pct", overhead_pct, "%"},
        {"sim.user_cycles_per_exec", sim_user, "cycles"},
        {"sim.sys_cycles_per_exec", sim_sys, "cycles"},
        {"cache.hit_ratio", cache_hit_ratio, "ratio"},
        {"prelink.hit_ratio", prelink_hit_ratio, "ratio"},
        {"ipc.stub_hit_ratio", stub_hit_ratio, "ratio"},
        {"engine.decode_ratio", decode_ratio, "ratio"},
        {"scaling.blocks_speedup", Ratio(bn.execs_per_s, b1.execs_per_s), "x"},
        {"scaling.interp_speedup", Ratio(in.execs_per_s, i1.execs_per_s), "x"},
        {"core.instantiate_speedup", Ratio(instn, inst1), "x"},
    };
    metrics.insert(metrics.end(), counters.begin(), counters.end());
    metrics.insert(metrics.end(), per_update.begin(), per_update.end());
    correct = correct && failed == 0;
  }

  if (!first_failure.empty()) {
    std::printf("\nfirst failure: %s\n", first_failure.c_str());
  }
  std::printf("\ncorrect: %s (oracle self-test %s, Table 1 shapes %s, simulated clock %s, "
              "%llu failed of %llu)\n",
              correct ? "true" : "false", oracle_ok ? "ok" : "FAIL", shapes_ok ? "ok" : "FAIL",
              sim_modes_ok ? "ok" : "FAIL", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace omosbench

int main(int argc, char** argv) { return omosbench::Main(argc, argv); }
