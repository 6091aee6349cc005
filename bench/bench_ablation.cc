// Ablation of OMOS's design choices (DESIGN.md §4), on the ls workload:
//
//   1. image cache OFF    — every exec re-evaluates, re-links and re-places
//                           (what a per-process dynamic linker fundamentally
//                           does; isolates the value of the *persistent
//                           server with cache*)
//   2. image cache ON     — the shipped configuration
//   3. partial-image      — lazy stubs instead of pre-bound addresses
//                           (flexibility/debuggability for first-call cost)
//   4. bootstrap vs integrated exec — isolates the IPC + loader overhead
#include <cstdio>

#include "bench/bench_common.h"

namespace omos {
namespace {

InvocationCost RunOnce(OmosWorld& world, const char* meta, bool integrated) {
  return world.Run(meta, {"ls", "/data"}, integrated);
}

}  // namespace
}  // namespace omos

int main() {
  using namespace omos;
  std::printf("=== Ablation: what each OMOS design choice buys (ls workload) ===\n\n");

  // 2/4: shipped configurations, warm.
  OmosWorld world = MakeOmosWorld();
  world.Warm();
  (void)RunOnce(world, "/bin/ls", true);
  InvocationCost integrated = RunOnce(world, "/bin/ls", true);
  InvocationCost bootstrap = RunOnce(world, "/bin/ls", false);

  // 1: cache off — evict everything between execs, forcing a rebuild.
  InvocationCost no_cache;
  {
    OmosWorld cold = MakeOmosWorld();
    // Warm once so constraint placements stabilize, then measure with the
    // cache emptied before each exec.
    (void)RunOnce(cold, "/bin/ls", true);
    cold.server->cache().EvictIf([](const CachedImage&) { return true; });
    no_cache = RunOnce(cold, "/bin/ls", true);
  }

  // 3: partial-image (lib-dynamic) variant of the same program.
  InvocationCost partial;
  {
    OmosWorld lazy = MakeOmosWorld();
    BENCH_CHECK(lazy.server->DefineMeta(
        "/bin/ls-lazy",
        "(merge /lib/crt0.o /obj/ls.o (specialize \"lib-dynamic\" /lib/libc))"));
    (void)RunOnce(lazy, "/bin/ls-lazy", true);
    partial = RunOnce(lazy, "/bin/ls-lazy", true);
  }

  auto row = [](const char* name, InvocationCost cost, InvocationCost baseline) {
    std::printf("  %-34s user=%7llu sys=%7llu elapsed=%8llu  (%.2fx)\n", name,
                static_cast<unsigned long long>(cost.user),
                static_cast<unsigned long long>(cost.sys),
                static_cast<unsigned long long>(cost.elapsed()),
                static_cast<double>(cost.elapsed()) / static_cast<double>(baseline.elapsed()));
  };
  row("integrated exec, cache ON", integrated, integrated);
  row("bootstrap exec, cache ON", bootstrap, integrated);
  row("integrated exec, cache OFF", no_cache, integrated);
  row("partial-image (lazy stubs)", partial, integrated);

  std::printf(
      "\nReadings: the cache is the headline win (per-exec re-linking costs\n"
      "many times a warm exec); the bootstrap+IPC path costs a constant\n"
      "premium over integrated exec; partial-image trades a small first-call\n"
      "penalty for ordinary-executable semantics.\n");
  return no_cache.elapsed() > integrated.elapsed() ? 0 : 1;
}
