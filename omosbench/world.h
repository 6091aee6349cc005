// The benchmark's world: a fully configured OMOS server (ring exec
// transport, fleet-wide prelink, background optimizer, an ImageStore on its
// own SimFs disk) plus the reference outputs every invocation is checked
// against, computed from the traditional shared-library world.
#ifndef OMOSBENCH_WORLD_H_
#define OMOSBENCH_WORLD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/os/kernel.h"
#include "src/os/sim_fs.h"
#include "src/store/image_store.h"
#include "src/support/result.h"

namespace omosbench {

// A program the clients run: a meta-object path plus argv. `lib_deps`
// names the libraries whose redefinition the program sees.
enum class Prog : uint8_t { kLs, kLsLaF, kCodegen, kLsDyn };
inline constexpr int kNumProgs = 4;

// How an invocation reaches the server.
//   kIntegrated — IntegratedExec (OMOS wired into exec)
//   kPrelinked  — PrelinkedExec (prelink-table probe, zero relocations)
//   kBootstrap  — BootstrapExec (bootstrap loader + one ring round trip)
enum class Scheme : uint8_t { kIntegrated, kPrelinked, kBootstrap };
inline constexpr int kNumSchemes = 3;

const char* ProgName(Prog prog);
const char* SchemeName(Scheme scheme);
const std::string& ProgMeta(Prog prog);
const std::vector<std::string>& ProgArgs(Prog prog);
// Whether `prog` is built from `lib_path` (so its redefinition reaches it).
bool ProgUsesLib(Prog prog, const std::string& lib_path);

// What a correct invocation prints and returns; `cycles` is the
// traditional shared-library world's simulated user+sys cycles (the Table 1
// denominator).
struct Reference {
  int exit_code = 0;
  std::string output;
  uint64_t cycles = 0;
};

// Simulated cost of one warm invocation.
struct SimCost {
  uint64_t user = 0;
  uint64_t sys = 0;
  uint64_t total() const { return user + sys; }
  bool operator==(const SimCost&) const = default;
};

// Libraries the update schedules redefine, each with two equivalent
// blueprints (same link, different text) so every update is a real change.
struct LibVersions {
  std::string path;
  std::array<std::string, 2> blueprints;
};
const std::vector<LibVersions>& UpdatableLibs();

struct World {
  // Destruction runs bottom-up: the server goes before the store, the
  // store before its disk, the kernel last.
  std::unique_ptr<omos::Kernel> kernel;
  std::unique_ptr<omos::SimFs> disk;  // the store's device, apart from the kernel's fs
  std::unique_ptr<omos::ImageStore> store;
  std::unique_ptr<omos::OmosServer> server;

  std::array<Reference, kNumProgs> refs;
  // Warm simulated cost of every program x scheme the benchmark can run,
  // measured single-threaded during set-up.
  std::array<std::array<SimCost, kNumSchemes>, kNumProgs> warm{};
  // Which blueprint of each UpdatableLibs() entry is current.
  std::vector<int> lib_version;
};

// Build the workloads, compute references from the traditional world,
// define the OMOS namespace, warm, prelink, open the store, and calibrate
// warm simulated costs.
omos::Result<std::unique_ptr<World>> BuildWorld();

// Exec, run and tear down one invocation single-threaded (set-up and the
// oracle self-test only).
struct RunResult {
  omos::TaskState state = omos::TaskState::kRunnable;
  int exit_code = 0;
  std::string output;
  SimCost cost;
};
omos::Result<RunResult> RunOnce(World& world, Prog prog, Scheme scheme);

// The output oracle: true when `got` exited with the reference's exit code
// and printed exactly its output; otherwise *why says how it differs.
bool MatchesReference(const Reference& ref, const RunResult& got, std::string* why);

// Exec `prog` under `scheme` through the server's exec entry point and
// return the started task. The caller serializes this with every other
// task-table mutation.
omos::Result<omos::TaskId> Exec(World& world, Prog prog, Scheme scheme);

}  // namespace omosbench

#endif  // OMOSBENCH_WORLD_H_
