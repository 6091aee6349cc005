#include "omosbench/world.h"

#include "src/baseline/dynlib.h"
#include "src/support/strings.h"
#include "src/workloads/workloads.h"

namespace omosbench {

using omos::Err;
using omos::ErrorCode;
using omos::Result;

namespace {

struct ProgSpec {
  const char* name;
  std::string meta;
  std::vector<std::string> args;
  std::vector<std::string> libs;
};

const std::array<ProgSpec, kNumProgs>& Progs() {
  static const std::array<ProgSpec, kNumProgs> progs = {{
      {"ls", "/bin/ls", {"ls", "/data"}, {"/lib/libc"}},
      {"ls -laF", "/bin/ls", {"ls", "-laF", "/data"}, {"/lib/libc"}},
      {"codegen",
       "/bin/codegen",
       {"codegen"},
       {"/lib/libc", "/lib/alpha1", "/lib/alpha2", "/lib/libm", "/lib/libl", "/lib/libC"}},
      {"ls-dyn", "/bin/lsdyn", {"ls", "/data"}, {"/lib/libc", "/lib/libm", "/lib/alpha1"}},
  }};
  return progs;
}

const ProgSpec& Spec(Prog prog) { return Progs()[static_cast<size_t>(prog)]; }

// Library path -> archive and the base address its constraint pins.
struct LibDef {
  const char* path;
  const char* archive_dir;
  const char* base;
};
constexpr LibDef kLibs[] = {
    {"/lib/libc", "/libc", "0x2000000"},   {"/lib/alpha1", "/alpha1", "0x3000000"},
    {"/lib/alpha2", "/alpha2", "0x4000000"}, {"/lib/libm", "/libm", "0x5000000"},
    {"/lib/libl", "/libl", "0x6000000"},   {"/lib/libC", "/libC", "0x7000000"},
};

std::string LibBlueprint(const LibDef& lib) {
  return omos::StrCat("(constraint-list \"T\" ", lib.base, ")\n(merge ", lib.archive_dir, ")");
}

Result<Reference> RunBaseline(omos::Kernel& kernel, omos::Rtld& rtld, const std::string& name,
                              const std::vector<std::string>& args) {
  OMOS_TRY(omos::TaskId id, rtld.Exec(name, args));
  omos::Task* task = kernel.FindTask(id);
  OMOS_TRY_VOID(kernel.RunTask(*task));
  Reference ref{task->exit_code(), task->output(), task->elapsed_cycles()};
  bool exited = task->state() == omos::TaskState::kExited;
  rtld.ReleaseTask(id);
  kernel.DestroyTask(id);
  if (!exited) {
    return Err(ErrorCode::kInternal, omos::StrCat("baseline ", name, " did not exit"));
  }
  return ref;
}

// The independent reference: every program run once warm in the
// traditional shared-library world (src/baseline), never in OMOS.
Result<std::array<Reference, kNumProgs>> BaselineReferences(const omos::Workloads& w) {
  omos::Kernel kernel;
  omos::PopulateLsData(kernel.fs());
  omos::PopulateCodegenInputs(kernel.fs());
  omos::Rtld rtld(kernel);
  omos::DynLibBuilder dynlib;
  std::vector<const omos::DynImage*> all_libs;
  for (const omos::Archive* archive :
       {&w.libc, &w.alpha1, &w.alpha2, &w.libm, &w.libl, &w.libcpp}) {
    OMOS_TRY(omos::Module m, omos::ModuleFromArchive(*archive));
    OMOS_TRY(omos::DynImage lib, dynlib.BuildLibrary(archive->name(), m));
    OMOS_TRY_VOID(rtld.Install(std::move(lib)));
    all_libs.push_back(rtld.Find(archive->name()));
  }
  OMOS_TRY(omos::Module ls_module, omos::ModuleFromObjects({w.crt0, w.ls_obj}));
  OMOS_TRY(omos::DynImage ls_prog,
           dynlib.BuildExecutable("ls", ls_module, {rtld.Find("libc")}));
  OMOS_TRY_VOID(rtld.Install(std::move(ls_prog)));
  std::vector<omos::ObjectFile> cg_objs = w.codegen_objs;
  cg_objs.insert(cg_objs.begin(), w.crt0);
  OMOS_TRY(omos::Module cg_module, omos::ModuleFromObjects(cg_objs));
  OMOS_TRY(omos::DynImage cg_prog, dynlib.BuildExecutable("codegen", cg_module, all_libs));
  OMOS_TRY_VOID(rtld.Install(std::move(cg_prog)));

  std::array<Reference, kNumProgs> refs;
  for (Prog prog : {Prog::kLs, Prog::kLsLaF, Prog::kCodegen}) {
    const std::string exe = prog == Prog::kCodegen ? "codegen" : "ls";
    OMOS_TRY_VOID(RunBaseline(kernel, rtld, exe, Spec(prog).args));  // warm
    OMOS_TRY(refs[static_cast<size_t>(prog)], RunBaseline(kernel, rtld, exe, Spec(prog).args));
  }
  refs[static_cast<size_t>(Prog::kLsDyn)] = refs[static_cast<size_t>(Prog::kLs)];
  return refs;
}

Result<void> DefineNamespace(omos::OmosServer& server, const omos::Workloads& w) {
  OMOS_TRY_VOID(server.AddFragment("/lib/crt0.o", w.crt0));
  OMOS_TRY_VOID(server.AddFragment("/obj/ls.o", w.ls_obj));
  OMOS_TRY_VOID(server.AddArchive("/libc", w.libc));
  OMOS_TRY_VOID(server.AddArchive("/alpha1", w.alpha1));
  OMOS_TRY_VOID(server.AddArchive("/alpha2", w.alpha2));
  OMOS_TRY_VOID(server.AddArchive("/libm", w.libm));
  OMOS_TRY_VOID(server.AddArchive("/libl", w.libl));
  OMOS_TRY_VOID(server.AddArchive("/libC", w.libcpp));
  for (const LibDef& lib : kLibs) {
    OMOS_TRY_VOID(server.DefineLibrary(lib.path, LibBlueprint(lib)));
  }
  OMOS_TRY_VOID(server.DefineMeta("/bin/ls", "(merge /lib/crt0.o /obj/ls.o /lib/libc)"));
  std::string cg_meta = "(merge /lib/crt0.o";
  for (size_t i = 0; i < w.codegen_objs.size(); ++i) {
    std::string path = omos::StrCat("/obj/cg", i, ".o");
    OMOS_TRY_VOID(server.AddFragment(path, w.codegen_objs[i]));
    cg_meta += " " + path;
  }
  cg_meta += " /lib/libc /lib/alpha1 /lib/alpha2 /lib/libm /lib/libl /lib/libC)";
  OMOS_TRY_VOID(server.DefineMeta("/bin/codegen", cg_meta));
  // The benchmark's own lib-dynamic ls: libc demand-loaded through partial-
  // image stubs (the live-upgrade target); libm and alpha1 ride along so
  // their redefinitions reach a running client too.
  return server.DefineMeta("/bin/lsdyn",
                           "(merge /lib/crt0.o /obj/ls.o"
                           " (specialize \"lib-dynamic\" /lib/libc)"
                           " (specialize \"lib-dynamic\" /lib/libm)"
                           " (specialize \"lib-dynamic\" /lib/alpha1))");
}

}  // namespace

const char* ProgName(Prog prog) { return Spec(prog).name; }

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kIntegrated:
      return "integrated";
    case Scheme::kPrelinked:
      return "prelinked";
    case Scheme::kBootstrap:
      return "bootstrap";
  }
  return "?";
}

const std::string& ProgMeta(Prog prog) { return Spec(prog).meta; }
const std::vector<std::string>& ProgArgs(Prog prog) { return Spec(prog).args; }

bool ProgUsesLib(Prog prog, const std::string& lib_path) {
  for (const std::string& lib : Spec(prog).libs) {
    if (lib == lib_path) {
      return true;
    }
  }
  return false;
}

const std::vector<LibVersions>& UpdatableLibs() {
  static const std::vector<LibVersions> libs = [] {
    std::vector<LibVersions> out;
    for (const LibDef& lib : kLibs) {
      std::string path = lib.path;
      if (path != "/lib/libc" && path != "/lib/libm" && path != "/lib/alpha1") {
        continue;
      }
      // The second version differs only by a comment: it links to the same
      // bytes, so outputs and simulated costs stay comparable.
      out.push_back({path, {LibBlueprint(lib), LibBlueprint(lib) + "\n; revision b\n"}});
    }
    return out;
  }();
  return libs;
}

bool MatchesReference(const Reference& ref, const RunResult& got, std::string* why) {
  if (got.state != omos::TaskState::kExited) {
    *why = "did not exit";
  } else if (got.exit_code != ref.exit_code) {
    *why = omos::StrCat("exit ", got.exit_code, " want ", ref.exit_code);
  } else if (got.output != ref.output) {
    *why = "output differs from the baseline reference";
  } else {
    return true;
  }
  return false;
}

Result<omos::TaskId> Exec(World& world, Prog prog, Scheme scheme) {
  omos::OmosServer& server = *world.server;
  switch (scheme) {
    case Scheme::kIntegrated:
      return server.IntegratedExec(ProgMeta(prog), ProgArgs(prog));
    case Scheme::kPrelinked:
      return server.PrelinkedExec(ProgMeta(prog), ProgArgs(prog));
    case Scheme::kBootstrap:
      return server.BootstrapExec(ProgMeta(prog), ProgArgs(prog));
  }
  return Err(ErrorCode::kInvalidArgument, "unknown scheme");
}

Result<RunResult> RunOnce(World& world, Prog prog, Scheme scheme) {
  OMOS_TRY(omos::TaskId id, Exec(world, prog, scheme));
  omos::Task* task = world.kernel->FindTask(id);
  Result<void> ran = world.kernel->RunTask(*task);
  RunResult out{task->state(), task->exit_code(), task->output(),
                SimCost{task->user_cycles(), task->sys_cycles()}};
  world.server->ReleaseTask(id);
  world.kernel->DestroyTask(id);
  OMOS_TRY_VOID(ran);
  return out;
}

Result<std::unique_ptr<World>> BuildWorld() {
  OMOS_TRY(omos::Workloads w, omos::BuildWorkloads(omos::WorkloadParams()));
  auto world = std::make_unique<World>();
  OMOS_TRY(world->refs, BaselineReferences(w));

  world->kernel = std::make_unique<omos::Kernel>();
  world->kernel->SetEngineMode(omos::EngineMode::kBlocks);  // ignore OMOS_ENGINE
  omos::PopulateLsData(world->kernel->fs());
  omos::PopulateCodegenInputs(world->kernel->fs());
  world->disk = std::make_unique<omos::SimFs>();
  world->store =
      std::make_unique<omos::ImageStore>(*world->disk, "/omos-store", &world->kernel->costs());
  OMOS_TRY_VOID(world->store->Open());
  world->server = std::make_unique<omos::OmosServer>(*world->kernel);
  omos::OmosServer& server = *world->server;
  server.AttachStore(world->store.get());
  server.SetExecTransport(omos::OmosServer::ExecTransport::kRing);
  server.EnableBackgroundOptimizer();
  OMOS_TRY_VOID(DefineNamespace(server, w));
  world->lib_version.assign(UpdatableLibs().size(), 0);

  // Warm: instantiate every program, then record the prelink table.
  for (Prog prog : {Prog::kLs, Prog::kCodegen, Prog::kLsDyn}) {
    uint64_t work = 0;
    omos::ImageCache::ReadLease lease(server.cache());
    OMOS_TRY_VOID(server.Instantiate(ProgMeta(prog), {}, &work));
  }
  OMOS_TRY_VOID(server.PrelinkNamespace("/bin"));
  server.DrainBackgroundWork();

  // Calibrate: the third run of each pair is the warm cost; the second and
  // third must agree or the simulated clock is not deterministic.
  for (int p = 0; p < kNumProgs; ++p) {
    for (int s = 0; s < kNumSchemes; ++s) {
      Prog prog = static_cast<Prog>(p);
      Scheme scheme = static_cast<Scheme>(s);
      if (prog == Prog::kLsDyn && scheme == Scheme::kPrelinked) {
        continue;  // lib-dynamic programs are not prelinked
      }
      SimCost costs[3];
      for (SimCost& cost : costs) {
        OMOS_TRY(RunResult run, RunOnce(*world, prog, scheme));
        cost = run.cost;
      }
      if (!(costs[1] == costs[2])) {
        return Err(ErrorCode::kInternal,
                   omos::StrCat("simulated cost of ", ProgName(prog), " ", SchemeName(scheme),
                                " differs between warm runs"));
      }
      world->warm[static_cast<size_t>(p)][static_cast<size_t>(s)] = costs[2];
    }
  }
  server.DrainBackgroundWork();
  return world;
}

}  // namespace omosbench
