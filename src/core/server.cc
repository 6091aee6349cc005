#include "src/core/server.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include <chrono>

#include "src/cc/compiler.h"
#include "src/core/stubgen.h"
#include "src/support/faultsim.h"
#include "src/ipc/ring_transport.h"
#include "src/objfmt/backend.h"
#include "src/support/log.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "src/vasm/assembler.h"

namespace omos {

namespace {

constexpr int kMaxEvalDepth = 64;

// One namespace mutation (see OmosServer::namespace_generation). It holds
// the admin lock, so mutations never overlap, and the generation is odd
// from construction to destruction, so a build that overlaps the mutation
// in any way finds its stamp stale.
class NamespaceMutation {
 public:
  NamespaceMutation(std::mutex& admin_mu, std::atomic<uint64_t>& generation)
      : lock_(admin_mu), generation_(generation) {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~NamespaceMutation() { generation_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::lock_guard<std::mutex> lock_;
  std::atomic<uint64_t>& generation_;
};

// Simulated cycles to assemble one line of generated source.
constexpr uint64_t kAssembleLineCost = 40;

uint32_t AlignTo(uint32_t value, uint32_t align) { return (value + align - 1) / align * align; }

// Regex alternation matching exactly the given names: "^(a|b|c)$".
std::string NamesPattern(const std::vector<std::string>& names) {
  std::string pattern = "^(";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) {
      pattern.push_back('|');
    }
    pattern += names[i];
  }
  pattern += ")$";
  return pattern;
}

}  // namespace

// ---- Specialization ---------------------------------------------------------

std::string Specialization::ToKeyString() const {
  std::string out = name;
  if (hints.text_base.has_value()) {
    out += ";T=" + Hex32(*hints.text_base);
  }
  if (hints.data_base.has_value()) {
    out += ";D=" + Hex32(*hints.data_base);
  }
  return out;
}

Specialization Specialization::FromKeyString(std::string_view text) {
  Specialization spec;
  std::vector<std::string> parts = SplitString(text, ';');
  if (!parts.empty()) {
    spec.name = parts[0];
  }
  for (size_t i = 1; i < parts.size(); ++i) {
    if (StartsWith(parts[i], "T=")) {
      spec.hints.text_base = static_cast<uint32_t>(std::stoul(parts[i].substr(2), nullptr, 0));
    } else if (StartsWith(parts[i], "D=")) {
      spec.hints.data_base = static_cast<uint32_t>(std::stoul(parts[i].substr(2), nullptr, 0));
    }
  }
  return spec;
}

// ---- Construction -----------------------------------------------------------

OmosServer::OmosServer(Kernel& kernel, Config config)
    : kernel_(&kernel), config_(config), cache_(config.cache_capacity_bytes),
      solver_(config.arenas) {
  kernel_->SetSysHook(kSysDload,
                      [this](Kernel& k, Task& t) { return HandleDload(k, t); });
  kernel_->SetSysHook(kSysMonLog,
                      [this](Kernel& k, Task& t) { return HandleMonLog(k, t); });
  kernel_->SetSysHook(kSysOmosLoad,
                      [this](Kernel& k, Task& t) { return HandleOmosLoadSys(k, t); });
  kernel_->SetSysHook(kSysOmosUnload,
                      [this](Kernel& k, Task& t) { return HandleOmosUnloadSys(k, t); });
  kernel_->SetSafepointHook([this](Kernel& k, Task& t) { return HandleSafepoint(k, t); });
  optimizer_->server = this;
}

OmosServer::~OmosServer() {
  // Background jobs hold a shared_ptr to optimizer_, not to the server;
  // blank the back-pointer (waiting out any job mid-run) so jobs that fire
  // after this point are no-ops.
  std::lock_guard<std::mutex> lock(optimizer_->job_mu);
  optimizer_->server = nullptr;
}

void OmosServer::InvalidateImagesOf(const std::vector<std::string>& paths) {
  std::vector<std::string> evicted = EvictStale(paths, {});
  std::set<std::string> victim_paths(paths.begin(), paths.end());
  {
    std::lock_guard<std::mutex> lock(solver_mu_);
    for (const std::string& key : evicted) {
      solver_.Release(key);
      std::string_view path_part = key;
      SplitCacheKey(key, &path_part, nullptr);
      victim_paths.emplace(path_part);
    }
  }
  // Persisted images of the victims are stale too. Space management only:
  // a stale record is already unreachable (its fingerprint covers the old
  // inputs), so a failed tombstone costs bytes, not correctness.
  if (store_ != nullptr) {
    for (const std::string& victim : victim_paths) {
      (void)store_->InvalidatePrefix(victim + std::string(kCacheKeySep));
    }
  }
  // Optimizer bookkeeping for invalidated images is stale: drop hit counts
  // and aliases so the rebuilt image earns optimization afresh.
  {
    std::lock_guard<std::mutex> lock(optimizer_->mu);
    for (const std::string& key : evicted) {
      optimizer_->warm_hits.erase(key);
      optimizer_->attempted.erase(key);
      optimizer_->alias.erase(key);
    }
  }
  // Predecoded blocks of the victims' text are stale the moment a rebuilt
  // image can be mapped; running tasks pick up the flush at their next
  // block boundary. (Frame recycling alone would also retire the keys, but
  // only after the last task unmaps the old image.)
  kernel_->engine().InvalidateAll("redefine");
}

Result<void> OmosServer::Redefine(std::vector<std::string> paths,
                                  const std::function<Result<void>()>& update) {
  for (std::string& path : paths) {
    path = OmosNamespace::Normalize(path);
  }
  std::sort(paths.begin(), paths.end());
  // The update and the eviction walk are one mutation. A build that
  // overlaps either is not cached, so a placement the walk releases is never
  // one that a freshly cached image reuses.
  NamespaceMutation mutation(admin_mu_, namespace_generation_);
  Result<void> updated = update();
  InvalidateImagesOf(paths);
  return updated;
}

Result<void> OmosServer::DefineMeta(std::string_view path, std::string_view blueprint) {
  return Redefine({std::string(path)},
                  [&] { return namespace_.DefineMeta(path, blueprint, EntryKind::kMeta); });
}

Result<void> OmosServer::DefineLibrary(std::string_view path, std::string_view blueprint) {
  return Redefine({std::string(path)},
                  [&] { return namespace_.DefineMeta(path, blueprint, EntryKind::kLibrary); });
}

Result<void> OmosServer::AddFragment(std::string_view path, ObjectFile object) {
  return Redefine({std::string(path)},
                  [&] { return namespace_.AddFragment(path, std::move(object)); });
}

Result<void> OmosServer::AddArchive(std::string_view dir, const Archive& archive) {
  std::vector<std::string> paths{std::string(dir)};
  std::string meta = "(merge";
  for (const ObjectFile& member : archive.members()) {
    paths.push_back(StrCat(dir, "/", member.name()));
    meta += " " + paths.back();
  }
  meta += ")";
  return Redefine(paths, [&]() -> Result<void> {
    for (size_t i = 1; i < paths.size(); ++i) {
      OMOS_TRY_VOID(namespace_.AddFragment(paths[i], archive.members()[i - 1]));
    }
    return namespace_.DefineMeta(dir, meta, EntryKind::kMeta);
  });
}

// ---- Blueprint evaluation ---------------------------------------------------

Result<Module> OmosServer::RequireModule(EvalValue value, std::string_view op) const {
  if (!value.module.has_value()) {
    return Err(ErrorCode::kInvalidArgument,
               StrCat(op, ": operand yields no module (library references need merge context)"));
  }
  return std::move(*value.module);
}

Result<Module> OmosServer::MergeValues(std::vector<EvalValue> values, EvalValue& out,
                                       bool override_mode) {
  std::optional<Module> acc;
  for (EvalValue& value : values) {
    out.libs.insert(out.libs.end(), value.libs.begin(), value.libs.end());
    if (value.hints.text_base.has_value()) {
      out.hints.text_base = value.hints.text_base;
    }
    if (value.hints.data_base.has_value()) {
      out.hints.data_base = value.hints.data_base;
    }
    if (!value.module.has_value()) {
      continue;
    }
    if (!acc.has_value()) {
      acc = std::move(*value.module);
    } else if (override_mode) {
      OMOS_TRY(acc, Module::Override(*acc, *value.module));
    } else {
      OMOS_TRY(acc, Module::Merge(*acc, *value.module));
    }
  }
  if (!acc.has_value()) {
    acc = Module();
  }
  return std::move(*acc);
}

Result<OmosServer::EvalValue> OmosServer::EvalName(const std::string& name, BuildTracker& tracker,
                                                   int depth) {
  tracker.inputs.insert(OmosNamespace::Normalize(name));
  OMOS_TRY(const NamespaceEntry* entry, namespace_.Lookup(name));
  EvalValue value;
  switch (entry->kind) {
    case EntryKind::kFragment:
      value.module = Module::FromObject(entry->fragment);
      return value;
    case EntryKind::kLibrary: {
      LibraryUse use;
      use.path = OmosNamespace::Normalize(name);
      use.spec.name = entry->default_spec;
      // The library's own constraint-list is its *default* placement and is
      // applied when the library image itself is built; only explicit
      // specialize-time hints travel in the spec (and hence the cache key).
      value.libs.push_back(std::move(use));
      return value;
    }
    case EntryKind::kMeta:
      return Eval(entry->construction, tracker, depth + 1);
  }
  return Err(ErrorCode::kInternal, "bad namespace entry kind");
}

Result<OmosServer::EvalValue> OmosServer::Eval(const Sexpr& expr, BuildTracker& tracker,
                                               int depth) {
  if (depth > kMaxEvalDepth) {
    return Err(ErrorCode::kParseError, "blueprint: evaluation too deep (cycle?)");
  }
  if (expr.kind == Sexpr::Kind::kSymbol) {
    return EvalName(expr.atom, tracker, depth);
  }
  if (expr.IsAtom()) {
    return Err(ErrorCode::kParseError,
               StrCat("blueprint: cannot evaluate atom '", expr.ToString(), "'"));
  }
  if (expr.children.empty() || expr.children[0].kind != Sexpr::Kind::kSymbol) {
    return Err(ErrorCode::kParseError, "blueprint: expected (operation args...)");
  }
  const std::string& op = expr.children[0].atom;

  auto eval_operands = [&](size_t first) -> Result<std::vector<EvalValue>> {
    std::vector<EvalValue> values;
    for (size_t i = first; i < expr.children.size(); ++i) {
      OMOS_TRY(EvalValue value, Eval(expr.children[i], tracker, depth + 1));
      values.push_back(std::move(value));
    }
    return values;
  };
  auto string_arg = [&](size_t i) -> Result<std::string> {
    if (i >= expr.children.size() || expr.children[i].kind != Sexpr::Kind::kString) {
      return Err(ErrorCode::kParseError, StrCat(op, ": argument ", i, " must be a string"));
    }
    return expr.children[i].atom;
  };
  auto unary_operand = [&](size_t first) -> Result<EvalValue> {
    OMOS_TRY(std::vector<EvalValue> values, eval_operands(first));
    if (values.empty()) {
      return Err(ErrorCode::kParseError, StrCat(op, ": missing operand"));
    }
    EvalValue out;
    OMOS_TRY(Module merged, MergeValues(std::move(values), out, /*override_mode=*/false));
    out.module = std::move(merged);
    return out;
  };

  if (op == "merge" || op == "list") {
    OMOS_TRY(std::vector<EvalValue> values, eval_operands(1));
    EvalValue out;
    OMOS_TRY(Module merged, MergeValues(std::move(values), out, /*override_mode=*/false));
    out.module = std::move(merged);
    return out;
  }
  if (op == "override") {
    OMOS_TRY(std::vector<EvalValue> values, eval_operands(1));
    EvalValue out;
    OMOS_TRY(Module merged, MergeValues(std::move(values), out, /*override_mode=*/true));
    out.module = std::move(merged);
    return out;
  }
  if (op == "freeze" || op == "restrict" || op == "project" || op == "hide" || op == "show") {
    OMOS_TRY(std::string pattern, string_arg(1));
    OMOS_TRY(EvalValue value, unary_operand(2));
    Module m = std::move(*value.module);
    if (op == "freeze") {
      m = m.Freeze(pattern);
    } else if (op == "restrict") {
      m = m.Restrict(pattern);
    } else if (op == "project") {
      m = m.Project(pattern);
    } else if (op == "hide") {
      m = m.Hide(pattern);
    } else {
      m = m.Show(pattern);
    }
    value.module = std::move(m);
    return value;
  }
  if (op == "copy-as" || op == "copy_as") {
    OMOS_TRY(std::string pattern, string_arg(1));
    OMOS_TRY(std::string newname, string_arg(2));
    OMOS_TRY(EvalValue value, unary_operand(3));
    value.module = value.module->CopyAs(pattern, newname);
    return value;
  }
  if (op == "rename") {
    OMOS_TRY(std::string pattern, string_arg(1));
    OMOS_TRY(std::string newname, string_arg(2));
    size_t operand_start = 3;
    RenameWhich which = RenameWhich::kBoth;
    if (expr.children.size() > 3 && expr.children[3].kind == Sexpr::Kind::kString) {
      const std::string& w = expr.children[3].atom;
      if (w == "refs") {
        which = RenameWhich::kRefs;
      } else if (w == "defs") {
        which = RenameWhich::kDefs;
      } else if (w == "both") {
        which = RenameWhich::kBoth;
      } else {
        return Err(ErrorCode::kParseError, StrCat("rename: bad selector '", w, "'"));
      }
      operand_start = 4;
    }
    OMOS_TRY(EvalValue value, unary_operand(operand_start));
    value.module = value.module->Rename(pattern, newname, which);
    return value;
  }
  if (op == "source") {
    OMOS_TRY(std::string lang, string_arg(1));
    OMOS_TRY(std::string text, string_arg(2));
    size_t lines = 1 + std::count(text.begin(), text.end(), '\n');
    tracker.work += kAssembleLineCost * lines;
    ObjectFile object;
    if (lang == "asm") {
      OMOS_TRY(object, Assemble(text, "source.s"));
    } else if (lang == "c") {
      OMOS_TRY(std::string asm_text, CompileC(text));
      OMOS_TRY(object, Assemble(asm_text, "source.c"));
    } else {
      return Err(ErrorCode::kUnsupported, StrCat("source: unknown language '", lang, "'"));
    }
    EvalValue value;
    value.module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
    return value;
  }
  if (op == "specialize") {
    OMOS_TRY(std::string spec_name, string_arg(1));
    PlacementHints hints;
    size_t operand_start = 2;
    // Optional (list "T" addr ["D" addr]) placement argument.
    if (expr.children.size() > 2 && expr.children[2].kind == Sexpr::Kind::kList &&
        !expr.children[2].children.empty() && expr.children[2].children[0].atom == "list") {
      const auto& args = expr.children[2].children;
      for (size_t i = 1; i + 1 < args.size(); i += 2) {
        if (args[i].atom == "T") {
          hints.text_base = static_cast<uint32_t>(args[i + 1].number);
        } else if (args[i].atom == "D") {
          hints.data_base = static_cast<uint32_t>(args[i + 1].number);
        }
      }
      operand_start = 3;
    }
    OMOS_TRY(std::vector<EvalValue> values, eval_operands(operand_start));
    EvalValue out;
    OMOS_TRY(Module merged, MergeValues(std::move(values), out, /*override_mode=*/false));
    if (!out.libs.empty()) {
      for (LibraryUse& use : out.libs) {
        use.spec.name = spec_name;
        if (hints.text_base.has_value()) {
          use.spec.hints.text_base = hints.text_base;
        }
        if (hints.data_base.has_value()) {
          use.spec.hints.data_base = hints.data_base;
        }
      }
      out.module = std::move(merged);
      return out;
    }
    // Module-level specialization: only placement-style specializations are
    // meaningful here; monitor/reorder apply at Instantiate time.
    if (spec_name == "lib-constrained" || spec_name == "constrained") {
      out.hints = hints;
      out.module = std::move(merged);
      return out;
    }
    return Err(ErrorCode::kUnsupported,
               StrCat("specialize ", spec_name, ": operand is not a library"));
  }
  if (op == "constrain") {
    // (constrain "T" addr operand...) — placement hint for this object.
    OMOS_TRY(std::string which, string_arg(1));
    if (expr.children.size() < 4 || expr.children[2].kind != Sexpr::Kind::kNumber) {
      return Err(ErrorCode::kParseError, "constrain: expected (constrain \"T\" addr operand)");
    }
    uint32_t addr = static_cast<uint32_t>(expr.children[2].number);
    OMOS_TRY(EvalValue value, unary_operand(3));
    if (which == "T") {
      value.hints.text_base = addr;
    } else if (which == "D") {
      value.hints.data_base = addr;
    } else {
      return Err(ErrorCode::kParseError, "constrain: key must be \"T\" or \"D\"");
    }
    return value;
  }
  if (op == "initializers") {
    // Generate a __run_initializers routine calling every __init_* export in
    // name order (the C++ static-constructor story, §2.2/§3.3).
    OMOS_TRY(EvalValue value, unary_operand(1));
    OMOS_TRY(std::vector<std::string> exports, value.module->ExportNames());
    std::vector<std::string> inits;
    for (const std::string& name : exports) {
      if (StartsWith(name, "__init_")) {
        inits.push_back(name);
      }
    }
    std::ostringstream text;
    text << ".text\n.global __run_initializers\n__run_initializers:\n  push lr\n";
    for (const std::string& init : inits) {
      text << "  call " << init << "\n";
    }
    text << "  pop lr\n  ret\n";
    tracker.work += kAssembleLineCost * (inits.size() + 4);
    OMOS_TRY(ObjectFile object, Assemble(text.str(), "initializers.s"));
    OMOS_TRY(Module merged,
             Module::Merge(*value.module,
                           Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)))));
    value.module = std::move(merged);
    return value;
  }
  return Err(ErrorCode::kParseError, StrCat("blueprint: unknown operation '", op, "'"));
}

Result<Module> OmosServer::EvaluateBlueprint(std::string_view text, uint64_t* work_cycles) {
  OMOS_TRY(Sexpr expr, ParseSexpr(text));
  BuildTracker tracker;
  OMOS_TRY(EvalValue value, Eval(expr, tracker, 0));
  if (work_cycles != nullptr) {
    *work_cycles += tracker.work;
  }
  return RequireModule(std::move(value), "blueprint");
}

// ---- Instantiation ----------------------------------------------------------

void OmosServer::ChargeLinkWork(const LinkStats& stats, uint32_t symbol_count,
                                BuildTracker& tracker) const {
  const CostModel& costs = kernel_->costs();
  tracker.work += costs.header_parse * stats.fragments;
  tracker.work += costs.symbol_parse * symbol_count;
  tracker.work += costs.reloc_apply * stats.relocations_applied;
  tracker.work += costs.symbol_lookup * stats.refs_bound;
}

Result<Module> OmosServer::BuildMonolithicModule(const std::string& path, BuildTracker& tracker) {
  tracker.inputs.insert(OmosNamespace::Normalize(path));
  OMOS_TRY(const NamespaceEntry* entry, namespace_.Lookup(path));
  if (entry->kind == EntryKind::kFragment) {
    return Module::FromObject(entry->fragment);
  }
  OMOS_TRY(EvalValue value, Eval(entry->construction, tracker, 0));
  Module m = value.module.has_value() ? std::move(*value.module) : Module();
  // Fold library dependencies in, transitively.
  std::vector<LibraryUse> pending = std::move(value.libs);
  std::set<std::string> seen;
  int guard = 0;
  while (!pending.empty()) {
    if (++guard > 100) {
      return Err(ErrorCode::kParseError, StrCat(path, ": library dependency cycle"));
    }
    LibraryUse use = std::move(pending.back());
    pending.pop_back();
    if (!seen.insert(use.path).second) {
      continue;
    }
    tracker.inputs.insert(use.path);
    OMOS_TRY(const NamespaceEntry* lib, namespace_.Lookup(use.path));
    if (lib->kind == EntryKind::kFragment) {
      OMOS_TRY(m, Module::Merge(m, Module::FromObject(lib->fragment)));
      continue;
    }
    OMOS_TRY(EvalValue lib_value, Eval(lib->construction, tracker, 0));
    if (lib_value.module.has_value()) {
      OMOS_TRY(m, Module::Merge(m, *lib_value.module));
    }
    for (LibraryUse& nested : lib_value.libs) {
      pending.push_back(std::move(nested));
    }
  }
  return m;
}

namespace {

// Warm hits emit a one-timestamp instant, 1-in-8 sampled per thread (the
// first hit always emits). At warm-hit rates the unsampled stream would
// cycle the whole trace ring in milliseconds and its emit cost would
// rival the rest of the hit path; exact hit counts live in cache.hits.
void TraceWarmHitSampled(const std::string& norm) {
  thread_local uint32_t hit_count = 0;
  if ((hit_count++ & 7) == 0) {
    TraceInstant("server.instantiate.hit", norm);
  }
}

}  // namespace

Result<const CachedImage*> OmosServer::Instantiate(const std::string& path,
                                                   const Specialization& spec,
                                                   uint64_t* work_cycles) {
  bool linked = false;
  return Instantiate(path, spec, work_cycles, &linked);
}

Result<const CachedImage*> OmosServer::Instantiate(const std::string& path,
                                                   const Specialization& spec,
                                                   uint64_t* work_cycles, bool* linked) {
  std::string norm = OmosNamespace::Normalize(path);
  std::string key = MakeCacheKey(norm, spec.ToKeyString());
  // Idle-time optimizer: a hot default-spec image may have a reorder-built
  // twin; serve it instead (the "atomic swap-in on next Get").
  if (const CachedImage* optimized = OptimizedAlias(key)) {
    TraceWarmHitSampled(norm);
    return optimized;
  }
  if (const CachedImage* hit = cache_.Get(key)) {
    NoteWarmHit(key, norm, spec);
    TraceWarmHitSampled(norm);
    return hit;
  }
  // Cold path: the span covers single-flight election and the build.
  TraceSpan trace("server.instantiate", norm);
  // Miss: elect one builder per key. Followers block until the leader
  // publishes, so N concurrent misses of one key do the construction work
  // once and share the image (CacheStats::single_flight_waits counts the
  // followers; inserts stays 1).
  ImageCache::MissJoin join = cache_.JoinBuild(key);
  if (join.leader) {
    // A leader that finished between our missed Get and JoinBuild has
    // already erased its in-flight entry; its image is in the cache. Peek
    // (no second miss counted) before building it again.
    if (const CachedImage* built = cache_.Peek(key)) {
      cache_.FinishBuild(key, built);
      return built;
    }
  } else {
    if (join.image != nullptr) {
      return join.image;
    }
    // The leader's build failed. Build it ourselves so this caller gets a
    // first-hand error — or a success, if the failure was transient (e.g. a
    // redefinition raced the build).
  }
  // The lease keeps the images this build binds (and the one it returns, if
  // the namespace moved under it and it is not cached) valid while it runs,
  // even if a racing redefinition evicts them.
  ImageCache::ReadLease lease(cache_);
  BuildTracker tracker;
  tracker.stamp = BuildStamp();
  // The store fingerprint is taken once, before anything is evaluated, so
  // the probe and the publish name the same inputs.
  std::optional<uint64_t> fingerprint;
  if (store_ != nullptr && StorableSpec(spec)) {
    fingerprint = StoreFingerprint(norm, spec, tracker.inputs);
  }
  auto result = [&]() -> Result<const CachedImage*> {
    // Second tier: a persisted image linked from identical inputs adopts
    // straight into the cache — no evaluation, no relocation.
    if (fingerprint.has_value()) {
      if (const CachedImage* adopted = TryAdoptFromStore(key, *fingerprint, tracker)) {
        return adopted;
      }
    }
    auto built = BuildImage(path, spec, key, tracker);
    *linked = built.ok();
    return built;
  }();
  // A build the namespace moved under belongs to its caller alone: Put did
  // not cache it, and it is neither published nor handed to followers.
  bool current = result.ok() && namespace_generation() == tracker.stamp;
  if (current && *linked && fingerprint.has_value()) {
    PublishToStore(*fingerprint, **result, tracker);
  }
  if (join.leader) {
    cache_.FinishBuild(key, current ? *result : nullptr);
  }
  if (work_cycles != nullptr) {
    *work_cycles += tracker.work;
  }
  trace.AddSimCycles(0, tracker.work);
  return result;
}

// ---- Idle-time background optimization --------------------------------------

void OmosServer::EnableBackgroundOptimizer(uint64_t hot_threshold) {
  std::lock_guard<std::mutex> lock(optimizer_->mu);
  optimizer_->enabled = true;
  optimizer_->hot_threshold = hot_threshold == 0 ? 1 : hot_threshold;
}

size_t OmosServer::DrainBackgroundWork() {
  size_t ran = ThreadPool::Global().DrainBackground();
  // A worker may have grabbed a job just before the drain; wait it out so
  // callers observe a stable post-optimization state.
  ThreadPool::Global().WaitIdle();
  return ran;
}

const CachedImage* OmosServer::OptimizedAlias(const std::string& key) {
  std::string optimized_key;
  {
    std::lock_guard<std::mutex> lock(optimizer_->mu);
    if (!optimizer_->enabled) {
      return nullptr;
    }
    auto it = optimizer_->alias.find(key);
    if (it == optimizer_->alias.end()) {
      return nullptr;
    }
    optimized_key = it->second;
  }
  if (const CachedImage* optimized = cache_.Get(optimized_key)) {
    return optimized;
  }
  // The optimized twin fell out of the cache; forget it and let the hit
  // counter earn a fresh optimization pass.
  std::lock_guard<std::mutex> lock(optimizer_->mu);
  auto it = optimizer_->alias.find(key);
  if (it != optimizer_->alias.end() && it->second == optimized_key) {
    optimizer_->alias.erase(it);
    optimizer_->attempted.erase(key);
    optimizer_->warm_hits.erase(key);
  }
  return nullptr;
}

void OmosServer::NoteWarmHit(const std::string& key, const std::string& norm,
                             const Specialization& spec) {
  if (!spec.name.empty()) {
    return;  // only default-spec images are candidates for a reorder twin
  }
  {
    std::lock_guard<std::mutex> lock(optimizer_->mu);
    if (!optimizer_->enabled) {
      return;
    }
    if (++optimizer_->warm_hits[key] < optimizer_->hot_threshold ||
        optimizer_->attempted.count(key) != 0) {
      return;
    }
    optimizer_->attempted.insert(key);
  }
  // The idle lane is the paper's "during idle time".
  SubmitIdleJob([key, norm](OmosServer& server) { server.RunOptimizeJob(key, norm); });
}

void OmosServer::SubmitIdleJob(std::function<void(OmosServer&)> job) {
  // The job holds the shared state, not the server, so it degrades to a
  // no-op if the server is gone by the time it runs.
  std::shared_ptr<OptimizerState> state = optimizer_;
  ThreadPool::Global().SubmitBackground([state, job = std::move(job)] {
    std::lock_guard<std::mutex> alive(state->job_mu);
    if (state->server != nullptr) {
      job(*state->server);
    }
  });
}

void OmosServer::RunOptimizeJob(const std::string& key, const std::string& norm) {
  // Speculatively re-instantiate the hot image's declared library deps so
  // they are warm for the next cold client (cheap: usually all cache hits).
  {
    ImageCache::ReadLease lease(cache_);
    if (const CachedImage* hot = cache_.Peek(key)) {
      std::vector<LibDep> deps = hot->deps;
      for (const LibDep& dep : deps) {
        uint64_t scratch = 0;
        (void)GetOrRebuild(dep.cache_key, &scratch);
      }
    }
  }
  // Re-link under the reorder specialization when profile data exists.
  if (!HasPreferredOrder(norm)) {
    return;
  }
  Specialization reorder;
  reorder.name = "reorder";
  uint64_t scratch = 0;
  auto optimized = Instantiate(norm, reorder, &scratch);
  if (!optimized.ok()) {
    LogMessage(LogLevel::kDebug, "optimizer",
               StrCat("reorder of ", norm, " failed: ", optimized.error().ToString()));
    return;
  }
  std::lock_guard<std::mutex> lock(optimizer_->mu);
  optimizer_->alias[key] = (*optimized)->key;
}

Result<const CachedImage*> OmosServer::GetOrRebuild(const std::string& cache_key,
                                                    uint64_t* work) {
  if (const CachedImage* hit = cache_.Get(cache_key)) {
    return hit;
  }
  std::string_view path_part;
  std::string_view spec_part;
  if (!SplitCacheKey(cache_key, &path_part, &spec_part)) {
    return Err(ErrorCode::kNotFound,
               StrCat("image not cached and key carries no blueprint path: ", cache_key));
  }
  std::string path(path_part);
  Specialization spec = Specialization::FromKeyString(spec_part);
  return Instantiate(path, spec, work);
}

Result<const CachedImage*> OmosServer::BuildImage(const std::string& path,
                                                  const Specialization& spec,
                                                  const std::string& key,
                                                  BuildTracker& tracker) {
  TraceSpan trace("server.build_image", key);
  tracker.inputs.insert(OmosNamespace::Normalize(path));
  OMOS_TRY(const NamespaceEntry* entry, namespace_.Lookup(path));

  EvalValue value;
  if (spec.name == "monitor" || spec.name == "reorder") {
    OMOS_TRY(Module mono, BuildMonolithicModule(path, tracker));
    if (spec.name == "monitor") {
      // Collect the text-section function exports to wrap.
      OMOS_TRY(const SymbolSpace* space, mono.Space());
      std::vector<std::string> names;
      for (const auto& [name_id, exp] : space->exports) {
        const Symbol& sym = mono.fragments()[exp.def.fragment]->symbols()[exp.def.symbol];
        if (sym.section == SectionKind::kText) {
          names.emplace_back(SymbolInterner::Global().Name(name_id));
        }
      }
      // Flat-table iteration order is unspecified; keep the wrapper order
      // (and thus mon-log slot order) name-sorted as before.
      std::sort(names.begin(), names.end());
      if (names.empty()) {
        return Err(ErrorCode::kInvalidArgument, StrCat(path, ": nothing to monitor"));
      }
      std::string pattern = NamesPattern(names);
      Module wrapped = mono.CopyAs(pattern, "__mon_&").Restrict(pattern);
      OMOS_TRY(ObjectFile wrappers, GenerateMonitorWrappers(names, 0));
      OMOS_TRY(Module merged,
               Module::Merge(wrapped, Module::FromObject(std::make_shared<const ObjectFile>(
                                          std::move(wrappers)))));
      {
        std::lock_guard<std::mutex> lock(monitor_mu_);
        monitor_names_[OmosNamespace::Normalize(path)] = names;
        monitor_counts_[OmosNamespace::Normalize(path)].assign(names.size(), 0);
      }
      value.module = std::move(merged);
    } else {
      std::vector<std::string> hot;
      {
        std::lock_guard<std::mutex> lock(monitor_mu_);
        auto order_it = preferred_order_.find(OmosNamespace::Normalize(path));
        if (order_it == preferred_order_.end()) {
          return Err(ErrorCode::kNotFound,
                     StrCat(path, ": no recorded routine order; run a monitor pass first"));
        }
        hot = order_it->second;
      }
      // Rank fragments by the hottest routine they define and lay hot ones
      // out first.
      OMOS_TRY(const SymbolSpace* space, mono.Space());
      size_t n = mono.fragments().size();
      std::vector<size_t> rank(n, hot.size());
      for (const auto& [name_id, exp] : space->exports) {
        auto pos = std::find(hot.begin(), hot.end(), SymbolInterner::Global().Name(name_id));
        if (pos != hot.end()) {
          size_t r = static_cast<size_t>(pos - hot.begin());
          rank[exp.def.fragment] = std::min(rank[exp.def.fragment], r);
        }
      }
      std::vector<uint32_t> order(n);
      for (uint32_t i = 0; i < n; ++i) {
        order[i] = i;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) { return rank[a] < rank[b]; });
      OMOS_TRY(Module reordered, mono.ReorderFragments(order));
      value.module = std::move(reordered);
    }
  } else if (entry->kind == EntryKind::kFragment) {
    value.module = Module::FromObject(entry->fragment);
  } else {
    OMOS_TRY(value, Eval(entry->construction, tracker, 0));
  }

  if (!value.module.has_value()) {
    value.module = Module();
  }
  Module client = std::move(*value.module);

  // Resolve library dependencies.
  std::map<std::string, uint32_t> externals;
  std::vector<LibDep> deps;
  std::vector<StubSlot> slots;
  std::set<std::string> seen_libs;
  for (const LibraryUse& use : value.libs) {
    if (!seen_libs.insert(use.path).second) {
      continue;
    }
    Specialization lib_spec = use.spec;
    if (lib_spec.name.empty()) {
      lib_spec.name = "lib-constrained";
    }
    if (lib_spec.name == "lib-dynamic") {
      Specialization impl_spec = lib_spec;
      impl_spec.name = "lib-dynamic-impl";
      OMOS_TRY(const CachedImage* impl, Instantiate(use.path, impl_spec, &tracker.work));
      tracker.inputs.insert(impl->inputs.begin(), impl->inputs.end());
      std::string impl_key = impl->key;
      // Stubs for each referenced entry point present in the library (§4.2).
      OMOS_TRY(std::vector<std::string> wanted, client.UnboundRefNames());
      std::vector<std::string> functions;
      for (const std::string& name : wanted) {
        const ImageSymbol* sym = impl->image.FindSymbol(name);
        if (sym != nullptr && sym->section == SectionKind::kText) {
          functions.push_back(name);
        }
      }
      OMOS_TRY(StubFragment stubs, GenerateLazyStubs(use.path, functions,
                                                     static_cast<uint32_t>(slots.size())));
      tracker.work += kAssembleLineCost * 8 * functions.size();
      OMOS_TRY(client, Module::Merge(client, Module::FromObject(std::make_shared<const ObjectFile>(
                                                 std::move(stubs.object)))));
      for (StubSlot& slot : stubs.slots) {
        slot.lib_path = impl_key;  // runtime resolves through the cache key
        slots.push_back(std::move(slot));
      }
      deps.push_back(LibDep::Of(*impl, use.path));  // lazy: not mapped at exec
    } else {
      OMOS_TRY(const CachedImage* lib, Instantiate(use.path, lib_spec, &tracker.work));
      tracker.inputs.insert(lib->inputs.begin(), lib->inputs.end());
      for (const ImageSymbol& sym : lib->image.symbols) {
        externals.emplace(sym.name, sym.addr);
      }
      deps.push_back(LibDep::Of(*lib, use.path));
    }
  }
  bool has_lazy = !slots.empty();

  // Size estimate for placement (must match LinkImage's layout pass).
  uint32_t text_size = 0;
  uint32_t data_size = 0;
  uint32_t bss_size = 0;
  for (const FragmentPtr& frag : client.fragments()) {
    text_size = AlignTo(text_size, 8) + frag->section(SectionKind::kText).size();
    data_size = AlignTo(data_size, 4) + frag->section(SectionKind::kData).size();
    bss_size = AlignTo(bss_size, 4) + frag->section(SectionKind::kBss).size();
  }

  PlacementHints hints = entry->hints;
  if (value.hints.text_base.has_value()) {
    hints.text_base = value.hints.text_base;
  }
  if (value.hints.data_base.has_value()) {
    hints.data_base = value.hints.data_base;
  }
  if (spec.hints.text_base.has_value()) {
    hints.text_base = spec.hints.text_base;
  }
  if (spec.hints.data_base.has_value()) {
    hints.data_base = spec.hints.data_base;
  }
  Placement placement;
  bool conflict_grew = false;
  {
    std::lock_guard<std::mutex> lock(solver_mu_);
    size_t conflicts_before = solver_.conflicts().size();
    OMOS_TRY(placement, solver_.Place(key, text_size, data_size + bss_size, hints));
    conflict_grew = solver_.conflicts().size() > conflicts_before;
  }
  if (conflict_grew && prelink_enabled()) {
    // A weak hint lost to a live placement: the recorded conflict feeds the
    // namespace re-solve, and prelinked images re-link through the idle lane.
    SchedulePrelinkRepair();
  }

  LayoutSpec layout;
  layout.text_base = placement.text_base;
  layout.data_base = placement.data_base;
  layout.externals = std::move(externals);
  OMOS_TRY(bool has_start, client.HasExport("_start"));
  layout.entry_symbol = has_start ? "_start" : "";
  OMOS_TRY(LinkedImage image, LinkImage(client, layout, key));

  uint32_t symbol_count = 0;
  for (const FragmentPtr& frag : client.fragments()) {
    symbol_count += static_cast<uint32_t>(frag->symbols().size());
  }
  ChargeLinkWork(image.stats, symbol_count, tracker);

  CachedImage cached;
  cached.image = std::move(image);
  OMOS_TRY_VOID(MaterializeSegments(cached));
  cached.deps = std::move(deps);
  if (has_lazy) {
    cached.stub_slots = std::move(slots);
  }
  cached.build_cost = tracker.work;
  cached.layout_generation = placement.generation;
  cached.inputs.assign(tracker.inputs.begin(), tracker.inputs.end());
  return cache_.Put(key, std::move(cached), &namespace_generation_, tracker.stamp);
}

Result<void> OmosServer::MaterializeSegments(CachedImage& cached) {
  std::lock_guard<std::mutex> lock(kernel_mu_);  // phys-memory allocation
  if (!cached.image.text.empty()) {
    OMOS_TRY(SegmentImage seg, SegmentImage::Create(kernel_->phys(), cached.image.text));
    cached.text_seg = std::move(seg);
  }
  if (!cached.image.data.empty()) {
    OMOS_TRY(SegmentImage seg, SegmentImage::Create(kernel_->phys(), cached.image.data));
    cached.data_seg = std::move(seg);
  }
  return OkResult();
}

// ---- Persistent image store -------------------------------------------------

bool OmosServer::StorableSpec(const Specialization& spec) {
  return spec.name != "monitor" && spec.name != "reorder";
}

namespace {

// Incremental FNV-1a stream for the store fingerprint. Fields are
// length-prefixed so adjacent strings cannot alias.
struct FingerprintStream {
  uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

// Names a blueprint expression can pull out of the namespace: any atom that
// looks like an absolute path. Over-approximating is safe — an unused or
// undefined name changes nothing (undefined names hash as absent), it can
// only make the fingerprint conservative.
void CollectMentionedPaths(const Sexpr& expr, std::vector<std::string>& out) {
  if (expr.IsAtom()) {
    if ((expr.kind == Sexpr::Kind::kSymbol || expr.kind == Sexpr::Kind::kString) &&
        !expr.atom.empty() && expr.atom.front() == '/') {
      out.push_back(expr.atom);
    }
    return;
  }
  for (const Sexpr& child : expr.children) {
    CollectMentionedPaths(child, out);
  }
}

}  // namespace

uint64_t OmosServer::StoreFingerprint(const std::string& norm, const Specialization& spec,
                                      std::set<std::string>& closure) const {
  FingerprintStream fp;
  fp.Str("omos-store-v2");
  fp.Str(norm);
  fp.Str(spec.ToKeyString());
  // The layout generation versions every stored image: bytes published at
  // generation G bake in generation-G addresses, so once any live placement
  // moves (G bumps) stale records stop matching and cold builds replace them.
  {
    std::lock_guard<std::mutex> lock(solver_mu_);
    fp.U64(solver_.layout_generation());
  }
  // Deterministic DFS over every namespace entry the construction can
  // reach: blueprint text for metas/libraries (covers constraints, default
  // specs and operator structure), encoded object bytes for fragments.
  std::set<std::string> seen;
  std::vector<std::string> work{norm};
  while (!work.empty()) {
    std::string path = OmosNamespace::Normalize(work.back());
    work.pop_back();
    if (!seen.insert(path).second) {
      continue;
    }
    auto entry_or = namespace_.Lookup(path);
    if (!entry_or.ok()) {
      continue;  // absent names contribute nothing (and change the hash when defined later)
    }
    const NamespaceEntry* entry = *entry_or;
    fp.Str(path);
    fp.U64(static_cast<uint64_t>(entry->kind));
    if (entry->kind == EntryKind::kFragment) {
      std::vector<uint8_t> object = EncodeObject(*entry->fragment);
      fp.U64(object.size());
      fp.Bytes(object.data(), object.size());
    } else {
      fp.Str(entry->blueprint_text);
      CollectMentionedPaths(entry->construction, work);
    }
  }
  closure.insert(seen.begin(), seen.end());
  return fp.h;
}

const CachedImage* OmosServer::TryAdoptFromStore(const std::string& key, uint64_t fingerprint,
                                                 BuildTracker& tracker) {
  auto probe = store_->Get(key, fingerprint, &tracker.work);
  if (!probe.ok() || !probe->has_value()) {
    return nullptr;
  }
  StoreRecord record = std::move(**probe);
  CachedImage cached;
  // The stored program bytes bake in each dependency's addresses; every dep
  // must land exactly where it was when the record was written. A restored
  // placement snapshot makes this deterministic; anything else falls back
  // to a cold build.
  for (const StoredDep& dep : record.deps) {
    uint64_t dep_work = 0;
    auto lib = GetOrRebuild(dep.cache_key, &dep_work);
    tracker.work += dep_work;
    if (!lib.ok() || (*lib)->image.text_base != dep.text_base ||
        (*lib)->image.data_base != dep.data_base) {
      MetricsRegistry::Global().GetCounter("store.dep_mismatches")->Add();
      return nullptr;
    }
    tracker.inputs.insert((*lib)->inputs.begin(), (*lib)->inputs.end());
    cached.deps.push_back(LibDep::Of(**lib, dep.lib_path));
  }
  // Re-reserve the image's own bases. Place() reuses an existing placement
  // record for the same object and sizes, so after RestoreFromStore this is
  // exactly the snapshot's assignment; a disagreement means the layout
  // world moved and the stored bytes would be wrong at the new address.
  PlacementHints hints;
  hints.text_base = record.image.text_base;
  hints.data_base = record.image.data_base;
  uint64_t placement_generation = 0;
  {
    std::lock_guard<std::mutex> lock(solver_mu_);
    auto placed = solver_.Place(key, static_cast<uint32_t>(record.image.text.size()),
                                static_cast<uint32_t>(record.image.data.size()) +
                                    record.image.bss_size,
                                hints);
    if (!placed.ok() || placed->text_base != record.image.text_base ||
        placed->data_base != record.image.data_base) {
      MetricsRegistry::Global().GetCounter("store.placement_mismatches")->Add();
      return nullptr;
    }
    placement_generation = placed->generation;
  }
  cached.image = std::move(record.image);
  cached.stub_slots.reserve(record.stub_slots.size());
  for (const StoredStubSlot& slot : record.stub_slots) {
    cached.stub_slots.push_back(StubSlot{slot.index, slot.slot_symbol, slot.lib_path, slot.symbol});
  }
  cached.build_cost = record.build_cost;
  cached.layout_generation = placement_generation;
  cached.inputs.assign(tracker.inputs.begin(), tracker.inputs.end());
  if (!MaterializeSegments(cached).ok()) {
    return nullptr;  // out of frames; the cold path will report properly
  }
  TraceInstant("store.adopt", key);
  return cache_.Put(key, std::move(cached), &namespace_generation_, tracker.stamp);
}

void OmosServer::PublishToStore(uint64_t fingerprint, const CachedImage& image,
                                BuildTracker& tracker) {
  StoreRecord record;
  record.cache_key = image.key;
  record.fingerprint = fingerprint;
  record.image = image.image;
  record.deps.reserve(image.deps.size());
  for (const LibDep& dep : image.deps) {
    // Lazy deps are keyed by the impl image; either way the dep carries the
    // bases the program was linked against.
    record.deps.push_back(StoredDep{dep.cache_key, dep.lib_path, dep.text_base, dep.data_base});
  }
  record.stub_slots.reserve(image.stub_slots.size());
  for (const StubSlot& slot : image.stub_slots) {
    record.stub_slots.push_back(StoredStubSlot{slot.index, slot.slot_symbol, slot.lib_path,
                                               slot.symbol});
  }
  record.build_cost = image.build_cost;
  auto put = store_->Put(record, &tracker.work);
  if (!put.ok()) {
    LogMessage(LogLevel::kDebug, "store",
               StrCat("publish of ", image.key, " failed: ", put.error().ToString()));
  }
}

Result<void> OmosServer::PersistTo(ImageStore& store) { return store.PutSnapshot(Snapshot()); }

Result<void> OmosServer::RestoreFromStore(ImageStore& store) {
  OMOS_TRY(std::string snapshot, store.LoadSnapshot());
  OMOS_TRY_VOID(Restore(snapshot));
  store_ = &store;
  return OkResult();
}

// ---- Exec paths -------------------------------------------------------------

namespace {

// Map a cached image into `task`: shared text and CoW data against the
// cache's frame-backed masters, or a private copy when it has no text
// master. The caller holds kernel_mu_.
Result<void> MapCachedImage(Kernel& kernel, Task& task, const CachedImage& image) {
  if (image.text_seg.has_value()) {
    return MapImageWithSharedText(kernel, task, image.image, *image.text_seg,
                                  image.data_seg ? &*image.data_seg : nullptr);
  }
  return MapLinkedImage(kernel, task, image.image, "");
}

// Lazy deps (partial-image libraries) map on first call via kSysDload.
bool IsLazyDep(const CachedImage& program, const LibDep& dep) {
  return std::any_of(program.stub_slots.begin(), program.stub_slots.end(),
                     [&](const StubSlot& slot) { return slot.lib_path == dep.cache_key; });
}

}  // namespace

Result<uint32_t> OmosServer::MapProgram(Task& task, const CachedImage& program) {
  TraceSpan trace("server.map_program", program.key);
  // Get every dep before mapping anything. An evicted or rotted library
  // image is rebuilt, not a fatal error; the rebuild reuses the old
  // placement, so it matches the program's dep. One that was redefined or
  // moved does not: the program is stale.
  std::vector<const CachedImage*> libs;
  uint64_t rebuild_work = 0;
  for (const LibDep& dep : program.deps) {
    OMOS_TRY(const CachedImage* lib, GetOrRebuild(dep.cache_key, &rebuild_work));
    if (!dep.Matches(*lib)) {
      return Err(ErrorCode::kUnavailable,
                 StrCat(program.key, ": ", dep.lib_path, " changed since it was linked"));
    }
    libs.push_back(lib);
  }
  TaskRuntime runtime;
  runtime.program_key = program.key;
  {
    std::lock_guard<std::mutex> lock(kernel_mu_);
    task.BillSys(rebuild_work);
    OMOS_TRY_VOID(MapCachedImage(*kernel_, task, program));
    for (size_t i = 0; i < libs.size(); ++i) {
      if (IsLazyDep(program, program.deps[i])) {
        runtime.lazy_libs.emplace(program.deps[i].cache_key, libs[i]->shared_from_this());
      } else {
        OMOS_TRY_VOID(MapCachedImage(*kernel_, task, *libs[i]));
      }
    }
  }
  for (const StubSlot& slot : program.stub_slots) {
    const ImageSymbol* sym = program.image.FindSymbol(slot.slot_symbol);
    if (sym == nullptr) {
      return Err(ErrorCode::kInternal, StrCat("missing stub slot symbol ", slot.slot_symbol));
    }
    // A live upgrade in flight redirects lazy slots of the old version so
    // tasks exec'd mid-roll bind the new one (the cached program image still
    // names the old impl key until the reclaim-phase redefinition).
    runtime.slots.push_back(
        TaskRuntime::Slot{sym->addr, RedirectLibKey(slot.lib_path), slot.symbol});
  }
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  runtimes_[task.id()] = std::move(runtime);
  return program.image.entry;
}

void OmosServer::ReleaseTask(TaskId id) {
  // Dropped after runtimes_mu_: the last pin of an evicted image frees it.
  decltype(runtimes_)::node_type released;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    released = runtimes_.extract(id);
  }
  // A released task can no longer execute old-version code: take it out of
  // any in-flight upgrade's pending set (and reclaim if it was the last).
  std::shared_ptr<UpgradeJob> reclaim_ready;
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    if (upgrade_job_ != nullptr && upgrade_job_->pending.erase(id) > 0) {
      upgrade_job_->retry_at.erase(id);
      if (upgrade_job_->pending.empty() && upgrade_job_->phase == UpgradePhase::kDraining) {
        reclaim_ready = upgrade_job_;
      }
    }
  }
  if (reclaim_ready != nullptr) {
    ScheduleUpgradeReclaim(reclaim_ready);
  }
}

// ---- Live upgrade (docs/upgrade.md) ------------------------------------------

namespace {
// After a deferred transfer, let this many old-version instructions retire
// before re-scanning the stack: a failed attempt walked the whole live
// stack, so retrying every instruction would dominate execution.
constexpr uint64_t kTransferRetryInterval = 256;
}  // namespace

Result<uint64_t> OmosServer::BeginUpgrade(const std::string& path,
                                          const std::string& new_blueprint) {
  std::string norm = OmosNamespace::Normalize(path);
  OMOS_TRY_VOID(namespace_.Lookup(norm));
  Specialization impl_spec;
  impl_spec.name = "lib-dynamic-impl";
  std::shared_ptr<UpgradeJob> job;
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    if (upgrade_job_ != nullptr && upgrade_job_->phase != UpgradePhase::kDone &&
        upgrade_job_->phase != UpgradePhase::kAborted) {
      return Err(ErrorCode::kUnavailable,
                 StrCat("upgrade of ", upgrade_job_->path, " already in flight"));
    }
    job = std::make_shared<UpgradeJob>();
    job->id = ++upgrade_counter_;
    job->path = norm;
    job->new_blueprint = new_blueprint;
    job->old_impl_key = MakeCacheKey(norm, impl_spec.ToKeyString());
    job->new_impl_key =
        MakeCacheKey(OmosNamespace::Normalize(StrCat(norm, "@v", job->id)), impl_spec.ToKeyString());
    job->phase = UpgradePhase::kLinking;
    upgrade_job_ = job;
  }
  UpgradeStats().begun->Add();
  TraceInstant("upgrade.begin", norm);
  // Link on the idle lane so running tasks never stall behind the new
  // version's link.
  SubmitIdleJob([job](OmosServer& server) { server.RunUpgradeLink(job); });
  return job->id;
}

void OmosServer::RunUpgradeLink(std::shared_ptr<UpgradeJob> job) {
  TraceSpan trace("upgrade.link", job->path);
  if (FaultSim::Trip("upgrade.link")) {
    AbortUpgrade(job, "upgrade.link: injected fault");
    return;
  }
  // The new version links under a shadow namespace path so the solver
  // assigns it a fresh placement: old addresses must stay live while
  // suspended frames still execute old code. The real path keeps the old
  // definition until the reclaim phase redefines it.
  std::string shadow = OmosNamespace::Normalize(StrCat(job->path, "@v", job->id));
  if (Result<void> defined = DefineLibrary(shadow, job->new_blueprint); !defined.ok()) {
    AbortUpgrade(job, defined.error().ToString());
    return;
  }
  Specialization impl_spec;
  impl_spec.name = "lib-dynamic-impl";
  ImageCache::ReadLease lease(cache_);  // pins images across map construction
  uint64_t work = 0;
  auto linked = Instantiate(shadow, impl_spec, &work);
  if (!linked.ok()) {
    AbortUpgrade(job, linked.error().ToString());
    return;
  }
  const CachedImage* new_impl = *linked;
  // The old implementation only matters if some task or cached client can
  // still reach it; a rebuilt image reuses the old placement, so the
  // transfer map's old-address ranges are exact even after an eviction.
  bool old_referenced = cache_.Contains(job->old_impl_key);
  if (!old_referenced) {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    for (const auto& [tid, runtime] : runtimes_) {
      if (runtime.mapped_libs.count(job->old_impl_key) != 0) {
        old_referenced = true;
        break;
      }
      for (const TaskRuntime::Slot& slot : runtime.slots) {
        if (slot.lib_path == job->old_impl_key) {
          old_referenced = true;
          break;
        }
      }
      if (old_referenced) {
        break;
      }
    }
  }
  if (!old_referenced) {
    job->map = std::make_shared<const FrameTransferMap>();  // covers nothing
    RunUpgradeRepoint(std::move(job));
    return;
  }
  auto old_or = GetOrRebuild(job->old_impl_key, &work);
  if (!old_or.ok()) {
    AbortUpgrade(job, old_or.error().ToString());
    return;
  }
  const CachedImage* old_impl = *old_or;
  // Symbols the new version dropped degrade to availability-check stubs
  // (return kUpgradeUnavailable) instead of faulting.
  std::vector<std::string> deleted = DeletedTextSymbols(old_impl->image, new_impl->image);
  if (!deleted.empty()) {
    std::string degrade_dir = StrCat("/.upgrade/v", job->id);
    auto stub_obj = GenerateDegradationStubs(deleted, "degrade.o");
    if (!stub_obj.ok()) {
      AbortUpgrade(job, stub_obj.error().ToString());
      return;
    }
    std::string frag_path = StrCat(degrade_dir, "/degrade.o");
    std::string meta_path = StrCat(degrade_dir, "/degrade");
    if (Result<void> added = AddFragment(frag_path, std::move(*stub_obj)); !added.ok()) {
      AbortUpgrade(job, added.error().ToString());
      return;
    }
    if (Result<void> meta = DefineMeta(meta_path, StrCat("(merge ", frag_path, ")"));
        !meta.ok()) {
      AbortUpgrade(job, meta.error().ToString());
      return;
    }
    auto stubs = Instantiate(meta_path, Specialization{}, &work);
    if (!stubs.ok()) {
      AbortUpgrade(job, stubs.error().ToString());
      return;
    }
    job->degrade_key = (*stubs)->key;
    for (const std::string& name : deleted) {
      if (const ImageSymbol* sym = (*stubs)->image.FindSymbol(name)) {
        job->degrade_addrs[name] = sym->addr;
      }
    }
  }
  job->map = std::make_shared<const FrameTransferMap>(
      FrameTransferMap::Build(old_impl->image, new_impl->image, job->degrade_addrs));
  RunUpgradeRepoint(std::move(job));
}

void OmosServer::RunUpgradeRepoint(std::shared_ptr<UpgradeJob> job) {
  if (FaultSim::Trip("upgrade.repoint")) {
    // Killed before any runtime was touched: the abort leaves every task on
    // the old version, consistently.
    AbortUpgrade(job, "upgrade.repoint: injected fault");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    if (job->phase != UpgradePhase::kLinking) {
      return;  // aborted concurrently
    }
    job->phase = UpgradePhase::kRepointing;
  }
  // One critical section switches every runtime from the old implementation
  // key to the new one: lazy slots resolved after this bind the new version;
  // already-resolved slots keep calling the (still mapped) old code until
  // the task's safepoint transfer. No task observes a half-switched table.
  std::set<TaskId> affected;
  uint64_t repointed_tasks = 0;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    for (auto& [tid, runtime] : runtimes_) {
      bool uses_old = runtime.mapped_libs.count(job->old_impl_key) != 0;
      for (TaskRuntime::Slot& slot : runtime.slots) {
        if (slot.lib_path == job->old_impl_key) {
          slot.lib_path = job->new_impl_key;
          uses_old = true;
        }
      }
      if (runtime.mapped_libs.count(job->old_impl_key) != 0) {
        affected.insert(tid);  // old code/data mapped: needs a frame transfer
      }
      if (uses_old) {
        ++repointed_tasks;
      }
    }
  }
  UpgradeStats().tasks_repointed->Add(repointed_tasks);
  TraceInstant("upgrade.repoint",
               StrCat(job->path, ": ", affected.size(), " task(s) to drain"));
  // Retire predecoded blocks of the old version's text: draining tasks
  // finish their current block on the still-mapped old code, then re-decode
  // through the repointed linkage at the next block boundary.
  kernel_->engine().InvalidateAll("upgrade.repoint");
  // Publish the pending set before flagging: a safepoint that fires between
  // the flag and the publish would otherwise see "not pending" and clear the
  // flag, stranding the task on the old version forever.
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    if (job->phase != UpgradePhase::kRepointing) {
      return;
    }
    job->pending = affected;
    job->phase = UpgradePhase::kDraining;
  }
  std::set<TaskId> gone;
  {
    std::lock_guard<std::mutex> lock(kernel_mu_);
    for (TaskId tid : affected) {
      if (Task* task = kernel_->FindTask(tid)) {
        task->RequestSafepoint();
      } else {
        gone.insert(tid);  // destroyed without ReleaseTask; nothing to drain
      }
    }
  }
  bool reclaim_ready = false;
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    for (TaskId tid : gone) {
      job->pending.erase(tid);
    }
    reclaim_ready = job->phase == UpgradePhase::kDraining && job->pending.empty();
  }
  if (reclaim_ready) {
    ScheduleUpgradeReclaim(job);
  }
}

Result<void> OmosServer::HandleSafepoint(Kernel& kernel, Task& task) {
  std::shared_ptr<UpgradeJob> job;
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    job = upgrade_job_;
    if (job == nullptr || job->phase != UpgradePhase::kDraining ||
        job->pending.count(task.id()) == 0) {
      task.ClearSafepoint();  // stale flag (job aborted or task already done)
      return OkResult();
    }
    auto retry = job->retry_at.find(task.id());
    if (retry != job->retry_at.end() && task.instructions_retired() < retry->second) {
      return OkResult();  // deferred recently; let old code make progress
    }
  }
  return TryTransferTask(kernel, task, job);
}

Result<void> OmosServer::TryTransferTask(Kernel& kernel, Task& task,
                                         const std::shared_ptr<UpgradeJob>& job) {
  const FrameTransferMap& map = *job->map;
  auto defer = [&]() {
    UpgradeStats().transfers_deferred->Add();
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    job->retry_at[task.id()] = task.instructions_retired() + kTransferRetryInterval;
    return OkResult();
  };
  if (FaultSim::Trip("upgrade.transfer")) {
    return defer();  // a killed transfer is a deferral, never a torn state
  }
  ImageCache::ReadLease lease(cache_);  // pins *new_impl across the mapping
  uint64_t rebuild_work = 0;
  auto new_or = GetOrRebuild(job->new_impl_key, &rebuild_work);
  if (!new_or.ok()) {
    return defer();
  }
  const CachedImage* new_impl = *new_or;
  // Plan every rewrite before applying any: pc, lr, the register file, and
  // each live stack word that lies in the old version's segments. One
  // unmappable value (a frame suspended mid-body of a resized or deleted
  // function) defers the whole transfer — the task resumes old code and we
  // retry at a later safepoint, when that frame has popped.
  auto map_value = [&map](uint32_t value) -> std::optional<uint32_t> {
    return map.Covers(value) ? map.MapAddr(value) : std::optional<uint32_t>(value);
  };
  std::optional<uint32_t> new_pc = map_value(task.pc());
  if (!new_pc.has_value()) {
    return defer();
  }
  uint32_t new_regs[kNumRegisters];
  for (int i = 0; i < kNumRegisters; ++i) {
    if (i == kRegSp) {
      new_regs[i] = task.reg(i);
      continue;
    }
    std::optional<uint32_t> mapped = map_value(task.reg(i));
    if (!mapped.has_value()) {
      return defer();
    }
    new_regs[i] = *mapped;
  }
  uint32_t sp = task.reg(kRegSp);
  std::vector<std::pair<uint32_t, uint32_t>> stack_rewrites;
  for (uint32_t addr = sp & ~3u; addr < kStackTop; addr += 4) {
    Result<uint32_t> word = task.space().Read32(addr);
    if (!word.ok()) {
      break;  // off the mapped stack region
    }
    if (!map.Covers(*word)) {
      continue;
    }
    std::optional<uint32_t> mapped = map.MapAddr(*word);
    if (!mapped.has_value()) {
      return defer();
    }
    if (*mapped != *word) {
      stack_rewrites.emplace_back(addr, *mapped);
    }
  }
  // Map the new version into the task on first contact, and carry the old
  // version's same-shape data state (the task's private CoW bytes) into the
  // new segments before any new code can run. A dload mid-drain may have
  // mapped it already — then the new version's state is live; don't clobber.
  bool first_contact = false;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it == runtimes_.end()) {
      return defer();  // released concurrently; ReleaseTask drops it from pending
    }
    first_contact = it->second.mapped_libs.emplace(job->new_impl_key, new_impl->shared_from_this())
                        .second;
  }
  if (first_contact) {
    {
      task.BillSys(kernel.costs().ipc_round_trip + kernel.costs().omos_cache_lookup +
                   rebuild_work);
      std::lock_guard<std::mutex> lock(kernel_mu_);
      OMOS_TRY_VOID(MapCachedImage(kernel, task, *new_impl));
    }
    for (const DataCarry& carry : map.data_carries()) {
      std::vector<uint8_t> bytes(carry.size);
      OMOS_TRY_VOID(task.space().ReadBytes(carry.old_addr, bytes.data(), carry.size));
      OMOS_TRY_VOID(task.space().WriteBytes(carry.new_addr, bytes.data(), carry.size));
    }
  }
  if (!job->degrade_key.empty()) {
    OMOS_TRY_VOID(MapPinned(task, job->degrade_key, &rebuild_work));
  }
  // Point of no return: apply the planned rewrites. All writes hit this
  // task's own registers and private pages, on this task's own thread.
  task.set_pc(*new_pc);
  for (int i = 0; i < kNumRegisters; ++i) {
    if (i != kRegSp) {
      task.set_reg(i, new_regs[i]);
    }
  }
  for (const auto& [addr, value] : stack_rewrites) {
    OMOS_TRY_VOID(task.space().Write32(addr, value));
  }
  // Already-resolved lazy slots still hold old-version addresses; rebind
  // them to the new symbol (or its degradation stub) so the next call lands
  // in new code without another dload round trip.
  std::vector<TaskRuntime::Slot> slots;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it != runtimes_.end()) {
      slots = it->second.slots;
    }
  }
  uint64_t slots_repointed = 0;
  for (const TaskRuntime::Slot& slot : slots) {
    if (slot.lib_path != job->new_impl_key) {
      continue;
    }
    Result<uint32_t> current = task.space().Read32(slot.slot_addr);
    if (!current.ok() || !map.Covers(*current)) {
      continue;  // still lazy (trampoline) or already bound to new code
    }
    uint32_t target = 0;
    if (const ImageSymbol* sym = new_impl->image.FindSymbol(slot.symbol)) {
      target = sym->addr;
    } else if (auto stub = job->degrade_addrs.find(slot.symbol);
               stub != job->degrade_addrs.end()) {
      target = stub->second;
      UpgradeStats().degraded_bindings->Add();
    }
    if (target == 0) {
      continue;
    }
    OMOS_TRY_VOID(task.space().Write32(slot.slot_addr, target));
    ++slots_repointed;
  }
  // Drop the old version from this task. Unmapping decrements the shared
  // frames' refcounts; PhysMemory frees them once the last task lets go.
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it != runtimes_.end()) {
      it->second.mapped_libs.erase(job->old_impl_key);
    }
  }
  {
    std::lock_guard<std::mutex> lock(kernel_mu_);
    if (map.old_text_end() > map.old_text_base()) {
      (void)task.space().Unmap(map.old_text_base());
    }
    if (map.old_data_end() > map.old_data_base()) {
      (void)task.space().Unmap(map.old_data_base());
    }
  }
  task.ClearSafepoint();
  UpgradeStats().frames_transferred->Add();
  UpgradeStats().slots_repointed->Add(slots_repointed);
  UpgradeStats().stack_words_rewritten->Add(stack_rewrites.size());
  TraceInstant("upgrade.transfer", task.name());
  bool reclaim_ready = false;
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    job->pending.erase(task.id());
    job->retry_at.erase(task.id());
    reclaim_ready = job->phase == UpgradePhase::kDraining && job->pending.empty();
  }
  if (reclaim_ready) {
    ScheduleUpgradeReclaim(job);
  }
  return OkResult();
}

void OmosServer::ScheduleUpgradeReclaim(const std::shared_ptr<UpgradeJob>& job) {
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    if (job->phase != UpgradePhase::kDraining) {
      return;  // someone else already moved it on (or it aborted)
    }
    job->phase = UpgradePhase::kReclaiming;
  }
  SubmitIdleJob([job](OmosServer& server) { server.RunUpgradeReclaim(job); });
}

void OmosServer::RunUpgradeReclaim(std::shared_ptr<UpgradeJob> job) {
  TraceSpan trace("upgrade.reclaim", job->path);
  if (FaultSim::Trip("upgrade.reclaim")) {
    // Killed mid-reclaim: retreat to draining so DrainUpgrade (or the next
    // task release) re-attempts. The redirect stays active meanwhile.
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    if (job->phase == UpgradePhase::kReclaiming) {
      job->phase = UpgradePhase::kDraining;
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    if (job->phase != UpgradePhase::kReclaiming) {
      return;
    }
  }
  // Every task migrated: make the new version THE version. Redefining the
  // real path evicts the old implementation and every cached client image
  // that linked against it and releases their placements — the existing
  // redefinition semantics do the reclamation. Tasks keep their mappings
  // (per-task address spaces hold frame refcounts), so this only drops the
  // server-side copies.
  size_t entries_before = cache_.entry_count();
  if (Result<void> redefined = DefineLibrary(job->path, job->new_blueprint); !redefined.ok()) {
    AbortUpgrade(job, redefined.error().ToString());
    return;
  }
  // The shadow-path and degradation-stub entries served the migration;
  // future execs resolve the real path. Drop the cached copies (running
  // tasks keep their mapped frames, and a straggler dload can rebuild from
  // the shadow definitions, which stay in the namespace).
  cache_.Evict(job->new_impl_key);
  if (!job->degrade_key.empty()) {
    cache_.Evict(job->degrade_key);
  }
  size_t entries_after = cache_.entry_count();
  if (entries_before > entries_after) {
    UpgradeStats().images_reclaimed->Add(entries_before - entries_after);
  }
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    job->phase = UpgradePhase::kDone;
  }
  UpgradeStats().completed->Add();
  TraceInstant("upgrade.complete", job->path);
}

void OmosServer::AbortUpgrade(const std::shared_ptr<UpgradeJob>& job, std::string why) {
  std::set<TaskId> pending;
  {
    std::lock_guard<std::mutex> lock(upgrade_mu_);
    if (job->phase == UpgradePhase::kDone || job->phase == UpgradePhase::kAborted) {
      return;
    }
    job->phase = UpgradePhase::kAborted;
    job->error = why;
    pending.swap(job->pending);
    job->retry_at.clear();
  }
  {
    std::lock_guard<std::mutex> lock(kernel_mu_);
    for (TaskId tid : pending) {
      if (Task* task = kernel_->FindTask(tid)) {
        task->ClearSafepoint();
      }
    }
  }
  UpgradeStats().aborted->Add();
  TraceInstant("upgrade.abort", StrCat(job->path, ": ", why));
}

std::string OmosServer::RedirectLibKey(const std::string& key) const {
  std::lock_guard<std::mutex> lock(upgrade_mu_);
  if (upgrade_job_ != nullptr && upgrade_job_->old_impl_key == key &&
      (upgrade_job_->phase == UpgradePhase::kRepointing ||
       upgrade_job_->phase == UpgradePhase::kDraining ||
       upgrade_job_->phase == UpgradePhase::kReclaiming)) {
    return upgrade_job_->new_impl_key;
  }
  return key;
}

uint32_t OmosServer::DegradeBindingFor(const std::string& impl_key, const std::string& symbol,
                                       std::string* degrade_key) const {
  std::lock_guard<std::mutex> lock(upgrade_mu_);
  if (upgrade_job_ == nullptr || upgrade_job_->degrade_key.empty() ||
      upgrade_job_->phase == UpgradePhase::kAborted ||
      upgrade_job_->new_impl_key != impl_key) {
    return 0;
  }
  auto it = upgrade_job_->degrade_addrs.find(symbol);
  if (it == upgrade_job_->degrade_addrs.end()) {
    return 0;
  }
  *degrade_key = upgrade_job_->degrade_key;
  return it->second;
}

OmosServer::UpgradeStatus OmosServer::UpgradeStatusNow() const {
  std::lock_guard<std::mutex> lock(upgrade_mu_);
  UpgradeStatus status;
  if (upgrade_job_ == nullptr) {
    return status;
  }
  status.id = upgrade_job_->id;
  status.path = upgrade_job_->path;
  status.phase = upgrade_job_->phase;
  status.tasks_pending = upgrade_job_->pending.size();
  status.error = upgrade_job_->error;
  return status;
}

OmosServer::UpgradeStatus OmosServer::DrainUpgrade() {
  for (int round = 0; round < 8; ++round) {
    DrainBackgroundWork();
    std::shared_ptr<UpgradeJob> job;
    bool waiting_on_tasks = false;
    bool reclaim_ready = false;
    {
      std::lock_guard<std::mutex> lock(upgrade_mu_);
      job = upgrade_job_;
      if (job == nullptr || job->phase == UpgradePhase::kDone ||
          job->phase == UpgradePhase::kAborted) {
        break;
      }
      if (job->phase == UpgradePhase::kDraining) {
        if (job->pending.empty()) {
          reclaim_ready = true;  // e.g. a faulted reclaim retreated here
        } else {
          waiting_on_tasks = true;
        }
      }
    }
    if (waiting_on_tasks) {
      break;  // the caller must run (or release) the pending tasks
    }
    if (reclaim_ready) {
      ScheduleUpgradeReclaim(job);  // next round's drain executes it
    }
  }
  return UpgradeStatusNow();
}

Result<TaskId> OmosServer::ExecInNewTask(std::string name, const std::vector<std::string>& args,
                                         const std::function<Result<uint32_t>(Task&)>& load) {
  Task* task;
  {
    std::lock_guard<std::mutex> lock(kernel_mu_);
    task = &kernel_->CreateTask(std::move(name));
  }
  TaskId id = task->id();
  Result<void> started = [&]() -> Result<void> {
    OMOS_TRY(uint32_t entry, load(*task));
    std::lock_guard<std::mutex> lock(kernel_mu_);
    return StartTask(*kernel_, *task, entry, args);
  }();
  if (!started.ok()) {
    // The one cleanup point: drop runtime state, then the task and every
    // frame its partial mappings hold.
    ReleaseTask(id);
    std::lock_guard<std::mutex> lock(kernel_mu_);
    kernel_->DestroyTask(id);
    return started.error();
  }
  return id;
}

Result<TaskId> OmosServer::BootstrapExec(const std::string& path, std::vector<std::string> args,
                                         const Specialization& spec) {
  TraceSpan trace("server.exec_bootstrap", path);
  return ExecInNewTask(StrCat("omos-boot:", path), args, [&](Task& task) -> Result<uint32_t> {
    {
      std::lock_guard<std::mutex> lock(kernel_mu_);
      const CostModel& costs = kernel_->costs();
      // Load and run the tiny bootstrap loader program (#! /bin/omos).
      task.BillSys(costs.file_open + costs.header_parse + costs.file_read_page);
      task.BillUser(config_.bootstrap_user_cycles);
    }
    Channel channel = MakeChannel();
    OmosRequest request;
    request.op = OmosOp::kInstantiate;
    request.path = path;
    request.specialization = spec.ToKeyString();
    request.task_handle = task.id();
    OMOS_TRY(OmosReply reply, channel.Call(request, &task));
    if (!reply.ok) {
      return Err(ErrorCode::kNotFound, reply.error);
    }
    return reply.entry;
  });
}

Result<TaskId> OmosServer::IntegratedExec(const std::string& path, std::vector<std::string> args,
                                          const Specialization& spec) {
  TraceSpan trace("server.exec_integrated", path);
  return ExecInNewTask(StrCat("omos-exec:", path), args, [&](Task& task) {
    return LoadProgram(task, path, spec, ExecLookup::kCache);
  });
}

Result<TaskId> OmosServer::PrelinkedExec(const std::string& path, std::vector<std::string> args) {
  TraceSpan trace("server.exec_prelinked", path);
  return ExecInNewTask(StrCat("omos-prelink:", path), args, [&](Task& task) {
    return LoadProgram(task, path, {}, ExecLookup::kPrelink);
  });
}

namespace {

// Prelinked-exec outcomes and repair work; see docs/observability.md.
struct PrelinkMetrics {
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  Counter* stale = MetricsRegistry::Global().GetCounter("prelink.stale");
  Counter* misses = MetricsRegistry::Global().GetCounter("prelink.misses");
  Counter* relinks = MetricsRegistry::Global().GetCounter("prelink.relinks");
  Counter* repairs = MetricsRegistry::Global().GetCounter("prelink.repairs");
};

PrelinkMetrics& PrelinkStats() {
  static PrelinkMetrics* metrics = new PrelinkMetrics();
  return *metrics;
}

// Execs that found their program linked against a library version no
// longer cached, and linked it again.
Counter* StaleProgramCount() {
  static Counter* counter = MetricsRegistry::Global().GetCounter("server.stale_programs");
  return counter;
}

}  // namespace

Result<uint32_t> OmosServer::LoadProgram(Task& task, const std::string& path,
                                         const Specialization& spec, ExecLookup lookup) {
  ImageCache::ReadLease lease(cache_);  // pins *image across MapProgram
  for (int attempt = 0;; ++attempt) {
    uint64_t work = 0;
    bool linked = false;
    OMOS_TRY(const CachedImage* image, Instantiate(path, spec, &work, &linked));
    uint64_t lookup_cost = kernel_->costs().omos_cache_lookup;
    if (lookup == ExecLookup::kPrelink) {
      // The stamp compare IS the validity check: the image's relocations were
      // applied at its layout_generation; while the solver still reports that
      // generation for the key, every address baked into the image is current
      // and the map below performs zero relocations.
      bool current;
      {
        std::lock_guard<std::mutex> lock(solver_mu_);
        current = image->layout_generation != 0 &&
                  solver_.GenerationOf(image->key) == image->layout_generation;
      }
      if (!linked && current) {
        PrelinkStats().hits->Add();
        lookup_cost = kernel_->costs().prelink_lookup;
      } else {
        PrelinkStats().misses->Add();
        if (!linked) {
          // A cached image linked at a layout that has since moved: serve it
          // like an integrated exec would, and let the idle lane re-link it
          // at its new home.
          PrelinkStats().stale->Add();
          if (prelink_enabled()) {
            SchedulePrelinkRepair();
          }
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(kernel_mu_);
      task.BillSys(work + lookup_cost);
    }
    Result<uint32_t> entry = MapProgram(task, *image);
    if (entry.ok() || entry.error().code() != ErrorCode::kUnavailable || attempt == 1) {
      return entry;
    }
    // A library moved on since this version of the program linked against
    // it, and MapProgram mapped nothing: drop that version (only it, a newer
    // one may already be cached) and link again, once.
    StaleProgramCount()->Add();
    cache_.Evict(image->key, image);
  }
}

// ---- Fleet-wide prelink -------------------------------------------------------

void OmosServer::EnablePrelink() {
  prelink_enabled_.store(true, std::memory_order_relaxed);
}

Result<int> OmosServer::PrelinkNamespace(const std::string& prefix) {
  TraceSpan trace("server.prelink_namespace", prefix);
  std::string dir = OmosNamespace::Normalize(prefix);
  int instantiated = 0;
  for (const std::string& name : namespace_.List(dir)) {
    std::string meta_path = dir == "/" ? "/" + name : dir + "/" + name;
    auto entry = namespace_.Lookup(meta_path);
    if (!entry.ok() || (*entry)->kind == EntryKind::kFragment) {
      continue;  // only executable meta-objects are prelinked
    }
    uint64_t scratch = 0;
    OMOS_TRY_VOID(Instantiate(meta_path, {}, &scratch));
    ++instantiated;
  }
  // Prelinking a namespace opts into conflict-driven repair: future
  // placement collisions re-solve + re-link in the background.
  EnablePrelink();
  return instantiated;
}

void OmosServer::SchedulePrelinkRepair() {
  if (prelink_repair_queued_.exchange(true)) {
    return;  // one repair pass covers every conflict recorded before it runs
  }
  SubmitIdleJob([](OmosServer& server) { server.RunPrelinkRepair(); });
}

void OmosServer::RunPrelinkRepair() {
  prelink_repair_queued_.store(false);  // conflicts after this point re-queue
  TraceSpan trace("server.prelink_repair", "");
  PrelinkStats().repairs->Add();
  // A layout move is a namespace mutation: builds that placed against the
  // old layout are not cached.
  std::vector<std::string> evicted;
  {
    NamespaceMutation mutation(admin_mu_, namespace_generation_);
    std::vector<std::string> moved;
    {
      std::lock_guard<std::mutex> lock(solver_mu_);
      moved = solver_.SolveNamespace();
    }
    evicted = EvictStale({}, moved);
  }
  // Moved images re-link once here instead of on a client's critical path.
  RelinkEvicted(evicted);
}

std::vector<std::string> OmosServer::EvictStale(const std::vector<std::string>& paths,
                                                const std::vector<std::string>& moved) {
  std::set<std::string> moved_keys(moved.begin(), moved.end());
  return cache_.EvictIf([&](const CachedImage& image) {
    // Images that linked against a moved library baked in its old addresses.
    return image.ReadsAny(paths) || moved_keys.count(image.key) != 0 ||
           std::any_of(image.deps.begin(), image.deps.end(),
                       [&](const LibDep& dep) { return moved_keys.count(dep.cache_key) != 0; });
  });
}

void OmosServer::RelinkEvicted(const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    uint64_t scratch = 0;
    if (GetOrRebuild(key, &scratch).ok()) {
      PrelinkStats().relinks->Add();
    }
  }
}

Result<int> OmosServer::ExportNamespaceToFs(std::string_view namespace_dir,
                                            std::string_view fs_dir) {
  int exported = 0;
  std::string dir = OmosNamespace::Normalize(namespace_dir);
  for (const std::string& name : namespace_.List(dir)) {
    std::string meta_path = dir == "/" ? "/" + name : dir + "/" + name;
    auto entry = namespace_.Lookup(meta_path);
    if (!entry.ok() || (*entry)->kind == EntryKind::kFragment) {
      continue;  // only executable meta-objects are exported
    }
    std::lock_guard<std::mutex> lock(kernel_mu_);
    OMOS_TRY_VOID(kernel_->fs().TryWriteFile(StrCat(fs_dir, "/", name),
                                             StrCat("#!omos ", meta_path, "\n"), 0755));
    ++exported;
  }
  return exported;
}

Result<TaskId> OmosServer::ExecFile(const std::string& fs_path, std::vector<std::string> args,
                                    bool integrated) {
  OMOS_TRY(const SimFile* file, kernel_->fs().Lookup(fs_path));
  std::string text(file->bytes.begin(), file->bytes.end());
  if (!StartsWith(text, "#!omos ")) {
    return Err(ErrorCode::kInvalidArgument, StrCat(fs_path, ": not an OMOS interpreter file"));
  }
  std::string meta(StripWhitespace(std::string_view(text).substr(7)));
  if (integrated) {
    return IntegratedExec(meta, std::move(args));
  }
  return BootstrapExec(meta, std::move(args));
}

// ---- Lazy loading and monitoring hooks ---------------------------------------

Result<std::pair<const CachedImage*, bool>> OmosServer::MapPinned(Task& task,
                                                                  const std::string& key,
                                                                  uint64_t* work) {
  std::shared_ptr<const CachedImage> held;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it == runtimes_.end()) {
      return Err(ErrorCode::kExecFault, StrCat(task.name(), ": no OMOS runtime state"));
    }
    auto mapped = it->second.mapped_libs.find(key);
    if (mapped != it->second.mapped_libs.end()) {
      return std::make_pair(mapped->second.get(), false);
    }
    auto lazy = it->second.lazy_libs.find(key);
    if (lazy != it->second.lazy_libs.end()) {
      held = std::move(lazy->second);
      it->second.lazy_libs.erase(lazy);
    }
  }
  ImageCache::ReadLease lease(cache_);  // pins the image until the task does
  if (held == nullptr) {
    OMOS_TRY(const CachedImage* image, GetOrRebuild(key, work));
    held = image->shared_from_this();
  }
  const CachedImage* image = held.get();
  {
    std::lock_guard<std::mutex> lock(kernel_mu_);
    OMOS_TRY_VOID(MapCachedImage(*kernel_, task, *image));
  }
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  auto it = runtimes_.find(task.id());
  if (it == runtimes_.end()) {
    return Err(ErrorCode::kExecFault, StrCat(task.name(), ": task released during dload"));
  }
  it->second.mapped_libs.emplace(key, std::move(held));
  return std::make_pair(image, true);
}

Result<void> OmosServer::HandleDload(Kernel& kernel, Task& task) {
  uint32_t index = task.reg(12);
  TaskRuntime::Slot slot;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it == runtimes_.end() || index >= it->second.slots.size()) {
      return Err(ErrorCode::kExecFault, StrCat(task.name(), ": bad dload slot ", index));
    }
    slot = it->second.slots[index];
  }
  uint64_t rebuild_work = 0;
  OMOS_TRY(auto mapped, MapPinned(task, slot.lib_path, &rebuild_work));
  const auto [impl, first_use] = mapped;
  task.BillSys(rebuild_work);
  if (first_use) {
    // First use in this task: the stub "contacts OMOS and loads in the
    // library" (§4.2) — one IPC round trip plus the mapping work.
    task.BillSys(kernel.costs().ipc_round_trip + kernel.costs().omos_cache_lookup);
  }
  // "the first time a function is accessed, its name is looked up in the
  // function hash table and the value stored in an indirect branch table" —
  // user-mode work in the stub.
  task.BillUser(kernel.costs().symbol_lookup);
  const ImageSymbol* sym = impl->image.FindSymbol(slot.symbol);
  uint32_t target = sym != nullptr ? sym->addr : 0;
  if (sym == nullptr) {
    // Availability-check semantics mid-roll (docs/upgrade.md): a symbol the
    // new library version dropped binds to its degradation stub — callers
    // get kUpgradeUnavailable back instead of a fault.
    std::string degrade_key;
    target = DegradeBindingFor(slot.lib_path, slot.symbol, &degrade_key);
    if (target == 0) {
      return Err(ErrorCode::kUnresolvedSymbol,
                 StrCat("symbol ", slot.symbol, " not in ", slot.lib_path));
    }
    OMOS_TRY_VOID(MapPinned(task, degrade_key, &rebuild_work));
    UpgradeStats().degraded_bindings->Add();
  }
  OMOS_TRY_VOID(task.space().Write32(slot.slot_addr, target));
  task.BillUser(kernel.costs().reloc_apply);
  task.set_pc(target);
  return OkResult();
}

Result<void> OmosServer::HandleMonLog(Kernel& kernel, Task& task) {
  (void)kernel;
  uint32_t index = task.reg(12);
  std::string key;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it == runtimes_.end()) {
      return OkResult();  // Unmonitored task; ignore.
    }
    key = it->second.program_key;
  }
  // program_key = "<path>§<spec>"; recover the path.
  std::string_view path_part = key;
  SplitCacheKey(key, &path_part, nullptr);
  std::string path(path_part);
  std::lock_guard<std::mutex> lock(monitor_mu_);
  auto counts = monitor_counts_.find(path);
  if (counts != monitor_counts_.end() && index < counts->second.size()) {
    ++counts->second[index];
  }
  return OkResult();
}

Result<std::vector<std::pair<std::string, uint64_t>>> OmosServer::MonitorCounts(
    const std::string& path) const {
  std::string norm = OmosNamespace::Normalize(path);
  std::lock_guard<std::mutex> lock(monitor_mu_);
  auto names = monitor_names_.find(norm);
  auto counts = monitor_counts_.find(norm);
  if (names == monitor_names_.end() || counts == monitor_counts_.end()) {
    return Err(ErrorCode::kNotFound, StrCat("no monitor data for ", path));
  }
  std::vector<std::pair<std::string, uint64_t>> out;
  for (size_t i = 0; i < names->second.size(); ++i) {
    out.emplace_back(names->second[i], counts->second[i]);
  }
  return out;
}

Result<void> OmosServer::DerivePreferredOrder(const std::string& path) {
  // MonitorCounts takes monitor_mu_ itself; lock only for the final write.
  OMOS_TRY(auto counts, MonitorCounts(path));
  std::stable_sort(counts.begin(), counts.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::string> order;
  order.reserve(counts.size());
  for (const auto& [name, count] : counts) {
    order.push_back(name);
  }
  std::lock_guard<std::mutex> lock(monitor_mu_);
  preferred_order_[OmosNamespace::Normalize(path)] = std::move(order);
  return OkResult();
}

bool OmosServer::HasPreferredOrder(const std::string& path) const {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  return preferred_order_.count(OmosNamespace::Normalize(path)) != 0;
}

// ---- Dynamic loading ----------------------------------------------------------

Result<OmosServer::DynLoadResult> OmosServer::DynamicLoad(
    Task& task, const std::string& blueprint_or_path, const std::vector<std::string>& symbols) {
  BuildTracker tracker;
  tracker.stamp = BuildStamp();
  EvalValue value;
  if (StartsWith(blueprint_or_path, "(")) {
    OMOS_TRY(Sexpr expr, ParseSexpr(blueprint_or_path));
    OMOS_TRY(value, Eval(expr, tracker, 0));
  } else {
    OMOS_TRY(value, EvalName(blueprint_or_path, tracker, 0));
  }
  OMOS_TRY(Module module, RequireModule(std::move(value), "dynamic-load"));

  // Pin every cache pointer used below (the program image and the loaded
  // class) so a concurrent eviction cannot free them mid-map.
  ImageCache::ReadLease lease(cache_);

  // The loaded class may refer to procedures and data within the client
  // (§5): the running program's exported symbols become externals.
  std::map<std::string, uint32_t> externals;
  std::string program_key;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto rt = runtimes_.find(task.id());
    if (rt != runtimes_.end()) {
      program_key = rt->second.program_key;
    }
  }
  if (!program_key.empty()) {
    if (const CachedImage* program = cache_.Get(program_key)) {
      for (const ImageSymbol& sym : program->image.symbols) {
        externals.emplace(sym.name, sym.addr);
      }
    }
  }

  std::string key = StrCat("dyn:", Hex32(static_cast<uint32_t>(Fnv1a(blueprint_or_path))));
  const CachedImage* cached = cache_.Get(key);
  if (cached == nullptr) {
    uint32_t text_size = 0;
    uint32_t data_size = 0;
    uint32_t bss_size = 0;
    for (const FragmentPtr& frag : module.fragments()) {
      text_size = AlignTo(text_size, 8) + frag->section(SectionKind::kText).size();
      data_size = AlignTo(data_size, 4) + frag->section(SectionKind::kData).size();
      bss_size = AlignTo(bss_size, 4) + frag->section(SectionKind::kBss).size();
    }
    Placement placement;
    {
      std::lock_guard<std::mutex> lock(solver_mu_);
      OMOS_TRY(placement, solver_.Place(key, text_size, data_size + bss_size, {}));
    }
    LayoutSpec layout;
    layout.text_base = placement.text_base;
    layout.data_base = placement.data_base;
    layout.externals = std::move(externals);
    OMOS_TRY(LinkedImage image, LinkImage(module, layout, key));
    CachedImage ci;
    ci.image = std::move(image);
    OMOS_TRY_VOID(MaterializeSegments(ci));
    ci.build_cost = tracker.work;
    ci.layout_generation = placement.generation;
    ci.inputs.assign(tracker.inputs.begin(), tracker.inputs.end());
    cached = cache_.Put(key, std::move(ci), &namespace_generation_, tracker.stamp);
  }
  task.BillSys(tracker.work + kernel_->costs().omos_cache_lookup);
  {
    std::lock_guard<std::mutex> lock(kernel_mu_);
    OMOS_TRY_VOID(MapCachedImage(*kernel_, task, *cached));
  }
  // Remember the mapped regions so the class can be dynamically unlinked.
  TaskRuntime::DynRegion region;
  region.text_base = cached->image.text_base;
  region.has_text = !cached->image.text.empty();
  region.data_base = cached->image.data_base;
  region.has_data = cached->image.data.size() + cached->image.bss_size > 0;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    runtimes_[task.id()].dyn_loaded.push_back(region);
  }

  DynLoadResult result;
  result.text_base = cached->image.text_base;
  for (const std::string& name : symbols) {
    const ImageSymbol* sym = cached->image.FindSymbol(name);
    result.symbol_values.push_back(sym == nullptr ? 0 : sym->addr);
  }
  return result;
}

Result<void> OmosServer::DynamicUnload(Task& task, uint32_t text_base) {
  std::lock_guard<std::mutex> rt_lock(runtimes_mu_);
  auto rt = runtimes_.find(task.id());
  if (rt == runtimes_.end()) {
    return Err(ErrorCode::kNotFound, StrCat(task.name(), ": no OMOS runtime state"));
  }
  auto& regions = rt->second.dyn_loaded;
  for (auto it = regions.begin(); it != regions.end(); ++it) {
    if (it->text_base != text_base) {
      continue;
    }
    std::lock_guard<std::mutex> lock(kernel_mu_);  // runtimes_mu_ -> kernel_mu_ is in order
    if (it->has_text) {
      OMOS_TRY_VOID(task.space().Unmap(it->text_base));
    }
    if (it->has_data) {
      OMOS_TRY_VOID(task.space().Unmap(it->data_base));
    }
    regions.erase(it);
    return OkResult();
  }
  return Err(ErrorCode::kNotFound,
             StrCat(task.name(), ": no dynamically loaded class at ", Hex32(text_base)));
}

Result<void> OmosServer::HandleOmosLoadSys(Kernel& kernel, Task& task) {
  (void)kernel;
  OMOS_TRY(std::string blueprint, task.space().ReadCString(task.reg(0)));
  OMOS_TRY(std::string symbol, task.space().ReadCString(task.reg(1)));
  // The in-task path is a real IPC to the server.
  task.BillSys(kernel_->costs().ipc_round_trip);
  auto result = DynamicLoad(task, blueprint, {symbol});
  if (!result.ok() || result->symbol_values.empty()) {
    task.set_reg(0, 0);
    return OkResult();
  }
  task.set_reg(0, result->symbol_values[0]);
  return OkResult();
}

Result<void> OmosServer::HandleOmosUnloadSys(Kernel& kernel, Task& task) {
  (void)kernel;
  auto result = DynamicUnload(task, task.reg(0));
  task.set_reg(0, result.ok() ? 0 : static_cast<uint32_t>(-1));
  return OkResult();
}

// ---- Crash / recovery ---------------------------------------------------------
//
// Snapshot grammar (line-oriented; blobs are length-prefixed so blueprints
// may contain newlines; the final `check` line is an FNV-1a hash of every
// byte before it):
//   omos-snapshot 1
//   meta <kind> <blueprint-len> <path>\n<blueprint>\n
//   frag <hex-len> <path>\n<hex-of-XOF-object>\n
//   order <count> <path>\n<routine-name>\n ...
//   layoutgen <generation>
//   place <text-base> <text-size> <data-base> <data-size> <object-key>
//   prelink                       (present iff prelink repair is armed)
//   check <fnv64-hex>

namespace {

constexpr std::string_view kSnapshotMagic = "omos-snapshot 1";

std::string HexEncode(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Result<std::vector<uint8_t>> HexDecode(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) {
    return Err(ErrorCode::kCorrupted, "snapshot: odd-length hex blob");
  }
  std::vector<uint8_t> bytes(hex.size() / 2);
  for (size_t i = 0; i < bytes.size(); ++i) {
    int hi = nibble(hex[2 * i]);
    int lo = nibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) {
      return Err(ErrorCode::kCorrupted, "snapshot: bad hex digit");
    }
    bytes[i] = static_cast<uint8_t>(hi << 4 | lo);
  }
  return bytes;
}

std::string Hex64(uint64_t value) {
  return Hex32(static_cast<uint32_t>(value >> 32)) + Hex32(static_cast<uint32_t>(value)).substr(2);
}

Result<uint64_t> ParseU64(std::string_view text) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Err(ErrorCode::kParseError, StrCat("snapshot: bad number '", text, "'"));
  }
  return value;
}

// Line/blob reader over the snapshot text.
struct SnapshotCursor {
  std::string_view text;
  size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }

  Result<std::string_view> Line() {
    if (AtEnd()) {
      return Err(ErrorCode::kParseError, "snapshot: truncated (expected line)");
    }
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      return Err(ErrorCode::kParseError, "snapshot: missing final newline");
    }
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  }

  // Exactly `n` bytes followed by a newline.
  Result<std::string_view> Blob(size_t n) {
    if (pos + n >= text.size() || text[pos + n] != '\n') {
      return Err(ErrorCode::kParseError, "snapshot: truncated blob");
    }
    std::string_view blob = text.substr(pos, n);
    pos += n + 1;
    return blob;
  }
};

// "a b c rest of line" -> pops space-separated fields from the front.
Result<std::string_view> PopField(std::string_view& line) {
  if (line.empty()) {
    return Err(ErrorCode::kParseError, "snapshot: missing field");
  }
  size_t space = line.find(' ');
  std::string_view field = line.substr(0, space);
  line = space == std::string_view::npos ? std::string_view() : line.substr(space + 1);
  return field;
}

Result<uint64_t> PopNumber(std::string_view& line) {
  OMOS_TRY(std::string_view field, PopField(line));
  return ParseU64(field);
}

}  // namespace

std::string OmosServer::Snapshot() const {
  std::string out(kSnapshotMagic);
  out.push_back('\n');
  for (const auto& [path, entry] : namespace_.SnapshotEntries()) {
    if (entry->kind == EntryKind::kFragment) {
      std::string hex = HexEncode(EncodeObject(*entry->fragment));
      out += StrCat("frag ", hex.size(), " ", path, "\n", hex, "\n");
    } else {
      out += StrCat("meta ", entry->kind == EntryKind::kLibrary ? 1 : 0, " ",
                    entry->blueprint_text.size(), " ", path, "\n", entry->blueprint_text, "\n");
    }
  }
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    for (const auto& [path, order] : preferred_order_) {
      out += StrCat("order ", order.size(), " ", path, "\n");
      for (const std::string& name : order) {
        out += name;
        out.push_back('\n');
      }
    }
  }
  std::vector<PlacementRecord> placements;
  uint64_t layout_generation = 1;
  {
    std::lock_guard<std::mutex> lock(solver_mu_);
    placements = solver_.ExportPlacements();
    layout_generation = solver_.layout_generation();
  }
  // Before the place lines: Restore() must resume the generation counter
  // before adoptions stamp placements with it.
  out += StrCat("layoutgen ", layout_generation, "\n");
  for (const PlacementRecord& record : placements) {
    out += StrCat("place ", record.placement.text_base, " ", record.text_size, " ",
                  record.placement.data_base, " ", record.data_size, " ", record.object, "\n");
  }
  // Images carry their own layout stamps and the placements above restore
  // them, so prelink state is only whether repair is armed.
  if (prelink_enabled()) {
    out += "prelink\n";
  }
  out += StrCat("check ", Hex64(Fnv1a(out)), "\n");
  return out;
}

Result<void> OmosServer::Restore(std::string_view snapshot) {
  // Serialize against concurrent Define*/Restore; per-structure locks below
  // keep readers (Lookup, HasPreferredOrder) safe while we repopulate.
  NamespaceMutation mutation(admin_mu_, namespace_generation_);
  // Integrity first: the trailing check line must hash everything before it.
  size_t check_at = snapshot.rfind("check ");
  if (check_at == std::string_view::npos || check_at == 0 || snapshot[check_at - 1] != '\n') {
    return Err(ErrorCode::kCorrupted, "snapshot: missing check line");
  }
  std::string_view check_line = snapshot.substr(check_at);
  std::string_view digest = StripWhitespace(check_line.substr(6));
  if (digest != Hex64(Fnv1a(snapshot.substr(0, check_at)))) {
    return Err(ErrorCode::kCorrupted, "snapshot: checksum mismatch");
  }

  SnapshotCursor cursor{snapshot.substr(0, check_at), 0};
  OMOS_TRY(std::string_view magic, cursor.Line());
  if (magic != kSnapshotMagic) {
    return Err(ErrorCode::kParseError, StrCat("snapshot: bad magic '", magic, "'"));
  }
  while (!cursor.AtEnd()) {
    OMOS_TRY(std::string_view line, cursor.Line());
    OMOS_TRY(std::string_view tag, PopField(line));
    if (tag == "meta") {
      OMOS_TRY(uint64_t kind, PopNumber(line));
      OMOS_TRY(uint64_t len, PopNumber(line));
      OMOS_TRY(std::string_view blueprint, cursor.Blob(len));
      OMOS_TRY_VOID(namespace_.DefineMeta(
          line, blueprint, kind == 1 ? EntryKind::kLibrary : EntryKind::kMeta));
    } else if (tag == "frag") {
      OMOS_TRY(uint64_t len, PopNumber(line));
      OMOS_TRY(std::string_view hex, cursor.Blob(len));
      OMOS_TRY(std::vector<uint8_t> bytes, HexDecode(hex));
      OMOS_TRY(ObjectFile object, DecodeObject(bytes));
      OMOS_TRY_VOID(namespace_.AddFragment(line, std::move(object)));
    } else if (tag == "order") {
      OMOS_TRY(uint64_t count, PopNumber(line));
      std::vector<std::string> order;
      order.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        OMOS_TRY(std::string_view name, cursor.Line());
        order.emplace_back(name);
      }
      std::lock_guard<std::mutex> lock(monitor_mu_);
      preferred_order_[OmosNamespace::Normalize(line)] = std::move(order);
    } else if (tag == "layoutgen") {
      OMOS_TRY(uint64_t generation, PopNumber(line));
      std::lock_guard<std::mutex> lock(solver_mu_);
      solver_.set_layout_generation(generation);
    } else if (tag == "place") {
      PlacementRecord record;
      OMOS_TRY(uint64_t text_base, PopNumber(line));
      OMOS_TRY(uint64_t text_size, PopNumber(line));
      OMOS_TRY(uint64_t data_base, PopNumber(line));
      OMOS_TRY(uint64_t data_size, PopNumber(line));
      record.placement.text_base = static_cast<uint32_t>(text_base);
      record.placement.data_base = static_cast<uint32_t>(data_base);
      record.text_size = static_cast<uint32_t>(text_size);
      record.data_size = static_cast<uint32_t>(data_size);
      record.object = std::string(line);
      std::lock_guard<std::mutex> lock(solver_mu_);
      OMOS_TRY_VOID(solver_.AdoptPlacement(record));
    } else if (tag == "prelink") {
      if (!line.empty()) {
        return Err(ErrorCode::kParseError, "snapshot: prelink line takes no fields");
      }
      EnablePrelink();
    } else {
      return Err(ErrorCode::kParseError, StrCat("snapshot: unknown record '", tag, "'"));
    }
  }
  return OkResult();
}

// ---- Administration -----------------------------------------------------------

int OmosServer::OptimizePlacements() {
  std::vector<std::string> evicted;
  {
    NamespaceMutation mutation(admin_mu_, namespace_generation_);
    std::vector<std::string> changed;
    {
      std::lock_guard<std::mutex> lock(solver_mu_);
      changed = solver_.OptimizePlacements();
    }
    evicted = EvictStale({}, changed);
  }
  // Outside admin_mu_ (the re-link re-enters Instantiate): re-link the
  // evicted images at the re-packed layout, so an administrative re-pack
  // doesn't leave prelinked execs paying a link on their critical path.
  if (prelink_enabled()) {
    RelinkEvicted(evicted);
  }
  return static_cast<int>(evicted.size());
}

Result<std::vector<ImageSymbol>> OmosServer::SymbolsForTask(TaskId id) const {
  std::string program_key;
  std::map<std::string, std::shared_ptr<const CachedImage>> mapped_libs;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(id);
    if (it == runtimes_.end()) {
      return Err(ErrorCode::kNotFound, StrCat("no OMOS runtime state for task ", id));
    }
    program_key = it->second.program_key;
    mapped_libs = it->second.mapped_libs;
  }
  ImageCache::ReadLease lease(cache_);  // keeps Peek pointers valid while we copy
  std::vector<ImageSymbol> symbols;
  auto append = [&](const CachedImage* image) {
    if (image != nullptr) {
      symbols.insert(symbols.end(), image->image.symbols.begin(), image->image.symbols.end());
    }
  };
  const CachedImage* program = cache_.Peek(program_key);
  append(program);
  if (program != nullptr) {
    for (const LibDep& dep : program->deps) {
      if (mapped_libs.count(dep.cache_key) == 0) {
        append(cache_.Peek(dep.cache_key));
      }
    }
  }
  for (const auto& [key, image] : mapped_libs) {
    append(image.get());
  }
  return symbols;
}

Result<std::string> OmosServer::ProfileForTask(TaskId id) const {
  std::vector<CycleProfiler::Sample> samples = CycleProfiler::Samples();

  // Which tasks to attribute: the requested one, or every task with runtime
  // state when id == 0 (the flat, cross-task profile).
  std::vector<TaskId> ids;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (id != 0) {
      if (runtimes_.find(id) == runtimes_.end()) {
        return Err(ErrorCode::kNotFound, StrCat("no OMOS runtime state for task ", id));
      }
      ids.push_back(id);
    } else {
      for (const auto& [task_id, runtime] : runtimes_) {
        (void)runtime;
        ids.push_back(task_id);
      }
    }
  }

  std::string out;
  for (TaskId task_id : ids) {
    std::string program_key;
    std::map<std::string, std::shared_ptr<const CachedImage>> mapped_libs;
    {
      std::lock_guard<std::mutex> lock(runtimes_mu_);
      auto it = runtimes_.find(task_id);
      if (it == runtimes_.end()) {
        continue;  // released since we listed it
      }
      program_key = it->second.program_key;
      mapped_libs = it->second.mapped_libs;
    }

    // Address-sorted text symbols across the task's program + library images,
    // each tagged with the image it came from (the per-image dimension).
    struct Row {
      uint32_t addr;
      uint32_t size;
      const std::string* name;
      const std::string* image;
    };
    ImageCache::ReadLease lease(cache_);  // keeps Peek pointers valid
    std::map<std::string, const CachedImage*> images{{program_key, cache_.Peek(program_key)}};
    if (const CachedImage* program = images.begin()->second) {
      for (const LibDep& dep : program->deps) {
        images.emplace(dep.cache_key, cache_.Peek(dep.cache_key));
      }
    }
    for (const auto& [key, image] : mapped_libs) {
      images[key] = image.get();
    }
    std::vector<Row> rows;
    for (const auto& [image_key, image] : images) {
      if (image == nullptr) {
        continue;
      }
      for (const ImageSymbol& sym : image->image.symbols) {
        if (sym.section == SectionKind::kText) {
          rows.push_back(Row{sym.addr, sym.size, &sym.name, &image->image.name});
        }
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.addr < b.addr; });

    // Resolve each of this task's samples to the covering symbol: greatest
    // addr <= pc, respecting the symbol size when it has one.
    auto resolve = [&](uint32_t pc) -> const Row* {
      auto it = std::upper_bound(rows.begin(), rows.end(), pc,
                                 [](uint32_t value, const Row& row) { return value < row.addr; });
      if (it == rows.begin()) {
        return nullptr;
      }
      --it;
      if (it->size != 0 && pc >= it->addr + it->size) {
        return nullptr;
      }
      return &*it;
    };

    uint64_t task_samples = 0;
    uint64_t unresolved = 0;
    std::map<std::pair<std::string, std::string>, uint64_t> by_symbol;  // (sym, image) -> n
    std::map<std::string, uint64_t> by_image;
    for (const CycleProfiler::Sample& sample : samples) {
      if (sample.task_id != task_id) {
        continue;
      }
      ++task_samples;
      const Row* row = resolve(sample.pc);
      if (row == nullptr) {
        ++unresolved;
        continue;
      }
      ++by_symbol[{*row->name, *row->image}];
      ++by_image[*row->image];
    }

    out += StrCat("profile task=", task_id, " samples=", task_samples, "\n");
    std::vector<std::pair<std::pair<std::string, std::string>, uint64_t>> flat(
        by_symbol.begin(), by_symbol.end());
    std::sort(flat.begin(), flat.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    for (const auto& [key, count] : flat) {
      uint64_t pct = task_samples == 0 ? 0 : count * 100 / task_samples;
      out += StrCat("  ", count, " ", pct, "% ", key.first, " (", key.second, ")\n");
    }
    if (unresolved > 0) {
      out += StrCat("  ", unresolved, " ", task_samples == 0 ? 0 : unresolved * 100 / task_samples,
                    "% [unresolved]\n");
    }
    for (const auto& [image, count] : by_image) {
      out += StrCat("image ", image, " samples=", count, "\n");
    }
  }
  if (out.empty()) {
    out = "profile: no samples\n";
  }
  return out;
}

// ---- IPC --------------------------------------------------------------------

Channel OmosServer::MakeChannel() { return MakeChannel(exec_transport()); }

Channel OmosServer::MakeChannel(ExecTransport transport) {
  ServeFn serve = [this](const std::vector<uint8_t>& bytes) { return ServeMessage(bytes); };
  const CostModel& costs = kernel_->costs();
  switch (transport) {
    case ExecTransport::kStream:
      // SysV-message shape: queue round trip plus per-byte framing.
      return Channel(MakeStreamTransport(std::move(serve), costs.ipc_round_trip, 2));
    case ExecTransport::kRing: {
      RingConfig config;
      config.handoff_cost = costs.ring_handoff;
      config.slot_cost = costs.ring_slot;
      ServeFn fallback_serve = [this](const std::vector<uint8_t>& bytes) {
        return ServeMessage(bytes);
      };
      Channel channel(MakeRingTransport(std::move(serve), config));
      // A ring whose checksums keep failing (damaged shared mapping) demotes
      // to the plain stream so clients stay reachable, just slower. After a
      // quiet period of 8 clean stream exchanges the channel probes the ring
      // again and re-promotes if the damage has cleared (remapped ring).
      channel.ArmFallbackTransport(
          MakeStreamTransport(std::move(fallback_serve), costs.ipc_round_trip, 2),
          /*threshold=*/3, /*repromote_after=*/8);
      return channel;
    }
    case ExecTransport::kPort:
      break;
  }
  return Channel(std::move(serve), costs.ipc_round_trip);
}

namespace {

const char* OpName(OmosOp op) {
  switch (op) {
    case OmosOp::kInstantiate:
      return "instantiate";
    case OmosOp::kDefineMeta:
      return "define-meta";
    case OmosOp::kListNamespace:
      return "list-namespace";
    case OmosOp::kDynamicLoad:
      return "dynamic-load";
    case OmosOp::kStats:
      return "stats";
    case OmosOp::kIntrospect:
      return "introspect";
  }
  return "unknown";
}

}  // namespace

OmosReply OmosServer::HandleRequest(const OmosRequest& request) {
  TraceSpan trace("server.request", OpName(request.op));
  // Request-latency histogram + counter; pointers cached after first lookup.
  // Counted on entry so an Introspect snapshot sees its own request.
  static Counter* requests = MetricsRegistry::Global().GetCounter("server.requests");
  static Histogram* request_ns = MetricsRegistry::Global().GetHistogram("server.request_ns");
  requests->Add();
  auto start = std::chrono::steady_clock::now();
  OmosReply reply = HandleRequestImpl(request);
  // Every reply piggybacks the namespace generation so clients learn about
  // redefinitions at their next server contact.
  reply.generation = namespace_generation();
  request_ns->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count()));
  return reply;
}

OmosReply OmosServer::HandleRequestImpl(const OmosRequest& request) {
  OmosReply reply;
  switch (request.op) {
    case OmosOp::kInstantiate: {
      Task* task;
      {
        std::lock_guard<std::mutex> lock(kernel_mu_);
        task = kernel_->FindTask(request.task_handle);
      }
      if (task == nullptr) {
        reply.error = "bad task handle";
        return reply;
      }
      auto entry = LoadProgram(*task, request.path,
                               Specialization::FromKeyString(request.specialization),
                               ExecLookup::kCache);
      if (!entry.ok()) {
        reply.error = entry.error().ToString();
        return reply;
      }
      reply.ok = true;
      reply.entry = *entry;
      std::lock_guard<std::mutex> lock(kernel_mu_);
      for (const auto& region : task->space().Regions()) {
        reply.segments.push_back(SegmentDesc{region.base, region.size, region.prot, region.name});
      }
      return reply;
    }
    case OmosOp::kDefineMeta: {
      // The blueprint text travels in the `specialization` field.
      auto status = DefineMeta(request.path, request.specialization);
      if (!status.ok()) {
        reply.error = status.error().ToString();
        return reply;
      }
      reply.ok = true;
      return reply;
    }
    case OmosOp::kListNamespace:
      reply.ok = true;
      reply.names = ListNamespace(request.path);
      return reply;
    case OmosOp::kDynamicLoad: {
      Task* task;
      {
        std::lock_guard<std::mutex> lock(kernel_mu_);
        task = kernel_->FindTask(request.task_handle);
      }
      if (task == nullptr) {
        reply.error = "bad task handle";
        return reply;
      }
      auto result = DynamicLoad(*task, request.path, request.symbols);
      if (!result.ok()) {
        reply.error = result.error().ToString();
        return reply;
      }
      reply.ok = true;
      reply.entry = result->text_base;
      reply.symbol_values = result->symbol_values;
      return reply;
    }
    case OmosOp::kStats:
      reply.ok = true;
      reply.stat_hits = cache_.stats().hits;
      reply.stat_misses = cache_.stats().misses;
      return reply;
    case OmosOp::kIntrospect:
      return HandleIntrospect(request);
  }
  reply.error = "unknown op";
  return reply;
}

OmosReply OmosServer::HandleIntrospect(const OmosRequest& request) {
  OmosReply reply;
  const std::string& cmd = request.path;
  if (cmd == "stats") {
    reply.ok = true;
    reply.metrics = MetricsRegistry::Global().Snapshot();
    reply.stat_hits = cache_.stats().hits;
    reply.stat_misses = cache_.stats().misses;
    return reply;
  }
  if (cmd == "stats-text") {
    reply.ok = true;
    reply.payload = MetricsRegistry::Global().TextSummary();
    return reply;
  }
  if (cmd == "trace") {
    reply.ok = true;
    reply.payload = TraceToChromeJson();
    return reply;
  }
  if (cmd == "trace-summary") {
    reply.ok = true;
    reply.payload = TraceTextSummary();
    return reply;
  }
  if (cmd == "trace-start") {
    TraceSetEnabled(true);
    reply.ok = true;
    return reply;
  }
  if (cmd == "trace-stop") {
    TraceSetEnabled(false);
    reply.ok = true;
    return reply;
  }
  if (cmd == "trace-clear") {
    TraceClear();
    reply.ok = true;
    return reply;
  }
  if (cmd == "profile-start") {
    // task_handle doubles as the sampling period here (0 = default).
    CycleProfiler::Clear();
    CycleProfiler::Start(request.task_handle == 0 ? 64 : request.task_handle);
    reply.ok = true;
    return reply;
  }
  if (cmd == "profile-stop") {
    CycleProfiler::Stop();
    reply.ok = true;
    return reply;
  }
  if (cmd == "profile") {
    auto profile = ProfileForTask(request.task_handle);
    if (!profile.ok()) {
      reply.error = profile.error().ToString();
      return reply;
    }
    reply.ok = true;
    reply.payload = *profile;
    return reply;
  }
  if (cmd == "placements") {
    // The global layout as the solver sees it: generation, one line per
    // placed object (with its stamp), then the outstanding conflict log.
    reply.ok = true;
    std::string out;
    std::lock_guard<std::mutex> lock(solver_mu_);
    out = StrCat("layout generation ", solver_.layout_generation(), "\n");
    for (const PlacementRecord& record : solver_.ExportPlacements()) {
      out += StrCat("place T=", Hex32(record.placement.text_base),
                    " D=", Hex32(record.placement.data_base),
                    " gen=", record.placement.generation, " ", record.object, "\n");
    }
    for (const ConflictRecord& conflict : solver_.conflicts()) {
      out += StrCat("conflict ", conflict.object, " wanted=", Hex32(conflict.wanted),
                    " got=", Hex32(conflict.got), " holder=", conflict.holder, "\n");
    }
    reply.payload = out;
    return reply;
  }
  if (StartsWith(cmd, "upgrade ")) {
    // "upgrade <libpath>" with the new blueprint in request.specialization:
    // kick off a live upgrade (docs/upgrade.md). The reply returns the
    // upgrade id; progress is polled via "upgrade-status".
    std::string target = cmd.substr(std::string_view("upgrade ").size());
    auto begun = BeginUpgrade(target, request.specialization);
    if (!begun.ok()) {
      reply.error = begun.error().ToString();
      return reply;
    }
    reply.ok = true;
    reply.payload = StrCat("upgrade ", *begun, " of ", target, " started\n");
    return reply;
  }
  if (cmd == "upgrade-status") {
    UpgradeStatus status = UpgradeStatusNow();
    reply.ok = true;
    if (status.id == 0) {
      reply.payload = "no upgrade\n";
    } else {
      reply.payload = StrCat("upgrade ", status.id, " ", status.path, ": ",
                             UpgradePhaseName(status.phase), ", ", status.tasks_pending,
                             " task(s) pending",
                             status.error.empty() ? "" : StrCat(" (", status.error, ")"), "\n");
    }
    return reply;
  }
  reply.error = StrCat("unknown introspect subcommand: ", cmd);
  return reply;
}

std::vector<uint8_t> OmosServer::ServeMessage(const std::vector<uint8_t>& request_bytes) {
  if (IsBatchRequest(request_bytes)) {
    return ServeBatch(request_bytes);
  }
  auto request = DecodeRequest(request_bytes);
  OmosReply reply;
  if (!request.ok()) {
    reply.error = request.error().ToString();
    reply.generation = namespace_generation();
  } else {
    reply = HandleRequest(*request);
  }
  return EncodeReply(reply);
}

std::vector<uint8_t> OmosServer::ServeBatch(const std::vector<uint8_t>& request_bytes) {
  static Counter* batches = MetricsRegistry::Global().GetCounter("server.batches");
  static Counter* batched = MetricsRegistry::Global().GetCounter("server.batched_requests");
  auto requests = DecodeRequestBatch(request_bytes);
  if (!requests.ok()) {
    // The whole envelope is unreadable; a single error reply tells the
    // client to retry (framing damage is retryable).
    OmosReply reply;
    reply.error = requests.error().ToString();
    reply.generation = namespace_generation();
    return EncodeReply(reply);
  }
  batches->Add();
  batched->Add(requests->size());
  TraceSpan trace("server.batch", StrCat(requests->size(), " requests"));
  std::vector<OmosReply> replies(requests->size());
  // Members are independent; fan out on the request pool. A member that
  // fails produces an ok=false reply in its slot and nothing else.
  ThreadPool::Global().ParallelFor(requests->size(), /*grain=*/1,
                                   [&](size_t begin, size_t end) {
                                     for (size_t i = begin; i < end; ++i) {
                                       replies[i] = HandleRequest((*requests)[i]);
                                     }
                                   });
  return EncodeReplyBatch(replies);
}

void OmosServer::ServeAsync(std::vector<uint8_t> request_bytes,
                            std::function<void(std::vector<uint8_t>)> done) {
  ThreadPool::Global().Submit(
      [this, bytes = std::move(request_bytes), done = std::move(done)]() mutable {
        done(ServeMessage(bytes));
      });
}

}  // namespace omos
