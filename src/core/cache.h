// The OMOS image cache: bound, relocated, mappable images keyed by
// (meta-object, specialization, placement). "By treating executables as a
// cache, OMOS avoids unnecessary repetition of work" (§1); cache hits are
// the entire speed story of the self-contained scheme.
//
// Concurrency model (PR 3): the cache is internally synchronized so many
// server worker threads can Get/Put/Evict at once.
//
//  * Entries are sharded by cache-key hash; each shard has its own mutex,
//    so lookups for different keys rarely contend. Eviction order is still
//    a single global LRU list (its own mutex; critical sections are one
//    list splice), because the byte budget is global — see
//    `Cache.LruEvictionByBytes`.
//  * `CacheStats` counters are atomics; read them individually.
//  * Checksum verification — the expensive part of a warm Get — runs
//    *outside* any lock, on a shared_ptr-pinned entry, so concurrent warm
//    hits on the same key scale.
//  * Single-flight miss deduplication: concurrent misses on the same key
//    elect one builder via JoinBuild/FinishBuild; the rest wait and share
//    the built image (`CacheStats::single_flight_waits`).
//
// Pointer lifetime: a `const CachedImage*` from Get/Put/Peek stays valid
// until the entry is evicted — and, under concurrency, for as long as any
// ReadLease opened before the Get is still alive: eviction moves entries
// with open leases to a retired list drained only when every lease closes.
// Single-threaded callers need no lease. Concurrent callers must hold one
// across the Get and every use of the returned pointer.
#ifndef OMOS_SRC_CORE_CACHE_H_
#define OMOS_SRC_CORE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/linker/image.h"
#include "src/support/result.h"
#include "src/vm/address_space.h"

namespace omos {

// Cache keys are "<normalized path><kCacheKeySep><spec string>". The
// separator is U+00A7 SECTION SIGN, two bytes in UTF-8, chosen because it
// cannot appear in either half.
inline constexpr std::string_view kCacheKeySep = "\xc2\xa7";

// Builds "<path>§<spec>".
std::string MakeCacheKey(std::string_view path, std::string_view spec);

// Splits a cache key back into its (path, spec) halves. Returns false when
// the separator is absent (not a composed key); outputs are untouched then.
bool SplitCacheKey(std::string_view key, std::string_view* path, std::string_view* spec);

// A stub slot in a partial-image client: the `index`-th lazy slot resolves
// `symbol` out of library `lib_path` (specialized `lib-dynamic-impl`).
struct StubSlot {
  uint32_t index = 0;
  std::string slot_symbol;  // data symbol holding the branch-table entry
  std::string lib_path;
  std::string symbol;
};

struct CachedImage;

// A resolved library dependency of a cached program image, with the
// identity of the version the program was linked against: its bases and a
// sum of its bytes. A rebuilt library that landed elsewhere or links to
// other bytes no longer matches, and the program is stale.
struct LibDep {
  std::string cache_key;  // key of the library's own cached image
  std::string lib_path;
  uint32_t text_base = 0;
  uint32_t data_base = 0;
  uint64_t content_sum = 0;

  static LibDep Of(const CachedImage& lib, std::string lib_path);
  bool Matches(const CachedImage& lib) const;
};

// One cached, mappable image: the linked bytes plus the shareable text
// segment (built once), plus whatever the exec path needs to finish the job
// (library deps to map, stub slots to register). Cache-owned images are
// shared_ptr-managed; a running task pins a library version it mapped with
// shared_from_this().
struct CachedImage : std::enable_shared_from_this<CachedImage> {
  std::string key;
  LinkedImage image;
  std::optional<SegmentImage> text_seg;
  // Frame-backed master copy of the initialized data segment, mapped CoW
  // into each client task (the paper's vm_map exec path). Absent when the
  // image has no initialized data.
  std::optional<SegmentImage> data_seg;
  std::vector<LibDep> deps;
  std::vector<StubSlot> stub_slots;
  uint64_t build_cost = 0;  // simulated cycles spent constructing this image
  // Layout generation the image's placement was assigned at (the prelink
  // validity stamp). Folded into LayoutSum so a rotted stamp is caught like
  // any other layout-field corruption.
  uint64_t layout_generation = 0;
  // Every namespace path the build read, sorted: the names it evaluated,
  // the inputs of each library it bound, or the store fingerprint's
  // closure for an adopted image. Redefining any of them makes it stale.
  std::vector<std::string> inputs;

  // Integrity sums, set by Put. The linked bytes (text then data, viewed as
  // one stream) are summed per 4 KiB page; the layout fields get their own
  // sum. Get verifies the whole set once per entry lifetime and then
  // amortizes: a constant number of pages per warm hit. A mismatch means the
  // cached copy rotted and must be rebuilt from its blueprint.
  std::vector<uint64_t> page_sums;
  uint64_t layout_sum = 0;
  // Sum over page_sums: the bytes' identity, recorded in LibDep.
  uint64_t content_sum = 0;

  void ComputeSums();
  // Recomputes the sum of page `page` (an index into page_sums).
  uint64_t PageSum(size_t page) const;
  uint64_t LayoutSum() const;
  // True when `page` and the layout sum still match (layout checked so every
  // probe also covers the O(1)-sized metadata).
  bool VerifyPage(size_t page) const;
  // Recomputes and compares everything. O(bytes).
  bool VerifyAll() const;
  // Whether the build read any of `paths` (both sorted).
  bool ReadsAny(const std::vector<std::string>& paths) const;

  uint32_t bytes() const {
    return static_cast<uint32_t>(image.text.size() + image.data.size());
  }
};

// All counters atomic: worker threads bump them without the shard locks.
struct CacheStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> bytes_cached{0};
  // Entries that failed checksum verification on Get; each is evicted and
  // counts as a miss, so the caller transparently rebuilds it.
  std::atomic<uint64_t> corruption_rebuilds{0};
  // Full-image verifications (first Get after Put, and fault-sim runs).
  std::atomic<uint64_t> full_verifies{0};
  // Total pages checked across all Gets, full or amortized.
  std::atomic<uint64_t> pages_verified{0};
  // Entries inserted by Put. Under single-flight, N concurrent misses on
  // one key still insert exactly once (tests/concurrency_test.cc asserts).
  std::atomic<uint64_t> inserts{0};
  // Misses that joined another thread's in-flight build instead of
  // building themselves.
  std::atomic<uint64_t> single_flight_waits{0};
};

// Sharded, internally synchronized LRU image cache with a global byte
// budget. See the file comment for the locking and lifetime story.
class ImageCache {
 public:
  // Registers this cache as a metrics-registry source (cache.* names);
  // the destructor unregisters it. CacheStats stays authoritative here.
  explicit ImageCache(uint64_t capacity_bytes = 256ull << 20);
  ~ImageCache();

  // Pins entry pointers: entries evicted while any lease is open are
  // retired, not destroyed, until the last lease closes.
  class ReadLease {
   public:
    explicit ReadLease(const ImageCache& cache) : cache_(&cache) {
      cache_->readers_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~ReadLease() {
      if (cache_->readers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        cache_->DrainRetired();
      }
    }
    ReadLease(const ReadLease&) = delete;
    ReadLease& operator=(const ReadLease&) = delete;

   private:
    const ImageCache* cache_;
  };

  // Lookup; bumps LRU and hit/miss counters. Verification runs unlocked.
  const CachedImage* Get(const std::string& key);
  // Lookup without touching LRU or statistics (introspection).
  const CachedImage* Peek(const std::string& key) const;
  bool Contains(const std::string& key) const;

  // Inserts `image` under `key` and returns it. With `generation`, the image
  // is a build that read its inputs at generation `stamp`: it is cached only
  // if *generation still equals `stamp`, compared under the shard lock, so
  // an EvictIf walk that starts after a bump cannot miss it. A stale image
  // is returned to its builder uncached, parked like an evicted entry:
  // valid while the builder's ReadLease is open.
  const CachedImage* Put(std::string key, CachedImage image,
                         const std::atomic<uint64_t>* generation = nullptr, uint64_t stamp = 0);
  // Evicts `key`; with `only`, only while that exact image is cached there.
  void Evict(const std::string& key, const CachedImage* only = nullptr);
  // The one eviction walk: evicts every entry `stale` selects, one shard
  // lock at a time (the predicate sees each image under its shard lock).
  // Returns the evicted keys, sorted.
  std::vector<std::string> EvictIf(const std::function<bool(const CachedImage&)>& stale);

  // ---- Single-flight miss deduplication -----------------------------------
  // After a missed Get, call JoinBuild: the first caller becomes the
  // *leader* (must build the image, Put it, then call FinishBuild exactly
  // once — on failure too, with nullptr). Later callers block until the
  // leader finishes and receive its result. Re-entrant on the leader
  // thread: a recursive JoinBuild on the same key stays leader (dependency
  // cycles surface as eval errors, not deadlocks).
  struct MissJoin {
    bool leader = false;
    // Follower only: the leader's published image; nullptr when the
    // leader's build failed (caller retries or reports its own error).
    const CachedImage* image = nullptr;
  };
  MissJoin JoinBuild(const std::string& key);
  void FinishBuild(const std::string& key, const CachedImage* image);

  const CacheStats& stats() const { return stats_; }
  size_t entry_count() const;

 private:
  // Shard count: cache-key hash & (16 - 1). 16 shards keep the per-shard
  // mutexes all but uncontended at the 8-worker pool size while costing
  // one cache line of mutex each; see docs/perf.md.
  static constexpr size_t kShards = 16;

  struct Entry {
    std::shared_ptr<CachedImage> image;
    std::list<std::string>::iterator lru_it;
    // Verification state: the first Get after Put walks every page; later
    // Gets round-robin a constant number of pages from probe_cursor.
    bool verified_once = false;
    size_t probe_cursor = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Entry> entries;
  };

  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    const CachedImage* image = nullptr;
    std::thread::id leader;
    int depth = 0;  // leader re-entrancy
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  void TrimToCapacity();
  // Unlinks `it` from `shard` (shard lock held) and returns its image.
  std::shared_ptr<CachedImage> EraseLocked(Shard& shard,
                                           std::map<std::string, Entry>::iterator it);
  // Parks an evicted image on the retired list while any lease is open, or
  // always with `park`; destroys it immediately otherwise. Null is a no-op.
  void Retire(std::shared_ptr<CachedImage> image, bool park = false);
  void DrainRetired() const;

  uint64_t capacity_bytes_;
  Shard shards_[kShards];

  // Global eviction order; lock after a shard mutex, never before.
  mutable std::mutex lru_mu_;
  std::list<std::string> lru_;  // front = most recent

  std::mutex inflight_mu_;
  std::map<std::string, std::shared_ptr<InFlight>> inflight_;

  mutable std::atomic<size_t> readers_{0};
  mutable std::mutex retired_mu_;
  mutable std::vector<std::shared_ptr<CachedImage>> retired_;

  CacheStats stats_;
  uint64_t metrics_token_ = 0;
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_CACHE_H_
