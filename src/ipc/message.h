// The OMOS IPC wire protocol.
//
// The paper's OMOS speaks Mach IPC, Sun RPC, and System V messages (§8.1);
// here there is one transport (an in-process channel with simulated cost,
// src/ipc/channel.h) but real marshalling: requests and replies cross the
// "boundary" as byte vectors, and malformed messages are protocol errors.
// Mapped segments cannot cross a message boundary — as on Mach, the server
// maps memory into the client's task directly and the reply carries only
// handles and addresses.
#ifndef OMOS_SRC_IPC_MESSAGE_H_
#define OMOS_SRC_IPC_MESSAGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/support/result.h"

namespace omos {

enum class OmosOp : uint32_t {
  kInstantiate = 1,   // path + specialization -> image handle + entry + segments
  kDefineMeta = 2,    // path + blueprint text -> ok
  kListNamespace = 3, // path -> child names
  kDynamicLoad = 4,   // blueprint or path + wanted symbols -> bound values
  kStats = 5,         // -> cache statistics
  // Observability (omtrace). request.path selects the subcommand:
  //   "stats"          -> `metrics` holds the unified registry snapshot
  //   "stats-text"     -> `payload` holds the metrics text summary
  //   "trace"          -> `payload` holds Chrome trace_event JSON
  //   "trace-summary"  -> `payload` holds the trace text summary
  //   "trace-start" / "trace-stop" / "trace-clear" -> toggle tracing
  //   "profile-start" / "profile-stop"             -> toggle the profiler
  //   "profile"        -> `payload` holds a symbol-level profile of
  //                       request.task_handle (or flat across tasks when 0)
  kIntrospect = 6,
};

struct SegmentDesc {
  uint32_t base = 0;
  uint32_t size = 0;
  uint8_t prot = 0;
  std::string name;
};

struct OmosRequest {
  OmosOp op = OmosOp::kInstantiate;
  std::string path;           // namespace path (or blueprint text for kDynamicLoad)
  std::string specialization; // e.g. "lib-constrained", "" = meta-object default
  uint32_t task_handle = 0;   // target task for mapping ops
  std::vector<std::string> symbols;  // kDynamicLoad: symbols whose values to return
};

struct OmosReply {
  bool ok = false;
  std::string error;
  uint32_t entry = 0;
  std::vector<SegmentDesc> segments;       // what got mapped into the task
  std::vector<std::string> names;          // kListNamespace
  std::vector<uint32_t> symbol_values;     // kDynamicLoad, parallel to request.symbols
  uint64_t stat_hits = 0;
  uint64_t stat_misses = 0;
  // kIntrospect: free-form text payload (trace JSON, summaries, profiles,
  // "placements", "upgrade <libpath>" — new blueprint in
  // request.specialization — and "upgrade-status") and the structured
  // metrics snapshot.
  std::string payload;
  std::vector<std::pair<std::string, uint64_t>> metrics;
  // The server's namespace generation, piggybacked on every reply (success
  // or failure). Advanced by any namespace mutation (DefineMeta,
  // AddFragment, OptimizePlacements, Restore, ...), so a client can tell
  // that a redefinition happened since its last contact.
  uint64_t generation = 0;
};

std::vector<uint8_t> EncodeRequest(const OmosRequest& request);
Result<OmosRequest> DecodeRequest(const std::vector<uint8_t>& bytes);
std::vector<uint8_t> EncodeReply(const OmosReply& reply);
Result<OmosReply> DecodeReply(const std::vector<uint8_t>& bytes);

// ---- Request batching -------------------------------------------------------
// N requests marshalled into one frame; the server executes them on its
// request pool and returns N replies in request order, all for one
// transport round trip. A malformed or failing member yields a reply with
// ok=false in its position — it never poisons the other N-1. An empty
// batch is a protocol error.
std::vector<uint8_t> EncodeRequestBatch(const std::vector<OmosRequest>& requests);
Result<std::vector<OmosRequest>> DecodeRequestBatch(const std::vector<uint8_t>& bytes);
std::vector<uint8_t> EncodeReplyBatch(const std::vector<OmosReply>& replies);
Result<std::vector<OmosReply>> DecodeReplyBatch(const std::vector<uint8_t>& bytes);
// Cheap magic peek: does this frame carry a batch? (The server's message
// entry point dispatches on it.)
bool IsBatchRequest(const std::vector<uint8_t>& bytes);
bool IsBatchReply(const std::vector<uint8_t>& bytes);

}  // namespace omos

#endif  // OMOS_SRC_IPC_MESSAGE_H_
