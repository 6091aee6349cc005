// Channel: the client side of OMOS IPC, billing the simulated round-trip
// cost to whoever makes the call (a task, or a bare cycle counter for
// server-to-server traffic).
//
// Channels survive transient transport failures: with a RetryPolicy armed,
// a retryable error (timeout, unavailable peer, framing/corruption damage)
// is retried with capped exponential backoff, and the backoff wait is
// billed in simulated cycles like any other cost.
//
// CallBatch rides on top of any transport: N requests marshalled into one
// frame, executed on the server's request pool, N replies back, ONE
// transport round trip billed. A failing member reply never poisons the
// other N-1.
#ifndef OMOS_SRC_IPC_CHANNEL_H_
#define OMOS_SRC_IPC_CHANNEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ipc/message.h"
#include "src/ipc/transport.h"
#include "src/support/result.h"
#include "src/support/trace.h"

namespace omos {

class Task;

// The server end: consumes a marshalled request, produces a marshalled
// reply. Implemented by core::OmosServer.
using MessageServer = std::function<std::vector<uint8_t>(const std::vector<uint8_t>&)>;

// Errors worth retrying: the request may succeed if simply sent again.
bool IsRetryableError(ErrorCode code);

struct RetryPolicy {
  int max_attempts = 1;                // total attempts; 1 = fail fast
  uint64_t base_backoff_cycles = 500;  // wait before the first retry
  uint64_t max_backoff_cycles = 8000;  // cap for the exponential growth

  static RetryPolicy None() { return RetryPolicy{}; }
  static RetryPolicy Default() { return RetryPolicy{4, 500, 8000}; }
};

class Channel {
 public:
  // Message-oriented transport with a flat round-trip cost (Mach-like).
  Channel(MessageServer server, uint64_t round_trip_cost)
      : transport_(MakePortTransport(std::move(server), round_trip_cost)) {}

  // Any transport (see src/ipc/transport.h for the SysV-style byte stream,
  // src/ipc/ring_transport.h for the doors-style shared-memory ring).
  explicit Channel(std::unique_ptr<Transport> transport) : transport_(std::move(transport)) {}

  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Adaptive transport demotion: after `threshold` consecutive kCorrupted
  // round trips the channel swaps to `fallback` (typically a plain stream
  // when the shared-memory ring's checksums keep failing — slower, but not
  // sharing the damaged mapping). A successful round trip resets the
  // streak. Demotions count in ipc.transport_fallbacks.
  //
  // Re-promotion: with `repromote_after` > 0, once `repromote_after`
  // consecutive exchanges deliver cleanly on the fallback the channel
  // probes the demoted transport again with the next exchange. A clean
  // probe re-promotes (ipc.transport_repromotions); a corrupted one
  // retreats to the fallback and restarts the quiet period. 0 keeps the
  // demotion permanent.
  void ArmFallbackTransport(std::unique_ptr<Transport> fallback, int threshold = 3,
                            int repromote_after = 0);
  bool fallback_engaged() const { return fallback_engaged_; }

  // Full marshal -> deliver -> unmarshal round trip, retried per the policy.
  // If `task` is non-null the round-trip cost (including backoff waits) is
  // billed to its system time; otherwise it is accumulated in
  // cycles_billed() (for host-side clients).
  Result<OmosReply> Call(const OmosRequest& request, Task* task);

  // Deliver `requests` as ONE frame and bill one transport round trip; the
  // reply vector is parallel to `requests`. Per-request failures come back
  // as ok=false member replies; only a transport/framing failure (after
  // retries, which resend the whole batch) fails the call.
  Result<std::vector<OmosReply>> CallBatch(const std::vector<OmosRequest>& requests, Task* task);

  uint64_t cycles_billed() const { return cycles_billed_; }
  // Frames that reached the transport.
  uint64_t calls_made() const { return calls_made_; }
  uint64_t retries_made() const { return retries_made_; }
  uint64_t backoff_cycles_billed() const { return backoff_cycles_billed_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  // The retry loop shared by Call and CallBatch: deliver `wire`, let
  // `decode` validate/consume the reply bytes (a reply that unmarshals
  // wrong is as retryable as a damaged frame), bill `task` or the local
  // counter either way and attribute the cycles to `trace`.
  Result<void> ExchangeWithRetry(const std::vector<uint8_t>& wire, Task* task, TraceSpan& trace,
                                 const std::function<Result<void>(const std::vector<uint8_t>&)>& decode);

  std::unique_ptr<Transport> transport_;
  std::unique_ptr<Transport> fallback_;  // holds the demoted transport after a swap
  int fallback_threshold_ = 0;
  int consecutive_corrupted_ = 0;
  bool fallback_engaged_ = false;
  // Re-promotion state: clean exchanges delivered since the demotion, and
  // whether the current exchange is the probe running on the demoted ring.
  int repromote_after_ = 0;
  int clean_streak_ = 0;
  bool probing_ = false;
  RetryPolicy retry_;
  uint64_t cycles_billed_ = 0;
  uint64_t calls_made_ = 0;
  uint64_t retries_made_ = 0;
  uint64_t backoff_cycles_billed_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

}  // namespace omos

#endif  // OMOS_SRC_IPC_CHANNEL_H_
