#include "src/ipc/channel.h"

#include <algorithm>
#include <optional>

#include "src/os/task.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace omos {

bool IsRetryableError(ErrorCode code) {
  switch (code) {
    case ErrorCode::kTimeout:      // request or reply lost; resend
    case ErrorCode::kUnavailable:  // peer restarting; wait and resend
    case ErrorCode::kProtocolError:  // framing damage; stream was resynced
    case ErrorCode::kCorrupted:    // checksum mismatch; retransmit
    case ErrorCode::kIoError:      // transient simulated I/O failure
      return true;
    default:
      return false;
  }
}

namespace {

// Registry counters mirror the per-channel totals process-wide; looked up
// once (pointers are stable for the process lifetime).
struct ChannelMetrics {
  Counter* calls = MetricsRegistry::Global().GetCounter("ipc.calls");
  Counter* retries = MetricsRegistry::Global().GetCounter("ipc.retries");
  Counter* backoff_cycles = MetricsRegistry::Global().GetCounter("ipc.backoff_cycles");
  Counter* failures = MetricsRegistry::Global().GetCounter("ipc.failures");
  Counter* bytes_sent = MetricsRegistry::Global().GetCounter("ipc.bytes_sent");
  Counter* bytes_received = MetricsRegistry::Global().GetCounter("ipc.bytes_received");
  Counter* batch_calls = MetricsRegistry::Global().GetCounter("ipc.batch.calls");
  Counter* batch_requests = MetricsRegistry::Global().GetCounter("ipc.batch.requests");
  Counter* transport_fallbacks =
      MetricsRegistry::Global().GetCounter("ipc.transport_fallbacks");
  Counter* transport_repromotions =
      MetricsRegistry::Global().GetCounter("ipc.transport_repromotions");
};

ChannelMetrics& Metrics() {
  static ChannelMetrics* metrics = new ChannelMetrics();
  return *metrics;
}

}  // namespace

void Channel::ArmFallbackTransport(std::unique_ptr<Transport> fallback, int threshold,
                                   int repromote_after) {
  fallback_ = std::move(fallback);
  fallback_threshold_ = std::max(1, threshold);
  repromote_after_ = repromote_after;
  consecutive_corrupted_ = 0;
  clean_streak_ = 0;
  fallback_engaged_ = false;
  probing_ = false;
}

Result<void> Channel::ExchangeWithRetry(
    const std::vector<uint8_t>& wire, Task* task, TraceSpan& trace,
    const std::function<Result<void>(const std::vector<uint8_t>&)>& decode) {
  ++calls_made_;
  Metrics().calls->Add();
  // Quiet period on the fallback elapsed: this exchange probes the demoted
  // transport. A clean delivery re-promotes it; a failure retreats below.
  if (fallback_engaged_ && !probing_ && repromote_after_ > 0 &&
      clean_streak_ >= repromote_after_ && fallback_ != nullptr) {
    std::swap(transport_, fallback_);
    probing_ = true;
  }
  uint64_t cost = 0;
  int attempts = std::max(1, retry_.max_attempts);
  std::optional<Error> last_error;
  bool delivered = false;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      // Capped exponential backoff, billed like any other simulated wait.
      uint64_t backoff = std::min(retry_.base_backoff_cycles << (attempt - 2),
                                  retry_.max_backoff_cycles);
      cost += backoff;
      backoff_cycles_billed_ += backoff;
      ++retries_made_;
      Metrics().retries->Add();
      Metrics().backoff_cycles->Add(backoff);
      TraceInstant("ipc.retry", last_error ? ErrorCodeName(last_error->code()) : "");
    }
    bytes_sent_ += wire.size();
    Metrics().bytes_sent->Add(wire.size());
    auto reply_bytes = transport_->RoundTrip(wire, &cost);
    if (reply_bytes.ok()) {
      bytes_received_ += reply_bytes->size();
      Metrics().bytes_received->Add(reply_bytes->size());
      auto decoded = decode(*reply_bytes);
      if (decoded.ok()) {
        last_error.reset();
        delivered = true;
        consecutive_corrupted_ = 0;  // a clean round trip ends the streak
        if (probing_) {
          // The demoted ring answered cleanly: re-promote it for good.
          probing_ = false;
          fallback_engaged_ = false;
          clean_streak_ = 0;
          Metrics().transport_repromotions->Add();
          TraceInstant("ipc.transport_repromote", "stream->ring");
        } else if (fallback_engaged_ && repromote_after_ > 0) {
          ++clean_streak_;
        }
        break;
      }
      // A reply that unmarshals wrong is as retryable as a damaged frame.
      last_error = decoded.error();
    } else {
      last_error = reply_bytes.error();
    }
    // Adaptive demotion: a streak of checksum failures means the transport
    // itself (a damaged ring mapping) is suspect, not the request — swap to
    // the armed fallback so the remaining retries go out on clean plumbing.
    // The swap retains the demoted transport for a later re-promotion probe.
    if (last_error->code() == ErrorCode::kCorrupted) {
      if (probing_) {
        // The probe hit corruption: the ring is still damaged. Retreat and
        // restart the quiet period.
        std::swap(transport_, fallback_);
        probing_ = false;
        clean_streak_ = 0;
      } else if (fallback_ != nullptr && !fallback_engaged_ &&
                 ++consecutive_corrupted_ >= fallback_threshold_) {
        std::swap(transport_, fallback_);
        fallback_engaged_ = true;
        consecutive_corrupted_ = 0;
        Metrics().transport_fallbacks->Add();
        TraceInstant("ipc.transport_fallback", "ring->stream");
      }
    } else {
      consecutive_corrupted_ = 0;
    }
    if (!IsRetryableError(last_error->code())) {
      break;
    }
  }
  // A probe that ran out of attempts without a clean delivery (e.g. on
  // timeouts rather than corruption) retreats too.
  if (!delivered && probing_) {
    std::swap(transport_, fallback_);
    probing_ = false;
    clean_streak_ = 0;
  }
  // Failed attempts consumed simulated time too.
  if (task != nullptr) {
    task->BillSys(cost);
  } else {
    cycles_billed_ += cost;
  }
  trace.AddSimCycles(0, cost);
  if (delivered) {
    return OkResult();
  }
  Metrics().failures->Add();
  return *last_error;
}

Result<OmosReply> Channel::Call(const OmosRequest& request, Task* task) {
  TraceSpan trace("ipc.call");
  std::vector<uint8_t> wire = EncodeRequest(request);
  OmosReply reply;
  auto status = ExchangeWithRetry(
      wire, task, trace, [&](const std::vector<uint8_t>& bytes) -> Result<void> {
        OMOS_TRY(reply, DecodeReply(bytes));
        return OkResult();
      });
  if (!status.ok()) {
    trace.SetDetail(ErrorCodeName(status.error().code()));
    return status.error();
  }
  return reply;
}

Result<std::vector<OmosReply>> Channel::CallBatch(const std::vector<OmosRequest>& requests,
                                                  Task* task) {
  if (requests.empty()) {
    return Err(ErrorCode::kInvalidArgument, "empty batch");
  }
  TraceSpan trace("ipc.call_batch");
  Metrics().batch_calls->Add();
  Metrics().batch_requests->Add(requests.size());
  std::vector<uint8_t> wire = EncodeRequestBatch(requests);
  std::vector<OmosReply> replies;
  auto status = ExchangeWithRetry(
      wire, task, trace, [&](const std::vector<uint8_t>& bytes) -> Result<void> {
        OMOS_TRY(replies, DecodeReplyBatch(bytes));
        if (replies.size() != requests.size()) {
          return Err(ErrorCode::kProtocolError,
                     StrCat("batch reply count ", replies.size(), " != request count ",
                            requests.size()));
        }
        return OkResult();
      });
  if (!status.ok()) {
    trace.SetDetail(ErrorCodeName(status.error().code()));
    return status.error();
  }
  return replies;
}

}  // namespace omos
