#include "federation/transport.h"

#include <optional>

#include "common/failpoint.h"
#include "common/str_util.h"

namespace eve {
namespace federation {

namespace {

// Latency of a "slow response" fault: far beyond any sane
// slow_threshold_ticks, so the monitor always classifies it as a failure.
constexpr uint64_t kSlowLatencyTicks = 1000;

}  // namespace

std::string ExpectedDigest(std::string_view source) {
  return "ok:" + std::string(source);
}

void SimulatedTransport::AddFault(const std::string& source,
                                  FaultWindow window) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_[source].push_back(window);
}

Result<ProbeReply> SimulatedTransport::Probe(const std::string& source,
                                             uint64_t tick) {
  // Generic send-path fault: an armed error here is a lost probe (the
  // monitor sees a timeout-class failure); a crash models the monitor
  // process dying mid-probe.
  EVE_FAILPOINT(fp::kFederationProbeSend);
  // Fault-kind sites: arming one with the error action (EVE_FAILPOINTS or
  // tests) converts the Nth upcoming probe into that fault, independent of
  // any scripted window.
  std::optional<FaultKind> fault;
  if (!Failpoints::Instance().Hit(fp::kFederationProbeTimeout).ok()) {
    fault = FaultKind::kTimeout;
  } else if (!Failpoints::Instance().Hit(fp::kFederationProbeSlow).ok()) {
    fault = FaultKind::kSlow;
  } else if (!Failpoints::Instance().Hit(fp::kFederationProbeCorrupt).ok()) {
    fault = FaultKind::kCorrupt;
  } else if (!Failpoints::Instance().Hit(fp::kFederationProbeFlap).ok()) {
    fault = FaultKind::kFlap;
  }
  bool flap_fails = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!fault.has_value()) {
      const auto it = faults_.find(source);
      if (it != faults_.end()) {
        for (const FaultWindow& window : it->second) {
          if (tick >= window.from && tick < window.to) {
            fault = window.kind;
            break;
          }
        }
      }
    }
    if (fault == FaultKind::kFlap) {
      flap_fails = (flap_counter_[source]++ % 2) == 0;
    }
  }
  if (fault.has_value()) {
    switch (*fault) {
      case FaultKind::kTimeout:
        return Status::FailedPrecondition("probe timed out: " + source);
      case FaultKind::kSlow: {
        ProbeReply reply;
        reply.latency_ticks = kSlowLatencyTicks;
        reply.digest = ExpectedDigest(source);
        return reply;
      }
      case FaultKind::kCorrupt: {
        // Byte corruption: the digest comes back with one byte flipped at a
        // tick-dependent position.
        ProbeReply reply;
        reply.latency_ticks = 1;
        reply.digest = ExpectedDigest(source);
        reply.digest[tick % reply.digest.size()] ^= 0x5A;
        return reply;
      }
      case FaultKind::kFlap:
        if (flap_fails) {
          return Status::FailedPrecondition("probe timed out (flap): " +
                                            source);
        }
        break;  // the other half of the flap succeeds
    }
  }
  ProbeReply reply;
  reply.latency_ticks = 1;
  reply.digest = ExpectedDigest(source);
  return reply;
}

std::string_view FaultKindToString(SimulatedTransport::FaultKind kind) {
  switch (kind) {
    case SimulatedTransport::FaultKind::kTimeout:
      return "timeout";
    case SimulatedTransport::FaultKind::kSlow:
      return "slow";
    case SimulatedTransport::FaultKind::kCorrupt:
      return "corrupt";
    case SimulatedTransport::FaultKind::kFlap:
      return "flap";
  }
  return "unknown";
}

Result<SimulatedTransport::FaultKind> ParseFaultKind(std::string_view word) {
  if (EqualsIgnoreCase(word, "timeout")) {
    return SimulatedTransport::FaultKind::kTimeout;
  }
  if (EqualsIgnoreCase(word, "slow")) {
    return SimulatedTransport::FaultKind::kSlow;
  }
  if (EqualsIgnoreCase(word, "corrupt")) {
    return SimulatedTransport::FaultKind::kCorrupt;
  }
  if (EqualsIgnoreCase(word, "flap")) {
    return SimulatedTransport::FaultKind::kFlap;
  }
  return Status::ParseError("unknown fault kind: " + std::string(word));
}

}  // namespace federation
}  // namespace eve
