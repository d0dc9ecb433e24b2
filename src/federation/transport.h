// SourceTransport: the probe channel between the federation monitor and an
// information source. Production deployments would put an RPC client here;
// this repo ships a deterministic in-process simulation whose faults —
// probe timeout, slow response, alternating flap, byte corruption — are
// injected either from scripted per-source tick windows or through
// common/failpoint sites (EVE_FAILPOINTS), so randomized fault schedules
// replay bit-for-bit and chaos CI can steer the transport from the
// environment.

#ifndef EVE_FEDERATION_TRANSPORT_H_
#define EVE_FEDERATION_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace eve {
namespace federation {

struct ProbeReply {
  // How long the source took to answer, in logical ticks. The monitor
  // counts replies slower than SourceConfig::slow_threshold_ticks as
  // failures — a source that answers but too late is not healthy.
  uint64_t latency_ticks = 0;
  // Capability digest; a healthy source echoes ExpectedDigest(source).
  // Anything else is byte corruption and counts as a failure.
  std::string digest;
};

// The digest a healthy source returns for itself.
std::string ExpectedDigest(std::string_view source);

class SourceTransport {
 public:
  virtual ~SourceTransport() = default;

  // Sends one probe at logical time `tick`. A transport-level fault
  // (timeout, connection loss) is a non-OK Status; degraded replies (slow,
  // corrupt) come back as OK replies the monitor inspects.
  virtual Result<ProbeReply> Probe(const std::string& source,
                                   uint64_t tick) = 0;
};

// Deterministic simulated federation link. Thread-safe: AddFault and
// Probe may be called from different threads.
class SimulatedTransport final : public SourceTransport {
 public:
  enum class FaultKind { kTimeout, kSlow, kCorrupt, kFlap };

  // Ticks in [from, to) misbehave with `kind`. kFlap alternates: every
  // other probe inside the window times out, the rest succeed.
  struct FaultWindow {
    uint64_t from = 0;
    uint64_t to = 0;
    FaultKind kind = FaultKind::kTimeout;
  };

  void AddFault(const std::string& source, FaultWindow window);

  Result<ProbeReply> Probe(const std::string& source, uint64_t tick) override;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<FaultWindow>> faults_;
  std::map<std::string, uint64_t> flap_counter_;
};

std::string_view FaultKindToString(SimulatedTransport::FaultKind kind);
Result<SimulatedTransport::FaultKind> ParseFaultKind(std::string_view word);

}  // namespace federation
}  // namespace eve

#endif  // EVE_FEDERATION_TRANSPORT_H_
