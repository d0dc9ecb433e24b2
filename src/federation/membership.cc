#include "federation/membership.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/str_util.h"

namespace eve {
namespace federation {

std::string_view SourceStateToString(SourceState state) {
  switch (state) {
    case SourceState::kHealthy:
      return "healthy";
    case SourceState::kSuspect:
      return "suspect";
    case SourceState::kQuarantined:
      return "quarantined";
    case SourceState::kDeparted:
      return "departed";
  }
  return "unknown";
}

std::string_view BreakerStateToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

Result<SourceState> ParseSourceState(std::string_view word) {
  if (word == "healthy") return SourceState::kHealthy;
  if (word == "suspect") return SourceState::kSuspect;
  if (word == "quarantined") return SourceState::kQuarantined;
  if (word == "departed") return SourceState::kDeparted;
  return Status::ParseError("unknown source state: " + std::string(word));
}

Result<BreakerState> ParseBreakerState(std::string_view word) {
  if (word == "closed") return BreakerState::kClosed;
  if (word == "open") return BreakerState::kOpen;
  if (word == "half-open") return BreakerState::kHalfOpen;
  return Status::ParseError("unknown breaker state: " + std::string(word));
}

SourceMembership MakeHealthy(const SourceConfig& config, uint64_t now) {
  SourceMembership m;
  m.config = config;
  m.state = SourceState::kHealthy;
  m.breaker = BreakerState::kClosed;
  m.consecutive_failures = 0;
  m.probe_attempt = 0;
  m.lease_expires = now + config.lease_ticks;
  m.next_probe = now + config.probe_interval_ticks;
  return m;
}

uint64_t DeterministicJitter(std::string_view source, uint64_t attempt,
                             uint64_t width) {
  if (width == 0) return 0;
  // FNV-1a over the source name and the attempt counter.
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](uint8_t byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  for (const char c : source) mix(static_cast<uint8_t>(c));
  for (int shift = 0; shift < 64; shift += 8) {
    mix(static_cast<uint8_t>(attempt >> shift));
  }
  return hash % width;
}

uint64_t BackoffDelay(const SourceConfig& config, std::string_view source,
                      uint64_t attempt) {
  const uint64_t exponent = attempt == 0 ? 0 : attempt - 1;
  uint64_t delay = config.backoff_cap_ticks;
  // base * 2^exponent without overflow: stop doubling at the cap.
  if (exponent < 63) {
    const uint64_t factor = 1ull << exponent;
    if (config.backoff_base_ticks <= config.backoff_cap_ticks / factor) {
      delay = config.backoff_base_ticks * factor;
    }
  }
  delay += DeterministicJitter(source, attempt, config.jitter_ticks);
  return delay == 0 ? 1 : delay;
}

SourceMembership OnProbeSuccess(const SourceMembership& m,
                                std::string_view /*source*/, uint64_t now) {
  SourceMembership out = m;
  out.state = SourceState::kHealthy;
  out.breaker = BreakerState::kClosed;
  out.consecutive_failures = 0;
  out.probe_attempt = 0;
  out.lease_expires = now + out.config.lease_ticks;
  out.next_probe = now + out.config.probe_interval_ticks;
  return out;
}

SourceMembership OnProbeFailure(const SourceMembership& m,
                                std::string_view source, uint64_t now) {
  SourceMembership out = m;
  ++out.consecutive_failures;
  ++out.probe_attempt;
  const bool half_open_failed = m.breaker == BreakerState::kHalfOpen;
  const bool threshold_reached =
      m.breaker == BreakerState::kClosed &&
      out.consecutive_failures >= out.config.breaker_threshold;
  if (half_open_failed || threshold_reached) {
    out.breaker = BreakerState::kOpen;
    out.state = SourceState::kQuarantined;
    out.next_probe =
        now + out.config.breaker_open_ticks +
        DeterministicJitter(source, out.probe_attempt, out.config.jitter_ticks);
  } else {
    out.state = SourceState::kSuspect;
    out.next_probe = now + BackoffDelay(out.config, source, out.probe_attempt);
  }
  return out;
}

bool LeaseExpired(const SourceMembership& m, uint64_t now) {
  return m.state != SourceState::kDeparted && m.lease_expires <= now;
}

std::string SerializeMembership(const std::string& source,
                                const SourceMembership& m) {
  std::ostringstream os;
  os << source << " " << SourceStateToString(m.state) << " "
     << BreakerStateToString(m.breaker) << " failures="
     << m.consecutive_failures << " lease=" << m.lease_expires
     << " next=" << m.next_probe << " attempt=" << m.probe_attempt
     << " cfg=" << m.config.lease_ticks << "," << m.config.probe_interval_ticks
     << "," << m.config.backoff_base_ticks << "," << m.config.backoff_cap_ticks
     << "," << m.config.jitter_ticks << "," << m.config.breaker_threshold
     << "," << m.config.breaker_open_ticks << ","
     << m.config.slow_threshold_ticks;
  return os.str();
}

namespace {

Result<uint64_t> ParseU64(std::string_view text, std::string_view what) {
  uint64_t value = 0;
  if (text.empty()) {
    return Status::ParseError("empty " + std::string(what));
  }
  if (!ParseDecimal(text, &value)) {
    return Status::ParseError("bad " + std::string(what) + ": " +
                              std::string(text));
  }
  return value;
}

// Extracts the value of a "key=value" token, verifying the key.
Result<uint64_t> KeyedU64(const std::string& token, std::string_view key) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || std::string_view(token).substr(0, eq) != key) {
    return Status::ParseError("membership record expects '" +
                              std::string(key) + "=...', got: " + token);
  }
  return ParseU64(std::string_view(token).substr(eq + 1), key);
}

}  // namespace

Result<NamedMembership> ParseMembership(std::string_view line) {
  std::vector<std::string> tokens;
  std::istringstream is{std::string(Trim(line))};
  std::string token;
  while (is >> token) tokens.push_back(token);
  if (tokens.size() != 8) {
    return Status::ParseError("malformed membership record: " +
                              std::string(line));
  }
  NamedMembership named;
  named.source = tokens[0];
  SourceMembership& m = named.membership;
  EVE_ASSIGN_OR_RETURN(m.state, ParseSourceState(tokens[1]));
  EVE_ASSIGN_OR_RETURN(m.breaker, ParseBreakerState(tokens[2]));
  EVE_ASSIGN_OR_RETURN(const uint64_t failures,
                       KeyedU64(tokens[3], "failures"));
  m.consecutive_failures = static_cast<uint32_t>(failures);
  EVE_ASSIGN_OR_RETURN(m.lease_expires, KeyedU64(tokens[4], "lease"));
  EVE_ASSIGN_OR_RETURN(m.next_probe, KeyedU64(tokens[5], "next"));
  EVE_ASSIGN_OR_RETURN(m.probe_attempt, KeyedU64(tokens[6], "attempt"));
  const size_t eq = tokens[7].find('=');
  if (eq == std::string::npos ||
      std::string_view(tokens[7]).substr(0, eq) != "cfg") {
    return Status::ParseError("membership record missing cfg=: " + tokens[7]);
  }
  const std::vector<std::string> cfg =
      Split(std::string_view(tokens[7]).substr(eq + 1), ',');
  if (cfg.size() != 8) {
    return Status::ParseError("membership cfg expects 8 fields: " + tokens[7]);
  }
  SourceConfig& c = m.config;
  EVE_ASSIGN_OR_RETURN(c.lease_ticks, ParseU64(cfg[0], "cfg.lease"));
  EVE_ASSIGN_OR_RETURN(c.probe_interval_ticks, ParseU64(cfg[1], "cfg.probe"));
  EVE_ASSIGN_OR_RETURN(c.backoff_base_ticks, ParseU64(cfg[2], "cfg.base"));
  EVE_ASSIGN_OR_RETURN(c.backoff_cap_ticks, ParseU64(cfg[3], "cfg.cap"));
  EVE_ASSIGN_OR_RETURN(c.jitter_ticks, ParseU64(cfg[4], "cfg.jitter"));
  EVE_ASSIGN_OR_RETURN(const uint64_t threshold,
                       ParseU64(cfg[5], "cfg.threshold"));
  c.breaker_threshold = static_cast<uint32_t>(threshold);
  EVE_ASSIGN_OR_RETURN(c.breaker_open_ticks, ParseU64(cfg[6], "cfg.open"));
  EVE_ASSIGN_OR_RETURN(c.slow_threshold_ticks, ParseU64(cfg[7], "cfg.slow"));
  return named;
}

}  // namespace federation
}  // namespace eve
