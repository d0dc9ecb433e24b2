// Deadline propagation for the synchronization pipeline. A DeadlineToken
// bounds one unit of work (a per-view search, a monitor tick) by
//   (a) a deterministic logical-work budget, spent one enumeration step at
//       a time, so the same budget stops the same search at exactly the
//       same step regardless of wall-clock speed or sync parallelism, and
//   (b) a best-effort wall-clock deadline read from a pluggable Clock
//       (SteadyClock in production, ManualClock in tests). Wall-clock
//       expiry is inherently nondeterministic and must never gate anything
//       whose bytes are journaled or compared across runs.
// Expiry is sticky — the first cause observed is recorded once and every
// later check fails fast — which is what bounds overshoot to at most one
// enumeration step past the limit.

#ifndef EVE_COMMON_CANCELLATION_H_
#define EVE_COMMON_CANCELLATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace eve {

// Monotonic time source. NowMicros readings must be nondecreasing.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual uint64_t NowMicros() const = 0;
};

// Process-wide std::chrono::steady_clock-backed Clock.
const Clock* SteadyClock();

// Hand-advanced Clock for deterministic deadline tests.
class ManualClock : public Clock {
 public:
  uint64_t NowMicros() const override {
    return now_micros_.load(std::memory_order_relaxed);
  }
  void Advance(uint64_t micros) {
    now_micros_.fetch_add(micros, std::memory_order_relaxed);
  }
  void Set(uint64_t micros) {
    now_micros_.store(micros, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_micros_{0};
};

// Why a token stopped admitting work. kNone means "still live".
enum class StopCause {
  kNone = 0,
  kWorkBudget,  // the deterministic logical-work budget ran out
  kDeadline,    // the wall-clock deadline passed (best-effort)
};

// Stable lower-case name ("none", "work-budget", "deadline").
std::string_view StopCauseToString(StopCause cause);

// Limits for one token. Zero means "no limit" for both fields.
struct DeadlineLimits {
  // Logical enumeration steps this token may spend. Deterministic.
  uint64_t work_budget = 0;
  // Absolute Clock reading (micros) past which the token expires.
  uint64_t deadline_micros = 0;
};

// Copyable handle on shared expiry state. A default-constructed token is
// the null token: it never expires and spends for free — layers that
// receive no token pay (almost) nothing. All methods are safe to call
// concurrently from many threads, but determinism of the work budget
// additionally requires that one token's Spend calls happen on one thread
// (EveSystem gives each affected view its own token).
class DeadlineToken {
 public:
  DeadlineToken() = default;

  // A root token with its own limits. `clock` is read only when
  // deadline_micros != 0; defaults to SteadyClock().
  static DeadlineToken Root(const DeadlineLimits& limits,
                            const Clock* clock = nullptr);

  bool valid() const { return state_ != nullptr; }

  // The hot-path check: records `units` of work and returns true while
  // work may continue. Returns false — permanently — once any limit is
  // hit. Callers check BEFORE performing the step, so total performed
  // work never exceeds the budget, and overshoot past a wall deadline is
  // at most one step.
  bool Spend(uint64_t units = 1) const;

  // True once any limit fired (checks limits; does not spend).
  bool Expired() const;

  // First cause observed; kNone while live (or for the null token).
  StopCause cause() const;

  uint64_t work_spent() const;
  uint64_t work_budget() const;
  uint64_t deadline_micros() const;

  // ResourceExhausted status describing why `what` was stopped.
  Status ToStatus(std::string_view what) const;

 private:
  struct State {
    const Clock* clock = nullptr;
    uint64_t work_budget = 0;
    uint64_t deadline_micros = 0;
    std::atomic<uint64_t> work_spent{0};
    // Sticky first cause; written once with compare-exchange.
    std::atomic<StopCause> cause{StopCause::kNone};
  };

  explicit DeadlineToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  // Records `cause` if none is recorded yet; returns false always (the
  // token is expired either way).
  static bool RecordCause(State& state, StopCause cause);
  // Limit evaluation shared by Spend and Expired. `spent` is the counter
  // value to judge the budget against.
  static bool CheckLimits(State& state, uint64_t spent);

  std::shared_ptr<State> state_;
};

}  // namespace eve

#endif  // EVE_COMMON_CANCELLATION_H_
