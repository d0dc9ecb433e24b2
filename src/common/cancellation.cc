#include "common/cancellation.h"

#include <chrono>

namespace eve {
namespace {

class SteadyClockImpl : public Clock {
 public:
  uint64_t NowMicros() const override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

}  // namespace

const Clock* SteadyClock() {
  static const SteadyClockImpl* const kClock = new SteadyClockImpl();
  return kClock;
}

std::string_view StopCauseToString(StopCause cause) {
  switch (cause) {
    case StopCause::kNone:
      return "none";
    case StopCause::kWorkBudget:
      return "work-budget";
    case StopCause::kDeadline:
      return "deadline";
  }
  return "unknown";
}

DeadlineToken DeadlineToken::Root(const DeadlineLimits& limits,
                                  const Clock* clock) {
  auto state = std::make_shared<State>();
  state->work_budget = limits.work_budget;
  state->deadline_micros = limits.deadline_micros;
  state->clock = clock != nullptr ? clock : SteadyClock();
  return DeadlineToken(std::move(state));
}

bool DeadlineToken::RecordCause(State& state, StopCause cause) {
  StopCause none = StopCause::kNone;
  state.cause.compare_exchange_strong(none, cause,
                                      std::memory_order_relaxed);
  return false;
}

bool DeadlineToken::CheckLimits(State& state, uint64_t spent) {
  // Budget first: it is the deterministic limit, so when both a budget and
  // a wall deadline would fire on the same step, runs that only set the
  // budget and runs that set both agree on the recorded cause.
  if (state.work_budget != 0 && spent > state.work_budget) {
    return RecordCause(state, StopCause::kWorkBudget);
  }
  if (state.deadline_micros != 0 &&
      state.clock->NowMicros() >= state.deadline_micros) {
    return RecordCause(state, StopCause::kDeadline);
  }
  return true;
}

bool DeadlineToken::Spend(uint64_t units) const {
  if (state_ == nullptr) return true;
  State& s = *state_;
  if (s.cause.load(std::memory_order_relaxed) != StopCause::kNone) {
    return false;
  }
  // fetch_add returns the pre-add value; `spent` counts this step too, so
  // a budget of B admits exactly B unit steps: step B+1 observes
  // spent == B+1 > B and is refused before it runs.
  const uint64_t spent =
      s.work_spent.fetch_add(units, std::memory_order_relaxed) + units;
  return CheckLimits(s, spent);
}

bool DeadlineToken::Expired() const {
  if (state_ == nullptr) return false;
  State& s = *state_;
  if (s.cause.load(std::memory_order_relaxed) != StopCause::kNone) {
    return true;
  }
  return !CheckLimits(s, s.work_spent.load(std::memory_order_relaxed));
}

StopCause DeadlineToken::cause() const {
  if (state_ == nullptr) return StopCause::kNone;
  return state_->cause.load(std::memory_order_relaxed);
}

uint64_t DeadlineToken::work_spent() const {
  if (state_ == nullptr) return 0;
  return state_->work_spent.load(std::memory_order_relaxed);
}

uint64_t DeadlineToken::work_budget() const {
  return state_ == nullptr ? 0 : state_->work_budget;
}

uint64_t DeadlineToken::deadline_micros() const {
  return state_ == nullptr ? 0 : state_->deadline_micros;
}

Status DeadlineToken::ToStatus(std::string_view what) const {
  const StopCause c = cause();
  if (c == StopCause::kNone) return Status::OK();
  std::string msg(what);
  msg += " stopped: ";
  msg += StopCauseToString(c);
  if (c == StopCause::kWorkBudget) {
    msg += " (budget " + std::to_string(work_budget()) + " units)";
  }
  return Status::ResourceExhausted(std::move(msg));
}

}  // namespace eve
