#include "sim/scheduler.hpp"

#include <cassert>
#include <utility>

namespace dirq::sim {

void Scheduler::schedule_at(SimTime when, Callback fn) {
  assert(when >= now_ && "cannot schedule into the past");
  if (when < now_) when = now_;
  queue_.push(Entry{when, next_seq_++, std::move(fn)});
}

std::size_t Scheduler::run_until(SimTime until) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    // const_cast is safe: the entry is removed from the queue immediately
    // after the move and never compared again.
    Entry top = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    assert(top.when >= now_);
    now_ = top.when;
    ++dispatched_;
    ++n;
    top.fn();
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace dirq::sim
