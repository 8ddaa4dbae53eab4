// barrier.hpp — reusable centralized barrier, generation-counted and fully
// atomic: arrivals count on one cache line, departure is a release bump of
// the generation counter that waiters observe with an acquire spin under
// bounded-burst backoff (see backoff.hpp).  No mutex or condition variable on
// any path, so a barrier crossing on warmed-up threads costs two atomic
// operations plus the wait itself — the handoff latency the paper's
// fork-join-heavy stencil loops are sensitive to.
//
// Used by lockstep algorithms inside one pool region (the one-region PPCG
// smoother in manual_host.cpp); the thread pool uses the same
// generation-count protocol inline for its fork and join phases.
#pragma once

#include <atomic>

#include "common/error.hpp"
#include "threading/backoff.hpp"

namespace tlp {

class Barrier {
public:
  explicit Barrier(int participants)
      : participants_(participants), arrived_(0), generation_(0) {
    TL_REQUIRE(participants > 0, "barrier needs >= 1 participant");
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Block until all participants have arrived.  Reusable across phases:
  /// the generation a thread captured on entry is what it waits on, so a
  /// fast thread re-entering for the next phase cannot slip through the
  /// previous one (its captured generation is already the new value).
  void arrive_and_wait() {
    const long gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        participants_) {
      // Last arriver: re-arm the count for the next phase, then publish the
      // new generation.  The release on the generation bump orders the
      // arrival-count reset before any next-phase arrival can observe it.
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      return;
    }
    Backoff backoff;
    while (generation_.load(std::memory_order_acquire) == gen) {
      backoff.pause();
    }
  }

  int participants() const noexcept { return participants_; }

private:
  const int participants_;
  std::atomic<int> arrived_;
  std::atomic<long> generation_;
};

}  // namespace tlp
