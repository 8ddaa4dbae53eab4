// backoff.hpp — bounded-burst spin backoff shared by the pool's fork-join
// handoff and the reusable barrier.
//
// Phases: spin in short pause bursts (1, 2, then kMaxBurst pauses per round)
// until kSpinBudget pauses are spent, then fall back to yielding so
// oversubscribed machines — CI boxes routinely run 8-thread pools on 1-2
// cores — make scheduler progress instead of burning the timeslice.  The
// burst stays short because a waiter does not re-check its flag until its
// current burst ends: with bursts doubling to hundreds of pauses, a waiter
// that had already waited T would sleep through about another T after the
// flag flipped.
#pragma once

#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tlp {

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

class Backoff {
public:
  // A PAUSE measured ~20 ns on an Emerald Rapids Xeon (family 6, model
  // 207), so a kMaxBurst round re-checks the flag every ~80 ns and the whole
  // spin budget lasts ~20 us before the waiter starts yielding.
  static constexpr int kMaxBurst = 4;
  static constexpr long kSpinBudget = 1023;

  /// One wait round: a pause burst of 1, 2, then kMaxBurst pauses while
  /// the spin budget lasts, a yield after that.
  void pause() {
    if (pauses_ < kSpinBudget) {
      for (int i = 0; i < burst_; ++i) cpu_pause();
      pauses_ += burst_;
      if (burst_ < kMaxBurst) burst_ *= 2;
    } else {
      std::this_thread::yield();
      ++yields_;
    }
  }

  /// Pauses spent so far (reaches kSpinBudget before the first yield).
  long pauses() const { return pauses_; }

  /// Rounds spent in the yield phase (park-decision signal for waiters that
  /// have somewhere cheaper to sleep).
  long yields() const { return yields_; }

private:
  int burst_ = 1;
  long pauses_ = 0;
  long yields_ = 0;
};

}  // namespace tlp
