#ifndef AWMOE_TESTS_SERVING_LANE_HOLD_H_
#define AWMOE_TESTS_SERVING_LANE_HOLD_H_

// Holds async requests in the queue without a timer. The async front is
// work-conserving: a free flush lane takes what is queued at once. A
// LaneHold locks every replica lane of a model's current snapshot, so a
// flush that leases one parks on its lock and keeps its flush lane
// busy. SubmitBlocker sends one request that must lease a lane and
// waits until it has: with one flush lane, every request submitted
// after that stays queued until the hold is released.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"

namespace awmoe {

class LaneHold {
 public:
  /// Locks every replica lane of `model`'s current stable snapshot.
  LaneHold(const ModelPool& pool, const std::string& model)
      : snapshot_(pool.CurrentSnapshot(model)) {
    for (int i = 0; i < snapshot_->num_replicas(); ++i) {
      locks_.emplace_back(snapshot_->lane(i).mu);
    }
  }
  /// Releases the lanes. A std::mutex must be unlocked by the thread
  /// that locked it, so a hold lives and dies on one thread.
  ~LaneHold() { Release(); }

  LaneHold(const LaneHold&) = delete;
  LaneHold& operator=(const LaneHold&) = delete;

  /// Unlocks every held lane; parked flushes run. Idempotent.
  void Release() { locks_.clear(); }

  /// Leases flushes hold on the snapshot's lanes right now.
  int64_t leases() const {
    int64_t total = 0;
    for (int i = 0; i < snapshot_->num_replicas(); ++i) {
      total += snapshot_->lane(i).active.load();
    }
    return total;
  }

  /// Waits until flushes hold at least `n` leases on the snapshot's
  /// lanes: each of them has popped its batch from the queue and parks
  /// on a held lane lock. False after 10 s.
  bool AwaitLeases(int64_t n) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (leases() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

 private:
  std::shared_ptr<const ModelSnapshot> snapshot_;
  std::vector<std::unique_lock<std::mutex>> locks_;
};

/// Submits `blocker` to the held model and returns once a flush lane
/// has popped it (the queue reads empty) and leased one of `hold`'s
/// lanes. The blocker must miss the snapshot's score cache, or its
/// flush would not lease a lane. Call it from the thread that owns
/// `hold`.
inline std::future<RankResponse> SubmitBlocker(ServingEngine& engine,
                                               const LaneHold& hold,
                                               RankRequest blocker) {
  const int64_t before = hold.leases();
  std::future<RankResponse> future = engine.Submit(std::move(blocker));
  EXPECT_TRUE(hold.AwaitLeases(before + 1))
      << "the blocker never reached a held lane";
  EXPECT_EQ(engine.pending_async_requests(), 0);
  return future;
}

}  // namespace awmoe

#endif  // AWMOE_TESTS_SERVING_LANE_HOLD_H_
