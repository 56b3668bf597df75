// The shared-address-space execution backend: machine bodies of one round
// run concurrently on the cluster's thread pool, writing straight into the
// cluster's outbox/report arenas.  This is the seed execution path
// extracted verbatim from `Cluster::run_round_views`; the golden traces pin
// it byte-identical.
#pragma once

#include <memory>

#include "common/thread_pool.hpp"
#include "mpc/backend.hpp"

namespace mpcsd::mpc {

class ThreadBackend final : public ExecutionBackend {
 public:
  explicit ThreadBackend(std::shared_ptr<ThreadPool> pool)
      : pool_(std::move(pool)) {}

  void execute(const RoundWork& work) override;

  [[nodiscard]] const char* name() const noexcept override { return "thread"; }

  /// In-process "wire": a frame is one envelope handed to the router, a
  /// flush is the round's arena handoff, the barrier is the pool join.
  [[nodiscard]] const Transport& transport() const noexcept override {
    return transport_;
  }

 private:
  std::shared_ptr<ThreadPool> pool_;
  Transport transport_{"inproc"};
};

}  // namespace mpcsd::mpc
