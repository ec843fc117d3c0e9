#include "api/serve.h"

#include "api/network.h"

namespace dash::api {

ServeHandle::ServeHandle(Network& net) : net_(net), publisher_(*this) {}

std::uint64_t ServeHandle::publish() {
  return store_.publish(net_.graph(), net_.connectivity_tracker());
}

void ServeHandle::Publisher::on_attach(const Network& /*net*/) {
  // Publish the pre-scenario state immediately so readers can pin
  // before the first mutation lands.
  handle_.publish();
}

void ServeHandle::Publisher::on_round_end(const Network& /*net*/,
                                          const RoundEvent& /*ev*/) {
  handle_.publish();
}

void ServeHandle::Publisher::on_join(const Network& /*net*/,
                                     const JoinEvent& /*ev*/) {
  handle_.publish();
}

void ServeHandle::Publisher::on_finish(const Network& /*net*/,
                                       Metrics& /*out*/) {
  // The final state is always visible to readers, also when the run
  // ended without a mutation event.
  handle_.publish();
}

}  // namespace dash::api
