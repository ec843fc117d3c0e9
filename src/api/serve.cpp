#include "api/serve.h"

#include "api/network.h"

namespace dash::api {

ServeHandle::ServeHandle(Network& net, const ServeOptions& opts)
    : net_(net), opts_(opts), publisher_(*this) {
  if (opts_.publish_every == 0) opts_.publish_every = 1;
}

std::uint64_t ServeHandle::publish() {
  events_since_publish_ = 0;
  return store_.publish(net_.graph(), net_.connectivity_tracker());
}

void ServeHandle::maybe_publish() {
  if (++events_since_publish_ >= opts_.publish_every) publish();
}

void ServeHandle::Publisher::on_attach(const Network& /*net*/) {
  // Publish the pre-scenario state immediately so readers can pin
  // before the first mutation lands.
  handle_.publish();
}

void ServeHandle::Publisher::on_round_end(const Network& /*net*/,
                                          const RoundEvent& /*ev*/) {
  handle_.maybe_publish();
}

void ServeHandle::Publisher::on_join(const Network& /*net*/,
                                     const JoinEvent& /*ev*/) {
  handle_.maybe_publish();
}

void ServeHandle::Publisher::on_finish(const Network& /*net*/,
                                       Metrics& /*out*/) {
  // The final state is always visible to readers, whatever the cadence.
  handle_.publish();
}

}  // namespace dash::api
