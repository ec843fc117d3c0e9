// test_helpers.h -- shared machinery for schedule-level tests: run an
// attack/heal schedule on the api::Network engine with the full
// invariant battery plugged in, failing loudly on any violation.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dash::testing {

struct RunSpec {
  std::string attack = "neighborofmax";
  std::string healer = "dash";
  std::uint64_t seed = 12345;
  bool check_rem = false;   // DASH-only Lemma 4 bound
  bool track_stretch = false;
  std::size_t max_deletions = std::numeric_limits<std::size_t>::max();
};

/// Run a full schedule on `g` with the invariant observer attached;
/// EXPECT no violation and that the network stayed connected.
inline api::Metrics run_checked(graph::Graph g, const RunSpec& spec) {
  dash::util::Rng rng(spec.seed);
  api::Network net(std::move(g), core::make_strategy(spec.healer), rng);

  api::InvariantOptions inv_opts;
  inv_opts.check_rem_bound = spec.check_rem;
  inv_opts.check_delta_bound = (spec.healer == "dash");  // Theorem 1 is DASH's
  net.add_observer(std::make_unique<api::InvariantObserver>(inv_opts));
  if (spec.track_stretch) {
    net.add_observer(std::make_unique<api::StretchObserver>());
  }

  auto attacker = attack::make_attack(spec.attack, spec.seed);
  api::RunOptions opts;
  opts.max_deletions = spec.max_deletions;
  const api::Metrics result = net.run(*attacker, opts);

  EXPECT_TRUE(result.violation.empty()) << result.violation;
  EXPECT_TRUE(result.stayed_connected)
      << spec.healer << " lost connectivity under " << spec.attack;
  return result;
}

/// Every registered healer, with a parameter where the spec needs one.
/// (serve_snapshot_property_test checks that it covers the registry.)
inline const std::vector<std::string>& every_healer() {
  static const std::vector<std::string> healers = {
      "dash", "sdash", "graph", "binarytree", "line", "none", "capped:3"};
  return healers;
}

/// One small scenario per phase type, for BA graphs of a few dozen
/// nodes. `trace:` is left out: it replays a recorded file.
inline constexpr const char* kEveryPhaseType[] = {
    "strike:randomx30",                            // strike
    "batch:4,randomx4;batch:3,hubsx2",             // batch
    "churn:0.4,0.4x80",                            // churn
    "targeted:maxnodex30",                         // targeted
    "until:12,random",                             // until
    "repeat:3{strike:randomx5;churn:0.3,0.2x10}",  // repeat
    "floor:16;targeted:maxnode",                   // floor
    "untilfrac:0.5,neighborofmax",                 // untilfrac
    "join:2x10;strike:randomx20",                  // join
    "ramp:0.1,0.5,0.5,0.1x60",                     // ramp
    "mix:2{strike:random},1{join:2}x40",           // mix
};

/// Test-name suffix for a scenario-spec parameter.
inline std::string spec_test_name(
    const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

}  // namespace dash::testing
