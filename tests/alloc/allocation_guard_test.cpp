// allocation_guard_test.cpp -- a DASH deletion in steady state makes at
// most one heap allocation: its HealAction's edge list.
//
// This binary replaces the global operator new with one that counts
// calls, which is why it is a test binary of its own: the replacement
// reaches no other suite. It plays `dash` on BA(1024, 2) and calls
// Network::remove directly, on victims it draws itself. A warm-up lets
// every buffer, slab class and free list reach its working size; then a
// churn window (one join after each deletion) and a strike window are
// counted, remove() calls only. The counts repeat exactly for a seed,
// so unlike a timing this guard is deterministic. The invariant
// battery's walk of G' is held to none at all once warm: it reuses its
// scratch from call to call.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "analysis/invariants.h"
#include "api/network.h"
#include "api/scenario.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace {
std::size_t allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dash::api {
namespace {

constexpr std::size_t kNodes = 1024;
constexpr std::size_t kWarmup = 4096;       ///< churn steps, not counted
constexpr std::size_t kChurnWindow = 4096;  ///< counted churn deletions
constexpr std::size_t kStrikeWindow = 512;  ///< counted strike deletions

struct Counts {
  std::size_t churn = 0;   ///< allocations in the churn window's removes
  std::size_t strike = 0;  ///< allocations in the strike window's removes
};

Counts count_allocations(std::uint64_t seed) {
  util::Rng rng(seed);
  Network net(graph::barabasi_albert(kNodes, 2, rng), "dash", seed);
  const auto draw = [&] {
    return net.graph().kth_alive(rng.below(net.graph().num_alive()));
  };
  const auto counted_remove = [&](std::size_t& count) {
    const graph::NodeId victim = draw();
    const std::size_t before = allocations;
    net.remove(victim);
    count += allocations - before;
  };
  std::vector<graph::NodeId> attach(2);
  const auto join = [&] {
    attach[0] = draw();
    do {
      attach[1] = draw();
    } while (attach[1] == attach[0]);
    net.join(attach);
  };

  std::size_t ignored = 0;
  for (std::size_t i = 0; i < kWarmup; ++i) {
    counted_remove(ignored);
    join();
  }
  Counts counts;
  for (std::size_t i = 0; i < kChurnWindow; ++i) {
    counted_remove(counts.churn);
    join();
  }
  for (std::size_t i = 0; i < kStrikeWindow; ++i) {
    counted_remove(counts.strike);
  }
  return counts;
}

TEST(AllocationGuard, DashDeletionAllocatesOnlyItsEdgeList) {
  const Counts counts = count_allocations(7);
  EXPECT_LE(counts.churn, kChurnWindow)
      << counts.churn << " allocations in " << kChurnWindow
      << " churn deletions";
  EXPECT_LE(counts.strike, kStrikeWindow)
      << counts.strike << " allocations in " << kStrikeWindow
      << " strike deletions";
}

TEST(AllocationGuard, CountsRepeatForASeed) {
  const Counts first = count_allocations(11);
  const Counts second = count_allocations(11);
  EXPECT_EQ(first.churn, second.churn);
  EXPECT_EQ(first.strike, second.strike);
}

TEST(AllocationGuard, WarmForestWalkAllocatesNothing) {
  util::Rng rng(3);
  Network net(graph::barabasi_albert(kNodes, 2, rng), "dash", 3);
  net.play(Scenario::parse("targeted:neighborofmaxx256"), rng);
  ASSERT_GT(net.state().num_healing_edges(), 0u);
  analysis::HealingForestWalk walk;
  const analysis::ForestWalkOptions opts{.check_rem_bound = true};
  ASSERT_TRUE(walk.check(net.graph(), net.state(), opts).ok);  // warm-up
  const std::size_t before = allocations;
  std::size_t passed = 0;
  for (int i = 0; i < 100; ++i) {
    passed += walk.check(net.graph(), net.state(), opts).ok;
  }
  EXPECT_EQ(allocations - before, 0u);
  EXPECT_EQ(passed, 100u);
}

}  // namespace
}  // namespace dash::api
