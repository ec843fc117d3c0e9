// Chaos-plan parsing: the spec grammar of the agent's crash-fault
// injection. The strikes themselves (SIGKILL before RESULT, a torn
// RESULT frame) are exercised by FleetDeathTest in fleet_test.cpp.
#include "fleet/agent.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dash::fleet {
namespace {

TEST(Chaos, ParsesKillAndTorn) {
  const ChaosPlan kill = parse_chaos("kill:7");
  EXPECT_EQ(kill.kind, ChaosPlan::Kind::kKill);
  EXPECT_EQ(kill.cell, 7u);
  EXPECT_TRUE(kill.armed());

  const ChaosPlan torn = parse_chaos("torn:0");
  EXPECT_EQ(torn.kind, ChaosPlan::Kind::kTorn);
  EXPECT_EQ(torn.cell, 0u);
  EXPECT_TRUE(torn.armed());

  EXPECT_FALSE(parse_chaos("").armed());
}

TEST(Chaos, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_chaos("kill"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("kill:"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("kill:x"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("kill:1x"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("kill:-1"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("maim:3"), std::invalid_argument);
  EXPECT_THROW(parse_chaos(":3"), std::invalid_argument);
}

}  // namespace
}  // namespace dash::fleet
