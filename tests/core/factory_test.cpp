#include "core/factory.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dash::core {
namespace {

TEST(Factory, AllCanonicalNames) {
  EXPECT_EQ(make_strategy("dash")->name(), "DASH");
  EXPECT_EQ(make_strategy("sdash")->name(), "SDASH");
  EXPECT_EQ(make_strategy("graph")->name(), "GraphHeal");
  EXPECT_EQ(make_strategy("binarytree")->name(), "BinaryTreeHeal");
  EXPECT_EQ(make_strategy("line")->name(), "LineHeal");
  EXPECT_EQ(make_strategy("none")->name(), "NoHeal");
  EXPECT_EQ(make_strategy("capped:3")->name(), "DegreeCapped(M=3)");
}

TEST(Factory, SdashSlackVariant) {
  EXPECT_EQ(make_strategy("sdash:0")->name(), "SDASH");
  EXPECT_EQ(make_strategy("sdash:4")->name(), "SDASH(slack=4)");
}

TEST(Factory, AliasesAndCase) {
  EXPECT_EQ(make_strategy("DASH")->name(), "DASH");
  EXPECT_EQ(make_strategy("GraphHeal")->name(), "GraphHeal");
  EXPECT_EQ(make_strategy("btree")->name(), "BinaryTreeHeal");
  EXPECT_EQ(make_strategy("NoHeal")->name(), "NoHeal");
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_strategy("bogus"), std::invalid_argument);
  EXPECT_THROW(make_strategy(""), std::invalid_argument);
}

TEST(Factory, UnknownNameErrorListsRegisteredStrategies) {
  try {
    make_strategy("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
    for (const char* expected : {"dash", "sdash", "graph", "binarytree",
                                 "line", "none", "capped:<M>", "btree",
                                 "graphheal", "noheal"}) {
      EXPECT_NE(msg.find(expected), std::string::npos)
          << "missing '" << expected << "' in: " << msg;
    }
  }
}

TEST(Factory, BadParameterThrows) {
  EXPECT_THROW(make_strategy("capped:"), std::invalid_argument);
  EXPECT_THROW(make_strategy("capped:abc"), std::invalid_argument);
  EXPECT_THROW(make_strategy("sdash:x"), std::invalid_argument);
  EXPECT_THROW(make_strategy("dash:3"), std::invalid_argument);
  // A trailing colon is a malformed spec, not an implicit default
  // (a dropped slack value must not silently run slack 0).
  EXPECT_THROW(make_strategy("sdash:"), std::invalid_argument);
  EXPECT_THROW(make_strategy("dash:"), std::invalid_argument);
  // Out-of-range values must not wrap at the uint32 cast: -1 and
  // 2^32+2 would otherwise both silently become small caps.
  EXPECT_THROW(make_strategy("capped:-1"), std::invalid_argument);
  EXPECT_THROW(make_strategy("capped:4294967298"), std::invalid_argument);
  EXPECT_THROW(make_strategy("sdash:4294967296"), std::invalid_argument);
}

TEST(Factory, CapBelowTwoIsANamedError) {
  // DegreeCappedStrategy's constructor aborts on M < 2; a spec must
  // fail as a usage error naming the entry and the value instead.
  for (const std::string m : {"0", "1"}) {
    try {
      make_strategy("capped:" + m);
      ADD_FAILURE() << "capped:" << m << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "healing strategy 'capped' needs M >= 2, got '" + m + "'");
    }
  }
  EXPECT_EQ(make_strategy("capped:2")->name(), "DegreeCapped(M=2)");
}

TEST(Factory, RegistryServesLookupsAndAcceptsNewEntries) {
  // make_strategy is a forwarder over the single registry instance.
  EXPECT_TRUE(healer_registry().contains("dash"));
  EXPECT_TRUE(healer_registry().contains("capped:2"));
  EXPECT_FALSE(healer_registry().contains("custom-test-healer"));

  healer_registry().add(
      "custom-test-healer",
      [](const std::string&) { return make_strategy("dash"); });
  EXPECT_EQ(make_strategy("custom-test-healer")->name(), "DASH");
  // Re-registering the same name is a programming error.
  EXPECT_THROW(healer_registry().add("custom-test-healer",
                                     [](const std::string&) {
                                       return make_strategy("dash");
                                     }),
               std::logic_error);
}

TEST(Factory, PaperStrategySetIsComplete) {
  const auto specs = paper_strategy_specs();
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(make_strategy(specs[0])->name(), "GraphHeal");
  EXPECT_EQ(make_strategy(specs[1])->name(), "LineHeal");
  EXPECT_EQ(make_strategy(specs[2])->name(), "BinaryTreeHeal");
  EXPECT_EQ(make_strategy(specs[3])->name(), "DASH");
  EXPECT_EQ(make_strategy(specs[4])->name(), "SDASH");
}

TEST(Factory, ClonePreservesBehavior) {
  for (const auto& name : {"dash", "sdash", "graph", "line"}) {
    const auto proto = make_strategy(name);
    const auto copy = proto->clone();
    EXPECT_EQ(proto->name(), copy->name());
    EXPECT_EQ(proto->maintains_forest(), copy->maintains_forest());
  }
}

TEST(Factory, NamesListNonEmpty) {
  EXPECT_FALSE(strategy_names().empty());
}

}  // namespace
}  // namespace dash::core
