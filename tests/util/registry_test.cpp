#include "util/registry.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dash::util {
namespace {

struct Widget {
  virtual ~Widget() = default;
  virtual int value() const = 0;
};

struct Plain : Widget {
  int value() const override { return 1; }
};

struct Sized : Widget {
  explicit Sized(int v) : v_(v) {}
  int value() const override { return v_; }
  int v_;
};

Registry<Widget> make_registry() {
  Registry<Widget> r("widget");
  r.add("plain",
        [](const std::string&) -> std::unique_ptr<Widget> {
          return std::make_unique<Plain>();
        },
        {"simple"});
  r.add("sized",
        [](const std::string& param) -> std::unique_ptr<Widget> {
          return std::make_unique<Sized>(static_cast<int>(
              parse_spec_uint("sized", param)));
        },
        {}, "sized:<v>");
  return r;
}

TEST(SplitSpec, SplitsNameAndParam) {
  EXPECT_EQ(split_spec("capped:2").name, "capped");
  EXPECT_EQ(split_spec("capped:2").param, "2");
  EXPECT_EQ(split_spec("dash").name, "dash");
  EXPECT_EQ(split_spec("dash").param, "");
  EXPECT_EQ(split_spec("SDASH:4").name, "sdash");  // name is lowercased
  EXPECT_EQ(split_spec("a:b:c").param, "b:c");     // first colon splits
}

TEST(ParseSpecUint, AcceptsIntegersRejectsJunk) {
  EXPECT_EQ(parse_spec_uint("x", "42"), 42u);
  EXPECT_THROW(parse_spec_uint("x", ""), std::invalid_argument);
  EXPECT_THROW(parse_spec_uint("x", "2x"), std::invalid_argument);
  EXPECT_THROW(parse_spec_uint("x", "abc"), std::invalid_argument);
  // stoul alone would accept these; the spec parser must not.
  EXPECT_THROW(parse_spec_uint("x", "-1"), std::invalid_argument);
  EXPECT_THROW(parse_spec_uint("x", " 4"), std::invalid_argument);
  EXPECT_THROW(parse_spec_uint("x", "+3"), std::invalid_argument);
  // The optional bound protects narrower call sites from wrapping.
  EXPECT_EQ(parse_spec_uint("x", "100", 100), 100u);
  EXPECT_THROW(parse_spec_uint("x", "101", 100), std::invalid_argument);
}

TEST(Registry, CreatesByNameAliasAndCase) {
  const auto r = make_registry();
  EXPECT_EQ(r.create("plain")->value(), 1);
  EXPECT_EQ(r.create("simple")->value(), 1);
  EXPECT_EQ(r.create("PLAIN")->value(), 1);
  EXPECT_EQ(r.create("sized:7")->value(), 7);
}

TEST(Registry, Contains) {
  const auto r = make_registry();
  EXPECT_TRUE(r.contains("plain"));
  EXPECT_TRUE(r.contains("sized:3"));
  EXPECT_FALSE(r.contains("bogus"));
}

TEST(Registry, UnknownNameErrorListsRegisteredSpellings) {
  const auto r = make_registry();
  try {
    r.create("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown widget"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("plain"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sized:<v>"), std::string::npos) << msg;
    EXPECT_NE(msg.find("simple"), std::string::npos)
        << "aliases belong in the listing: " << msg;
  }
}

TEST(Registry, NamesInRegistrationOrder) {
  const auto r = make_registry();
  const auto names = r.names();
  ASSERT_EQ(names.size(), 2u);  // aliases are not listed separately
  EXPECT_EQ(names[0], "plain");
  EXPECT_EQ(names[1], "sized:<v>");
}

TEST(Registry, DuplicateRegistrationThrows) {
  auto r = make_registry();
  EXPECT_THROW(r.add("plain",
                     [](const std::string&) -> std::unique_ptr<Widget> {
                       return std::make_unique<Plain>();
                     }),
               std::logic_error);
  // Colliding via an alias is rejected too.
  EXPECT_THROW(r.add("fresh",
                     [](const std::string&) -> std::unique_ptr<Widget> {
                       return std::make_unique<Plain>();
                     },
                     {"simple"}),
               std::logic_error);
}

TEST(Registry, FailedRegistrationLeavesRegistryUnchanged) {
  auto r = make_registry();
  const auto names_before = r.names();
  EXPECT_THROW(r.add("plain",
                     [](const std::string&) -> std::unique_ptr<Widget> {
                       return std::make_unique<Plain>();
                     }),
               std::logic_error);
  EXPECT_THROW(r.add("fresh",
                     [](const std::string&) -> std::unique_ptr<Widget> {
                       return std::make_unique<Plain>();
                     },
                     {"plain"}),
               std::logic_error);
  // Neither the display list nor the lookup table took the rejects:
  // "fresh" never became creatable and names() shows no duplicates.
  EXPECT_EQ(r.names(), names_before);
  EXPECT_FALSE(r.contains("fresh"));
}

TEST(Registry, TrailingColonSpecRejected) {
  const auto r = make_registry();
  EXPECT_THROW(r.create("sized:"), std::invalid_argument);
  EXPECT_THROW(r.create("plain:"), std::invalid_argument);
}

TEST(Registry, ExtraArgsForwardToFactory) {
  Registry<Widget, int> r("seeded widget");
  r.add("offset",
        [](const std::string& param, int seed) -> std::unique_ptr<Widget> {
          const int base =
              param.empty()
                  ? 0
                  : static_cast<int>(parse_spec_uint("offset", param));
          return std::make_unique<Sized>(base + seed);
        });
  EXPECT_EQ(r.create("offset", 5)->value(), 5);
  EXPECT_EQ(r.create("offset:10", 5)->value(), 15);
}

}  // namespace
}  // namespace dash::util
