// Known answers for util/hash.h. Shard records, resume manifests and
// hunt spools store these digests, so a change to either function
// orphans every file written before it.
#include "util/hash.h"

#include <gtest/gtest.h>

namespace dash::util {
namespace {

TEST(Fnv1a64, MatchesPublishedVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hex16, ZeroPadsToSixteenLowerCaseDigits) {
  EXPECT_EQ(hex16(0), "0000000000000000");
  EXPECT_EQ(hex16(0xabcULL), "0000000000000abc");
  EXPECT_EQ(hex16(fnv1a64("foobar")), "85944171f73967e8");
  EXPECT_EQ(hex16(~0ULL), "ffffffffffffffff");
}

}  // namespace
}  // namespace dash::util
