#include "util/flags.h"

#include <array>

#include "gtest/gtest.h"

namespace roadnet {
namespace {

// argv helper: builds a mutable char* array from string literals.
template <size_t N>
std::optional<FlagMap> Parse(std::array<const char*, N> args,
                             const FlagSpec& spec, std::string* error) {
  return ParseFlags(static_cast<int>(N),
                    const_cast<char* const*>(args.data()), 0, spec, error);
}

const FlagSpec kSpec{{"graph", "out", "metrics-out", "seed"}, {"path", "v"}};

TEST(Flags, ParsesValuedAndBooleanInAnyOrder) {
  std::string error;
  auto flags = Parse(std::array{"--graph", "g.bin", "--path", "--seed", "7"},
                     kSpec, &error);
  ASSERT_TRUE(flags.has_value()) << error;
  EXPECT_EQ((*flags)["graph"], "g.bin");
  EXPECT_EQ((*flags)["path"], "1");
  EXPECT_EQ((*flags)["seed"], "7");
  EXPECT_EQ(flags->count("out"), 0u);

  flags = Parse(std::array{"--path", "--graph", "g.bin"}, kSpec, &error);
  ASSERT_TRUE(flags.has_value()) << error;
  EXPECT_EQ((*flags)["graph"], "g.bin");
}

TEST(Flags, RejectsUnknownFlag) {
  std::string error;
  // The motivating typo: --metrics-ouT used to be silently ignored.
  auto flags = Parse(std::array{"--graph", "g.bin", "--metrics-ouT", "m.csv"},
                     kSpec, &error);
  EXPECT_FALSE(flags.has_value());
  EXPECT_NE(error.find("--metrics-ouT"), std::string::npos) << error;
}

TEST(Flags, RejectsMissingValue) {
  std::string error;
  auto flags = Parse(std::array{"--path", "--graph"}, kSpec, &error);
  EXPECT_FALSE(flags.has_value());
  EXPECT_NE(error.find("--graph"), std::string::npos) << error;
  EXPECT_NE(error.find("value"), std::string::npos) << error;
}

TEST(Flags, RejectsStrayPositional) {
  std::string error;
  auto flags = Parse(std::array{"--graph", "g.bin", "oops"}, kSpec, &error);
  EXPECT_FALSE(flags.has_value());
  EXPECT_NE(error.find("oops"), std::string::npos) << error;
}

TEST(Flags, RejectsDuplicateFlag) {
  std::string error;
  auto flags =
      Parse(std::array{"--graph", "a", "--graph", "b"}, kSpec, &error);
  EXPECT_FALSE(flags.has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(Flags, ValuedFlagMayConsumeDashValue) {
  // A valued flag always consumes the next token, even if it looks like
  // a flag — the spec, not a lookahead heuristic, decides arity.
  std::string error;
  auto flags = Parse(std::array{"--out", "--weird-name"}, kSpec, &error);
  ASSERT_TRUE(flags.has_value()) << error;
  EXPECT_EQ((*flags)["out"], "--weird-name");
}

TEST(Flags, EmptyLineParsesToEmptyMap) {
  std::string error;
  auto flags = ParseFlags(0, nullptr, 0, kSpec, &error);
  ASSERT_TRUE(flags.has_value());
  EXPECT_TRUE(flags->empty());
}

TEST(Flags, NumericFlagAcceptsWholeValuesInRange) {
  const FlagMap flags = {{"port", "65535"},
                         {"seed", "18446744073709551615"},
                         {"vertices", "007"}};
  std::string error;
  uint16_t port = 0;
  uint64_t seed = 0;
  uint32_t vertices = 0;
  size_t absent = 7;
  EXPECT_TRUE(NumericFlag(flags, "port", &port, &error)) << error;
  EXPECT_TRUE(NumericFlag(flags, "seed", &seed, &error)) << error;
  EXPECT_TRUE(NumericFlag(flags, "vertices", &vertices, &error)) << error;
  EXPECT_TRUE(NumericFlag(flags, "threads", &absent, &error)) << error;
  EXPECT_EQ(port, 65535u);
  EXPECT_EQ(seed, ~uint64_t{0});
  EXPECT_EQ(vertices, 7u);
  EXPECT_EQ(absent, 7u);  // an absent flag keeps the caller's default
}

TEST(Flags, NumericFlagRejectsMalformedOrOutOfRangeValues) {
  // Out of range for u16, signed, blank-padded, suffixed, hex, fractional
  // or empty: each names the flag and leaves the default alone.
  for (const char* bad :
       {"65536", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.5", "1e3", "abc",
        ""}) {
    uint16_t port = 9;
    std::string error;
    EXPECT_FALSE(NumericFlag(FlagMap{{"port", bad}}, "port", &port, &error))
        << "'" << bad << "'";
    EXPECT_EQ(port, 9u);
    EXPECT_NE(error.find("--port"), std::string::npos) << error;
  }
  uint64_t seed = 0;
  std::string error;
  EXPECT_FALSE(NumericFlag(FlagMap{{"seed", "18446744073709551616"}}, "seed",
                           &seed, &error));
}

}  // namespace
}  // namespace roadnet
