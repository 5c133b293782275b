// Tests for the command-line flag parser.

#include <gtest/gtest.h>

#include <vector>

#include "support/check.hpp"
#include "support/cli.hpp"

namespace urn {
namespace {

CliFlags demo_flags() {
  CliFlags flags;
  flags.add_int("n", 100, "node count");
  flags.add_double("radius", 1.5, "radius");
  flags.add_string("wake", "sync", "wake pattern");
  flags.add_bool("tdma", false, "derive schedule");
  return flags;
}

bool parse(CliFlags& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags.parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, DefaultsApply) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {}));
  EXPECT_EQ(flags.get_int("n"), 100);
  EXPECT_DOUBLE_EQ(flags.get_double("radius"), 1.5);
  EXPECT_EQ(flags.get_string("wake"), "sync");
  EXPECT_FALSE(flags.get_bool("tdma"));
}

TEST(Cli, EqualsSyntax) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {"--n=42", "--radius=2.25", "--wake=poisson"}));
  EXPECT_EQ(flags.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("radius"), 2.25);
  EXPECT_EQ(flags.get_string("wake"), "poisson");
}

TEST(Cli, SpaceSyntax) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {"--n", "7", "--wake", "uniform"}));
  EXPECT_EQ(flags.get_int("n"), 7);
  EXPECT_EQ(flags.get_string("wake"), "uniform");
}

TEST(Cli, BareBooleanFlag) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {"--tdma"}));
  EXPECT_TRUE(flags.get_bool("tdma"));
}

TEST(Cli, ExplicitBooleanValues) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {"--tdma=false"}));
  EXPECT_FALSE(flags.get_bool("tdma"));
  CliFlags flags2 = demo_flags();
  ASSERT_TRUE(parse(flags2, {"--tdma=yes"}));
  EXPECT_TRUE(flags2.get_bool("tdma"));
}

TEST(Cli, UnknownFlagRejected) {
  CliFlags flags = demo_flags();
  EXPECT_FALSE(parse(flags, {"--bogus=1"}));
  EXPECT_NE(flags.error().find("bogus"), std::string::npos);
}

// A bare unknown flag is reported as unknown, not as missing its value.
TEST(Cli, BareUnknownFlagRejectedAsUnknown) {
  CliFlags flags = demo_flags();
  EXPECT_FALSE(parse(flags, {"--bogus"}));
  EXPECT_EQ(flags.error(), "unknown flag --bogus");
}

TEST(Cli, BadIntegerRejected) {
  CliFlags flags = demo_flags();
  EXPECT_FALSE(parse(flags, {"--n=abc"}));
  EXPECT_NE(flags.error().find("integer"), std::string::npos);
}

TEST(Cli, BadDoubleRejected) {
  CliFlags flags = demo_flags();
  EXPECT_FALSE(parse(flags, {"--radius=fast"}));
}

TEST(Cli, MissingValueRejected) {
  CliFlags flags = demo_flags();
  EXPECT_FALSE(parse(flags, {"--n"}));
  EXPECT_NE(flags.error().find("missing"), std::string::npos);
}

TEST(Cli, PositionalArgumentRejected) {
  CliFlags flags = demo_flags();
  EXPECT_FALSE(parse(flags, {"subcommand"}));
}

TEST(Cli, HelpRequested) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {"--help"}));
  EXPECT_TRUE(flags.help_requested());
  const std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("node count"), std::string::npos);
  EXPECT_NE(usage.find("default: 100"), std::string::npos);
}

TEST(Cli, NegativeNumbersParse) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {"--n=-5", "--radius=-1.5"}));
  EXPECT_EQ(flags.get_int("n"), -5);
  EXPECT_DOUBLE_EQ(flags.get_double("radius"), -1.5);
}

TEST(Cli, WrongTypeAccessorThrows) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {}));
  EXPECT_THROW((void)flags.get_int("wake"), CheckError);
  EXPECT_THROW((void)flags.get_string("n"), CheckError);
  EXPECT_THROW((void)flags.get_bool("radius"), CheckError);
}

TEST(Cli, UndeclaredAccessorThrows) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {}));
  EXPECT_THROW((void)flags.get_int("nope"), CheckError);
}

TEST(Cli, DuplicateDeclarationRejected) {
  CliFlags flags;
  flags.add_int("n", 1, "x");
  EXPECT_THROW(flags.add_int("n", 2, "y"), CheckError);
}

TEST(Cli, CheckIntRejectsOutOfRangeValues) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {"--n=-5"}));
  EXPECT_FALSE(flags.check_int("n", 1));
  EXPECT_EQ(flags.error(), "flag --n must be >= 1, got -5");
  EXPECT_FALSE(flags.check_int("n", 0, 4));
  EXPECT_EQ(flags.error(), "flag --n must be in [0, 4], got -5");
  EXPECT_TRUE(flags.check_int("n", -5, -5));
}

TEST(Cli, LastAssignmentWins) {
  CliFlags flags = demo_flags();
  ASSERT_TRUE(parse(flags, {"--n=1", "--n=2"}));
  EXPECT_EQ(flags.get_int("n"), 2);
}

}  // namespace
}  // namespace urn
