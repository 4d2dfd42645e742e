#include <gtest/gtest.h>

#include "core/space_lang.h"

namespace afex {
namespace {

// The paper's own Fig. 4 example must parse.
constexpr char kFig4[] = R"(
function : { malloc, calloc, realloc }
errno : { ENOMEM }
retval : { 0 }
callNumber : [ 1 , 100 ] ;

function : { read }
errno : { EINTR }
retVal : { -1 }
callNumber : [ 1 , 50 ] ;
)";

TEST(SpaceLangTest, ParsesPaperFig4) {
  UniverseSpec spec = ParseFaultSpaceDescription(kFig4);
  ASSERT_EQ(spec.spaces.size(), 2u);

  const SpaceSpec& mem = spec.spaces[0];
  ASSERT_EQ(mem.params.size(), 4u);
  EXPECT_EQ(mem.params[0].name, "function");
  EXPECT_EQ(mem.params[0].kind, AxisKind::kSet);
  EXPECT_EQ(mem.params[0].set_values, (std::vector<std::string>{"malloc", "calloc", "realloc"}));
  EXPECT_EQ(mem.params[3].kind, AxisKind::kInterval);
  EXPECT_EQ(mem.params[3].lo, 1);
  EXPECT_EQ(mem.params[3].hi, 100);

  const SpaceSpec& read = spec.spaces[1];
  EXPECT_EQ(read.params[2].set_values, (std::vector<std::string>{"-1"}));
  EXPECT_EQ(read.params[3].hi, 50);
}

TEST(SpaceLangTest, BuildsFaultSpacesFromFig4) {
  UniverseSpec spec = ParseFaultSpaceDescription(kFig4);
  std::vector<FaultSpace> spaces = BuildUniverse(spec);
  ASSERT_EQ(spaces.size(), 2u);
  EXPECT_EQ(spaces[0].TotalPoints(), 3u * 1 * 1 * 100);
  EXPECT_EQ(spaces[1].TotalPoints(), 1u * 1 * 1 * 50);
  EXPECT_EQ(spaces[0].dimensions(), 4u);
}

TEST(SpaceLangTest, SubtypeTagsNameTheSpace) {
  UniverseSpec spec = ParseFaultSpaceDescription("libfault posix function : {read} ;");
  ASSERT_EQ(spec.spaces.size(), 1u);
  EXPECT_EQ(spec.spaces[0].subtypes, (std::vector<std::string>{"libfault", "posix"}));
  FaultSpace space = BuildFaultSpace(spec.spaces[0]);
  EXPECT_EQ(space.name(), "libfault.posix");
}

TEST(SpaceLangTest, SubIntervalAngleBrackets) {
  UniverseSpec spec = ParseFaultSpaceDescription("window : < 5 , 10 > ;");
  ASSERT_EQ(spec.spaces[0].params.size(), 1u);
  EXPECT_EQ(spec.spaces[0].params[0].kind, AxisKind::kSubInterval);
  EXPECT_EQ(spec.spaces[0].params[0].lo, 5);
  EXPECT_EQ(spec.spaces[0].params[0].hi, 10);
}

TEST(SpaceLangTest, SingletonSetAllowed) {
  UniverseSpec spec = ParseFaultSpaceDescription("errno : { ENOMEM } ;");
  EXPECT_EQ(spec.spaces[0].params[0].set_values.size(), 1u);
}

TEST(SpaceLangTest, CommentsAndWhitespaceIgnored) {
  UniverseSpec spec = ParseFaultSpaceDescription(
      "# leading comment\nfunction : { read } # trailing\n ; # done\n");
  EXPECT_EQ(spec.spaces.size(), 1u);
}

TEST(SpaceLangTest, NegativeNumbersInIntervals) {
  UniverseSpec spec = ParseFaultSpaceDescription("retval : [ -1 , 0 ] ;");
  EXPECT_EQ(spec.spaces[0].params[0].lo, -1);
  EXPECT_EQ(spec.spaces[0].params[0].hi, 0);
}

TEST(SpaceLangTest, ErrorOnEmptyInput) {
  EXPECT_THROW(ParseFaultSpaceDescription(""), SpaceLangError);
  EXPECT_THROW(ParseFaultSpaceDescription("   # only comment\n"), SpaceLangError);
}

TEST(SpaceLangTest, ErrorOnMissingSemicolon) {
  EXPECT_THROW(ParseFaultSpaceDescription("function : { read }"), SpaceLangError);
}

TEST(SpaceLangTest, ErrorOnInvertedInterval) {
  EXPECT_THROW(ParseFaultSpaceDescription("call : [ 10 , 1 ] ;"), SpaceLangError);
}

TEST(SpaceLangTest, ErrorOnDuplicateParameter) {
  EXPECT_THROW(ParseFaultSpaceDescription("a : { x } a : { y } ;"), SpaceLangError);
}

TEST(SpaceLangTest, ErrorOnSpaceWithoutParameters) {
  EXPECT_THROW(ParseFaultSpaceDescription("onlytag ;"), SpaceLangError);
}

TEST(SpaceLangTest, ErrorOnNumberOutOfRange) {
  EXPECT_THROW(ParseFaultSpaceDescription("call : [ 1 , 99999999999999999999 ] ;"),
               SpaceLangError);
  EXPECT_THROW(ParseFaultSpaceDescription("retval : { -99999999999999999999 } ;"),
               SpaceLangError);
}

TEST(SpaceLangTest, ErrorOnGarbageCharacter) {
  EXPECT_THROW(ParseFaultSpaceDescription("a : { x } @ ;"), SpaceLangError);
}

TEST(SpaceLangTest, ErrorCarriesPosition) {
  try {
    ParseFaultSpaceDescription("a : { x }\nb : [ 1 , ] ;");
    FAIL() << "expected SpaceLangError";
  } catch (const SpaceLangError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_GT(e.column(), 1u);
  }
}

TEST(SpaceLangTest, FormatRoundTrips) {
  UniverseSpec spec = ParseFaultSpaceDescription(kFig4);
  std::string rendered = FormatSpaceSpec(spec.spaces[0]);
  UniverseSpec reparsed = ParseFaultSpaceDescription(rendered);
  ASSERT_EQ(reparsed.spaces.size(), 1u);
  EXPECT_EQ(reparsed.spaces[0].params.size(), spec.spaces[0].params.size());
  EXPECT_EQ(reparsed.spaces[0].params[0].set_values, spec.spaces[0].params[0].set_values);
}

}  // namespace
}  // namespace afex
