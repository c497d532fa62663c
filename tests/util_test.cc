#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/spec_grammar.h"
#include "src/util/status.h"
#include "src/util/table.h"
#include "src/util/text_file.h"
#include "src/util/units.h"

namespace harmony {
namespace {

TEST(UnitsTest, FormatBytesBinary) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(kKiB), "1 KiB");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(kMiB), "1 MiB");
  EXPECT_EQ(FormatBytes(11 * kGiB), "11 GiB");
}

TEST(UnitsTest, FormatBytesDecimal) {
  EXPECT_EQ(FormatBytesDecimal(1e9), "1 GB");
  EXPECT_EQ(FormatBytesDecimal(12.8e9), "12.8 GB");
  EXPECT_EQ(FormatBytesDecimal(450e6), "450 MB");
}

TEST(UnitsTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(2.0), "2 s");
  EXPECT_EQ(FormatSeconds(0.25), "250 ms");
  EXPECT_EQ(FormatSeconds(12e-6), "12 us");
  EXPECT_EQ(FormatSeconds(3.5e-9), "3.50 ns");
}

TEST(UnitsTest, FormatBandwidth) { EXPECT_EQ(FormatBandwidth(GBps(12.8)), "12.8 GB/s"); }

TEST(UnitsTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567890), "1,234,567,890");
  EXPECT_EQ(FormatCount(-1234), "-1,234");
}

TEST(UnitsTest, Presets) {
  EXPECT_DOUBLE_EQ(TFlops(11.3), 11.3e12);
  EXPECT_DOUBLE_EQ(GBps(1.0), 1e9);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorRendering) {
  const Status s = InvalidArgumentError("bad microbatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad microbatch");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition), "FAILED_PRECONDITION");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, ReturnIfErrorMacro) {
  auto fails = [] { return InternalError("boom"); };
  auto wrapper = [&]() -> Status {
    HARMONY_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(CheckTest, PassingCheckDoesNothing) {
  HCHECK(true) << "never printed";
  HCHECK_EQ(1, 1);
  HCHECK_LT(1, 2);
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH({ HCHECK(false) << "expected failure"; }, "expected failure");
  EXPECT_DEATH({ HCHECK_EQ(1, 2); }, "1 == 2");
}

TEST(TableTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.Row().Cell("alpha").Cell(1);
  table.Row().Cell("b").Cell(12345);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name   value"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TableTest, DoubleFormatting) {
  TablePrinter table({"x", "y"});
  table.Row().Cell("pi").Cell(3.14159, 3);
  EXPECT_NE(table.ToString().find("3.142"), std::string::npos);
}

TEST(CsvTest, QuotesCommasAndQuotes) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.WriteRow({"a", "b,c", "d\"e"});
  EXPECT_EQ(os.str(), "a,\"b,c\",\"d\"\"e\"\n");
}

// ---- \u escape handling: UTF-16 surrogate pairs ----------------------------------------------

TEST(JsonStringTest, SurrogatePairCombinesToSupplementaryCodePoint) {
  // \ud83d\ude00 is the UTF-16 encoding of U+1F600 (😀); the parser must combine the pair
  // and emit 4-byte UTF-8, not pass the surrogates through as two 3-byte sequences.
  const StatusOr<JsonValue> parsed = ParseJson("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonStringTest, SurrogatePairAtPlaneBoundaryRoundTrips) {
  // U+10000, the first supplementary code point: \ud800\udc00.
  const StatusOr<JsonValue> parsed = ParseJson("\"\\ud800\\udc00\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().as_string(), "\xF0\x90\x80\x80");
  // And the last one, U+10FFFF: \udbff\udfff.
  const StatusOr<JsonValue> last = ParseJson("\"\\udbff\\udfff\"");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().as_string(), "\xF4\x8F\xBF\xBF");
}

TEST(JsonStringTest, LoneHighSurrogateIsParseErrorWithOffset) {
  const StatusOr<JsonValue> parsed = ParseJson("\"\\ud83d\"");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("high surrogate"), std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonStringTest, LoneLowSurrogateIsParseErrorWithOffset) {
  const StatusOr<JsonValue> parsed = ParseJson("\"\\ude00\"");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("low surrogate"), std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonStringTest, PairSplitAcrossEscapesIsParseError) {
  // High surrogate followed by a non-surrogate escape: the pair never completes.
  const StatusOr<JsonValue> wrong_second = ParseJson("\"\\ud83d\\u0041\"");
  ASSERT_FALSE(wrong_second.ok());
  EXPECT_NE(wrong_second.status().message().find("surrogate"), std::string::npos);
  // High surrogate followed by a plain character instead of an escape.
  const StatusOr<JsonValue> split = ParseJson("\"\\ud83dX\\ude00\"");
  ASSERT_FALSE(split.ok());
  EXPECT_NE(split.status().message().find("high surrogate"), std::string::npos);
  // High surrogate followed by a non-\u escape.
  const StatusOr<JsonValue> wrong_escape = ParseJson("\"\\ud83d\\n\\ude00\"");
  ASSERT_FALSE(wrong_escape.ok());
}

TEST(JsonStringTest, BmpEscapesStillDecode) {
  const StatusOr<JsonValue> parsed = ParseJson("\"\\u00e9\\u4e2d\"");  // é中
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

// ---- Spec grammar kit --------------------------------------------------------------------------

TEST(SpecGrammarTest, SplitKeepsEmptyFieldsAndAbsoluteOffsets) {
  const std::vector<SpecField> fields = SplitSpec("a,,bc,", ',', 10);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0].text, "a");
  EXPECT_EQ(fields[0].offset, 10u);
  EXPECT_EQ(fields[1].text, "");
  EXPECT_EQ(fields[1].offset, 12u);
  EXPECT_EQ(fields[2].text, "bc");
  EXPECT_EQ(fields[2].offset, 13u);
  EXPECT_EQ(fields[3].text, "");
  EXPECT_EQ(fields[3].offset, 16u);
  const std::vector<SpecField> empty = SplitSpec("", ';');
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].offset, 0u);
}

TEST(SpecGrammarTest, IntegerParserChecksRangeBeforeNarrowing) {
  EXPECT_EQ(ParseInteger("42", 0, 100), 42);
  EXPECT_EQ(ParseInteger("-7", -10, 10), -7);
  EXPECT_EQ(ParseInteger("+3", 0, 10), 3);  // strtol rules, as every grammar had
  EXPECT_EQ(ParseInteger("", INT64_MIN, INT64_MAX), std::nullopt);
  EXPECT_EQ(ParseInteger("12x", INT64_MIN, INT64_MAX), std::nullopt);
  EXPECT_EQ(ParseInteger("1.5", INT64_MIN, INT64_MAX), std::nullopt);
  EXPECT_EQ(ParseInteger("4294967296", INT_MIN, INT_MAX), std::nullopt);
  EXPECT_EQ(ParseInteger("2147483648", INT_MIN, INT_MAX), std::nullopt);
  EXPECT_EQ(ParseInteger("2147483647", INT_MIN, INT_MAX), INT_MAX);
  EXPECT_EQ(ParseInteger("99999999999999999999", INT64_MIN, INT64_MAX), std::nullopt);
  EXPECT_EQ(ParseInteger("-1", 0, INT_MAX), std::nullopt);
}

TEST(SpecGrammarTest, UnsignedParserRejectsSignsAndOverflow) {
  EXPECT_EQ(ParseUnsigned("0"), 0u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ParseUnsigned(""), std::nullopt);
  EXPECT_EQ(ParseUnsigned("7abc"), std::nullopt);
  EXPECT_EQ(ParseUnsigned("-1"), std::nullopt);
  EXPECT_EQ(ParseUnsigned(" -1"), std::nullopt);
  EXPECT_EQ(ParseUnsigned("18446744073709551616"), std::nullopt);
}

TEST(SpecGrammarTest, FiniteParserRejectsNanInfAndGarbage) {
  EXPECT_EQ(ParseFinite("0.25"), 0.25);
  EXPECT_EQ(ParseFinite("-3e2"), -300.0);
  for (const char* bad : {"", "x", "1.5x", "nan", "NaN", "inf", "-inf", "1e999"}) {
    EXPECT_EQ(ParseFinite(bad), std::nullopt) << bad;
  }
}

TEST(SpecGrammarTest, BoolParserTakesTheFlagVocabulary) {
  for (const char* yes : {"true", "1", "yes", "on"}) {
    EXPECT_EQ(ParseBool(yes), true) << yes;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    EXPECT_EQ(ParseBool(no), false) << no;
  }
  for (const char* bad : {"", "2", "maybe", "TRUE "}) {
    EXPECT_EQ(ParseBool(bad), std::nullopt) << bad;
  }
}

TEST(SpecGrammarTest, TypedParsersReportTheFieldOffset) {
  const SpecGrammar g("malformed test spec", "--test grammar");
  const StatusOr<int> wide = g.Int(SpecField{"4294967296", 7}, "count", 0, INT_MAX);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().message(),
            "malformed test spec: count must be an integer in [0, 2147483647], got "
            "'4294967296' (at byte 7; see --help for the --test grammar)");
  const StatusOr<std::uint64_t> seed = g.Seed(SpecField{"-1", 3}, "seed");
  ASSERT_FALSE(seed.ok());
  EXPECT_NE(seed.status().message().find("seed must be an unsigned integer, got '-1' (at byte 3;"),
            std::string::npos)
      << seed.status().message();
  const StatusOr<double> nan = g.Number(SpecField{"nan", 5}, "scale");
  ASSERT_FALSE(nan.ok());
  EXPECT_NE(nan.status().message().find("scale must be a finite number, got 'nan' (at byte 5;"),
            std::string::npos);
  const StatusOr<double> zero =
      g.Number(SpecField{"0", 2}, "rate", "> 0", [](double v) { return v > 0.0; });
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("rate must be > 0, got '0' (at byte 2;"),
            std::string::npos);
  const StatusOr<int> target = g.Target(SpecField{"gpu4294967296", 9}, "gpu");
  ASSERT_FALSE(target.ok());
  EXPECT_NE(target.status().message().find("expected a target like 'gpu0'"), std::string::npos);
  EXPECT_NE(target.status().message().find("(at byte 9;"), std::string::npos);
  for (const char* bad : {"gpu", "gpu-1", "gpu1x", "nic1", ""}) {
    EXPECT_FALSE(g.Target(SpecField{bad, 0}, "gpu").ok()) << bad;
  }
  EXPECT_EQ(g.Target(SpecField{"gpu12", 0}, "gpu").value(), 12);
}

TEST(SpecGrammarTest, KeyValueWalkerReportsUnknownAndRepeatedKeysAtTheirOffset) {
  const SpecGrammar g("malformed test spec", "--test grammar");
  int a = 0;
  double b = 0.0;
  const auto parse = [&](const std::string& list) {
    return g.ParseKeyValues(SpecField{list, 5}, "test option",
                            {g.IntKey("a", 0, 9, &a), g.NumberKey("b", &b)});
  };
  ASSERT_TRUE(parse("a=3,,b=0.5,").ok());
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 0.5);
  const Status unknown = parse("a=1,zz=2");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.message().find("unknown test option 'zz' (at byte 9;"), std::string::npos)
      << unknown.message();
  const Status repeated = parse("a=1,b=2,a=3");
  ASSERT_FALSE(repeated.ok());
  EXPECT_NE(repeated.message().find("duplicate test option 'a' (at byte 13;"), std::string::npos)
      << repeated.message();
  const Status bare = parse("a=1,b");
  ASSERT_FALSE(bare.ok());
  EXPECT_NE(bare.message().find("expected key=value, got 'b' (at byte 9;"), std::string::npos)
      << bare.message();
  const Status value = parse("b=1,a=10");
  ASSERT_FALSE(value.ok());
  EXPECT_NE(value.message().find("a must be an integer in [0, 9], got '10' (at byte 11;"),
            std::string::npos)
      << value.message();
}

// ---- JSON leaf emitters and the text-file writer ------------------------------------------------

TEST(JsonEmitterTest, StringsEscapeQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonString("plain"), "\"plain\"");
  EXPECT_EQ(JsonString("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(JsonString("\n\r\t"), "\"\\n\\r\\t\"");
  EXPECT_EQ(JsonString(std::string("\x01\x1f\0", 3)), "\"\\u0001\\u001f\\u0000\"");
  EXPECT_EQ(JsonString("caf\xC3\xA9"), "\"caf\xC3\xA9\"");  // UTF-8 passes through
  // And the parser reads every escape back to the original bytes.
  const std::string raw("q\"\\\n\x02z", 6);
  const StatusOr<JsonValue> parsed = ParseJson(JsonString(raw));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().as_string(), raw);
}

TEST(JsonEmitterTest, NumbersTakeTheShortestRoundTripPrecision) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(2.0), "2");
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(-1.5e-7), "-1.5e-07");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.3333333333333333");  // 16 digits
  // 0.1 + 0.2 needs all 17 significant digits to come back as the same double.
  const double sum = 0.1 + 0.2;
  EXPECT_EQ(JsonNumber(sum), "0.30000000000000004");
  EXPECT_EQ(std::strtod(JsonNumber(sum).c_str(), nullptr), sum);
  EXPECT_EQ(JsonNumber(86400.001), "86400.001");
}

TEST(TextFileTest, WritesWholeTextAndReportsFailures) {
  const std::string path = ::testing::TempDir() + "harmony_text_file_test.txt";
  ASSERT_TRUE(WriteTextFile(path, "one\ntwo\n").ok());
  std::ifstream file(path);
  const std::string contents((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "one\ntwo\n");
  std::remove(path.c_str());
  const Status missing = WriteTextFile("/nonexistent-dir/out.txt", "x");
  EXPECT_EQ(missing.code(), StatusCode::kInternal);
  EXPECT_NE(missing.message().find("cannot open"), std::string::npos);
  // The device accepts the open and fails on the flush at close.
  const Status full = WriteTextFile("/dev/full", "x");
  EXPECT_EQ(full.code(), StatusCode::kInternal);
  EXPECT_NE(full.message().find("failed writing /dev/full"), std::string::npos);
}

}  // namespace
}  // namespace harmony
