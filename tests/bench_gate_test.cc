// The gate harness every gated bench judges itself with
// (bench/bench_util.h): the verdict rule at its edges for an upper
// bound (an overhead) and a lower bound (a speed-up), the skipped
// scaling floor, the wall-clock statistics, and the "gates" JSON.

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace postblock::bench {
namespace {

// --- Upper bound: an attachment's overhead --------------------------------

constexpr double kMaxOverhead = 0.02;

TEST(BenchGateTest, OverheadWithinBoundPasses) {
  // Median ratio 1.01 (1% overhead); A/A IQR 0.01, narrower than 2%.
  const Gate g = OverheadGate("bench.overhead", {1.00, 1.01, 1.02},
                              {0.99, 1.00, 1.01}, kMaxOverhead);
  EXPECT_NEAR(g.observed, 0.01, 1e-12);
  EXPECT_NEAR(g.noise_floor, 0.01, 1e-12);
  EXPECT_EQ(g.direction, Bound::kAtMost);
  EXPECT_EQ(g.verdict, Verdict::kPass);
}

TEST(BenchGateTest, OverheadFailsOnlyPastBoundPlusFloor) {
  // Bound 0.02 + floor 0.01: 0.0299 is inside, 0.0301 just past it.
  EXPECT_EQ(Judge(0.0299, Bound::kAtMost, kMaxOverhead, 0.01),
            Verdict::kPass);
  EXPECT_EQ(Judge(0.0301, Bound::kAtMost, kMaxOverhead, 0.01),
            Verdict::kFail);
  // An exact gate (no floor) fails just past the bound itself.
  EXPECT_EQ(Judge(0.0201, Bound::kAtMost, kMaxOverhead, 0), Verdict::kFail);
}

TEST(BenchGateTest, OverheadUnresolvedWhenFloorExceedsBound) {
  // A 5% A/A floor cannot tell a 2% cost from noise...
  EXPECT_EQ(Judge(0.01, Bound::kAtMost, kMaxOverhead, 0.05),
            Verdict::kUnresolved);
  EXPECT_EQ(Judge(0.069, Bound::kAtMost, kMaxOverhead, 0.05),
            Verdict::kUnresolved);
  // ...but a cost past bound + floor still fails.
  EXPECT_EQ(Judge(0.071, Bound::kAtMost, kMaxOverhead, 0.05),
            Verdict::kFail);
}

// --- Lower bound: a speed-up ---------------------------------------------

constexpr double kMinSpeedup = 1.5;

TEST(BenchGateTest, SpeedupAboveBoundPasses) {
  // Median 1.6x; A/A IQR 0.02 is relative, so the floor is 0.02 * 1.5.
  const Gate g = SpeedupGate("bench.speedup", {1.55, 1.60, 1.70},
                             {0.99, 1.00, 1.03}, kMinSpeedup);
  EXPECT_NEAR(g.observed, 1.60, 1e-12);
  EXPECT_NEAR(g.noise_floor, 0.02 * kMinSpeedup, 1e-12);
  EXPECT_EQ(g.direction, Bound::kAtLeast);
  EXPECT_EQ(g.verdict, Verdict::kPass);
}

TEST(BenchGateTest, SpeedupFailsOnlyPastBoundMinusFloor) {
  // Bound 1.5 - floor 0.1: 1.401 is inside, 1.399 just past it.
  EXPECT_EQ(Judge(1.401, Bound::kAtLeast, kMinSpeedup, 0.1), Verdict::kPass);
  EXPECT_EQ(Judge(1.399, Bound::kAtLeast, kMinSpeedup, 0.1), Verdict::kFail);
}

TEST(BenchGateTest, SpeedupUnresolvedWhenFloorExceedsBound) {
  EXPECT_EQ(Judge(1.0, Bound::kAtLeast, kMinSpeedup, 2.0),
            Verdict::kUnresolved);
}

TEST(BenchGateTest, ScalingFloorSkippedWithoutEnoughHardwareThreads) {
  const std::vector<double> slow = {0.5, 0.5, 0.5};
  const std::vector<double> aa = {1.0, 1.0, 1.0};
  const Gate skipped = WorkerSpeedupGate("bench.speedup_4w", slow, aa,
                                         kMinSpeedup, /*workers=*/4,
                                         /*hardware_threads=*/2);
  EXPECT_EQ(skipped.verdict, Verdict::kSkipped);
  EXPECT_NEAR(skipped.observed, 0.5, 1e-12);  // still reported
  const Gate judged = WorkerSpeedupGate("bench.speedup_4w", slow, aa,
                                        kMinSpeedup, /*workers=*/4,
                                        /*hardware_threads=*/4);
  EXPECT_EQ(judged.verdict, Verdict::kFail);
}

// --- Exact gates ---------------------------------------------------------

TEST(BenchGateTest, ExactGatesHonourStrictBounds) {
  EXPECT_EQ(CheckGate("bench.identical", true).verdict, Verdict::kPass);
  EXPECT_EQ(CheckGate("bench.identical", false).verdict, Verdict::kFail);
  EXPECT_EQ(MakeGate("bench.ratio", 2.0, Bound::kBelow, 2.0).verdict,
            Verdict::kFail);
  EXPECT_EQ(MakeGate("bench.ratio", 1.99, Bound::kBelow, 2.0).verdict,
            Verdict::kPass);
  EXPECT_EQ(MakeGate("bench.wa", 1.0, Bound::kAbove, 1.0).verdict,
            Verdict::kFail);
  EXPECT_EQ(MakeGate("bench.iops", 2.0, Bound::kAtLeast, 2.0).verdict,
            Verdict::kPass);
}

TEST(BenchGateTest, NonFiniteObservationFails) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Judge(nan, Bound::kAtMost, kMaxOverhead, 0), Verdict::kFail);
  EXPECT_EQ(Judge(nan, Bound::kAtLeast, kMinSpeedup, 0), Verdict::kFail);
  EXPECT_EQ(Judge(INFINITY, Bound::kAtLeast, kMinSpeedup, 0),
            Verdict::kFail);
}

// --- Wall-clock statistics -----------------------------------------------

TEST(BenchGateTest, MedianAndIqrInterpolate) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Iqr({1, 2, 3, 4, 5}), 2);
  EXPECT_DOUBLE_EQ(Median({}), 0);
  const std::vector<double> r = Ratios({2, 3}, {1, 2});
  EXPECT_DOUBLE_EQ(r[0], 2);
  EXPECT_DOUBLE_EQ(r[1], 1.5);
}

TEST(BenchGateTest, InterleavedRepsRotateWhichArmRunsFirst) {
  std::vector<int> order;
  const auto seconds = InterleavedReps(3, 4, [&](int arm) {
    order.push_back(arm);
    return 10.0 * arm + static_cast<double>(order.size());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2}));
  ASSERT_EQ(seconds.size(), 3u);
  EXPECT_EQ(seconds[1], (std::vector<double>{12, 14, 19, 21}));
}

// --- The "gates" JSON ----------------------------------------------------

/// A small recursive-descent JSON validator over `s` (which must
/// outlive it) that keeps the string values it reads. Enough for the
/// gates array: no \u escapes.
struct JsonReader {
  explicit JsonReader(std::string_view text) : s(text) {}

  std::string_view s;
  std::size_t i = 0;
  std::vector<std::string> strings;

  bool Parse() {
    if (!Value()) return false;
    Ws();
    return i == s.size();
  }

  static bool In(std::string_view set, char c) {
    return set.find(c) != std::string_view::npos;
  }
  void Ws() {
    while (i < s.size() && In(" \t\n\r", s[i])) ++i;
  }
  bool Eat(char c) {
    Ws();
    if (i == s.size() || s[i] != c) return false;
    ++i;
    return true;
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (i < s.size()) {
      char c = s[i++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        constexpr std::string_view kEscapes = "\"\\/bfnrt";
        const std::size_t k =
            i < s.size() ? kEscapes.find(s[i++]) : kEscapes.npos;
        if (k == kEscapes.npos) return false;
        c = "\"\\/\b\f\n\r\t"[k];
      }
      *out += c;
    }
    return false;
  }

  bool Value() {
    if (Eat('{')) {
      if (Eat('}')) return true;
      do {
        std::string key;
        if (!String(&key) || !Eat(':') || !Value()) return false;
      } while (Eat(','));
      return Eat('}');
    }
    if (Eat('[')) {
      if (Eat(']')) return true;
      do {
        if (!Value()) return false;
      } while (Eat(','));
      return Eat(']');
    }
    if (i < s.size() && s[i] == '"') {
      strings.emplace_back();
      return String(&strings.back());
    }
    for (const std::string_view word : {"true", "false", "null"}) {
      if (s.substr(i, word.size()) == word) {
        i += word.size();
        return true;
      }
    }
    // A number: JSON's grammar is a subset of from_chars' once the
    // leading character is '-' or a digit.
    if (i == s.size() || !In("-0123456789", s[i])) return false;
    double value = 0;
    const auto [end, ec] =
        std::from_chars(s.data() + i, s.data() + s.size(), value);
    if (ec != std::errc()) return false;
    i = static_cast<std::size_t>(end - s.data());
    return true;
  }
};

TEST(BenchGateTest, GatesJsonParsesWithAQuoteInAName) {
  const std::string quoted = "bench.\"quoted\"\\name";
  const std::vector<Gate> gates = {
      OverheadGate(quoted, {1.0, 1.01}, {1.0, 1.0}, kMaxOverhead),
      MakeGate("bench.nan", std::nan(""), Bound::kBelow, 1e-3),
  };
  const std::string doc = "{\n" + GatesJson(gates) + "}\n";
  JsonReader reader(doc);
  ASSERT_TRUE(reader.Parse()) << doc;
  EXPECT_EQ(reader.strings, (std::vector<std::string>{quoted, "<=", "PASS",
                                                      "bench.nan", "<",
                                                      "FAIL"}));
  EXPECT_NE(doc.find("\"observed\": null"), std::string::npos) << doc;
}

}  // namespace
}  // namespace postblock::bench
